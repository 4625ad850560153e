"""Served-design benchmark: entry point.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload hier-check --seed 1 \\
        --seconds 45 --trace 0

Workloads (``workloads.py``): ``hier-check`` (hierarchical delay
checking through ``repro serve``) and ``explore-fleet`` (what-if
exploration through ``repro fleet`` with two workers and sync
replication).  The server
processes run the repository's ``src`` tree with the shipped defaults
(file store, ``fsync=always``).

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones of a traced run (see ``spans.py`` and
``layers.json``).  The bounded latency and CPU figures are scaled to a
nominal host speed (``bench.SCALED``).  The line before the result,
``{"servebench": {...}}``, carries the machine fingerprint, the CPU
time the host stole during the timed phase, the exact warm-up work
counters, sample counts, the per-window figures with their reference
timings, the unscaled medians and the pooled figures (p99 latencies
among them), the failed fraction, the oracle's check count and,
traced, each layer's share of the client-observed time and of the
server's service time.  ``--smoke``
runs a tiny design for about a second, for ``test_servebench.py``.

Exit status: 0 on a correct run; 1 when the oracle or the teardown
check failed (the result line says ``"correct": false``); 2 when
nothing could be measured, with no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny design, one set-up, for self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources at {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[section]}
    try:
        correct, attempted, failed, metrics, detail = bench.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            smoke=args.smoke, setups=2 if args.smoke else 4)
    except bench.RunFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    missing = sorted(set(units) - set(metrics))
    if correct and missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        correct = False
    print(json.dumps({"servebench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
