"""Threaded load generator for the session protocol.

Drives a server (single ``repro serve`` or a fleet router — same
protocol) with N concurrent retrying clients and reports latency
percentiles and throughput.  Importable (``run_load``) for benchmarks
and smoke tests, runnable as a script for ad-hoc measurements:

    python tools/loadgen.py --host 127.0.0.1 --port 7777 \
        --clients 16 --requests 200

Each client owns one session (``load-c<i>``) and issues ``assign``
mutations with a deterministic value sequence, so a run against a
fleet exercises sharding, rid-carrying retries and synchronous
replication on every request.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional

from repro.session.client import SessionClient


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (q in 0..100)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _client_worker(host: str, port: int, index: int, requests: int,
                   session_prefix: str, retries: int,
                   latencies: List[float], errors: List[str],
                   barrier: threading.Barrier) -> None:
    try:
        with SessionClient(host, port, retries=retries, backoff=0.05,
                           retry_seed=index) as client:
            handle = client.session(f"{session_prefix}{index}")
            var = handle.make_var("load", 0)
            barrier.wait(timeout=30)
            samples = []
            for n in range(requests):
                started = time.perf_counter()
                handle.assign(var, n)
                samples.append(time.perf_counter() - started)
            latencies.extend(samples)
    except Exception as error:  # noqa: BLE001 - reported to the caller
        errors.append(f"client {index}: {error}")
        try:
            barrier.wait(timeout=1)
        except threading.BrokenBarrierError:
            pass


def run_load(host: str, port: int, *, clients: int = 8,
             requests: int = 100, retries: int = 4,
             session_prefix: str = "load-c") -> Dict[str, Any]:
    """Drive the server and return latency/throughput statistics.

    Returns ``{"clients", "requests", "errors",
    "total_requests", "seconds", "throughput_rps", "p50_ms", "p90_ms",
    "p99_ms", "max_ms"}``.  ``errors`` lists client failures verbatim —
    an empty list is the success criterion.
    """
    latencies: List[float] = []
    errors: List[str] = []
    barrier = threading.Barrier(clients + 1)
    threads = [
        threading.Thread(
            target=_client_worker,
            args=(host, port, index, requests, session_prefix, retries,
                  latencies, errors, barrier),
            daemon=True)
        for index in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)  # all sessions opened; start the clock
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    total = len(latencies)
    return {
        "clients": clients,
        "requests": requests,
        "errors": errors,
        "total_requests": total,
        "seconds": round(elapsed, 4),
        "throughput_rps": round(total / elapsed, 1) if elapsed else 0.0,
        "p50_ms": round(percentile(latencies, 50) * 1000, 3),
        "p90_ms": round(percentile(latencies, 90) * 1000, 3),
        "p99_ms": round(percentile(latencies, 99) * 1000, 3),
        "max_ms": round(max(latencies) * 1000, 3) if latencies else 0.0,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="threaded load generator for the session protocol")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=100,
                        help="mutations per client")
    parser.add_argument("--retries", type=int, default=4)
    args = parser.parse_args(argv)
    report = run_load(args.host, args.port, clients=args.clients,
                      requests=args.requests, retries=args.retries)
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    print()
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
