"""Command-line front end over persisted design libraries.

A thin utility layer a downstream user drives from the shell::

    python -m repro.cli info design.json
    python -m repro.cli tree design.json
    python -m repro.cli erc design.json --cell ROW
    python -m repro.cli netlist design.json --cell CHAIN
    python -m repro.cli delay design.json --cell ALU --source in1 --dest out1
    python -m repro.cli select design.json --cell DATAPATH --instance A1
    python -m repro.cli sweep design.json --cell ALU --var width --range 1:8
    python -m repro.cli stats design.json --json
    python -m repro.cli islands design.json --members
    python -m repro.cli plancache-stats design.json --repeat 5
    python -m repro.cli metrics design.json
    python -m repro.cli profile design.json --top 10 --trace round.trace.json

Every command loads a library saved with
:mod:`repro.stem.persistence`, performs one analysis, and prints a
report.  Exit status is non-zero when checks find problems, so the
commands compose into scripts and CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Iterator, List, Optional

from .core import reset_default_context

# Commands import what they use, so importing this module loads only
# the propagation kernel.  Servers add the code sessions hold
# (`_import_session_kernel`); numpy, networkx, spice and selection stay
# out of them.  The `CellLibrary` annotations below are strings and need
# no import.


def _load(path: str, context: Any = None) -> CellLibrary:
    from .stem.persistence import load_library

    with open(path) as handle:
        data = json.load(handle)
    if context is None:
        context = reset_default_context()
    return load_library(data, context=context)


def _exercise(library: CellLibrary) -> None:
    """Drive the library's constraint networks (delay network builds)."""
    for cell in library:
        if cell.delays and cell.subcells:
            cell.build_delay_network()


def _library_variables(library: CellLibrary) -> Iterator[Any]:
    """Every variable a cell, its subcells or its nets hold."""
    for cell in library:
        yield from cell.variables.values()
        for instance in cell.subcells:
            yield from instance.variables.values()
        for net in cell.nets.values():
            yield net.bit_width_var
            yield net.data_type_var
            yield net.electrical_type_var


def _find_instance(cell: Any, name: str) -> Any:
    for instance in cell.subcells:
        if instance.name == name:
            return instance
    raise SystemExit(f"error: cell {cell.name!r} has no subcell {name!r}; "
                     f"have {[i.name for i in cell.subcells]}")


# -- commands -----------------------------------------------------------------

def cmd_info(args: argparse.Namespace, out) -> int:
    library = _load(args.design)
    stats = library.statistics()
    print(f"library {library.name!r}", file=out)
    for key, value in stats.items():
        print(f"  {key}: {value}", file=out)
    print(f"  names: {', '.join(library.names())}", file=out)
    return 0


def cmd_tree(args: argparse.Namespace, out) -> int:
    """Print the inheritance forest with characteristics."""
    library = _load(args.design)

    def describe(cell: Any) -> str:
        flags = " (generic)" if cell.is_generic else ""
        box = cell.bounding_box_var.value
        extra = f"  box={box.extent.x}x{box.extent.y}" if box else ""
        delays = ", ".join(f"{s}->{d}={var.value}"
                           for (s, d), var in cell.delays.items()
                           if var.value is not None)
        if delays:
            extra += f"  delay[{delays}]"
        return f"{cell.name}{flags}{extra}"

    def walk(cell: Any, depth: int) -> None:
        print("  " * depth + describe(cell), file=out)
        for subclass in cell.subclasses:
            walk(subclass, depth + 1)

    for root in library.roots():
        walk(root, 0)
    return 0


def cmd_erc(args: argparse.Namespace, out) -> int:
    from .checking import check_cell

    library = _load(args.design)
    cells = ([library.cell(args.cell)] if args.cell
             else [cell for cell in library if cell.subcells])
    total = 0
    for cell in cells:
        findings = check_cell(cell)
        total += len(findings)
        for finding in findings:
            print(f"{cell.name}: [{finding.rule}] {finding.detail}",
                  file=out)
    print(f"{total} finding(s)", file=out)
    return 1 if total else 0


def cmd_netlist(args: argparse.Namespace, out) -> int:
    from .spice import extract_netlist

    library = _load(args.design)
    cell = library.cell(args.cell)
    netlist = extract_netlist(cell)
    print(netlist.text(), file=out)
    return 0


def cmd_delay(args: argparse.Namespace, out) -> int:
    library = _load(args.design)
    cell = library.cell(args.cell)
    if (args.source, args.dest) not in cell.delays:
        raise SystemExit(f"error: cell {args.cell!r} declares no delay "
                         f"{args.source}->{args.dest}")
    cell.build_delay_network()
    value = cell.delay_value(args.source, args.dest)
    if value is None:
        print(f"{cell.name} {args.source}->{args.dest}: no value "
              f"(missing characteristics or connectivity)", file=out)
        return 1
    print(f"{cell.name} {args.source}->{args.dest}: {value:g}", file=out)
    if args.max is not None and value > args.max:
        print(f"VIOLATION: exceeds --max {args.max:g}", file=out)
        return 1
    return 0


def cmd_select(args: argparse.Namespace, out) -> int:
    from .selection import ModuleSelector, RankedSelector

    library = _load(args.design)
    cell = library.cell(args.cell)
    instance = _find_instance(cell, args.instance)
    if args.rank:
        ranked = RankedSelector().rank(instance)
        if not ranked:
            print("no valid realizations", file=out)
            return 1
        for entry in ranked:
            print(f"{entry.cell.name}  score={entry.score:.3f}  "
                  f"metrics={entry.metrics}", file=out)
        return 0
    selector = ModuleSelector()
    realizations = selector.select_realizations_for(instance)
    if not realizations:
        print("no valid realizations", file=out)
        return 1
    for candidate in realizations:
        print(candidate.name, file=out)
    print(f"({selector.stats})", file=out)
    return 0


def cmd_search(args: argparse.Namespace, out) -> int:
    """Parallel generate-and-test module selection over computation
    spaces: identical ranked results to ``select --rank``, but every
    tentative test runs in an encapsulated space and candidates can be
    evaluated by parallel workers."""
    from .spaces import search_realizations

    library = _load(args.design)
    cell = library.cell(args.cell)
    instance = _find_instance(cell, args.instance)
    result = search_realizations(instance, workers=args.workers,
                                 backend=args.backend,
                                 prune=not args.no_prune)
    if not result.ranking:
        print("no valid realizations", file=out)
        print(f"({result.stats})", file=out)
        return 1
    for entry in result.ranking:
        print(f"{entry.cell.name}  score={entry.score:.3f}  "
              f"metrics={entry.metrics}", file=out)
    print(f"({result.stats})", file=out)
    return 0


def cmd_browse(args: argparse.Namespace, out) -> int:
    """The Cell Browser panes for one cell, textually."""
    from .stem.browser import CellBrowser

    library = _load(args.design)
    browser = CellBrowser(library)
    browser.open(args.cell)
    print(browser.interface_pane(), file=out)
    print(file=out)
    print(browser.structure_pane(), file=out)
    return 0


def cmd_stats(args: argparse.Namespace, out) -> int:
    """Propagation statistics after exercising the design's networks.

    The engine's :class:`PropagationStats` block, routed through the
    metrics snapshot API so output is deterministic (sorted keys) and,
    with ``--json``, machine-readable.
    """
    from .core.plancache import plan_counters
    from .obs import MetricsRegistry

    library = _load(args.design)
    _exercise(library)
    registry = MetricsRegistry.from_stats(library.context.stats)
    for name, value in plan_counters(library.context).items():
        registry.counter(f"engine.stats.{name}").inc(value)
    snapshot = registry.snapshot()
    if args.json:
        json.dump(snapshot, out, indent=2, sort_keys=True)
        print(file=out)
    else:
        for name, value in snapshot.items():
            print(f"{name}: {value}", file=out)
    return 0


def cmd_islands(args: argparse.Namespace, out) -> int:
    """Inspect the constraint-graph islands of a design.

    Loads the design, partitions its constrained variables with
    :func:`~repro.core.sweep.bfs_partition`, then prints the islands:
    count, sizes in deterministic order (largest first, ties by first
    member name), and — with ``--members`` — the variables of each
    island.  ``--json`` emits one JSON object.
    """
    from .core import bfs_partition

    library = _load(args.design)
    _exercise(library)
    constrained = [variable for variable in _library_variables(library)
                   if variable.all_constraints()]
    partition = [sorted(component, key=lambda v: v.qualified_name())
                 for component in bfs_partition(constrained)]
    partition.sort(key=lambda vs: (-len(vs), vs[0].qualified_name()))
    largest = len(partition[0]) if partition else 0
    if args.json:
        report: Any = {
            "islands": len(partition),
            "largest_island": largest,
            "sizes": [len(group) for group in partition],
        }
        if args.members:
            report["members"] = [[v.qualified_name() for v in group]
                                 for group in partition]
        json.dump(report, out, indent=2, sort_keys=True)
        print(file=out)
        return 0
    print(f"{len(partition)} island(s) in {library.name!r} "
          f"(largest {largest})", file=out)
    for index, group in enumerate(partition):
        print(f"  island {index}: {len(group)} variable(s)", file=out)
        if args.members:
            for variable in group:
                print(f"    {variable.qualified_name()}", file=out)
    return 0


def cmd_plancache_stats(args: argparse.Namespace, out) -> int:
    """Plan-cache behaviour under a hot-round workload on the design.

    Installs a :class:`~repro.core.plancache.PlanCache`, loads the
    design, builds its delay networks once, then re-asserts every
    concrete leaf delay characteristic ``--repeat`` times — the
    repeated-entry-variable pattern of interactive design work, which
    is what gets rounds traced, promoted and replayed.  The cache's
    counter block (hits, misses, promotions, deopts, ...) is printed in
    deterministic sorted order; with ``--json`` as one JSON object.
    """
    from .core import PlanCache

    context = reset_default_context()
    cache = PlanCache(context)
    library = _load(args.design, context=context)
    _exercise(library)
    hot_variables = [variable
                     for cell in library if not cell.subcells
                     for variable in cell.delays.values()
                     if variable.value is not None]
    passes = max(1, args.repeat)
    for _ in range(passes):
        for variable in hot_variables:
            variable.set(variable.value)
    stats = cache.stats()
    if args.json:
        json.dump(stats, out, indent=2, sort_keys=True)
        print(file=out)
    else:
        print(f"plan cache after {passes} pass(es) over "
              f"{len(hot_variables)} hot delay variable(s) "
              f"of {library.name!r}:", file=out)
        for name, value in stats.items():
            print(f"  {name}: {value}", file=out)
    return 0


def cmd_metrics(args: argparse.Namespace, out) -> int:
    """Full metrics-registry snapshot of loading + exercising the design."""
    from .obs import Observer

    context = reset_default_context()
    observer = Observer.metrics_only(context).install()
    try:
        library = _load(args.design, context=context)
        _exercise(library)
    finally:
        observer.uninstall()
    snapshot = observer.metrics.snapshot()
    if args.json:
        json.dump(snapshot, out, indent=2, sort_keys=True)
        print(file=out)
    else:
        for name, value in snapshot.items():
            print(f"{name}: {_render_metric(value)}", file=out)
    return 0


def _render_metric(value: Any) -> str:
    if not isinstance(value, dict):
        return str(value)
    if "count" in value:  # histogram: summarize, buckets stay in --json
        return (f"count={value['count']} sum={value['sum']:g} "
                f"min={value['min']:g} max={value['max']:g}")
    return (f"value={value['value']:g} min={value['min']:g} "
            f"max={value['max']:g}")


def cmd_profile(args: argparse.Namespace, out) -> int:
    """Hot-constraint profile of loading + exercising the design."""
    from .obs import Observer, write_chrome_trace

    context = reset_default_context()
    observer = Observer.full(context).install()
    try:
        library = _load(args.design, context=context)
        _exercise(library)
    finally:
        observer.uninstall()
    print(f"hottest constraints of {library.name!r} "
          f"(top {args.top} by cumulative dispatch time):", file=out)
    print(observer.profiler.render(args.top), file=out)
    if args.trace:
        write_chrome_trace(args.trace, observer.spans,
                           metadata={"design": args.design})
        print(f"chrome trace: {args.trace} "
              f"({len(observer.spans.spans)} span(s)) — load in "
              f"chrome://tracing or https://ui.perfetto.dev", file=out)
    return 0


def _sweep_candidates(args: argparse.Namespace) -> List[float]:
    if args.values is not None:
        try:
            return [float(item) for item in args.values.split(",") if item]
        except ValueError:
            raise SystemExit(f"error: --values must be comma-separated "
                             f"numbers, got {args.values!r}")
    spec = args.range
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise SystemExit(f"error: --range must be START:STOP[:STEP], "
                         f"got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise SystemExit(f"error: --range must be numeric, got {spec!r}")
    if step <= 0 or stop < start:
        raise SystemExit("error: --range needs STOP >= START and STEP > 0")
    count = int((stop - start) / step) + 1
    return [start + index * step for index in range(count)]


def cmd_sweep(args: argparse.Namespace, out) -> int:
    """Vectorized what-if sweep of one cell variable.

    Compiles the variable's constraint network into a straight-line
    :class:`~repro.core.sweep.SweepPlan` and evaluates every candidate
    binding in one pass — N what-if questions answered without mutating
    the design or running N propagation rounds.  Exit status is 0 when
    at least one candidate satisfies every checked constraint.
    """
    from .core.sweep import SweepError, compile_sweep

    library = _load(args.design)
    _exercise(library)
    cell = library.cell(args.cell)
    owner = _find_instance(cell, args.instance) if args.instance else cell
    if args.var not in owner.variables:
        where = (f"instance {args.instance!r} of cell {args.cell!r}"
                 if args.instance else f"cell {args.cell!r}")
        raise SystemExit(f"error: {where} has no variable {args.var!r}; "
                         f"have {sorted(owner.variables)}")
    variable = owner.variables[args.var]
    candidates = _sweep_candidates(args)
    if not candidates:
        raise SystemExit("error: no candidate values to sweep")
    try:
        plan = compile_sweep([variable], context=library.context)
        result = plan.run(candidates, backend=args.backend)
    except SweepError as error:
        raise SystemExit(f"error: {error}")
    outputs = result.as_dict()
    mask = [bool(flag) for flag in result.mask]
    if args.json:
        json.dump({"backend": result.backend, "cell": args.cell,
                   "var": args.var, "candidates": candidates,
                   "outputs": {name: list(column)
                               for name, column in outputs.items()},
                   "satisfied": mask,
                   "satisfied_count": result.satisfied_count},
                  out, indent=2, sort_keys=True)
        print(file=out)
        return 0 if result.satisfied_count else 1
    names = sorted(outputs)
    print(f"sweep of {args.cell}.{args.var} over {len(candidates)} "
          f"candidate(s) [{result.backend} backend]:", file=out)
    print("  ".join([f"{args.var:>12}"] + [f"{name:>16}" for name in names]
                    + ["ok"]), file=out)
    for index, candidate in enumerate(candidates):
        row = [f"{candidate:>12g}"]
        row += [f"{outputs[name][index]:>16g}" for name in names]
        row.append("yes" if mask[index] else "NO")
        print("  ".join(row), file=out)
    print(f"{result.satisfied_count}/{len(candidates)} candidate(s) "
          f"satisfy every constraint", file=out)
    return 0 if result.satisfied_count else 1


def _import_session_kernel() -> None:
    """Load the cell-library code that every session holds, before serving.

    Sessions import it on first open.  In a server that first open is
    often a recovery or, on a fleet follower, a failover, with a client
    waiting for it.
    """
    from .stem import persistence  # noqa: F401


def cmd_serve(args: argparse.Namespace, out) -> int:
    """Serve durable design sessions over newline-delimited JSON.

    Prints one ``listening on host:port`` line (the port is allocated by
    the OS when ``--port 0``) and then blocks until a ``shutdown``
    request or Ctrl-C.  Crash-safety comes from the sessions' own
    write-ahead journals — ``kill -9`` loses no acknowledged mutation.
    """
    import asyncio

    from .session.server import SessionServer

    _import_session_kernel()
    round_budget = None
    if args.round_budget_steps is not None \
            or args.round_budget_seconds is not None:
        from .core import RoundBudget
        round_budget = RoundBudget(max_steps=args.round_budget_steps,
                                   max_seconds=args.round_budget_seconds)
    server = SessionServer(args.root, host=args.host, port=args.port,
                           fsync=args.fsync,
                           max_frame_bytes=args.max_frame_bytes,
                           max_connections=args.max_connections,
                           drain_timeout=args.drain_timeout,
                           round_budget=round_budget,
                           store=args.store)

    async def run() -> None:
        await server.start()
        print(f"repro session server listening on "
              f"{server.host}:{server.port} "
              f"(root={args.root} fsync={args.fsync})", file=out)
        out.flush()
        await server.run()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_fleet_worker(args: argparse.Namespace, out) -> int:
    """Serve one fleet worker (a session server + replication frames).

    Prints the same ``listening on host:port`` banner as ``serve`` so
    harnesses can parse the allocated port, then blocks.
    """
    import asyncio

    from .fleet.worker import WorkerServer

    _import_session_kernel()
    server = WorkerServer(args.root, worker_id=args.id, host=args.host,
                          port=args.port, fsync=args.fsync,
                          store=args.store)

    async def run() -> None:
        await server.start()
        print(f"repro fleet worker {args.id} listening on "
              f"{server.host}:{server.port} "
              f"(root={args.root} fsync={args.fsync})", file=out)
        out.flush()
        await server.run()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_fleet(args: argparse.Namespace, out) -> int:
    """Run a whole fleet: N worker subprocesses plus the router.

    Each worker gets its own root directory ``<root>/w<i>`` (its own
    "disk").  The router prints one ``fleet router listening on
    host:port`` banner once every worker is up, and terminates the
    workers when it stops.  Clients speak to the router exactly as they
    would to a single ``repro serve`` — sharding, replication and
    failover are invisible.  SIGTERM stops the fleet the way Ctrl-C
    does, workers included.
    """
    import asyncio
    import re
    import signal
    import subprocess
    import sys

    from .fleet.router import Router

    def terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, terminate)
    procs = []
    addresses = {}
    try:
        for index in range(args.workers):
            worker_id = f"w{index}"
            worker_root = os.path.join(args.root, worker_id)
            argv = [sys.executable, "-m", "repro.cli", "fleet-worker",
                    "--root", worker_root, "--id", worker_id,
                    "--host", args.host, "--port", "0",
                    "--fsync", args.fsync]
            if args.store is not None:
                argv += ["--store", args.store]
            proc = subprocess.Popen(
                argv,
                env={**os.environ,
                     "PYTHONPATH": os.pathsep.join(sys.path)},
                stdout=subprocess.PIPE, text=True)
            procs.append(proc)
            banner = proc.stdout.readline()
            match = re.search(r"listening on ([\d.]+):(\d+)", banner)
            if not match:
                raise SystemExit(
                    f"error: worker {worker_id} failed to start "
                    f"(banner: {banner!r})")
            addresses[worker_id] = (match.group(1), int(match.group(2)))
        router = Router(addresses, host=args.host, port=args.port,
                        replication=args.replication,
                        repl_interval=args.repl_interval,
                        request_timeout=args.request_timeout)

        async def run() -> None:
            await router.start()
            print(f"repro fleet router listening on "
                  f"{router.host}:{router.port} "
                  f"(workers={args.workers} root={args.root} "
                  f"replication={args.replication})", file=out)
            out.flush()
            await router.run()

        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
    return 0


def cmd_session_verify(args: argparse.Namespace, out) -> int:
    """Recover a session read-only and report what the journal holds.

    With ``--fingerprint`` the canonical state digest (values,
    justifications, violations, stats) is printed as JSON — comparing
    two of these is how the test suite asserts replay determinism.
    """
    from .session import Session
    from .store import resolve_store

    store = resolve_store(args.store, args.root)
    session_store = store.session(args.name)
    if not session_store.exists():
        raise SystemExit(f"error: no session {args.name!r} in "
                         f"{store.location!r}")
    with Session(args.name, store=session_store,
                 read_only=True) as session:
        if args.fingerprint:
            json.dump(session.fingerprint(), out, indent=2, sort_keys=True)
            print(file=out)
        else:
            print(f"session {session.name!r}: position={session.position} "
                  f"replayed={session.replayed_entries} "
                  f"vars={len(session.vars)} "
                  f"constraints={len(session.constraints)} "
                  f"violations={len(session.violations)}", file=out)
    store.close()
    return 0


def cmd_store_scrub(args: argparse.Namespace, out) -> int:
    """Verify (and repair) a session's durable state in any backend.

    Walks every checkpoint and journal segment, truncates a torn tail,
    and — with ``--repair-from`` naming a healthy twin store (say, a
    fleet follower's root) — re-ships damaged or missing sequence
    ranges from it.  Exits 1 when damage remains.
    """
    from .store import resolve_store
    from .store.scrub import scrub_session

    store = resolve_store(args.store, args.root)
    session_store = store.session(args.session)
    if not session_store.exists():
        raise SystemExit(f"error: no session {args.session!r} in "
                         f"{store.location!r}")
    source_store = None
    source = None
    if args.repair_from:
        source_store = resolve_store(args.repair_from, args.root)
        source = source_store.session(args.session)
    report = scrub_session(session_store, source=source,
                           repair=not args.check)
    report["session"] = args.session
    if args.json:
        json.dump(report, out, indent=2, sort_keys=True)
        print(file=out)
    else:
        state = ("clean" if report["clean"]
                 else "repaired" if report["ok"] else "damaged")
        print(f"session {args.session!r} [{report['backend']}]: {state} "
              f"(segments={report['segments']} "
              f"entries={report['entries']} "
              f"checkpoints={report['checkpoints']})", file=out)
        for finding in report["damage"]:
            print(f"  damage: {finding}", file=out)
        for finding in report["repaired"]:
            print(f"  repaired: {finding}", file=out)
        for need in report["needs"]:
            print(f"  needs re-ship: after={need['after']} "
                  f"until={need['until']}", file=out)
    store.close()
    if source_store is not None:
        source_store.close()
    return 0 if report["ok"] else 1


def cmd_store_compact(args: argparse.Namespace, out) -> int:
    """Fold cold journal segments of a closed session into a checkpoint.

    Replays the session up to a segment boundary, publishes that state
    as a checkpoint, and prunes the segments it covers — recovery cost
    stays proportional to the hot tail.  Never run this against a
    session a live server currently has open.
    """
    from .store import resolve_store
    from .store.compact import compact_session

    store = resolve_store(args.store, args.root)
    session_store = store.session(args.session)
    if not session_store.exists():
        raise SystemExit(f"error: no session {args.session!r} in "
                         f"{store.location!r}")
    report = compact_session(session_store, name=args.session,
                             keep_segments=args.keep_segments,
                             keep_checkpoints=args.keep_checkpoints)
    if args.json:
        json.dump(report, out, indent=2, sort_keys=True)
        print(file=out)
    elif report["performed"]:
        print(f"session {args.session!r}: checkpoint at "
              f"seq {report['checkpoint_seq']}, pruned "
              f"{len(report['pruned_segments'])} segment(s)", file=out)
    else:
        reason = report.get("error", "nothing to fold")
        print(f"session {args.session!r}: no compaction ({reason})",
              file=out)
    store.close()
    return 0


# -- entry point ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Analyses over persisted IC design libraries")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="library statistics")
    p_info.add_argument("design")
    p_info.set_defaults(fn=cmd_info)

    p_tree = sub.add_parser("tree", help="inheritance forest")
    p_tree.add_argument("design")
    p_tree.set_defaults(fn=cmd_tree)

    p_erc = sub.add_parser("erc", help="electrical rule check")
    p_erc.add_argument("design")
    p_erc.add_argument("--cell", help="check only this cell")
    p_erc.set_defaults(fn=cmd_erc)

    p_net = sub.add_parser("netlist", help="extract a SPICE net-list")
    p_net.add_argument("design")
    p_net.add_argument("--cell", required=True)
    p_net.set_defaults(fn=cmd_netlist)

    p_delay = sub.add_parser("delay", help="evaluate a delay characteristic")
    p_delay.add_argument("design")
    p_delay.add_argument("--cell", required=True)
    p_delay.add_argument("--source", required=True)
    p_delay.add_argument("--dest", required=True)
    p_delay.add_argument("--max", type=float, default=None,
                         help="fail when the delay exceeds this bound")
    p_delay.set_defaults(fn=cmd_delay)

    p_select = sub.add_parser("select", help="module selection for a "
                                             "generic instance")
    p_select.add_argument("design")
    p_select.add_argument("--cell", required=True,
                          help="the containing composite cell")
    p_select.add_argument("--instance", required=True,
                          help="the generic subcell instance name")
    p_select.add_argument("--rank", action="store_true",
                          help="rank valid realizations by merit")
    p_select.set_defaults(fn=cmd_select)

    p_search = sub.add_parser("search", help="parallel module-selection "
                                             "search over computation "
                                             "spaces")
    p_search.add_argument("design")
    p_search.add_argument("--cell", required=True,
                          help="cell containing the generic instance")
    p_search.add_argument("--instance", required=True,
                          help="name of the generic instance")
    p_search.add_argument("--workers", type=int, default=1,
                          help="parallel evaluators (default 1)")
    p_search.add_argument("--backend", default="auto",
                          choices=("auto", "serial", "thread", "fork"),
                          help="evaluation backend (default auto)")
    p_search.add_argument("--no-prune", action="store_true",
                          help="disable generic-subtree pruning")
    p_search.set_defaults(fn=cmd_search)

    p_browse = sub.add_parser("browse", help="cell browser panes for a cell")
    p_browse.add_argument("design")
    p_browse.add_argument("--cell", required=True)
    p_browse.set_defaults(fn=cmd_browse)

    p_stats = sub.add_parser("stats", help="propagation statistics")
    p_stats.add_argument("design")
    p_stats.add_argument("--json", action="store_true",
                         help="machine-readable JSON snapshot")
    p_stats.set_defaults(fn=cmd_stats)

    p_islands = sub.add_parser("islands", help="constraint-graph island "
                                               "partition of a design")
    p_islands.add_argument("design")
    p_islands.add_argument("--members", action="store_true",
                           help="list each island's variables")
    p_islands.add_argument("--json", action="store_true",
                           help="machine-readable JSON report")
    p_islands.set_defaults(fn=cmd_islands)

    p_plan = sub.add_parser("plancache-stats",
                            help="plan-cache hit/miss/deopt counters while "
                                 "repeatedly exercising the design")
    p_plan.add_argument("design")
    p_plan.add_argument("--repeat", type=int, default=5,
                        help="re-assertion passes (repeats make rounds hot: "
                             "register, trace twice, promote, replay)")
    p_plan.add_argument("--json", action="store_true",
                        help="machine-readable JSON snapshot")
    p_plan.set_defaults(fn=cmd_plancache_stats)

    p_metrics = sub.add_parser("metrics", help="observability metrics "
                                               "snapshot (counters, gauges, "
                                               "histograms)")
    p_metrics.add_argument("design")
    p_metrics.add_argument("--json", action="store_true",
                           help="machine-readable JSON snapshot")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_profile = sub.add_parser("profile", help="hot-constraint profile "
                                               "and optional Chrome trace")
    p_profile.add_argument("design")
    p_profile.add_argument("--top", type=int, default=10,
                           help="number of constraints to report")
    p_profile.add_argument("--trace", metavar="PATH",
                           help="write a Chrome-trace JSON (chrome://tracing "
                                "/ Perfetto) to PATH")
    p_profile.set_defaults(fn=cmd_profile)

    p_sweep = sub.add_parser("sweep", help="vectorized what-if sweep of "
                                           "one cell variable")
    p_sweep.add_argument("design")
    p_sweep.add_argument("--cell", required=True,
                         help="cell owning the swept variable")
    p_sweep.add_argument("--var", required=True,
                         help="cell (or instance) variable name to sweep")
    p_sweep.add_argument("--instance", default=None,
                         help="sweep a variable of this subcell instance "
                              "instead of the cell itself")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--values",
                       help="comma-separated candidate values")
    group.add_argument("--range", metavar="START:STOP[:STEP]",
                       help="inclusive numeric candidate range")
    p_sweep.add_argument("--backend", default="auto",
                         choices=["auto", "numpy", "python"],
                         help="array backend (auto picks numpy when "
                              "importable)")
    p_sweep.add_argument("--json", action="store_true",
                         help="machine-readable JSON result")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_serve = sub.add_parser("serve", help="serve durable design sessions "
                             "over newline-delimited JSON")
    p_serve.add_argument("--root", required=True,
                         help="directory holding one subdirectory per "
                         "session (journal + checkpoints)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="TCP port (0 lets the OS choose; the chosen "
                         "port is printed on startup)")
    p_serve.add_argument("--fsync", default="always",
                         choices=["always", "rotate", "never"],
                         help="journal durability policy")
    p_serve.add_argument("--max-connections", type=int, default=64,
                         help="client connection limit; excess accepts "
                              "get a graceful 'overloaded' frame")
    p_serve.add_argument("--max-frame-bytes", type=int, default=1 << 20,
                         help="request frame size limit; oversized frames "
                              "answer 'bad-request' and are discarded")
    p_serve.add_argument("--round-budget-steps", type=int, default=None,
                         help="propagation watchdog: abort any round "
                              "dispatching more than N events")
    p_serve.add_argument("--round-budget-seconds", type=float, default=None,
                         help="propagation watchdog: abort any round "
                              "running longer than S seconds")
    p_serve.add_argument("--drain-timeout", type=float, default=5.0,
                         help="seconds to let in-flight requests finish "
                              "on shutdown")
    p_serve.add_argument("--store", default=None, metavar="BACKEND[:PATH]",
                         help="durable storage backend: file (default), "
                              "sqlite[:db-path] or object[:bucket-path]")
    p_serve.set_defaults(fn=cmd_serve)

    p_fworker = sub.add_parser("fleet-worker", help="serve one fleet "
                               "worker (session server + replication "
                               "frames)")
    p_fworker.add_argument("--root", required=True,
                           help="this worker's own session root")
    p_fworker.add_argument("--id", required=True,
                           help="worker id (its name on the hash ring)")
    p_fworker.add_argument("--host", default="127.0.0.1")
    p_fworker.add_argument("--port", type=int, default=0)
    p_fworker.add_argument("--fsync", default="always",
                           choices=["always", "rotate", "never"])
    p_fworker.add_argument("--store", default=None,
                           metavar="BACKEND[:PATH]",
                           help="durable storage backend: file (default), "
                                "sqlite[:db-path] or object[:bucket-path]")
    p_fworker.set_defaults(fn=cmd_fleet_worker)

    p_fleet = sub.add_parser("fleet", help="run a sharded session fleet: "
                             "N worker subprocesses plus the router")
    p_fleet.add_argument("--root", required=True,
                         help="fleet root; each worker owns <root>/w<i>")
    p_fleet.add_argument("--workers", type=int, default=2)
    p_fleet.add_argument("--host", default="127.0.0.1")
    p_fleet.add_argument("--port", type=int, default=0,
                         help="router TCP port (0 lets the OS choose)")
    p_fleet.add_argument("--fsync", default="always",
                         choices=["always", "rotate", "never"],
                         help="journal durability policy on every worker")
    p_fleet.add_argument("--replication", default="sync",
                         choices=["sync", "async"],
                         help="ship WAL lines before acknowledging "
                              "(sync) or on a timer only (async)")
    p_fleet.add_argument("--repl-interval", type=float, default=0.25,
                         help="background replication pass interval "
                              "(checkpoints + gap repair); 0 disables")
    p_fleet.add_argument("--request-timeout", type=float, default=30.0,
                         help="seconds the router waits on a worker "
                              "before answering 'timeout'")
    p_fleet.add_argument("--store", default=None, metavar="BACKEND[:PATH]",
                         help="durable storage backend on every worker "
                              "(relative locations resolve under each "
                              "worker's own root)")
    p_fleet.set_defaults(fn=cmd_fleet)

    p_sverify = sub.add_parser("session-verify", help="recover a session "
                               "read-only and report its state")
    p_sverify.add_argument("--root", required=True)
    p_sverify.add_argument("--name", required=True)
    p_sverify.add_argument("--fingerprint", action="store_true",
                           help="print the canonical state digest as JSON")
    p_sverify.add_argument("--store", default=None,
                           metavar="BACKEND[:PATH]",
                           help="durable storage backend: file (default), "
                                "sqlite[:db-path] or object[:bucket-path]")
    p_sverify.set_defaults(fn=cmd_session_verify)

    p_scrub = sub.add_parser("store-scrub", help="verify (and repair) a "
                             "session's durable state in any backend")
    p_scrub.add_argument("--root", required=True)
    p_scrub.add_argument("--session", required=True)
    p_scrub.add_argument("--store", default=None, metavar="BACKEND[:PATH]",
                         help="backend holding the session (file default)")
    p_scrub.add_argument("--repair-from", default=None,
                         metavar="BACKEND[:PATH]",
                         help="healthy twin store (e.g. a fleet "
                              "follower's root) to re-ship damaged or "
                              "missing ranges from")
    p_scrub.add_argument("--check", action="store_true",
                         help="report only; repair nothing")
    p_scrub.add_argument("--json", action="store_true",
                         help="print the full scrub report as JSON")
    p_scrub.set_defaults(fn=cmd_store_scrub)

    p_compact = sub.add_parser("store-compact", help="fold cold journal "
                               "segments of a closed session into a "
                               "checkpoint")
    p_compact.add_argument("--root", required=True)
    p_compact.add_argument("--session", required=True)
    p_compact.add_argument("--store", default=None,
                           metavar="BACKEND[:PATH]",
                           help="backend holding the session (file "
                                "default)")
    p_compact.add_argument("--keep-segments", type=int, default=1,
                           help="newest segments to keep as the "
                                "replayable hot tail")
    p_compact.add_argument("--keep-checkpoints", type=int, default=2)
    p_compact.add_argument("--json", action="store_true",
                           help="print the compaction report as JSON")
    p_compact.set_defaults(fn=cmd_store_compact)
    return parser


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except BrokenPipeError:
        return 0  # downstream consumer (head, less) closed the pipe
    except (KeyError, ValueError, json.JSONDecodeError) as error:
        # user-input errors get one clean line, not a traceback
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
