"""One benchmark run: set up, time a closed loop, crash, recover, verify.

A run of workload W with seed N:

1. **Set-up**, ``setups`` times: start the server processes through the
   CLI, open the session, build the design over the protocol, run
   ``warmup`` requests.  ``setup_s`` is the time from starting the
   processes to the end of warm-up, less the CPU time the host stole
   meanwhile, scaled to the nominal host speed by a bare interpreter's
   start (``machine.start_seconds``): starting the servers is most of
   it, and between runs the two swung together by almost half.  Only
   the last set-up is kept; the exact work counters are the ``stats``
   frame deltas, journal bytes and retries over its warm-up, which are
   the same for every run with the same seed.
2. **Crash**: record the session's fingerprint, kill -9 the process
   holding it, and time until it answers with that fingerprint again;
   ``recover_scaled_s`` is that time, less the CPU time stolen
   meanwhile, scaled to the nominal host speed (``recover_scale``).
   The crash comes right after a set-up, so the replayed journal (build
   plus warm-up) is the same on every run; after the timed phase a
   faster server would leave a longer journal and recover more slowly.
   On ``repro serve`` the last set-up crashes five times, restarting
   the server each time, and the timed phase runs on the recovered
   server.  A fleet cannot go on without the killed
   primary worker, so there every set-up but the last crashes once,
   failing over to the follower.
3. **Timed phase**: one client, one connection and one session, sending
   requests back to back (closed loop) for ``seconds``.  Every
   ``REFERENCE_EVERY`` seconds, between two requests, the client also
   times ``machine.reference_work``.  Latency percentiles, throughput
   and server CPU per request are medians of their values in
   ``WINDOWS`` equal windows; the bounded ones are scaled, window by
   window, to the host speed at which the reference takes
   ``machine.REFERENCE_US`` and, for latencies, to the part of the
   window the host did not steal (see ``SCALED``).  A refused request is
   counted as failed and the loop goes on; a wrong answer or a lost
   connection ends the run.  Then the final state is checked, and a
   fleet's primary is killed once more to check the failover of the
   longer journal.  ``setup_s`` and ``recover_scaled_s`` are medians of
   their set-ups and recoveries (a fleet's: the fastest failover, see
   ``recover_scale``).
4. **Teardown** through the ``shutdown`` frame; no server process may
   outlive the run.

The benchmark and every server process it starts run on one CPU (see
``machine.pin_one_cpu``).  Every answer, the acknowledged final state
and the recovered state are checked against the oracle of
``workloads.py``.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from oracle import OracleMismatch, Tally
from repro.fleet.hashring import HashRing
from repro.session.client import ServerError
import machine
import servers
import spans
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
WORK = os.path.join(CHECKOUT, ".servebench")
TRACEHOOK = os.path.join(HERE, "tracehook")
#: The timed phase is cut into this many equal windows; each latency,
#: throughput and CPU figure is the median of its per-window values.
WINDOWS = 45
#: Seconds between two timings of ``machine.reference_work`` in the
#: timed phase (about 6% of the loop's time).
REFERENCE_EVERY = 0.005
#: The bounded timing figures and the window figure each is made from:
#: that figure times ``REFERENCE_US`` over the window's median reference
#: time and, for latencies, times the share of the window the host left
#: the benchmark's CPU (``steal``; CPU time leaves stolen time out
#: already).  On a shared host the speed at which the benchmark's CPU
#: runs swings by up to half within seconds and between runs, with no
#: stolen time to show it; the reference, timed on the same CPU between
#: requests, slows with it.  The unscaled figures are in the detail
#: line.
SCALED = {"write_p50_scaled_ms": ("write_p50_ms", True),
          "read_p50_scaled_ms": ("read_p50_ms", True),
          "server_cpu_scaled_us_per_op": ("server_cpu_us_per_op", False)}
#: Seconds between killing a fleet worker and the next request.  The
#: router's replication loop wakes every 0.25 s; by 0.3 s it is always
#: retrying the dead worker under the session lock, so every run times
#: the same failover path: the loop's reconnect backoff, then the
#: request's own.  A request sent sooner may or may not find the loop
#: there, and the time jumps between about 0.5 s and 1.1 s.  The pause
#: is the benchmark's, so the recovery time starts after it.
FAILOVER_PAUSE = 0.3
#: A run with more refused requests than this stops: it no longer
#: measures the workload it names.
MAX_FAILED = 100
#: ``server_rss_mb`` is the servers' peak RSS once this many timed
#: requests are answered: it covers serving, but not a growth that
#: follows throughput (the undo history grows with every write).
RSS_AFTER = 2000
#: Counters taken from the ``stats`` frame around warm-up.
STATS_COUNTERS = ("rounds", "inference_runs", "constraint_activations",
                  "propagated_assignments", "plan_hits", "plan_chain_hits",
                  "plan_deopts")


class RunFailed(RuntimeError):
    """The run could not be measured (a server did not start, ...)."""


class Connection:
    """The client's connection, session and oracle model."""

    def __init__(self, group: servers.ServerGroup, name: str, model: Any,
                 client_id: str, retry_seed: int) -> None:
        self.name = name
        self.model = model
        self.retries = 0
        self.attempted = 0
        self.failed = 0
        #: ``(is_write, latency, finished_at)`` of every answered timed
        #: request.
        self.samples: List[Tuple[bool, float, float]] = []
        self.untimed_writes = 0
        self.connect(group, client_id, retry_seed)

    def connect(self, group: servers.ServerGroup, client_id: str,
                retry_seed: int) -> None:
        """(Re)connect and open the session.  A new connection needs a
        new ``client_id``: request ids already journaled are replayed,
        not applied."""
        self.client = group.client(retries=4, backoff=0.05,
                                   retry_seed=retry_seed,
                                   client_id=client_id)
        sleep = self.client.retry.sleep

        def counted(attempt: int) -> None:
            self.retries += 1
            sleep(attempt)

        self.client.retry.sleep = counted
        self.handle = self.client.session(self.name)

    def run_op(self, timed: bool = True) -> None:
        """Send the model's next request and check the answer.

        A refused request (an error frame other than an expected
        ``violation``) leaves the model as it was, since the server must
        not have applied it, and counts as failed; untimed, or past
        ``MAX_FAILED``, it ends the run, as does a lost connection.  A
        wrong answer raises :class:`OracleMismatch`.  Only ``timed``
        requests count as attempted and keep a sample.
        """
        saved = self.model.snapshot()
        op = self.model.next_op()
        self.attempted += timed
        kind = None
        result = None
        start = time.perf_counter()
        try:
            result = op.send(self.handle)
        except ServerError as error:
            kind = error.kind
        except OSError as error:
            self.failed += timed
            raise RunFailed(f"{self.name} {op.cmd}: {error}") from error
        finished = time.perf_counter()
        if kind not in (None, "violation"):
            self.model.restore(saved)
            self.failed += timed
            if not timed or self.failed > MAX_FAILED:
                raise RunFailed(f"{self.name} {op.cmd}: server error {kind}"
                                f" ({self.failed} failed)")
            return
        op.check(result, kind)
        if timed:
            self.samples.append((op.write, finished - start, finished))
        else:
            self.untimed_writes += op.write

    def close(self) -> None:
        self.client.close()


def server_env(span_dir: Optional[str]) -> Dict[str, str]:
    env = dict(os.environ)
    path = [SRC]
    if span_dir is not None:
        path.insert(0, TRACEHOOK)
        env["SERVEBENCH_SPAN_DIR"] = span_dir
    else:
        env.pop("SERVEBENCH_SPAN_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def window_figures(samples: List[Tuple[bool, float, float]], start: float,
                   width: float, end: float, cpu: List[float],
                   steal: List[float], refs: List[Tuple[float, float]]
                   ) -> List[Dict[str, Optional[float]]]:
    """Latency percentiles, throughput, server CPU per request, the
    stolen CPU time and the median reference time of each of the
    ``WINDOWS`` windows of the timed phase, ``width`` seconds each.  A
    request or reference timing belongs to the window it finished in;
    the last window runs on to ``end``, past the deadline, to take in
    the request still in flight then.  A percentile of a window without
    such requests is None."""
    def window(finished: float) -> int:
        return max(0, min(int((finished - start) / width), WINDOWS - 1))

    groups: List[List[Tuple[bool, float]]] = [[] for _ in range(WINDOWS)]
    for write, latency, finished in samples:
        groups[window(finished)].append((write, latency))
    ref_groups: List[List[float]] = [[] for _ in range(WINDOWS)]
    for finished, seconds in refs:
        ref_groups[window(finished)].append(seconds)
    overall = statistics.median(seconds for _, seconds in refs)
    figures = []
    for index, group in enumerate(groups):
        writes = sorted(lat for write, lat in group if write)
        reads = sorted(lat for write, lat in group if not write)
        seconds = width if index < WINDOWS - 1 \
            else end - start - index * width
        figures.append({
            "write_p50_ms": percentile(writes, 50, 1e3),
            "write_p99_ms": percentile(writes, 99, 1e3),
            "read_p50_ms": percentile(reads, 50, 1e3),
            "read_p99_ms": percentile(reads, 99, 1e3),
            "ops_per_s": len(group) / seconds,
            "server_cpu_us_per_op":
                (cpu[index + 1] - cpu[index]) * 1e6 / max(1, len(group)),
            "seconds": seconds,
            "steal_s": steal[index + 1] - steal[index],
            "reference_us": statistics.median(ref_groups[index] or
                                              [overall]) * 1e6,
        })
    return figures


def window_median(windows: List[Dict[str, Optional[float]]], name: str,
                  scaled: bool = False, unstolen: bool = False) -> float:
    """Median over the windows that have figure ``name``; ``scaled``
    scales each to the reference speed first, ``unstolen`` to the share
    of the window the CPU was not stolen (see ``SCALED``)."""
    values = []
    for window in windows:
        value = window[name]
        if value is None:
            continue
        if scaled:
            value *= machine.REFERENCE_US / window["reference_us"]
        if unstolen:
            value *= 1.0 - window["steal_s"] / window["seconds"]
        values.append(value)
    return statistics.median(values) if values else 0.0


def percentile(ordered: List[float], q: float,
               unit: float = 1.0) -> Optional[float]:
    """Linear-interpolated percentile of sorted samples (q in 0..100),
    times ``unit``; None without samples."""
    if not ordered:
        return None
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return unit * (ordered[low] + (ordered[high] - ordered[low])
                   * (rank - low))


class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool, smoke: bool, setups: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = workload.smoke_size if smoke else workload.size
        self.warmup = max(2, workload.warmup // 10) if smoke \
            else workload.warmup
        self.setups = setups
        self.recover_cycles = 1 if smoke else 5
        self.rss_after = RSS_AFTER // 10 if smoke else RSS_AFTER
        self.dir = os.path.join(WORK, f"{workload.name}-s{seed}-"
                                      f"p{os.getpid()}")
        self.machine = machine.fingerprint(WORK, seed)
        self.cpu = self.machine["pinned_cpu"] = machine.pin_one_cpu()
        self.tally = Tally()
        self.name = f"{workload.name}-s{seed}"
        #: The fleet worker holding the session, found with the
        #: router's own ring.
        self.primary = HashRing(["w0", "w1"], vnodes=64).lookup(self.name) \
            if workload.kind == "fleet" else None
        self.groups: List[servers.ServerGroup] = []
        self.conn: Optional[Connection] = None
        self.errors: List[str] = []
        self.setup_times: List[float] = []
        self.setup_steal: List[float] = []
        self.recover_times: List[float] = []
        self.recover_steal: List[float] = []
        self.rss_mb = 0.0
        self.rss_at = 0
        self.recover_scaled: List[float] = []
        self.setup_scaled: List[float] = []

    def steal(self) -> float:
        return machine.steal_seconds(self.cpu)

    # -- set-up -------------------------------------------------------------

    def set_up(self, index: int) -> Tuple[servers.ServerGroup,
                                          Dict[str, Any], str]:
        """One set-up; appends its time and the host's steal during it to
        ``setup_times`` and ``setup_steal``."""
        root = os.path.join(self.dir, f"setup{index}", "store")
        span_dir = os.path.join(self.dir, f"setup{index}", "spans") \
            if self.trace else None
        os.makedirs(root)
        if span_dir is not None:
            os.makedirs(span_dir)
        group = servers.ServerGroup(
            self.workload.kind, root, server_env(span_dir),
            os.path.join(self.dir, f"setup{index}", "server.log"))
        self.groups.append(group)
        steal_before = self.steal()
        started = time.perf_counter()
        group.start()
        model = self.workload.model(f"{self.seed}:0", self.size, self.tally)
        self.conn = conn = Connection(group, self.name, model,
                                      client_id=f"sb{self.seed}",
                                      retry_seed=self.seed * 10)
        model.build(conn.handle)
        before = self.counters(group)
        warm_start = time.perf_counter()
        for _ in range(self.warmup):
            conn.run_op(timed=False)
        warm_window = (warm_start, time.perf_counter())
        after = self.counters(group)
        self.setup_times.append(time.perf_counter() - started)
        self.setup_steal.append(self.steal() - steal_before)
        self.setup_scaled.append(
            (self.setup_times[-1] - self.setup_steal[-1])
            * machine.START_REFERENCE_S / machine.start_seconds())
        counters = {key: after[key] - before[key] for key in after}
        counters["requests"] = self.warmup
        counters["writes"] = conn.untimed_writes
        counters["window"] = warm_window
        return group, counters, span_dir or ""

    def counters(self, group: servers.ServerGroup) -> Dict[str, int]:
        assert self.conn is not None
        stats = self.conn.handle.stats()["stats"]
        totals = {key: stats.get(key, 0) for key in STATS_COUNTERS}
        totals["store_bytes"] = servers.store_bytes(group.root)
        totals["journal_bytes"] = servers.journal_bytes(
            self.holder_root(group))
        totals["retries"] = self.conn.retries
        return totals

    def holder_root(self, group: servers.ServerGroup) -> str:
        if group.kind == "fleet":
            return os.path.join(group.root, self.primary)
        return group.root

    def tear_down(self, group: servers.ServerGroup) -> None:
        if self.conn is not None:
            self.conn.close()
        group.stop()
        survivors = group.survivors()
        if survivors:
            group.force_stop()
            self.errors.append(f"server processes {survivors} outlived "
                               f"the {group.kind} shutdown")

    # -- timed phase --------------------------------------------------------

    def timed_phase(self, group: servers.ServerGroup
                    ) -> Tuple[float, float, List[float], List[float],
                               List[Tuple[float, float]]]:
        """Run the closed loop; returns its start and end, and the server
        CPU seconds used and the host's steal counter at the start of
        each window and at the end.  Both are read between requests, at
        the first one past each window's end."""
        conn = self.conn
        assert conn is not None
        width = self.seconds / WINDOWS
        group.mark_cpu()
        cpu, steal = [0.0], [self.steal()]
        start = time.perf_counter()
        deadline = start + self.seconds
        refs: List[Tuple[float, float]] = []
        next_ref = start
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            while len(cpu) < WINDOWS and now >= start + len(cpu) * width:
                cpu.append(group.cpu_since_mark())
                steal.append(self.steal())
            conn.run_op()
            if now >= next_ref:
                refs.append((time.perf_counter(), machine.reference_seconds()))
                next_ref = now + REFERENCE_EVERY
            if len(conn.samples) == self.rss_after and not self.rss_at:
                self.rss_mb, self.rss_at = group.peak_rss_mb(), self.rss_after
        end = time.perf_counter()
        while len(cpu) < WINDOWS + 1:
            cpu.append(group.cpu_since_mark())
            steal.append(self.steal())
        if not self.rss_at:
            self.rss_mb, self.rss_at = group.peak_rss_mb(), len(conn.samples)
        return start, end, cpu, steal, refs

    # -- crash and recovery -------------------------------------------------

    def acknowledged(self) -> Dict[str, Any]:
        conn = self.conn
        assert conn is not None
        fingerprint = conn.handle.fingerprint(stats=True)
        self.tally.values(f"{conn.name} final", fingerprint["variables"],
                          conn.model.expected())
        self.tally.equal(f"{conn.name} final position",
                         fingerprint["position"], conn.model.position)
        return fingerprint

    def dump_spans(self, span_dir: str, pid: int) -> None:
        path = os.path.join(span_dir, f"spans-{pid}.json")
        if os.path.exists(path):
            os.remove(path)
        os.kill(pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise RunFailed(f"pid {pid} wrote no spans")
            time.sleep(0.01)

    def crash_and_recover(self, group: servers.ServerGroup, span_dir: str,
                          acked: Dict[str, Any], cycles: int) -> List[float]:
        """Kill and recover ``cycles`` times; returns the recovery times
        and appends them, and the host's steal during each, to
        ``recover_times`` and ``recover_steal``."""
        conn = self.conn
        assert conn is not None
        times = []
        for cycle in range(cycles):
            pid = group.holder_pid(self.primary)
            if self.trace:
                self.dump_spans(span_dir, pid)
            group.kill9(pid)
            if group.kind == "fleet":
                time.sleep(FAILOVER_PAUSE)
            steal_before = self.steal()
            started = time.perf_counter()
            if group.kind == "serve":
                group.start()
                conn.close()
                conn.connect(group, f"sb{self.seed}r{cycle}", self.seed * 10)
            recovered = conn.handle.fingerprint(stats=True)
            times.append(time.perf_counter() - started)
            self.recover_steal.append(self.steal() - steal_before)
            self.recover_scaled.append(
                (times[-1] - self.recover_steal[-1])
                * self.recover_scale(group))
            self.tally.identical(f"{conn.name} recovered fingerprint",
                                 recovered, acked)
        self.recover_times += times
        return times

    def recover_scale(self, group: servers.ServerGroup) -> float:
        """Factor to the nominal host speed for a recovery just timed.

        Restarting ``repro serve`` is mostly interpreter start-up and
        imports, whose time follows a bare interpreter's start: between
        runs they swung together by a quarter.  A fleet fails over
        inside running processes, mostly waiting out the router's and
        the client's retry backoff, so its time is taken as measured.

        A fleet's ``recover_scaled_s`` is then the fastest of its
        failovers, not their median.  The request waits for the session
        lock while the router's replication loop, on its own 0.25 s
        timer, retries the dead worker; how much of that retry is left
        depends on where the timer stood at the kill, an accident of
        timing that added up to 0.26 s, evenly spread, to each failover
        (the median of three spread 0.28 across seeds, the fastest
        0.08-0.11).  A slower failover path slows every one of them.
        ``repro serve`` restarts have no such phase: there it is the
        median.
        """
        if group.kind == "fleet":
            return 1.0
        return machine.START_REFERENCE_S / machine.start_seconds()

    # -- the whole run ------------------------------------------------------

    def execute(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        os.makedirs(self.dir)
        group: Optional[servers.ServerGroup] = None
        counters: Dict[str, Any] = {}
        span_dir = ""
        for index in range(self.setups):
            group, counters, span_dir = self.set_up(index)
            last = index == self.setups - 1
            if group.kind == "serve" and last:
                self.crash_and_recover(group, span_dir, self.acknowledged(),
                                       self.recover_cycles)
            elif group.kind == "fleet" and not last:
                self.crash_and_recover(group, span_dir, self.acknowledged(),
                                       1)
            if not last:
                self.tear_down(group)
        assert group is not None and self.conn is not None
        bytes_before = servers.store_bytes(group.root)
        start, end, cpu, steal, refs = self.timed_phase(group)
        bytes_after = servers.store_bytes(group.root)
        acked = self.acknowledged()
        recover_times = list(self.recover_times)
        recover_scaled = list(self.recover_scaled)
        recover_steal = list(self.recover_steal)
        after_timed: List[float] = []
        if group.kind == "fleet":
            after_timed = self.crash_and_recover(group, span_dir, acked, 1)
        self.tear_down(group)

        conn = self.conn
        samples = conn.samples
        windows = window_figures(samples, start, self.seconds / WINDOWS,
                                 end, cpu, steal, refs)
        writes = sorted(lat for write, lat, _ in samples if write)
        reads = sorted(lat for write, lat, _ in samples if not write)
        unscaled = {name: window_median(windows, name)
                    for name in windows[0]
                    if name not in ("seconds", "steal_s")}
        e2e = {name: window_median(windows, base, True, unstolen)
               for name, (base, unstolen) in SCALED.items()}
        e2e.update({
            "setup_s": statistics.median(self.setup_scaled),
            "recover_scaled_s": (min if group.kind == "fleet"
                                 else statistics.median)(recover_scaled),
            "store_bytes_per_write":
                (bytes_after - bytes_before) / len(writes) if writes else 0.0,
            "server_rss_mb": self.rss_mb,
        })
        window = counters.pop("window")
        detail: Dict[str, Any] = {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "machine": self.machine,
            # CPU seconds the host took from the benchmark's CPU during
            # the timed phase: the main source of run-to-run spread on a
            # shared host.
            "steal_s": steal[-1] - steal[0],
            "setup_steal_s": self.setup_steal,
            "recover_steal_s": recover_steal,
            "samples": {"write": len(writes), "read": len(reads)},
            "setup_s_each": self.setup_times,
            "setup_scaled_s_each": self.setup_scaled,
            "recover_s_each": recover_times,
            "recover_scaled_s_each": recover_scaled,
            "recover_after_timed_s": after_timed,
            "server_rss_mb_at_request": self.rss_at,
            "windows": windows,
            "unscaled": unscaled,
            "pooled": {"write_p50_ms": percentile(writes, 50, 1e3),
                       "write_p99_ms": percentile(writes, 99, 1e3),
                       "read_p50_ms": percentile(reads, 50, 1e3),
                       "read_p99_ms": percentile(reads, 99, 1e3),
                       "ops_per_s": len(samples) / (end - start),
                       "server_cpu_us_per_op":
                           cpu[-1] * 1e6 / max(1, len(samples))},
            "oracle_checks": self.tally.checks,
            "failed_frac": conn.failed / max(1, conn.attempted),
            "counters": counters,
            "server_pids": sorted({pid for g in self.groups
                                   for pid in g.started}),
        }
        metrics = e2e
        counters["fsyncs"] = None  # counted by the traced run only
        if self.trace:
            metrics, counters["fsyncs"] = self.layer_metrics(
                span_dir, (start, end), window, unscaled, writes, reads,
                detail)
        return metrics, detail

    def layer_metrics(self, span_dir: str, window: Tuple[float, float],
                      warm_window: Tuple[float, float],
                      unscaled: Dict[str, float],
                      writes: List[float], reads: List[float],
                      detail: Dict[str, Any]) -> Tuple[Dict[str, Any], int]:
        assert self.conn is not None
        processes = spans.load(span_dir)
        ops = len(writes) + len(reads)
        layers, shares, problems = spans.attribute(
            processes, window, sum(writes) + sum(reads), ops,
            fleet=self.workload.kind == "fleet")
        fsyncs = layers.pop("_fsyncs")
        self.errors.extend(f"layer accounting: {p}" for p in problems)
        counters = detail["counters"]
        per_op = counters["requests"] or 1
        rounds = counters["rounds"] or 1
        metrics = dict(layers)
        metrics.update({
            "engine.inference_runs_per_op":
                counters["inference_runs"] / per_op,
            "engine.activations_per_op":
                counters["constraint_activations"] / per_op,
            "engine.propagated_per_op":
                counters["propagated_assignments"] / per_op,
            "plancache.hit_ratio":
                (counters["plan_hits"] + counters["plan_chain_hits"]) / rounds,
            "journal.bytes_per_write":
                counters["journal_bytes"] / max(1, counters["writes"]),
            "store.fsyncs_per_write": fsyncs / max(1, len(writes)),
            "session.replay_entries_per_s": spans.replay_rate(processes),
            "client.retries_per_kop":
                self.conn.retries * 1000.0 / max(1, ops),
            "traced.write_p50_ms": unscaled["write_p50_ms"],
            "traced.read_p50_ms": unscaled["read_p50_ms"],
            "traced.ops_per_s": unscaled["ops_per_s"],
            "traced.write_p99_ms": unscaled["write_p99_ms"],
            "traced.read_p99_ms": unscaled["read_p99_ms"],
        })
        detail["shares"] = shares
        return metrics, spans.fsync_count(processes, warm_window)

    def cleanup(self) -> None:
        if self.conn is not None:
            self.conn.close()
        for group in self.groups:
            if group.survivors():
                group.force_stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, setups: int = 3
        ) -> Tuple[bool, int, int, Dict[str, Any], Dict[str, Any]]:
    """Returns ``(correct, attempted, failed, metrics, detail)``."""
    bench = Run(WORKLOADS[workload_name], seed, seconds, trace, smoke, setups)
    try:
        metrics, detail = bench.execute()
    except OracleMismatch as error:
        bench.errors.append(f"oracle: {error}")
        metrics, detail = {}, {"oracle_checks": bench.tally.checks}
    finally:
        bench.cleanup()
    detail["errors"] = bench.errors
    conn = bench.conn
    attempted = conn.attempted if conn is not None else 0
    failed = conn.failed if conn is not None else 0
    correct = not bench.errors and bool(metrics)
    if bench.errors:
        print("\n".join(bench.errors), file=sys.stderr)
    return correct, max(attempted, 1), failed, metrics, detail
