"""Per-layer accounting of a traced run.

Loads the span dumps every traced server process wrote (see
``tracehook/sitecustomize.py``) and attributes the client-observed time
of the timed requests to layers.  A layer's *self* time is its spans'
duration minus the duration of the timed calls they make.  The layers,
outermost first, are:

* ``router``  -- client call minus the router's calls into its workers
  (``WorkerLink.forward`` of client frames and ``WorkerLink.request``
  of ``repl-apply`` ships).  Fleet only.
* ``serve``   -- the server around the session: socket, framing,
  dispatch, lock and response.  On ``repro serve`` it is the client call
  minus the top-level ``Session``/``Space`` calls the handlers make; on
  a fleet it is the router's forward minus the same calls in the worker.
* ``session`` -- ``Session.assign/assign_many/get`` minus the engine.
* ``spaces``  -- ``Space.open/assign/get/discard/commit`` totals.
* ``engine``  -- ``PropagationContext.assign/assign_many`` self time.
* ``journal`` -- ``JournalWriter.append*`` minus fsync.
* ``store``   -- ``FileOpener.fsync``.
* ``replica`` -- ship (router side) and ``ReplicaStore.apply``.

``unattributed`` is the part of the client calls no server-side span
covers: on ``repro serve``, the client call minus the handler spans of
the dispatch table (socket, framing, queueing, lock wait, response
write); on a fleet, the client call minus the router's worker calls.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Any, Dict, List, Tuple

#: Spans a self time below this is a broken nesting, not clock jitter.
_SLACK = 1e-6
_REPL = {"repl-export", "repl-apply", "repl-position", "repl-config",
         "handover", "store-scrub", "store-repair"}


class Process:
    """One process's spans, with self times precomputed."""

    def __init__(self, dump: Dict[str, Any]) -> None:
        self.pid = dump["pid"]
        self.spans: List[List[Any]] = dump["spans"]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _extra in self.spans:
            if parent >= 0 and name != "open":
                child[parent] += end - start
        self.self_time = [span[2] - span[1] - child[index]
                          for index, span in enumerate(self.spans)]

    def within(self, window: Tuple[float, float]):
        """``(index, span)`` of finished spans inside ``window``."""
        low, high = window
        for index, span in enumerate(self.spans):
            if span[0] != "open" and span[1] >= low and span[2] <= high:
                yield index, span


def load(span_dir: str) -> List[Process]:
    processes = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.json"))):
        with open(path) as handle:
            processes.append(Process(json.load(handle)))
    return processes


def fsync_count(processes: List[Process],
                window: Tuple[float, float]) -> int:
    return sum(1 for process in processes
               for _index, span in process.within(window)
               if span[0] == "store.fsync")


class _Sum:
    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        self.total += seconds
        self.count += 1

    def per(self, base: float) -> float:
        """Microseconds per ``base`` (0 when nothing was measured)."""
        return self.total * 1e6 / base if base else 0.0

    def mean_us(self) -> float:
        return self.per(self.count)


def attribute(processes: List[Process], window: Tuple[float, float],
              client_seconds: float, ops: int, fleet: bool
              ) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """Per-layer metrics, shares of the client time, and accounting
    problems (negative self times) for the requests timed in ``window``.
    """
    s = {key: _Sum() for key in (
        "handler", "top", "session", "engine", "violating", "journal",
        "fsync", "preview", "commit", "forward", "ship", "apply")}
    handler_cmds = {"what-if": 0, "what-if-commit": 0}
    problems: List[str] = []
    for process in processes:
        spans, self_time = process.spans, process.self_time
        for index, span in process.within(window):
            name, start, end, parent, extra = span
            duration, own = end - start, self_time[index]
            if own < -_SLACK:
                problems.append(f"{name} in pid {process.pid} has negative "
                                f"self time {own * 1e6:.1f} us")
            layer = name.split(".", 1)[0]
            parent_span = spans[parent] if parent >= 0 else None
            under_handler = parent_span is not None \
                and parent_span[0] == "serve.handler"
            if name == "serve.handler":
                s["handler"].add(duration)
                if extra in handler_cmds:
                    handler_cmds[extra] += 1
            elif layer in ("session", "space") and under_handler:
                s["top"].add(duration)
            if layer == "session":
                s["session"].add(own)
            elif layer == "engine":
                s["engine"].add(own)
                if extra is False:
                    s["violating"].add(own)
            elif layer == "journal":
                s["journal"].add(own)
            elif name == "store.fsync":
                s["fsync"].add(duration)
            elif name == "replica.apply":
                s["apply"].add(duration)
            elif name == "space.commit":
                s["commit"].add(duration)
            elif layer == "space" and under_handler \
                    and parent_span[4] == "what-if":
                s["preview"].add(duration)
            elif layer == "link" and parent < 0:
                if name == "link.forward" and extra not in _REPL:
                    s["forward"].add(duration)
                elif name == "link.request" and extra == "repl-apply":
                    s["ship"].add(duration)
    us = 1e6
    if fleet:
        router_self = client_seconds - s["forward"].total - s["ship"].total
        serve_self = s["forward"].total - s["top"].total
        unattributed = router_self
    else:
        router_self = 0.0
        serve_self = client_seconds - s["top"].total
        unattributed = client_seconds - s["handler"].total
    for name, value in (("router", router_self), ("serve", serve_self),
                        ("unattributed", unattributed)):
        if value < -_SLACK * max(ops, 1):
            problems.append(f"{name} self time is negative: "
                            f"{value * us:.0f} us over {ops} requests")
    metrics = {
        "client.call_us": client_seconds * us / ops if ops else 0.0,
        "client.unattributed_us": unattributed * us / ops if ops else 0.0,
        "serve.self_us": serve_self * us / ops if ops else 0.0,
        "router.self_us": router_self * us / ops if ops else 0.0,
        "replica.ship_us": s["ship"].mean_us(),
        "replica.apply_us": s["apply"].mean_us(),
        "session.self_us": s["session"].per(ops),
        "engine.round_us": s["engine"].mean_us(),
        "engine.violating_round_us": s["violating"].mean_us(),
        "spaces.preview_us": s["preview"].per(handler_cmds["what-if"]),
        "spaces.commit_us": s["commit"].per(handler_cmds["what-if-commit"]),
        "journal.append_us": s["journal"].mean_us(),
        "store.fsync_us": s["fsync"].mean_us(),
    }
    shares = {}
    if client_seconds:
        for name, seconds in (
                ("router", router_self), ("serve", serve_self),
                ("unattributed", unattributed),
                ("session", s["session"].total),
                ("spaces", s["preview"].total + s["commit"].total),
                ("engine", s["engine"].total),
                ("journal", s["journal"].total),
                ("store.fsync", s["fsync"].total),
                ("replica.ship", s["ship"].total)):
            shares[name] = round(seconds / client_seconds, 4)
    # The same layers as a share of the server's service time (handler
    # spans), which leaves out queueing behind the other connection.
    service = s["handler"].total
    if service:
        for name, seconds in (
                ("service.session", s["session"].total),
                ("service.spaces", s["preview"].total + s["commit"].total),
                ("service.engine", s["engine"].total),
                ("service.journal", s["journal"].total),
                ("service.store.fsync", s["fsync"].total)):
            shares[name] = round(seconds / service, 4)
    metrics["_fsyncs"] = s["fsync"].count
    return metrics, shares, problems


def replay_rate(processes: List[Process]) -> float:
    """Journal entries replayed per second by session opens that
    replayed anything (recovery after a kill -9, or fleet failover)."""
    entries, seconds = 0, 0.0
    for process in processes:
        for span in process.spans:
            if span[0] == "manager.open" and span[4]:
                entries += span[4]
                seconds += span[2] - span[1]
    return entries / seconds if seconds else 0.0
