"""Span recorder for the traced run, loaded into every server process.

Python imports ``sitecustomize`` from ``sys.path`` at start-up.  A
traced run puts this directory first on ``PYTHONPATH`` and names a span
directory in ``SERVEBENCH_SPAN_DIR``.  Every server process -- ``repro
serve``, the fleet router and the workers it spawns, which inherit the
path -- then wraps the public layer boundaries listed below before
``repro.cli`` takes over.  Nothing in the program changes.

Each wrapped call records one span ``[name, start, end, parent,
extra]`` in memory; ``parent`` is the index of the enclosing span of the
same thread or asyncio task (``-1`` at top level), and ``start``/``end``
read ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, shared by
every process, so spans line up with the client's clock).  Spans are
written to ``<dir>/spans-<pid>.json`` on SIGUSR1, which the benchmark
sends before a kill -9, on SIGTERM, and at exit.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import signal
import sys
import time

_SPANS: list = []
_PARENT = contextvars.ContextVar("servebench_span", default=-1)
_clock = time.perf_counter

#: (module, class, methods, layer).  A span is named ``layer.method``.
_TARGETS = (
    ("repro.session.session", "Session", ("assign", "assign_many", "get"),
     "session"),
    ("repro.spaces.space", "Space",
     ("open", "assign", "get", "discard", "commit"), "space"),
    ("repro.core.engine", "PropagationContext", ("assign", "assign_many"),
     "engine"),
    ("repro.session.journal", "JournalWriter",
     ("append", "append_assign", "append_batch"), "journal"),
    ("repro.session.journal", "FileOpener", ("fsync",), "store"),
    ("repro.fleet.replica", "ReplicaStore", ("apply",), "replica"),
    ("repro.fleet.router", "WorkerLink", ("forward", "request"), "link"),
)


def _wrap(fn, name, extra_of):
    """A span-recording wrapper; ``extra_of(args, result)`` annotates."""
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            parent = _PARENT.get()
            index = len(_SPANS)
            _SPANS.append(None)
            token = _PARENT.set(index)
            start = _clock()
            result = None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                _PARENT.reset(token)
                _SPANS[index] = [name, start, end, parent,
                                 extra_of(args, result)]
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = _PARENT.get()
        index = len(_SPANS)
        _SPANS.append(None)
        token = _PARENT.set(index)
        start = _clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _clock()
            _PARENT.reset(token)
            _SPANS[index] = [name, start, end, parent,
                             extra_of(args, result)]
    return traced


def _no_extra(args, result):
    return None


def _engine_extra(args, result):
    return bool(result)  # False: the round violated and rolled back


def _link_extra(args, result):
    message = args[1] if len(args) > 1 else {}
    return message.get("cmd") if isinstance(message, dict) else None


def _handler_extra(cmd):
    return lambda args, result: cmd


def _wrap_manager_get(manager_cls):
    """Only a ``SessionManager.get`` that opens (recovers) a session is a
    span; its extra is the number of journal entries it replayed."""
    original = manager_cls.get

    @functools.wraps(original)
    def get(self, name, *args, **kwargs):
        if name in self.sessions:
            return original(self, name, *args, **kwargs)
        parent = _PARENT.get()
        index = len(_SPANS)
        _SPANS.append(None)
        token = _PARENT.set(index)
        start = _clock()
        session = None
        try:
            session = original(self, name, *args, **kwargs)
            return session
        finally:
            end = _clock()
            _PARENT.reset(token)
            _SPANS[index] = [
                "manager.open", start, end, parent,
                session.replayed_entries if session is not None else 0]

    manager_cls.get = get


def _wrap_handlers(*tables):
    """Wrap every entry of the servers' public dispatch tables once,
    even where one table was copied from another."""
    done = {}
    for table in tables:
        for cmd, handler in list(table.items()):
            if id(handler) not in done:
                done[id(handler)] = _wrap(handler, "serve.handler",
                                          _handler_extra(cmd))
            table[cmd] = done[id(handler)]


def dump(*_ignored) -> None:
    directory = os.environ["SERVEBENCH_SPAN_DIR"]
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    # A span still open keeps its slot, so parent indices stay valid.
    spans = [span if span is not None else ["open", 0.0, 0.0, -1, None]
             for span in list(_SPANS)]
    with open(path + ".tmp", "w") as handle:
        json.dump({"pid": os.getpid(), "argv": sys.argv, "spans": spans},
                  handle, separators=(",", ":"))
    os.replace(path + ".tmp", path)


def install() -> None:
    extras = {"engine": _engine_extra, "link": _link_extra}
    for module_name, class_name, methods, layer in _TARGETS:
        cls = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            setattr(cls, method, _wrap(getattr(cls, method),
                                       f"{layer}.{method}",
                                       extras.get(layer, _no_extra)))
    from repro.fleet.worker import WorkerServer
    from repro.session.manager import SessionManager
    from repro.session.server import SessionServer
    _wrap_manager_get(SessionManager)
    _wrap_handlers(SessionServer.COMMANDS, WorkerServer.COMMANDS)
    signal.signal(signal.SIGUSR1, dump)
    signal.signal(signal.SIGTERM, _dump_and_terminate)
    import atexit
    atexit.register(dump)


def _dump_and_terminate(signum, _frame) -> None:
    """``repro fleet`` SIGTERMs workers that are still draining after a
    ``shutdown``; keep their spans, then die of the signal as before."""
    dump()
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


if os.environ.get("SERVEBENCH_SPAN_DIR"):
    install()
