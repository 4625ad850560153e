"""In-process fleet harnesses for tests, benchmarks and embedding.

:class:`LocalFleet` runs N :class:`~repro.fleet.worker.WorkerServer`
instances (each with its own root directory — its own "disk") and one
:class:`~repro.fleet.router.Router` on a single background event-loop
thread, exposing plain blocking helpers so synchronous test code and
:class:`~repro.session.client.SessionClient` can drive a whole fleet
without subprocess choreography.  :meth:`LocalFleet.kill_worker` drops
a worker abruptly — no drain, no journal sync — to exercise failover.

:class:`ServerThread` runs a single ordinary
:class:`~repro.session.server.SessionServer` the same way, so routed
and direct topologies can be benchmarked side by side.

Process-level crash realism (SIGKILL, lost page cache) lives in
``tools/fleet_smoke.py``, which drives real subprocesses through the
``repro fleet`` CLI instead.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, Optional, Tuple

from ..session.client import SessionClient
from ..session.server import SessionServer
from .router import Router
from .worker import WorkerServer

__all__ = ["LocalFleet", "ServerThread"]

_START_TIMEOUT = 30.0


class _LoopThread:
    """One daemon thread running an event loop for blocking callers."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def start(self) -> None:
        self._thread.start()

    def call(self, coro: Any, timeout: float = _START_TIMEOUT) -> Any:
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=5)
        if not self.loop.is_running():
            self.loop.close()


class LocalFleet:
    """N workers + a router on one background loop, blocking API."""

    def __init__(self, root: str, *, workers: int = 2,
                 fsync: str = "never", replication: str = "sync",
                 repl_interval: float = 0.25,
                 request_timeout: float = 30.0,
                 worker_kwargs: Optional[Dict[str, Any]] = None,
                 router_kwargs: Optional[Dict[str, Any]] = None) -> None:
        self.root = root
        self.worker_count = workers
        self.fsync = fsync
        self.replication = replication
        self.repl_interval = repl_interval
        self.request_timeout = request_timeout
        self.worker_kwargs = dict(worker_kwargs or {})
        self.router_kwargs = dict(router_kwargs or {})
        self.workers: Dict[str, WorkerServer] = {}
        self.router: Optional[Router] = None
        self._loop: Optional[_LoopThread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "LocalFleet":
        self._loop = _LoopThread()
        self._loop.start()
        addresses: Dict[str, Tuple[str, int]] = {}
        for index in range(self.worker_count):
            worker_id = f"w{index}"
            worker_root = os.path.join(self.root, worker_id)
            server = WorkerServer(worker_root, worker_id=worker_id,
                                  fsync=self.fsync, **self.worker_kwargs)
            self._loop.call(server.start())
            self.workers[worker_id] = server
            addresses[worker_id] = (server.host, server.port)
        self.router = Router(addresses, replication=self.replication,
                             repl_interval=self.repl_interval,
                             request_timeout=self.request_timeout,
                             **self.router_kwargs)
        self._loop.call(self.router.start())
        return self

    @property
    def port(self) -> int:
        assert self.router is not None
        return self.router.port

    @property
    def host(self) -> str:
        assert self.router is not None
        return self.router.host

    def stop(self) -> None:
        if self._loop is None:
            return
        if self.router is not None:
            self._loop.call(self.router.stop())
        for server in self.workers.values():
            try:
                self._loop.call(server.stop())
            except Exception:
                pass
        self._loop.stop()
        self._loop = None

    def __enter__(self) -> "LocalFleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- clients ------------------------------------------------------------

    def client(self, **kwargs: Any) -> SessionClient:
        """A retrying client pointed at the router."""
        kwargs.setdefault("retries", 4)
        kwargs.setdefault("backoff", 0.05)
        return SessionClient(self.host, self.port, **kwargs)

    # -- fault injection ----------------------------------------------------

    def kill_worker(self, worker_id: str) -> None:
        """Drop a worker abruptly: stop accepting, cut every client
        connection, abandon its open sessions without syncing.

        This is the in-process stand-in for ``SIGKILL`` — acknowledged
        state must survive on the follower, not on this worker's
        goodwill.
        """
        server = self.workers[worker_id]
        assert self._loop is not None
        self._loop.call(self._kill(server))

    @staticmethod
    async def _kill(server: WorkerServer) -> None:
        if server._server is not None:
            server._server.close()
            await server._server.wait_closed()
            server._server = None
        for writer in list(server._connections):
            writer.close()
        # Abandon sessions: no close(), no sync() — exactly what a
        # killed process would (not) do.  The dropped file objects may
        # flush on garbage collection, but nothing in the fleet reads
        # this root again after failover.
        server.manager.sessions.clear()

    def worker_of(self, session: str) -> str:
        """Which worker currently owns ``session``."""
        assert self.router is not None
        worker = self.router.ring.lookup(session)
        if worker is None:
            raise RuntimeError("no live workers")
        return worker


class ServerThread:
    """A single plain :class:`SessionServer` on a background loop."""

    def __init__(self, root: str, **kwargs: Any) -> None:
        self.server = SessionServer(root, **kwargs)
        self._loop: Optional[_LoopThread] = None

    def start(self) -> "ServerThread":
        self._loop = _LoopThread()
        self._loop.start()
        self._loop.call(self.server.start())
        return self

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, **kwargs: Any) -> SessionClient:
        return SessionClient(self.host, self.port, **kwargs)

    def stop(self) -> None:
        if self._loop is None:
            return
        self._loop.call(self.server.stop())
        self._loop.stop()
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
