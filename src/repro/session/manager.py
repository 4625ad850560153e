"""Session registry — named durable sessions under one root directory.

A :class:`SessionManager` owns ``<root>/<name>/`` per session and hands
out live :class:`~repro.session.session.Session` objects, recovering
them from disk on first access.  It performs no locking of its own
beyond registry consistency — callers (the server) serialize operations
*within* a session; operations on different sessions are independent by
construction (each has its own context, library and journal).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional

from .codec import check_name
from .journal import FileOpener
from .session import Session, SessionError

__all__ = ["SessionManager"]


class SessionManager:
    """Open, recover, enumerate and close sessions under ``root``.

    ``opener`` (a :class:`~repro.session.journal.FileOpener`) routes all
    journal/checkpoint I/O of every managed session — the fault-injection
    seam.  ``round_budget`` (a :class:`~repro.core.engine.RoundBudget`)
    installs the propagation watchdog on each session's context as it is
    opened.  ``store`` selects the durable backend: ``None``/``"file"``,
    ``"sqlite[:path]"``, ``"object[:path]"`` (the ``--store`` grammar —
    see :func:`repro.store.resolve_store`), or an already-built
    :class:`~repro.store.base.SegmentStore`.
    """

    def __init__(self, root: str, *, fsync: str = "always",
                 max_sessions: int = 64,
                 opener: Optional[FileOpener] = None,
                 round_budget: Optional[Any] = None,
                 store: Optional[Any] = None) -> None:
        from ..store import SegmentStore, resolve_store
        self.root = root
        self.fsync = fsync
        self.max_sessions = max_sessions
        self.opener = opener
        self.round_budget = round_budget
        if store is None or isinstance(store, str):
            store = resolve_store(store, root, opener=opener)
        elif not isinstance(store, SegmentStore):
            raise TypeError(f"store must be a spec string or SegmentStore, "
                            f"not {type(store).__name__}")
        self.store = store
        self.sessions: Dict[str, Session] = {}
        self._lock = threading.Lock()
        os.makedirs(root, exist_ok=True)

    @property
    def store_backend(self) -> str:
        """Backend name of the managed root (``file``/``sqlite``/``object``)."""
        return self.store.backend

    def path_of(self, name: str) -> str:
        check_name(name, "session name")
        return os.path.join(self.root, name)

    def get(self, name: str, *, create: bool = True) -> Session:
        """The live session ``name``, recovering or creating it."""
        with self._lock:
            session = self.sessions.get(name)
            if session is not None:
                return session
            check_name(name, "session name")
            session_store = self.store.session(name)
            if not create and not session_store.exists():
                raise SessionError(f"no session {name!r} under {self.root}")
            if len(self.sessions) >= self.max_sessions:
                raise SessionError(
                    f"session limit reached ({self.max_sessions})")
            session = Session(name, store=session_store, fsync=self.fsync,
                              opener=self.opener)
            if self.round_budget is not None:
                session.context.round_budget = self.round_budget
            self.sessions[name] = session
            return session

    def close(self, name: str) -> bool:
        """Close (journal-sync and detach) one session if open."""
        with self._lock:
            session = self.sessions.pop(name, None)
        if session is None:
            return False
        session.close()
        return True

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self.sessions.values())
            self.sessions.clear()
        for session in sessions:
            session.close()
        self.store.close()

    def names(self) -> List[str]:
        """Names of every open or durably stored session, sorted."""
        found = set(self.sessions)
        try:
            found.update(self.store.session_names())
        except OSError:
            pass
        return sorted(found)

    def is_open(self, name: str) -> bool:
        return name in self.sessions

    def degraded_info(self) -> Dict[str, str]:
        """Degraded open sessions mapped to their disk-error message.

        The ``health`` frame ships this so a fleet router can route
        around a worker whose disk is failing for specific sessions.
        """
        info: Dict[str, str] = {}
        with self._lock:
            for name in sorted(self.sessions):
                session = self.sessions[name]
                if session.degraded:
                    error = session.degraded_error
                    info[name] = str(error) if error else "degraded"
        return info

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close_all()
