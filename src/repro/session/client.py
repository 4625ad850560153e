"""Blocking JSON-line client for the session server.

Small by design — tests, the CI smoke script and interactive use need a
dependable synchronous client, not an async framework:

.. code-block:: python

    with SessionClient("127.0.0.1", 7700) as client:
        alice = client.session("alice")
        alice.make_var("x", 1)
        alice.assign("v:x", 5)
        alice.undo()
        alice.checkpoint()

Every call sends one request frame and blocks for its response frame;
an ``ok: false`` response raises :class:`ServerError` carrying the
server's error type (``violation``, ``busy``, ``timeout``, ...).

Fault tolerance (``retries > 0``): transient failures — a dropped
connection, a ``busy``/``timeout``/``overloaded`` load-shedding frame —
are retried with exponential backoff plus seeded jitter.  Every mutating
request carries a client-unique ``rid``; the server remembers the
response per ``rid``, so a retry of a mutation whose response was lost
replays the original outcome instead of applying twice (exactly-once).
Violations and other deterministic rejections are never retried.
"""

from __future__ import annotations

import itertools
import json
import socket
import uuid
from typing import Any, Dict, List, Optional

from .retry import RetryPolicy

__all__ = ["RETRYABLE_ERRORS", "ServerError", "SessionClient",
           "SessionHandle"]

#: Server error kinds that signal transient load, not a failed design
#: operation — safe to retry.
RETRYABLE_ERRORS = frozenset({"busy", "timeout", "overloaded"})

#: Commands that mutate session state; these carry an ``rid`` so the
#: server can deduplicate retries.
_MUTATING = frozenset({
    "assign", "assign-many", "what-if-commit", "make-var", "retract",
    "add-constraint", "remove-constraint",
    "undo", "redo", "checkpoint", "close", "define-cell", "define-signal",
    "declare-delay", "add-parameter", "instantiate", "add-net", "connect",
})


class ServerError(RuntimeError):
    """An error frame from the server."""

    def __init__(self, error: Dict[str, Any]) -> None:
        super().__init__(f"{error.get('type', 'error')}: "
                         f"{error.get('message', '')}")
        self.kind = error.get("type", "error")
        self.detail = error.get("detail")


class SessionClient:
    """One TCP connection speaking the JSON-line protocol.

    Parameters
    ----------
    retries:
        Transient-failure retry budget per call (0 = fail fast).
    backoff, backoff_max:
        Base and cap of the exponential backoff between retries.
    retry_seed:
        Seeds the jitter RNG; fixed seeds make retry timing reproducible.
    client_id:
        Prefix of the per-call ``rid``; must be unique per client for
        server-side retry deduplication to be sound.  Auto-generated when
        omitted.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 timeout: float = 30.0, retries: int = 0,
                 backoff: float = 0.05, backoff_max: float = 2.0,
                 retry_seed: Optional[int] = None,
                 client_id: Optional[str] = None) -> None:
        # Attributes first: close() must be safe after a failed connect.
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = RetryPolicy(retries=retries, backoff=backoff,
                                 backoff_max=backoff_max, seed=retry_seed)
        self.client_id = client_id or uuid.uuid4().hex[:12]
        self._rids = itertools.count(1)
        self._next_id = 1
        self._connect()

    # Backoff knobs delegate to the shared policy so callers may keep
    # tuning them on the client object directly.

    @property
    def retries(self) -> int:
        return self.retry.retries

    @retries.setter
    def retries(self, value: int) -> None:
        self.retry.retries = value

    @property
    def backoff(self) -> float:
        return self.retry.backoff

    @backoff.setter
    def backoff(self, value: float) -> None:
        self.retry.backoff = value

    @property
    def backoff_max(self) -> float:
        return self.retry.backoff_max

    @backoff_max.setter
    def backoff_max(self, value: float) -> None:
        self.retry.backoff_max = value

    # -- lifecycle ----------------------------------------------------------

    def _connect(self) -> None:
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        self._file = self._sock.makefile("rwb")

    @property
    def connected(self) -> bool:
        return self._file is not None

    def close(self) -> None:
        """Idempotent teardown; safe mid-request and after failures."""
        file, self._file = self._file, None
        sock, self._sock = self._sock, None
        for resource in (file, sock):
            if resource is not None:
                try:
                    resource.close()
                except OSError:
                    pass

    def __enter__(self) -> "SessionClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- protocol -----------------------------------------------------------

    def call(self, cmd: str, **fields: Any) -> Any:
        """Send one request; return its ``result`` or raise ServerError.

        With a retry budget, transient failures (connection loss,
        ``busy``/``timeout``/``overloaded`` frames) back off and retry;
        mutations ride their ``rid`` so a retry can never double-apply.
        """
        frame = {"id": None, "cmd": cmd}
        frame.update(fields)
        if cmd in _MUTATING and "rid" not in frame:
            frame["rid"] = f"{self.client_id}:{next(self._rids)}"
        attempt = 0
        while True:
            try:
                if self._file is None:
                    self._connect()
                return self._exchange(frame)
            except ServerError as error:
                if error.kind not in RETRYABLE_ERRORS \
                        or self.retry.exhausted(attempt):
                    raise
            except (ConnectionError, OSError):
                # The connection is in an unknown state (a request or
                # response may be half-written) — drop it; the retry
                # reconnects and the rid makes the redo exactly-once.
                self.close()
                if self.retry.exhausted(attempt):
                    raise
            attempt += 1
            self.retry.sleep(attempt)

    def _exchange(self, frame: Dict[str, Any]) -> Any:
        request_id = self._next_id
        self._next_id += 1
        frame["id"] = request_id
        file = self._file
        if file is None:
            raise ConnectionError("client is closed")
        file.write(json.dumps(frame, separators=(",", ":")).encode()
                   + b"\n")
        file.flush()
        line = file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = json.loads(line)
        if response.get("id") != request_id:
            raise ConnectionError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}")
        if not response.get("ok"):
            raise ServerError(response.get("error", {}))
        return response.get("result")

    # -- conveniences -------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def health(self) -> Dict[str, Any]:
        return self.call("health")

    def sessions(self) -> List[str]:
        return self.call("sessions")["sessions"]

    def shutdown(self) -> None:
        self.call("shutdown")

    def session(self, name: str) -> "SessionHandle":
        """Bind a session name; opens (or recovers) it on the server."""
        handle = SessionHandle(self, name)
        handle.open()
        return handle


class SessionHandle:
    """All session commands pre-bound to one session name."""

    def __init__(self, client: SessionClient, name: str) -> None:
        self.client = client
        self.name = name

    def _call(self, cmd: str, **fields: Any) -> Any:
        return self.client.call(cmd, session=self.name, **fields)

    def open(self) -> Dict[str, Any]:
        return self._call("open")

    def close(self) -> bool:
        return bool(self._call("close").get("closed"))

    def make_var(self, name: str, value: Any = None,
                 just: Optional[str] = None) -> str:
        fields: Dict[str, Any] = {"name": name, "value": value}
        if just is not None:
            fields["just"] = just
        return self._call("make-var", **fields)["var"]

    def assign(self, var: str, value: Any, just: str = "USER") -> Any:
        return self._call("assign", var=var, value=value, just=just)

    def assign_many(self, entries: Any, just: str = "USER") -> Any:
        """Batched assignment: one round, one journal record, one rid.

        ``entries`` is an iterable of ``(var, value)`` pairs,
        ``(var, value, just)`` triples, or ready-made entry dicts.  The
        whole batch applies exactly once even across retries.
        """
        return self._call("assign-many",
                          entries=self._entry_specs(entries), just=just)

    @staticmethod
    def _entry_specs(entries: Any) -> List[Dict[str, Any]]:
        specs: List[Dict[str, Any]] = []
        for item in entries:
            if isinstance(item, dict):
                specs.append(item)
            elif len(item) == 2:
                specs.append({"var": item[0], "value": item[1]})
            else:
                specs.append({"var": item[0], "value": item[1],
                              "just": item[2]})
        return specs

    def what_if(self, entries: Any, just: str = "USER") -> Any:
        """Preview a batch in a server-side computation space.

        Returns per-entry acceptance and resulting values; the session
        itself (journal, position, fingerprint) is untouched.
        """
        return self._call("what-if", entries=self._entry_specs(entries),
                          just=just)

    def what_if_commit(self, entries: Any, just: str = "USER") -> Any:
        """Apply a batch through a computation space and commit the
        accepted entries as one journaled batch; rejected entries are
        dropped instead of aborting.  Exactly-once across retries.
        """
        return self._call("what-if-commit",
                          entries=self._entry_specs(entries), just=just)

    def get(self, var: str) -> Dict[str, Any]:
        return self._call("get", var=var)

    def value(self, var: str) -> Any:
        return self.get(var)["value"]

    def retract(self, var: str) -> None:
        self._call("retract", var=var)

    def add_constraint(self, type_name: str, args: List[str],
                       params: Optional[Dict[str, Any]] = None,
                       cid: Optional[str] = None) -> str:
        fields: Dict[str, Any] = {"type": type_name, "args": args}
        if params:
            fields["params"] = params
        if cid is not None:
            fields["cid"] = cid
        return self._call("add-constraint", **fields)["cid"]

    def remove_constraint(self, cid: str) -> None:
        self._call("remove-constraint", cid=cid)

    def undo(self) -> bool:
        return bool(self._call("undo")["undone"])

    def redo(self) -> bool:
        return bool(self._call("redo")["redone"])

    def checkpoint(self) -> Dict[str, Any]:
        return self._call("checkpoint")

    def fingerprint(self, stats: bool = True) -> Dict[str, Any]:
        return self._call("fingerprint", stats=stats)

    def stats(self) -> Dict[str, Any]:
        return self._call("stats")

    def violations(self) -> List[Dict[str, Any]]:
        return self._call("violations")["violations"]

    def define_cell(self, name: str, superclass: Optional[str] = None,
                    generic: bool = False) -> None:
        fields: Dict[str, Any] = {"name": name, "generic": generic}
        if superclass is not None:
            fields["super"] = superclass
        self._call("define-cell", **fields)

    def define_signal(self, cell: str, name: str,
                      direction: str = "in") -> None:
        self._call("define-signal", cell=cell, name=name,
                   direction=direction)

    def declare_delay(self, cell: str, source: str, dest: str,
                      estimate: Optional[float] = None) -> None:
        self._call("declare-delay", cell=cell, source=source, dest=dest,
                   estimate=estimate)

    def add_parameter(self, cell: str, name: str, **fields: Any) -> None:
        self._call("add-parameter", cell=cell, name=name, **fields)

    def instantiate(self, parent: str, child: str, name: str,
                    orientation: str = "R0",
                    offset: Any = (0, 0)) -> None:
        self._call("instantiate", parent=parent, child=child, name=name,
                   orientation=orientation, offset=list(offset))

    def add_net(self, cell: str, name: str) -> None:
        self._call("add-net", cell=cell, name=name)

    def connect(self, cell: str, net: str, signal: str,
                instance: Optional[str] = None) -> None:
        self._call("connect", cell=cell, net=net, signal=signal,
                   instance=instance)
