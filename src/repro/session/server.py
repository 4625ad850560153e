"""Concurrent multi-session server — newline-delimited JSON over TCP.

``repro serve --root DIR`` exposes a :class:`SessionManager` to N
concurrent clients.  The protocol is one JSON object per line in each
direction::

    -> {"id": 1, "cmd": "assign", "session": "alice", "var": "v:x",
        "value": 5}
    <- {"id": 1, "ok": true, "result": {"accepted": true, ...}}
    <- {"id": 2, "ok": false, "error": {"type": "violation",
        "message": "...", "detail": {...}}}

Isolation and flow control:

* every session has its own :class:`~repro.session.session.Session`
  (own context, library, journal) — no shared mutable state between
  sessions, so cross-session leakage is impossible by construction;
* an ``asyncio.Lock`` per session serializes its operations while
  operations on *different* sessions interleave freely;
* at most ``max_pending`` requests may queue per session — excess
  requests fail fast with a ``busy`` error frame;
* each request is bounded by ``request_timeout`` — lock starvation
  surfaces as a ``timeout`` error frame instead of a hung client;
* request frames are bounded by ``max_frame_bytes`` — an oversized frame
  answers with a ``bad-request`` frame and is discarded up to its
  newline, leaving the connection usable;
* at most ``max_connections`` clients may be connected — excess accepts
  receive a graceful ``overloaded`` frame and are closed;
* constraint violations are not errors of the protocol but of the
  design: they come back as graceful ``violation`` frames carrying the
  violation record, with the network already restored.

Retry safety: a request may carry a client-generated ``rid`` string.
The response to each ``rid`` is remembered (per session, bounded LRU)
and replayed verbatim when the same ``rid`` arrives again, so a client
that lost a response to a network fault can retry the mutation and have
it apply **exactly once**.  The check-and-record happens inside the
session lock with no intervening ``await``, so a duplicate can never
race the original.

Disk-fault surfacing: a session whose journal degraded (persistent disk
error) answers mutations with ``degraded`` frames; other I/O errors
surface as ``io-error`` frames.  ``health`` reports both, plus load.

The server process is crash-safe by delegation: every acknowledged
mutation was journaled write-ahead by the session, so ``kill -9`` at any
point loses nothing that was acknowledged (see docs/sessions.md).
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.plancache import plan_counters
from .codec import (
    EncodingError,
    UnknownAddress,
    decode_justification_name,
    decode_value,
    encode_value,
)
from .journal import JournalCorrupt, JournalDegraded
from .manager import SessionManager
from .session import Session, SessionError

__all__ = ["SessionServer"]

_MAX_LINE = 1 << 20
_READ_CHUNK = 1 << 16
_RID_CACHE_SIZE = 256  # remembered responses per session, for retries


class _ReusedBufferProtocol(asyncio.StreamReaderProtocol,
                            asyncio.BufferedProtocol):
    """A stream protocol whose socket reads land in one reused buffer.

    asyncio's default read path allocates a fresh 256 KiB ``bytes`` for
    every ``recv`` and frees it once the data is copied into the
    reader.  Whether glibc then trims the heap and regrows it on the
    next request depends on the process's heap layout; when it does,
    every request takes fresh page faults.  Reading into one buffer per
    connection removes that allocation.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 client_connected: Any = None) -> None:
        super().__init__(reader, client_connected)
        self._read_buffer = memoryview(bytearray(_READ_CHUNK))

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._read_buffer[:nbytes])


async def _start_stream_server(client_connected: Callable[..., Any],
                               host: str, port: int) -> asyncio.AbstractServer:
    """``asyncio.start_server`` over :class:`_ReusedBufferProtocol`."""
    return await asyncio.get_running_loop().create_server(
        lambda: _ReusedBufferProtocol(
            asyncio.StreamReader(limit=_MAX_LINE), client_connected),
        host, port)


async def _open_stream_connection(host: str, port: int) -> Tuple[
        asyncio.StreamReader, asyncio.StreamWriter]:
    """``asyncio.open_connection`` over :class:`_ReusedBufferProtocol`."""
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader(limit=_MAX_LINE)
    protocol = _ReusedBufferProtocol(reader)
    transport, _ = await loop.create_connection(lambda: protocol, host, port)
    return reader, asyncio.StreamWriter(transport, protocol, reader, loop)


class _RequestError(Exception):
    """A request that must answer with an error frame."""

    def __init__(self, kind: str, message: str,
                 detail: Any = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.detail = detail

    def frame(self) -> Dict[str, Any]:
        error: Dict[str, Any] = {"type": self.kind, "message": str(self)}
        if self.detail is not None:
            error["detail"] = self.detail
        return error


class SessionServer:
    """Serve a session root to concurrent JSON-line clients."""

    def __init__(self, root: str, *, host: str = "127.0.0.1", port: int = 0,
                 fsync: str = "always", request_timeout: float = 30.0,
                 max_pending: int = 64, max_sessions: int = 64,
                 max_frame_bytes: int = _MAX_LINE,
                 max_connections: int = 64,
                 drain_timeout: float = 5.0,
                 opener: Any = None,
                 round_budget: Any = None,
                 store: Any = None) -> None:
        self.manager = SessionManager(root, fsync=fsync,
                                      max_sessions=max_sessions,
                                      opener=opener,
                                      round_budget=round_budget,
                                      store=store)
        self.host = host
        self.port = port
        #: Extra identity fields merged into every ``health`` frame —
        #: a fleet worker stamps its worker id and role here.
        self.info: Dict[str, Any] = {}
        self.request_timeout = request_timeout
        self.max_pending = max_pending
        self.max_frame_bytes = max_frame_bytes
        self.max_connections = max_connections
        self.drain_timeout = drain_timeout
        self._locks: Dict[str, asyncio.Lock] = {}
        self._pending: Dict[str, int] = {}
        self._rid_cache: Dict[str, "OrderedDict[str, Any]"] = {}
        self._connections: Set[asyncio.StreamWriter] = set()
        self._in_flight = 0
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._server = await _start_stream_server(
            self._client_connected, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> None:
        """Start, serve until :meth:`request_stop` / ``shutdown``, stop."""
        if self._server is None:
            await self.start()
        assert self._stopped is not None
        await self._stopped.wait()
        await self.stop()

    async def stop(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Drain: let in-flight requests finish (and their responses be
        # written) before forcing connections closed and syncing journals.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout
        while self._in_flight and loop.time() < deadline:
            await asyncio.sleep(0.01)
        await asyncio.sleep(0.05)  # grace for final response writes
        for writer in list(self._connections):
            writer.close()
        self.manager.close_all()
        self._draining = False

    def request_stop(self) -> None:
        if self._stopped is not None:
            self._stopped.set()

    # -- connection handling ------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            if self._draining or len(self._connections) >= \
                    self.max_connections:
                writer.write(_encode_frame({
                    "id": None, "ok": False,
                    "error": {"type": "overloaded",
                              "message": "server at its connection limit "
                                         f"({self.max_connections})"}}))
                await writer.drain()
                return
            self._connections.add(writer)
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown while this connection was idle
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Frame requests by hand so an oversized line is survivable.

        ``StreamReader.readline`` cannot stay newline-aligned after a
        ``LimitOverrunError``, so the loop keeps its own buffer: an
        oversized frame answers ``bad-request`` once, its remaining bytes
        are discarded up to the newline, and the connection lives on.
        """
        buffer = bytearray()
        discarding = False
        limit = self.max_frame_bytes
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                if len(buffer) > limit:
                    if not discarding:
                        discarding = True
                        writer.write(_encode_frame(_too_long_frame(limit)))
                        await writer.drain()
                    del buffer[:]  # drop the prefix, keep seeking newline
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return
                buffer += chunk
                continue
            line = bytes(buffer[:newline])
            del buffer[:newline + 1]
            if discarding:
                discarding = False  # tail of the oversized frame
                continue
            if len(line) > limit:
                writer.write(_encode_frame(_too_long_frame(limit)))
                await writer.drain()
                continue
            self._in_flight += 1
            try:
                response = await self._handle_line(line)
            finally:
                self._in_flight -= 1
            writer.write(_encode_frame(response))
            await writer.drain()

    async def _handle_line(self, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        try:
            try:
                message = json.loads(line)
            except ValueError:
                raise _RequestError("bad-request", "request is not JSON")
            if not isinstance(message, dict):
                raise _RequestError("bad-request",
                                    "request must be a JSON object")
            request_id = message.get("id")
            result = await self._dispatch(message)
            return {"id": request_id, "ok": True, "result": result}
        except _RequestError as error:
            return {"id": request_id, "ok": False, "error": error.frame()}
        except (SessionError, EncodingError, UnknownAddress,
                KeyError, TypeError, ValueError) as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "bad-request", "message": str(error)}}
        except JournalCorrupt as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "internal", "message": str(error)}}
        except JournalDegraded as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "degraded", "message": str(error)}}
        except OSError as error:
            return {"id": request_id, "ok": False,
                    "error": {"type": "io-error", "message": str(error)}}

    async def _dispatch(self, message: Dict[str, Any]) -> Any:
        cmd = message.get("cmd")
        handler = self.COMMANDS.get(cmd)
        if handler is None:
            raise _RequestError("bad-request", f"unknown cmd {cmd!r}")
        if cmd in self.GLOBAL_COMMANDS:
            return handler(self, message)
        name = message.get("session")
        if not isinstance(name, str) or not name:
            raise _RequestError("bad-request",
                                f"cmd {cmd!r} requires a session name")
        pending = self._pending.get(name, 0)
        if pending >= self.max_pending:
            raise _RequestError(
                "busy", f"session {name!r} has {pending} pending requests")
        self._pending[name] = pending + 1
        lock = self._locks.setdefault(name, asyncio.Lock())
        rid = message.get("rid")
        if rid is not None and not isinstance(rid, str):
            raise _RequestError("bad-request", "rid must be a string")

        async def locked() -> Any:
            # Everything under the lock is synchronous (no awaits), so a
            # timeout can only cancel the request while it waits for the
            # lock — never between applying a mutation and remembering
            # its response.  That makes rid-replay exactly-once.
            async with lock:
                cache = self._rid_cache.setdefault(name, OrderedDict())
                if rid is not None and rid in cache:
                    cache.move_to_end(rid)
                    hit = cache[rid]
                    if isinstance(hit, _RequestError):
                        raise hit
                    return hit
                session: Optional[Session] = None
                if rid is not None and cmd in _JOURNALED_COMMANDS:
                    session = self.manager.get(name)
                    entry = session.rid_entry(rid)
                    if entry is not None:
                        # The mutation already reached the journal —
                        # possibly in a previous process life (the rid
                        # cache above dies with the process, the journal
                        # does not).  Rebuild a response from current
                        # state instead of applying twice.
                        result = _RECONSTRUCT[cmd](self, message, session,
                                                   entry)
                        result["replayed"] = True
                        _remember(cache, rid, result)
                        return result
                    # Stamp the rid into whatever this command journals,
                    # so the dedup above survives a worker kill.
                    session.pending_rid = rid
                before_seq = self._session_seq(name)
                try:
                    result = handler(self, message)
                except _RequestError as error:
                    # Deterministic rejections (violation, bad address…)
                    # replay as-is; load shedding is never remembered.
                    if rid is not None and error.kind not in ("busy",
                                                              "timeout"):
                        _remember(cache, rid, error)
                    raise
                finally:
                    if session is not None:
                        session.pending_rid = None
                result = self._post_command(name, message, result,
                                            before_seq)
                if rid is not None:
                    _remember(cache, rid, result)
                return result

        try:
            return await asyncio.wait_for(locked(), self.request_timeout)
        except asyncio.TimeoutError:
            raise _RequestError(
                "timeout",
                f"request exceeded {self.request_timeout}s") from None
        finally:
            remaining = self._pending.get(name, 1) - 1
            if remaining:
                self._pending[name] = remaining
            else:
                self._pending.pop(name, None)

    # -- helpers ------------------------------------------------------------

    def _session(self, message: Dict[str, Any]) -> Session:
        return self.manager.get(message["session"])

    def _session_seq(self, name: str) -> Optional[int]:
        """Journal position of ``name`` if it is open, else ``None``."""
        session = self.manager.sessions.get(name)
        return session.position if session is not None else None

    def _post_command(self, name: str, message: Dict[str, Any],
                      result: Dict[str, Any],
                      before_seq: Optional[int]) -> Dict[str, Any]:
        """Hook called under the session lock after a handler succeeds.

        ``before_seq`` is the session's journal position before the
        handler ran (``None`` if the session was not open yet).  The
        fleet worker overrides this to piggyback freshly-appended WAL
        lines onto the response for synchronous replication; the base
        server does nothing.
        """
        return result

    @staticmethod
    def _violation_frame(session: Session, what: str) -> _RequestError:
        detail = session.violations[-1] if session.violations else None
        return _RequestError("violation", f"{what} rejected by a "
                             f"constraint violation", detail=detail)

    # -- global commands ----------------------------------------------------

    def _cmd_ping(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True}

    def _cmd_sessions(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"sessions": self.manager.names()}

    def _cmd_shutdown(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self.request_stop()
        return {"stopping": True}

    def _cmd_health(self, message: Dict[str, Any]) -> Dict[str, Any]:
        degraded_detail = self.manager.degraded_info()
        frame = {"status": "degraded" if degraded_detail else "ok",
                 "store": self.manager.store_backend,
                 "sessions": len(self.manager.sessions),
                 "open_sessions": sorted(self.manager.sessions),
                 "connections": len(self._connections),
                 "in_flight": self._in_flight,
                 "draining": self._draining,
                 "degraded": sorted(degraded_detail),
                 "degraded_detail": degraded_detail}
        frame.update(self.info)
        return frame

    # -- session commands ---------------------------------------------------

    def _cmd_open(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return {"name": session.name, "position": session.position,
                "recovered_entries": session.replayed_entries,
                "vars": len(session.vars),
                "constraints": len(session.constraints)}

    def _cmd_close(self, message: Dict[str, Any]) -> Dict[str, Any]:
        self._rid_cache.pop(message["session"], None)
        return {"closed": self.manager.close(message["session"])}

    def _cmd_assign(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        justification = decode_justification_name(
            message.get("just", "USER"))
        ok = session.assign(message["var"],
                            decode_value(message.get("value")),
                            justification)
        if not ok:
            raise self._violation_frame(session, "assignment")
        value, just = session.get(message["var"])
        return {"accepted": True, "value": encode_value(value),
                "just": session._fingerprint_justification(just)}

    def _cmd_assign_many(self, message: Dict[str, Any]) -> Dict[str, Any]:
        entries = message.get("entries")
        if not isinstance(entries, list):
            raise _RequestError("bad-request",
                                "assign-many requires an entries list")
        session = self._session(message)
        default_just = message.get("just", "USER")
        assignments = []
        for spec in entries:
            if not isinstance(spec, dict) or "var" not in spec:
                raise _RequestError("bad-request",
                                    "each entry needs a var field")
            assignments.append((
                spec["var"], decode_value(spec.get("value")),
                decode_justification_name(spec.get("just", default_just))))
        before = session.context.stats.coalesced_assignments
        ok = session.assign_many(assignments)
        if not ok:
            raise self._violation_frame(session, "batched assignment")
        results = []
        for spec in entries:
            value, just = session.get(spec["var"])
            results.append({"var": spec["var"],
                            "value": encode_value(value),
                            "just": session._fingerprint_justification(just)})
        return {"accepted": True, "entries": results,
                "coalesced":
                    session.context.stats.coalesced_assignments - before}

    def _what_if_entries(self, message: Dict[str, Any]) -> List[tuple]:
        entries = message.get("entries")
        if not isinstance(entries, list):
            raise _RequestError("bad-request",
                                "what-if requires an entries list")
        default_just = message.get("just", "USER")
        specs = []
        for spec in entries:
            if not isinstance(spec, dict) or "var" not in spec:
                raise _RequestError("bad-request",
                                    "each entry needs a var field")
            specs.append((
                spec["var"], decode_value(spec.get("value")),
                decode_justification_name(spec.get("just", default_just))))
        return specs

    def _cmd_what_if(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Preview a batch inside a computation space: per-entry
        acceptance and resulting values, then discard — the session's
        journal, fingerprint and position are untouched."""
        session = self._session(message)
        specs = self._what_if_entries(message)
        results = []
        with session.space() as space:
            for var, value, just in specs:
                accepted = space.assign(var, value, just)
                value_now, just_now = space.get(var)
                results.append({
                    "var": var, "accepted": accepted,
                    "value": encode_value(value_now),
                    "just": session._fingerprint_justification(just_now)})
            violations = len(space.violations)
        return {"entries": results, "violations": violations,
                "position": session.position}

    def _cmd_what_if_commit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Apply a batch through a computation space and commit the
        accepted entries as one journaled batch frame; rejected entries
        are dropped instead of aborting the whole batch."""
        session = self._session(message)
        specs = self._what_if_entries(message)
        before = session.context.stats.coalesced_assignments
        accepted_flags = []
        space = session.space().open()
        try:
            for var, value, just in specs:
                accepted_flags.append(space.assign(var, value, just))
            committed = len(space.log)
            ok = space.commit()
        finally:
            if not space.closed:
                space.discard()
        if not ok:
            raise self._violation_frame(session, "what-if commit")
        results = []
        for (var, _value, _just), accepted in zip(specs, accepted_flags):
            value, just = session.get(var)
            results.append({
                "var": var, "accepted": accepted,
                "value": encode_value(value),
                "just": session._fingerprint_justification(just)})
        return {"accepted": True, "entries": results,
                "committed": committed,
                "position": session.position,
                "coalesced":
                    session.context.stats.coalesced_assignments - before}

    def _cmd_get(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        value, just = session.get(message["var"])
        return {"value": encode_value(value),
                "just": session._fingerprint_justification(just)}

    def _cmd_make_var(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.make_variable(message["name"],
                              decode_value(message.get("value")),
                              decode_justification_name(message["just"])
                              if message.get("just") else None)
        return {"var": f"v:{message['name']}"}

    def _cmd_retract(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.retract(message["var"])
        return {"retracted": message["var"]}

    def _cmd_add_constraint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        cid = session.add_constraint(
            message["type"], list(message.get("args", [])),
            params={key: decode_value(val)
                    for key, val in message.get("params", {}).items()},
            cid=message.get("cid"))
        return {"cid": cid}

    def _cmd_remove_constraint(self,
                               message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.remove_constraint(message["cid"])
        return {"removed": message["cid"]}

    def _cmd_undo(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return {"undone": session.undo(), "position": session.position}

    def _cmd_redo(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return {"redone": session.redo(), "position": session.position}

    def _cmd_checkpoint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        path = session.checkpoint()
        return {"path": path, "position": session.position}

    def _cmd_fingerprint(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        return session.fingerprint(
            include_stats=bool(message.get("stats", True)))

    def _cmd_stats(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        stats = session.context.stats.snapshot()
        stats.update(plan_counters(session.context))
        return {"stats": {key: stats[key] for key in sorted(stats)},
                "position": session.position,
                "store": self.manager.store_backend,
                "violations": len(session.violations),
                "unjournaled_assigns": session.unjournaled_assigns}

    def _cmd_violations(self, message: Dict[str, Any]) -> Dict[str, Any]:
        return {"violations": list(self._session(message).violations)}

    def _cmd_define_cell(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.define_cell(message["name"], message.get("super"),
                            bool(message.get("generic")))
        return {"cell": message["name"]}

    def _cmd_define_signal(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.define_signal(message["cell"], message["name"],
                              message.get("direction", "in"))
        return {"signal": message["name"]}

    def _cmd_declare_delay(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.declare_delay(message["cell"], message["source"],
                              message["dest"],
                              estimate=message.get("estimate"))
        return {"delay": f"delay({message['source']}->{message['dest']})"}

    def _cmd_add_parameter(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.add_parameter(message["cell"], message["name"],
                              low=decode_value(message.get("low")),
                              high=decode_value(message.get("high")),
                              choices=decode_value(message.get("choices")),
                              default=decode_value(message.get("default")))
        return {"parameter": message["name"]}

    def _cmd_instantiate(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        offset = message.get("offset", [0, 0])
        session.instantiate(message["parent"], message["child"],
                            message["name"],
                            orientation=message.get("orientation", "R0"),
                            offset=(offset[0], offset[1]))
        return {"instance": message["name"]}

    def _cmd_add_net(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        session.add_net(message["cell"], message["name"])
        return {"net": message["name"]}

    def _cmd_connect(self, message: Dict[str, Any]) -> Dict[str, Any]:
        session = self._session(message)
        ok = session.connect(message["cell"], message["net"],
                             message["signal"], message.get("instance"))
        if not ok:
            raise self._violation_frame(session, "connection")
        return {"connected": True}


def _encode_frame(frame: Dict[str, Any]) -> bytes:
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode("utf-8")


def _too_long_frame(limit: int) -> Dict[str, Any]:
    return {"id": None, "ok": False,
            "error": {"type": "bad-request",
                      "message": f"request frame exceeds {limit} bytes"}}


def _remember(cache: "OrderedDict[str, Any]", rid: Optional[str],
              outcome: Any) -> None:
    if rid is None:
        return
    cache[rid] = outcome
    if len(cache) > _RID_CACHE_SIZE:
        cache.popitem(last=False)


# -- durable rid replay ------------------------------------------------------
#
# The per-session rid cache above lives in process memory; the journal
# does not.  Commands listed here journal (at most) one entry per
# request, stamped with the request's rid, so a retry that arrives after
# a worker kill — when the in-memory cache is gone but the journal was
# replayed — is recognized via Session.rid_entry and answered from
# current state instead of applying twice.  Reconstructed responses
# carry ``"replayed": true``; value fields reflect the state *now*,
# which equals the original response unless later mutations intervened
# (clients retry promptly, so in practice they match).

_JOURNALED_COMMANDS = frozenset({
    "assign", "assign-many", "what-if-commit", "make-var", "retract",
    "add-constraint", "remove-constraint", "undo", "redo", "checkpoint",
    "define-cell", "define-signal", "declare-delay", "add-parameter",
    "instantiate", "add-net", "connect",
})


def _reread_entries(session: Session,
                    specs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    results = []
    for spec in specs:
        value, just = session.get(spec["var"])
        results.append({"var": spec["var"],
                        "value": encode_value(value),
                        "just": session._fingerprint_justification(just)})
    return results


def _rc_assign(server: "SessionServer", message: Dict[str, Any],
               session: Session, entry: Dict[str, Any]) -> Dict[str, Any]:
    value, just = session.get(message["var"])
    return {"accepted": True, "value": encode_value(value),
            "just": session._fingerprint_justification(just)}


def _rc_assign_many(server: "SessionServer", message: Dict[str, Any],
                    session: Session,
                    entry: Dict[str, Any]) -> Dict[str, Any]:
    return {"accepted": True,
            "entries": _reread_entries(session, message.get("entries", [])),
            "coalesced": 0}


def _rc_what_if_commit(server: "SessionServer", message: Dict[str, Any],
                       session: Session,
                       entry: Dict[str, Any]) -> Dict[str, Any]:
    journaled = {spec.get("var") for spec in entry.get("entries", [])}
    results = []
    for spec in message.get("entries", []):
        value, just = session.get(spec["var"])
        results.append({
            "var": spec["var"], "accepted": spec["var"] in journaled,
            "value": encode_value(value),
            "just": session._fingerprint_justification(just)})
    return {"accepted": True, "entries": results,
            "committed": len(entry.get("entries", [])),
            "position": session.position, "coalesced": 0}


_RECONSTRUCT: Dict[str, Callable[..., Dict[str, Any]]] = {
    "assign": _rc_assign,
    "assign-many": _rc_assign_many,
    "what-if-commit": _rc_what_if_commit,
    "make-var": lambda server, message, session, entry:
        {"var": f"v:{message['name']}"},
    "retract": lambda server, message, session, entry:
        {"retracted": message["var"]},
    "add-constraint": lambda server, message, session, entry:
        {"cid": entry.get("cid", message.get("cid"))},
    "remove-constraint": lambda server, message, session, entry:
        {"removed": message["cid"]},
    "undo": lambda server, message, session, entry:
        {"undone": True, "position": session.position},
    "redo": lambda server, message, session, entry:
        {"redone": True, "position": session.position},
    "checkpoint": lambda server, message, session, entry:
        {"path": None, "position": session.position},
    "define-cell": lambda server, message, session, entry:
        {"cell": message["name"]},
    "define-signal": lambda server, message, session, entry:
        {"signal": message["name"]},
    "declare-delay": lambda server, message, session, entry:
        {"delay": f"delay({message['source']}->{message['dest']})"},
    "add-parameter": lambda server, message, session, entry:
        {"parameter": message["name"]},
    "instantiate": lambda server, message, session, entry:
        {"instance": message["name"]},
    "add-net": lambda server, message, session, entry:
        {"net": message["name"]},
    "connect": lambda server, message, session, entry:
        {"connected": True},
}

_GLOBAL_COMMANDS = {"ping", "sessions", "shutdown", "health"}

_COMMANDS: Dict[str, Callable[..., Any]] = {
    "ping": SessionServer._cmd_ping,
    "sessions": SessionServer._cmd_sessions,
    "shutdown": SessionServer._cmd_shutdown,
    "health": SessionServer._cmd_health,
    "open": SessionServer._cmd_open,
    "close": SessionServer._cmd_close,
    "assign": SessionServer._cmd_assign,
    "assign-many": SessionServer._cmd_assign_many,
    "what-if": SessionServer._cmd_what_if,
    "what-if-commit": SessionServer._cmd_what_if_commit,
    "get": SessionServer._cmd_get,
    "make-var": SessionServer._cmd_make_var,
    "retract": SessionServer._cmd_retract,
    "add-constraint": SessionServer._cmd_add_constraint,
    "remove-constraint": SessionServer._cmd_remove_constraint,
    "undo": SessionServer._cmd_undo,
    "redo": SessionServer._cmd_redo,
    "checkpoint": SessionServer._cmd_checkpoint,
    "fingerprint": SessionServer._cmd_fingerprint,
    "stats": SessionServer._cmd_stats,
    "violations": SessionServer._cmd_violations,
    "define-cell": SessionServer._cmd_define_cell,
    "define-signal": SessionServer._cmd_define_signal,
    "declare-delay": SessionServer._cmd_declare_delay,
    "add-parameter": SessionServer._cmd_add_parameter,
    "instantiate": SessionServer._cmd_instantiate,
    "add-net": SessionServer._cmd_add_net,
    "connect": SessionServer._cmd_connect,
}

# Dispatch tables live on the class so subclasses (the fleet worker) can
# extend the protocol without touching the base maps.
SessionServer.COMMANDS = _COMMANDS
SessionServer.GLOBAL_COMMANDS = _GLOBAL_COMMANDS
