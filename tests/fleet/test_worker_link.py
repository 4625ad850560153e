"""WorkerLink request timeout: a silent worker surfaces as
``asyncio.TimeoutError`` at the link and as a ``timeout`` frame at the
router, and the link forgets the request either way."""

import asyncio
import json

import pytest

from repro.fleet.router import Router, WorkerLink


async def _silent_worker():
    """A worker that accepts frames and never answers."""
    async def swallow(reader, writer):
        await reader.read()
        writer.close()

    return await asyncio.start_server(swallow, "127.0.0.1", 0)


async def _echo_worker():
    """A worker that answers every frame with a plain success."""
    async def echo(reader, writer):
        while line := await reader.readline():
            frame = json.loads(line)
            writer.write(json.dumps({"id": frame["id"], "ok": True,
                                     "result": {"pong": True}},
                                    separators=(",", ":")).encode() + b"\n")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(echo, "127.0.0.1", 0)


def test_silent_worker_times_out_at_the_link():
    async def scenario():
        server = await _silent_worker()
        port = server.sockets[0].getsockname()[1]
        link = WorkerLink("w0", "127.0.0.1", port, request_timeout=0.1)
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(asyncio.TimeoutError):
            # The outer bound only keeps a broken link from hanging the
            # test; the elapsed check below tells the two apart.
            await asyncio.wait_for(link.request({"cmd": "ping"}), 3.0)
        elapsed = loop.time() - started
        pending = dict(link._futures)
        await link.close()
        server.close()
        await server.wait_closed()
        return elapsed, pending

    elapsed, pending = asyncio.run(scenario())
    assert 0.1 <= elapsed < 2.0
    assert pending == {}


def test_answered_request_leaves_nothing_pending():
    async def scenario():
        server = await _echo_worker()
        port = server.sockets[0].getsockname()[1]
        link = WorkerLink("w0", "127.0.0.1", port, request_timeout=0.1)
        frames = [await link.request({"cmd": "ping"}) for _ in range(3)]
        # Outlive the timeout: a leftover timer must not fire into
        # a later request or raise anywhere.
        await asyncio.sleep(0.2)
        frames.append(await link.request({"cmd": "ping"}))
        pending = dict(link._futures)
        await link.close()
        server.close()
        await server.wait_closed()
        return frames, pending

    frames, pending = asyncio.run(scenario())
    assert [frame["result"] for frame in frames] == [{"pong": True}] * 4
    assert pending == {}


def test_silent_worker_answers_the_client_with_a_timeout_frame():
    async def scenario():
        server = await _silent_worker()
        port = server.sockets[0].getsockname()[1]
        router = Router({"w0": ("127.0.0.1", port)}, repl_interval=0,
                        request_timeout=0.1)
        await router.start()
        reader, writer = await asyncio.open_connection(router.host,
                                                       router.port)
        writer.write(b'{"id":7,"cmd":"get","session":"s","var":"v:x"}\n')
        await writer.drain()
        response = json.loads(await asyncio.wait_for(reader.readline(),
                                                     3.0))
        writer.close()
        await router.stop()
        server.close()
        await server.wait_closed()
        return response

    response = asyncio.run(scenario())
    assert response["id"] == 7 and response["ok"] is False
    assert response["error"]["type"] == "timeout"
