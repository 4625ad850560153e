"""Requests run inline on their connection: no per-request Task, and a
pipelining client cannot starve another connection."""

import asyncio
import inspect
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import tempfile

import pytest

from repro.fleet.worker import WorkerServer
from repro.session.server import SessionServer


@pytest.mark.parametrize("server_class", [SessionServer, WorkerServer])
def test_no_command_handler_is_a_coroutine(server_class):
    """The inline dispatch path, and exactly-once rid replay with it,
    rest on every handler running to completion without awaiting."""
    for cmd, handler in server_class.COMMANDS.items():
        assert not inspect.iscoroutinefunction(handler), cmd


def test_served_session_requests_create_no_tasks(tmp_path):
    requests = 20

    async def scenario():
        server = SessionServer(str(tmp_path), fsync="never")
        await server.start()
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)

        async def call(frame):
            writer.write(json.dumps(frame).encode("utf-8") + b"\n")
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response["ok"], response
            return response

        await call({"id": 0, "cmd": "make-var", "session": "t",
                    "name": "x", "value": 0})
        loop = asyncio.get_running_loop()
        created = []

        def counting_factory(loop, coro, **kwargs):
            created.append(coro)
            return asyncio.Task(coro, loop=loop, **kwargs)

        loop.set_task_factory(counting_factory)
        try:
            for index in range(1, requests + 1):
                await call({"id": index, "cmd": "assign", "session": "t",
                            "var": "v:x", "value": index,
                            "rid": f"r{index}"})
                await call({"id": index, "cmd": "get", "session": "t",
                            "var": "v:x"})
        finally:
            loop.set_task_factory(None)
        writer.close()
        await server.stop()
        return created

    created = asyncio.run(scenario())
    assert len(created) == 0, [coro.__qualname__ for coro in created]


@pytest.fixture(scope="module")
def server():
    root = tempfile.mkdtemp(prefix="repro-inline-test-")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", root,
         "--fsync", "never"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"unexpected server banner: {line!r}"
    yield match.group(1), int(match.group(2))
    proc.terminate()
    proc.wait(timeout=10)
    shutil.rmtree(root, ignore_errors=True)


def _exchange(sock, file, frame):
    sock.sendall(json.dumps(frame).encode("utf-8") + b"\n")
    response = json.loads(file.readline())
    assert response["ok"], response
    return response["result"]


def test_pipelined_client_does_not_starve_another(server):
    """A pipelines 200 assigns in one send; B then reads the same
    variable.  B's value counts the A requests served before it, so it
    must be below 200: B was answered before A's last response."""
    pipelined = 200
    a = socket.create_connection(server, timeout=30)
    b = socket.create_connection(server, timeout=30)
    try:
        a_file, b_file = a.makefile("rb"), b.makefile("rb")
        _exchange(a, a_file, {"id": 0, "cmd": "make-var",
                              "session": "fair", "name": "x", "value": 0})
        _exchange(b, b_file, {"id": 0, "cmd": "ping"})
        a.sendall(b"".join(
            json.dumps({"id": index, "cmd": "assign", "session": "fair",
                        "var": "v:x", "value": index}).encode("utf-8")
            + b"\n" for index in range(1, pipelined + 1)))
        seen = _exchange(b, b_file, {"id": "b", "cmd": "get",
                                     "session": "fair", "var": "v:x"})
        for _ in range(pipelined):
            assert json.loads(a_file.readline())["ok"]
        assert seen["value"] < pipelined
    finally:
        a.close()
        b.close()
