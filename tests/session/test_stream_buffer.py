"""Server and router sockets read into one reused buffer per connection."""

import asyncio

from repro.session.server import (
    _READ_CHUNK,
    _open_stream_connection,
    _start_stream_server,
)


def test_frames_spanning_many_reads_arrive_intact():
    """A frame several buffers long, pipelined with a second one, must
    come through byte for byte: each read is copied out before the
    buffer is reused."""
    first = b"0123456789abcdef" * (3 * _READ_CHUNK // 16 + 5) + b"\n"
    second = b'{"id": 2, "cmd": "ping"}\n'

    async def exchange():
        received = []

        async def echo(reader, writer):
            for _ in range(2):
                line = await reader.readline()
                received.append(line)
                writer.write(line)
            await writer.drain()
            writer.close()

        server = await _start_stream_server(echo, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await _open_stream_connection("127.0.0.1", port)
        buffered = isinstance(writer.transport.get_protocol(),
                              asyncio.BufferedProtocol)
        writer.write(first + second)
        await writer.drain()
        echoed = [await reader.readline(), await reader.readline()]
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()
        return buffered, received, echoed

    buffered, received, echoed = asyncio.run(
        asyncio.wait_for(exchange(), timeout=30))
    assert buffered
    assert received == [first, second]
    assert echoed == [first, second]
