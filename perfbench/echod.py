"""A stand-in for the serve daemon's transport: the reference serve-open
times its back-to-back rate against (see :mod:`hostspeed`).

Usage: ``python3 perfbench/echod.py`` — prints its port, then answers
every HTTP/1.1 ``POST`` on a fresh connection the way ``repro serve``
does, without a scheduler: an asyncio server reads the request, hands
the JSON body to one worker thread under a lock to decode and re-encode,
and answers with ``Connection: close``.  SIGTERM stops it.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ThreadPoolExecutor


def answer(body: bytes) -> bytes:
    return json.dumps({"echo": json.loads(body)}, sort_keys=True).encode()


async def main() -> None:
    loop = asyncio.get_running_loop()
    worker = ThreadPoolExecutor(1)
    lock = asyncio.Lock()

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        head = await reader.readuntil(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await reader.readexactly(length)
        async with lock:
            out = await loop.run_in_executor(worker, answer, body)
        writer.write(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(out) + out
        )
        await writer.drain()
        writer.close()

    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    async with server:
        await stop.wait()
    worker.shutdown()


if __name__ == "__main__":
    asyncio.run(main())
