"""Stand-in analysis provider: serves ``<docs>/<hash>.json`` over loopback HTTP.

Every answer waits a fixed delay and goes out in a single write on a socket
with Nagle's algorithm off, so the time the program measures per fetch is the
injected delay plus loopback round trips. Hashes listed in the fail file get
a 503 on their first request after each reset; one retry recovers them.

One thread (asyncio) serves every connection. Control endpoints, answered
without delay:

  GET /_control/log   the request log since the last call, as JSON
                      ``[[hash, status], ...]``; also resets the log and the
                      first-request state

Run: ``python3 standin.py --docs DIR --fail FILE --delay-ms 10``; it prints
``port <n>`` once it listens on 127.0.0.1 and stops on SIGTERM.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import socket
from pathlib import Path

_REASONS = {200: "OK", 404: "Not Found", 503: "Service Unavailable"}


class StandIn:
    def __init__(self, docs: dict[str, bytes], fail_first: set[str], delay: float):
        self.docs = docs
        self.fail_first = fail_first
        self.delay = delay
        self.failed: set[str] = set()
        self.log: list[tuple[str, int]] = []

    def answer(self, path: str) -> tuple[int, bytes, bool]:
        """(status, body, delayed) for one request path."""
        if path == "/_control/log":
            body = json.dumps(self.log).encode()
            self.log = []
            self.failed = set()
            return 200, body, False
        hash_value = path.rsplit("/", 1)[-1].lower()
        if hash_value in self.fail_first and hash_value not in self.failed:
            self.failed.add(hash_value)
            status, body = 503, b"{}"
        elif hash_value in self.docs:
            status, body = 200, self.docs[hash_value]
        else:
            status, body = 404, b"{}"
        self.log.append((hash_value, status))
        return status, body, True

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        writer.get_extra_info("socket").setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                _, path, _ = head.split(b"\r\n", 1)[0].decode("latin-1").split(" ", 2)
                status, body, delayed = self.answer(path)
                if delayed and self.delay > 0:
                    await asyncio.sleep(self.delay)
                writer.write(
                    f"HTTP/1.1 {status} {_REASONS[status]}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


async def serve(stand_in: StandIn) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = await asyncio.start_server(stand_in.handle, "127.0.0.1", 0)
    print(f"port {server.sockets[0].getsockname()[1]}", flush=True)
    async with server:
        await stop.wait()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--docs", required=True, type=Path)
    parser.add_argument("--fail", required=True, type=Path, help="file with one hash per line")
    parser.add_argument("--delay-ms", type=float, default=0.0)
    args = parser.parse_args()
    docs = {path.stem.lower(): path.read_bytes() for path in args.docs.glob("*.json")}
    fail_first = set(args.fail.read_text().split())
    asyncio.run(serve(StandIn(docs, fail_first, args.delay_ms / 1000.0)))


if __name__ == "__main__":
    main()
