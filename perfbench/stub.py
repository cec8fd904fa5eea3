"""Loopback stub of a chat-completions endpoint for the ``live`` workload.

Usage: ``python3 stub.py --table answers.json --delay-ms 20``

The table maps the sha256 of a prompt text to its canned answer, or to
null for a prompt that must fail with a non-retryable HTTP 400 "context"
reply.  Every request is answered after a fixed delay.  The server binds
an ephemeral port on 127.0.0.1 and prints it as its first output line;
``GET /count`` returns the number of completion requests served.

Each response goes out in one send on a socket with TCP_NODELAY set, so
the client sees the configured delay and no Nagle/delayed-ACK stall.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict, delay_s: float):
        super().__init__(("127.0.0.1", 0), Handler)
        self.table = table
        self.delay_s = delay_s
        self.served = 0
        self.lock = threading.Lock()


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def _reply(self, status: int, reason: str, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path != "/count":
            self._reply(404, "Not Found", b"{}")
            return
        with self.server.lock:
            served = self.server.served
        self._reply(200, "OK", json.dumps({"requests": served}).encode())

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        text = json.loads(body)["messages"][0]["content"]
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        time.sleep(self.server.delay_s)
        with self.server.lock:
            self.server.served += 1
        if key not in self.server.table:
            self._reply(404, "Not Found", b'{"error": "unknown prompt"}')
            return
        answer = self.server.table[key]
        if answer is None:
            message = {"error": {"message": "maximum context length exceeded"}}
            self._reply(400, "Bad Request", json.dumps(message).encode())
            return
        payload = {
            "choices": [
                {"message": {"role": "assistant", "content": answer}, "finish_reason": "stop"}
            ],
            "usage": {"prompt_tokens": len(text) // 4, "completion_tokens": len(answer) // 4},
        }
        self._reply(200, "OK", json.dumps(payload).encode())

    def log_message(self, format, *args):
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()
    with open(args.table, encoding="utf-8") as handle:
        table = json.load(handle)
    server = StubServer(table, args.delay_ms / 1000.0)
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
