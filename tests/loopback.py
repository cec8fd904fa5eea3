"""An in-process chat-completions endpoint on 127.0.0.1 for tests of the
live HTTP path.

    with ChatServer() as server:
        ...  # send to server.endpoint

``respond`` maps each recorded request to a ``(status, body, headers)``
reply: a callable, or a list of replies sent in order.  A body that is not
bytes is sent as JSON.  The server records every request it reads and
counts the connections it accepts; with ``drop_after_reply`` it closes
each connection after one reply without announcing it, as a server whose
idle timeout has passed does.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def without_proxies(monkeypatch) -> None:
    """Clear the proxy variables, so that requests to 127.0.0.1 go direct."""
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def chat_body(content: str = "hi") -> dict:
    return {
        "choices": [{"message": {"content": content}, "finish_reason": "stop"}],
        "usage": {"prompt_tokens": 10, "completion_tokens": 5},
    }


class ChatServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, respond=None, drop_after_reply: bool = False):
        super().__init__(("127.0.0.1", 0), _Handler)
        if isinstance(respond, list):
            replies = iter(respond)
            respond = lambda request: next(replies)
        self.respond = respond or (lambda request: (200, chat_body(), {}))
        self.drop_after_reply = drop_after_reply
        self.requests: list[dict] = []
        self.connections = 0
        self.lock = threading.Lock()
        # A short poll interval lets ``shutdown`` return promptly.
        self._thread = threading.Thread(target=self.serve_forever, args=(0.01,), daemon=True)

    @property
    def base(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    @property
    def endpoint(self) -> str:
        return self.base + "/v1/chat/completions"

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def handle_error(self, request, client_address):
        pass  # a client that hung up before its reply, as after a timeout

    def __enter__(self) -> ChatServer:
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # the body follows the head in a second send
    timeout = 10

    def _record(self, body: bytes = b"") -> dict:
        request = {"method": self.command, "path": self.path, "headers": self.headers, "body": body}
        with self.server.lock:
            self.server.requests.append(request)
        return request

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        request = self._record(body)
        request["json"] = json.loads(body)
        status, reply, headers = self.server.respond(request)
        if not isinstance(reply, bytes):
            reply = json.dumps(reply).encode()
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)
        self.close_connection = self.server.drop_after_reply

    def do_CONNECT(self):
        """A proxy that refuses every tunnel it is asked for."""
        self._record()
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, format, *args):
        pass
