"""Stub completion server for the ``eval-checkpoints`` workload.

Usage: ``python3 stub_server.py TABLE.json``

TABLE.json holds ``{"prompts": {input_text: index}, "checkpoints":
[[answer, ...], ...]}`` where an answer is either a completion string or
an integer HTTP status to fail with.  A request to
``/ck/<c>/completion`` is answered with ``checkpoints[c][index]``, where
``index`` is looked up from the ``### Input:`` section of the prompt.

The server prints its port on the first line of stdout, serves until its
stdin closes, then prints one JSON line with what it counted: accepted TCP
connections, requests by method, and the summed time spent inside request
handlers.  It speaks HTTP/1.1 with keep-alive, so a client that reuses
connections shows fewer connections than requests.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.prompts = table["prompts"]
        self.checkpoints = table["checkpoints"]
        self.lock = threading.Lock()
        self.stats = {"connections": 0, "get": 0, "post": 0, "busy_s": 0.0}

    def process_request(self, request, client_address):
        with self.lock:
            self.stats["connections"] += 1
        super().process_request(request, client_address)

    def count(self, method: str, busy: float) -> None:
        with self.lock:
            self.stats[method] += 1
            self.stats["busy_s"] += busy


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def _reply(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        start = time.perf_counter()
        self._reply(200, b"{}")
        self.server.count("get", time.perf_counter() - start)

    def do_POST(self):
        start = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length))
        answer = self._answer(payload.get("prompt", ""))
        if isinstance(answer, int):
            self._reply(answer, b"{}")
        else:
            self._reply(200, json.dumps({"choices": [{"text": answer}]}).encode())
        self.server.count("post", time.perf_counter() - start)

    def _answer(self, prompt: str):
        parts = self.path.strip("/").split("/")
        if len(parts) != 3 or parts[0] != "ck" or parts[2] != "completion":
            return 404
        try:
            answers = self.server.checkpoints[int(parts[1])]
        except (ValueError, IndexError):
            return 404
        _, _, rest = prompt.partition("### Input:\n")
        problem, sep, _ = rest.partition("\n\n### Response:\n")
        index = self.server.prompts.get(problem)
        if not sep or index is None:
            return 404
        return answers[index]

    def log_message(self, *args):
        pass


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: stub_server.py TABLE.json", file=sys.stderr)
        return 1
    with open(argv[0]) as f:
        server = _Server(json.load(f))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()
    server.shutdown()
    thread.join()
    server.server_close()
    with server.lock:
        print(json.dumps(server.stats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
