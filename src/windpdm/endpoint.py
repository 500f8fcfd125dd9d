"""HTTP endpoint over the agent: health snapshot and a live sink stream.

* ``GET /health`` returns the agent status (Ready/Degraded/Stopped), its
  counters, the error that stopped it, if any, how its consumer thread waits
  (``wake``), each bundle's provenance and what the start's sink index
  rebuild read, as JSON.
* ``GET /stream?from=N`` replays the notification sink from line N as
  newline-delimited JSON and keeps the connection open, pushing every new
  notification as it lands, until the client disconnects or the server
  stops. This is the push channel consumers subscribe to. Line N is found
  by one scan when the client connects; after that the handler keeps a byte
  offset into the sink and reads only the whole lines appended past it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .agent import MonitoringAgent

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8787

_WAIT_S = 0.25  # longest wait for an append, so stop() ends handlers promptly


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # set by the server factory
    agent: MonitoringAgent = None
    stopping: threading.Event = None

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def do_GET(self):
        parsed = urlparse(self.path)
        if parsed.path == "/health":
            self._serve_health()
        elif parsed.path == "/stream":
            params = parse_qs(parsed.query)
            try:
                start = int(params.get("from", ["0"])[0])
            except ValueError:
                self.send_error(400, "from must be an integer")
                return
            self._serve_stream(max(0, start))
        else:
            self.send_error(404)

    def _serve_health(self):
        body = json.dumps(self.agent.health()).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _serve_stream(self, start: int):
        sink = self.agent.sink
        # one scan per connection; line `start` may not exist yet, and then
        # the stream skips the lines still missing before it
        pos, skip = sink.line_offset(start)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while not self.stopping.is_set():
                pos, data = sink.follow(pos, timeout=_WAIT_S)
                while skip and data:
                    data = data[data.index(b"\n") + 1:]
                    skip -= 1
                if data:
                    self._write_chunk(data)
            self._write_chunk(b"")
            # end the keep-alive connection too, or this handler thread
            # outlives stop() waiting for the client's next request
            self.close_connection = True
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _write_chunk(self, data: bytes):
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()


class AgentEndpoint:
    def __init__(self, agent: MonitoringAgent, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.stopping = threading.Event()
        handler = type("BoundHandler", (_Handler,), {"agent": agent, "stopping": self.stopping})
        self.server = ThreadingHTTPServer((host, port), handler)
        self.thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server.server_address[:2]

    def start(self) -> None:
        self.thread = threading.Thread(target=self.server.serve_forever, name="endpoint", daemon=True)
        self.thread.start()

    def stop(self) -> None:
        self.stopping.set()
        self.server.shutdown()
        self.server.server_close()
        if self.thread:
            self.thread.join(timeout=5.0)
