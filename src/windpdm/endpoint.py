"""HTTP endpoint over the agent: health snapshot and a live sink stream.

* ``GET /health`` returns the agent status (Ready/Degraded/Stopped) and its
  counters as JSON.
* ``GET /stream?from=N`` replays the notification sink from line N as
  newline-delimited JSON and keeps the connection open, pushing every new
  notification as it lands, until the client disconnects or the server
  stops. This is the push channel consumers subscribe to.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .agent import MonitoringAgent


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
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        sink = self.agent.sink
        sent = start
        try:
            while not self.stopping.is_set():
                lines = sink.read_lines(sent)
                for line in lines:
                    self._write_chunk(line + "\n")
                sent += len(lines)
                with sink.condition:
                    sink.condition.wait(timeout=0.25)
            self._write_chunk("")
            # end the keep-alive connection too, or this handler thread
            # outlives stop() waiting for the client's next request
            self.close_connection = True
        except (BrokenPipeError, ConnectionResetError):
            pass

    def _write_chunk(self, text: str):
        data = text.encode("utf-8")
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()


class AgentEndpoint:
    def __init__(self, agent: MonitoringAgent, host: str = "127.0.0.1", port: int = 8787):
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
