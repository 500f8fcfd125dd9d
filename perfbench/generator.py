"""Open-loop publisher beside the agent, and the dashboard's /stream follower.

One process, two threads: the main thread publishes one record per turbine
per step through ``Broker.publish`` on a schedule that does not wait for
the agent (step k falls due ``k + phase[k]`` step intervals after the
start); a reader thread follows ``/stream?from=<n>`` over one connection
and stamps each line on arrival. Protocol with the caller: print
``ready`` once connected, read the schedule's start time (unix seconds) from
stdin, write the results to ``--out`` and exit.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import socket
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from windpdm.broker import Broker  # noqa: E402

ARRIVAL_GRACE_S = 10.0


class StreamFollower:
    def __init__(self, port: int, from_line: int, expected: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.conn.request("GET", f"/stream?from={from_line}")
        self.sock = self.conn.sock
        self.response = self.conn.getresponse()
        if self.response.status != 200:
            raise RuntimeError(f"/stream answered {self.response.status}")
        self.expected = expected
        self.received: list[tuple[float, str]] = []
        self.error: str | None = None
        self.closing = False
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._read, name="stream-reader")
        self.thread.start()

    def _read(self) -> None:
        try:
            while True:
                line = self.response.readline()
                if not line:
                    return
                self.received.append((time.time(), line.decode("utf-8").rstrip("\n")))
                if len(self.received) >= self.expected:
                    self.done.set()
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if not self.closing:
                self.error = repr(exc)
        finally:
            self.done.set()

    def close(self) -> None:
        """Close the connection from this side, before the endpoint stops.
        Shutting the socket down ends the reader's blocking read with EOF."""
        self.closing = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.thread.join(timeout=10.0)
        self.conn.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--broker", required=True)
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--schedule", required=True)
    ap.add_argument("--first-step", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True)
    ap.add_argument("--steps-per-s", type=float, required=True)
    ap.add_argument("--from-line", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cpu", type=int, required=True, help="the CPU this process keeps to")
    args = ap.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    schedule = json.loads(Path(args.schedule).read_text(encoding="utf-8"))
    steps = schedule["steps"][args.first_step:args.first_step + args.steps]
    phase = schedule["phase"][args.first_step:args.first_step + args.steps]
    payloads = [[(turbine, line.encode("utf-8")) for turbine, line in step] for step in steps]
    expected = sum(len(step) for step in steps)
    broker = Broker(Path(args.broker))
    follower = StreamFollower(args.port, args.from_line, expected)
    published = []
    try:
        print("ready", flush=True)
        start_at = float(sys.stdin.readline())
        interval = 1.0 / args.steps_per_s
        for k, step in enumerate(payloads):
            scheduled = start_at + (k + phase[k]) * interval
            pause = scheduled - time.time()
            if pause > 0:
                time.sleep(pause)
            began = time.time()
            for turbine, payload in step:
                broker.publish(turbine, payload)
            published.append([scheduled, began, time.time() - began, len(step)])
        follower.done.wait(timeout=max(0.0, start_at + len(steps) * interval + ARRIVAL_GRACE_S - time.time()))
    finally:
        follower.close()
    doc = {
        "start_at": start_at,
        "steps": published,
        "records": [[turbine, line] for step in steps for turbine, line in step],
        "received": follower.received,
        "stream_error": follower.error,
        "reader_alive": follower.thread.is_alive(),
    }
    Path(args.out).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
