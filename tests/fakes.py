"""Fault-injection fakes for the agent and simulator tests.

Faults reach the agent only through the objects it is handed, its broker and
its notification sink, so the runtime modules carry no test hooks. The four
crash points of the agent's drain cycle map onto them:

* ``"poll"``: before the broker poll;
* ``"before_sink_append"``: before the notifications are appended;
* ``"after_sink_append"``: after the durable append, before the in-memory
  dedupe index learns the batch;
* ``"after_commit"``: after the offset commit.
"""

from __future__ import annotations

import time

from windpdm.errors import StorageFailure


class SimulatedCrash(BaseException):
    """Sudden process death.

    A BaseException, so no ``except Exception`` in the runtime can swallow
    it: it unwinds straight out of the agent, as a kill would.
    """


class FaultyBroker:
    """Broker wrapper that injects faults around the real broker's calls.

    * ``pause_for(ms)``: poll and commit raise StorageFailure until the
      window passes. Publishes keep landing, as the turbines keep sending.
    * ``failpoint(stage)``: called with ``"poll"`` before each poll and with
      ``"after_commit"`` after each commit; raise SimulatedCrash from it to
      kill the consumer at that point.
    * ``after_publish(k, hook)``: ``hook()`` runs once, right after the k-th
      publish through this wrapper.
    """

    def __init__(self, inner, failpoint=None):
        self.inner = inner
        self.failpoint = failpoint
        self.published = 0
        self._paused_until = 0.0
        self._publish_hooks = {}

    def pause_for(self, ms: float) -> None:
        self._paused_until = time.monotonic() + ms / 1000.0

    def after_publish(self, k: int, hook) -> None:
        self._publish_hooks[k] = hook

    def _check(self):
        if time.monotonic() < self._paused_until:
            raise StorageFailure("broker unavailable (simulated pause)")

    def _fire(self, stage: str) -> None:
        if self.failpoint is not None:
            self.failpoint(stage)

    def publish(self, topic, payload):
        offset = self.inner.publish(topic, payload)
        self.published += 1
        hook = self._publish_hooks.pop(self.published, None)
        if hook is not None:
            hook()
        return offset

    def poll(self, group, topic, max_batch=256):
        self._check()
        self._fire("poll")
        return self.inner.poll(group, topic, max_batch)

    def commit(self, group, topic, offset):
        self._check()
        self.inner.commit(group, topic, offset)
        self._fire("after_commit")

    def __getattr__(self, name):
        return getattr(self.inner, name)


def wrap_sink_append(sink, failpoint) -> None:
    """Call ``failpoint("before_sink_append")`` before and
    ``failpoint("after_sink_append")`` after every real ``sink.append_lines``."""
    real_append = sink.append_lines

    def append_lines(lines):
        failpoint("before_sink_append")
        real_append(lines)
        failpoint("after_sink_append")

    sink.append_lines = append_lines


def install_failpoint(agent, failpoint) -> None:
    """Route all four crash points of ``agent`` through ``failpoint(stage)``."""
    agent.broker = FaultyBroker(agent.broker, failpoint)
    wrap_sink_append(agent.sink, failpoint)
