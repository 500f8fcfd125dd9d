"""Fault-injection fakes for the agent, simulator and artifact-write tests.

Faults reach the agent only through the objects it is handed, its broker and
its notification sink, so the runtime modules carry no test hooks. The four
crash points of the agent's drain cycle map onto them:

* ``"poll"``: before the broker poll;
* ``"before_sink_append"``: before the notifications are appended;
* ``"after_sink_append"``: after the durable append, before the in-memory
  dedupe index learns the batch;
* ``"after_commit"``: after the round's one offset commit.

Artifact writes are crashed through the ``os`` module that
``windpdm.durable`` sees (``CrashingOs``).
"""

from __future__ import annotations

import os
import time

from windpdm.errors import StorageFailure


class SimulatedCrash(BaseException):
    """Sudden process death.

    A BaseException, so no ``except Exception`` in the runtime can swallow
    it: it unwinds straight out of the agent, as a kill would.
    """


class FaultyBroker:
    """Broker wrapper that injects faults around the real broker's calls.

    * ``pause_for(ms, topics=None)``: poll and commit raise StorageFailure
      until the window passes, on the given topics or, by default, on all; a
      ``commit_many`` raises if any of its topics is paused.
      Publishes keep landing, as the turbines keep sending.
    * ``failpoint(stage)``: called with ``"poll"`` before each poll and with
      ``"after_commit"`` after each commit or ``commit_many``; raise
      SimulatedCrash from it to kill the consumer at that point.
    * ``after_publish(k, hook)``: ``hook()`` runs once, right after the k-th
      publish through this wrapper.
    """

    def __init__(self, inner, failpoint=None):
        self.inner = inner
        self.failpoint = failpoint
        self.published = 0
        self._paused_until = 0.0
        self._paused_topics = None
        self._publish_hooks = {}

    def pause_for(self, ms: float, topics=None) -> None:
        self._paused_until = time.monotonic() + ms / 1000.0
        self._paused_topics = None if topics is None else set(topics)

    def after_publish(self, k: int, hook) -> None:
        self._publish_hooks[k] = hook

    def _check(self, topic):
        paused = self._paused_topics is None or topic in self._paused_topics
        if paused and time.monotonic() < self._paused_until:
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
        self._check(topic)
        self._fire("poll")
        return self.inner.poll(group, topic, max_batch)

    def commit(self, group, topic, offset):
        self.commit_many(group, {topic: offset})

    def commit_many(self, group, offsets):
        for topic in offsets:
            self._check(topic)
        self.inner.commit_many(group, offsets)
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


class CrashingOs:
    """Stand-in for ``os`` inside ``windpdm.durable`` that kills the process
    inside its ``nth`` ``atomic_write``; install it with
    ``monkeypatch.setattr(durable, "os", CrashingOs(stage, nth))``.

    Each ``atomic_write`` makes three calls in order: fsync of the tmp file,
    replace of the target by it, fsync of the directory. ``stage`` names the
    call that raises SimulatedCrash instead of running:

    * ``"after_tmp_write"``: the tmp file is written, not fsynced;
    * ``"after_tmp_fsync"``: the tmp file is fsynced, not renamed;
    * ``"after_replace"``: the target is replaced, the directory not fsynced.

    Counting assumes only ``atomic_write`` runs meanwhile (no log appends),
    as in a training run.
    """

    STAGES = ("after_tmp_write", "after_tmp_fsync", "after_replace")

    def __init__(self, stage: str, nth: int):
        self.crash_at = 3 * (nth - 1) + self.STAGES.index(stage) + 1
        self.calls = 0

    def _step(self) -> None:
        self.calls += 1
        if self.calls == self.crash_at:
            raise SimulatedCrash(f"crash at durable call {self.calls}")

    def fsync(self, fd):
        self._step()
        os.fsync(fd)

    def replace(self, src, dst):
        self._step()
        os.replace(src, dst)

    def __getattr__(self, name):
        return getattr(os, name)
