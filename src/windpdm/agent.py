"""Online monitoring agent.

Loads and compiles the six horizon bundles of each monitored turbine, one
turbine at a time, then opens the sinks, rebuilds the dedupe index from the
sink and subscribes to every turbine's telemetry topic. It appends one
six-horizon prediction notification per operational record to a durable
sink.

Exactly-once notifications on top of at-least-once delivery:

* the sink itself is the durable dedupe record. Notifications are appended
  (and fsynced) BEFORE the offset commit, and the in-memory index, each
  turbine's set of notified epoch seconds, is rebuilt from the sink on start
  (``index_sink``). It reads the sink in blocks and takes each line's
  (turbine, t) from the end ``to_json_line`` gives every line, parsing a line
  as JSON only if it ends otherwise. A record whose (turbine, t) is in that
  index, or earlier in its own polled batch, is a duplicate: it is counted
  and skipped, so a crash between append and commit never makes a duplicate
  line. ``/health``'s ``sink_index`` gives the lines the rebuild read, the
  keys it indexed and the lines it skipped for holding no key.
* malformed payloads are quarantined to a dead-letter log and their offset
  committed; the stream keeps flowing.

One consumer thread drains every turbine round-robin, one poll each per
round, appends the round's notifications in one write, and then commits
every polled turbine in one ``Broker.commit_many`` (one fsync). The agent's
broker handle is the one consumer of its turbines' topics for the group, so
it keeps their committed offsets in memory, and a poll of a turbine with
nothing new opens no file: a round that finds nothing costs one stat per
turbine.

Between rounds the thread does not poll on a timer. After a round that
handled nothing it blocks on the broker's inotify watch of its topics
(``Broker.watch``), so a publish from any process wakes it at once; it
drains the watch before each round, so a burst of frames costs one round.
The wait ends after ``SAFETY_POLL_S`` in case an event was lost, or sooner
when the earliest turbine's backoff ends, and ``stop()`` ends it at once
through an eventfd. inotify sees only writes to a local filesystem made on
this machine; a frame written any other way is picked up by the safety
round, up to ``SAFETY_POLL_S`` late. Where inotify or eventfd is unavailable
(no such libc symbol, ``ENOSYS``, or ``EMFILE`` once the per-user inotify
instances run out), the thread waits ``idle_poll_interval`` after each idle
round instead. ``/health`` names the path in use (``wake``: ``inotify`` or
``timer``) and counts ``busy_rounds`` and ``idle_rounds``, the rounds that
handled messages and those that handled none.

A failing handler is contained to its message (dead-lettered). A
``StorageFailure`` backs off the turbine whose poll raised it, or every
turbine of the round whose commit raised it, while the others keep flowing
(health reports Degraded). The first wait is ``BACKOFF_INITIAL`` seconds and
each further failure doubles it, up to ``BACKOFF_MAX``; a poll or commit that
succeeds ends the backoff. Any other exception, an unwritable sink included,
stops the agent and names its cause in ``fatal_error``. Both logs append at
the length acknowledged so far and cut a torn last line on open.

Each turbine's six horizon forests, compiled as their bundles were read
(``ModelBundle.compiled``), are stacked at start into one node array set
(``forest.stack_forests``), in ``HORIZONS_MINUTES`` order, with each bundle
feature remapped to its column in the manifest's parameters, so
a parsed record's values are the input row as they stand. The agent keeps
these arrays and each bundle's provenance (``TurbineModels``), not the
bundles: at most one turbine's trees are alive at a time, and none once the
sink is re-read. A turbine whose bundles cannot be loaded or compiled is a
gap; any gap refuses the start unless ``allow_partial`` drops the turbine.
A round scores each turbine's polled batch, one message or a full backlog
batch, with one walk of that stack, and renders its notification lines at
once. If the walk raises, the batch is scored again one record at a time, so
the failure stays contained to its message. ``/health`` reports each loaded
bundle's payload sha256 and ``created_at``.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .broker import Broker, Message, TopicWatch
from .durable import READ_BYTES, append_at, cut_torn_line
from .errors import (
    CorruptModel,
    DataError,
    FatalStorageFailure,
    MalformedPayload,
    MissingModel,
    StorageFailure,
    VersionMismatch,
)
from .forest import CompiledForests, stack_forests, vote_counts
from .ingest import OperationalRecord, parse_operational_row
from .manifest import Manifest
from .model_io import FORMAT_VERSION, ModelBundle, bundle_path, load_model
from .patterns import HORIZONS_MINUTES
from .timeutil import format_rfc3339, parse_rfc3339

SINK_FILENAME = "notifications.jsonl"
DEAD_LETTER_FILENAME = "dead_letter.jsonl"

READY = "Ready"
DEGRADED = "Degraded"
STOPPED = "Stopped"

BACKOFF_INITIAL = 0.1  # seconds a turbine sits out after its first StorageFailure
BACKOFF_MAX = 10.0  # the cap of the doubling wait
SAFETY_POLL_S = 1.0  # longest wait for a publish's wake-up, in case an event is lost


@dataclass(frozen=True)
class HorizonPrediction:
    class_id: int
    vote_fraction: float


@dataclass(frozen=True)
class PredictionNotification:
    turbine_id: str
    t: int  # record timestamp, epoch seconds
    horizons: dict[int, HorizonPrediction]
    bundle_version: int
    emitted_at: float

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "turbine": self.turbine_id,
                "t": format_rfc3339(self.t),
                "horizons": {
                    str(h): {"class": p.class_id, "vote_fraction": p.vote_fraction}
                    for h, p in sorted(self.horizons.items())
                },
                "bundle_version": self.bundle_version,
                "emitted_at": self.emitted_at,
            },
            sort_keys=True,
        )


class NotificationSink:
    """Append-only JSONL file; appends are fsynced before returning.

    Appends are serialized by a lock and advance ``length``, the byte length
    of the whole lines written, under it. A follower (the streaming
    endpoint) finds where line N starts with ``line_offset`` once, then
    calls ``follow`` for the bytes appended since; ``index_sink`` reads the
    whole file, once, when the agent starts.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.lock = threading.Lock()
        self.condition = threading.Condition(self.lock)
        self.length = cut_torn_line(self.path)

    def append_lines(self, lines: list[str]) -> None:
        if not lines:
            return
        data = "".join(line + "\n" for line in lines).encode("utf-8")
        try:
            with self.condition:
                self.length = append_at(self.path, self.length, data)
                self.condition.notify_all()
        except OSError as exc:
            raise FatalStorageFailure(f"sink {self.path} unwritable: {exc}") from exc

    def follow(self, pos: int, timeout: float) -> tuple[int, bytes]:
        """Whole lines appended since byte offset ``pos`` (about
        ``READ_BYTES`` of them at most) and the offset after them. Waits up to
        ``timeout`` s only if none are there yet: the check is made under the
        lock, so an append landing while the caller was busy is never missed."""
        with self.condition:
            if self.length == pos:
                self.condition.wait(timeout)
            end = self.length
        if end == pos:
            return pos, b""
        with open(self.path, "rb") as fh:
            fh.seek(pos)
            data = fh.read(min(end - pos, READ_BYTES))
            if not data.endswith(b"\n"):  # the cap cut a line: finish it
                data += fh.readline()
        return pos + len(data), data

    def line_offset(self, n: int) -> tuple[int, int]:
        """Byte offset where line ``n`` starts, by one scan for newlines, and
        how many lines short of ``n`` the sink is (the offset is then its end)."""
        with self.condition:
            end = self.length
        pos = 0
        with open(self.path, "rb") as fh:
            while n and pos < end:
                block = fh.read(min(end - pos, READ_BYTES))
                count = block.count(b"\n")
                if count >= n:  # the piece after the n-th newline starts line n
                    return pos + len(block) - len(block.split(b"\n", n)[n]), 0
                n -= count
                pos += len(block)
        return pos, n


# the end of every line ``to_json_line`` renders: ``sort_keys`` puts "t" and
# "turbine" last. The leading ", " starts a match at a member, not inside a
# key; a value holding a quote, an escape or a newline is not matched.
_SINK_KEY = re.compile(r', "t": "([^"\\\n]*)", "turbine": "([^"\\\n]*)"\}$', re.MULTILINE)


def _line_key(line: str) -> tuple[str, str] | None:
    """A sink line's (t, turbine) text: from its canonical end, else from the
    line parsed as a JSON object; None if it holds neither as strings."""
    match = _SINK_KEY.search(line)
    if match:
        return match.groups()
    try:
        doc = json.loads(line)
        key = doc["t"], doc["turbine"]
    except (ValueError, KeyError, TypeError):
        return None
    return key if isinstance(key[0], str) and isinstance(key[1], str) else None


def index_sink(path: Path) -> tuple[defaultdict[str, set[int]], dict[str, int]]:
    """The (turbine, t) keys of the sink's whole lines, as each turbine's set
    of epoch seconds, and the counts of whole ``lines`` read, distinct keys
    ``indexed`` and lines ``skipped`` for giving no key.

    The sink is read as strict UTF-8, one ``READ_BYTES`` block at a time, and
    each block's keys are taken by one ``findall``. A block holding a line that
    does not end like ``to_json_line``'s is read line by line (``_line_key``).
    Each distinct ``t`` is parsed once; a line whose ``t`` does not parse
    gives no key."""
    seen: defaultdict[str, set[int]] = defaultdict(set)
    stamps: dict[str, int | None] = {}
    lines = keyed = 0
    rest = ""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        while block := fh.read(READ_BYTES):
            block = rest + block
            cut = block.rfind("\n") + 1  # a line the block cut is finished by the next
            block, rest = block[:cut], block[cut:]
            count = block.count("\n")
            keys = _SINK_KEY.findall(block)
            if len(keys) != count:
                keys = [key for key in map(_line_key, block.split("\n")[:-1]) if key]
            lines += count
            for stamp, turbine in keys:
                if stamp not in stamps:
                    try:
                        stamps[stamp] = parse_rfc3339(stamp)
                    except DataError:
                        stamps[stamp] = None
                t = stamps[stamp]
                if t is not None:
                    seen[turbine].add(t)
                    keyed += 1
    return seen, {"lines": lines, "indexed": sum(map(len, seen.values())), "skipped": lines - keyed}


def _contained(handler, *args):
    """``handler(*args)``, or the exception it raised: a handler failure is
    contained to its messages. Storage failures propagate."""
    try:
        return handler(*args)
    except (FatalStorageFailure, StorageFailure):
        raise
    except Exception as exc:
        return exc


def load_turbine_bundles(models_dir: Path, turbine: str) -> dict[int, ModelBundle]:
    """A turbine's six bundles by horizon; raises MissingModel naming every
    gap, or the first bundle that holds another turbine or horizon, and
    ``load_model``'s CorruptModel or VersionMismatch for one it cannot read."""
    missing = []
    per_horizon = {}
    for h in HORIZONS_MINUTES:
        path = bundle_path(models_dir, turbine, h)
        if not path.exists():
            missing.append(f"({turbine}, {h})")
            continue
        bundle = load_model(path)
        if bundle.turbine_id != turbine or bundle.horizon_minutes != h:
            raise MissingModel(
                f"{path} holds turbine {bundle.turbine_id!r} horizon {bundle.horizon_minutes}, "
                f"expected {turbine!r} horizon {h}")
        per_horizon[h] = bundle
    if missing:
        raise MissingModel(f"missing model bundles: {', '.join(missing)}")
    return per_horizon


@dataclass(frozen=True)
class TurbineModels:
    """What the agent keeps of a turbine's six horizon bundles: their forests
    compiled into one stack that reads manifest-ordered rows, and each
    bundle's provenance (``sha256``, ``created_at``) by horizon."""

    stack: CompiledForests
    provenance: dict[str, dict[str, str]]


def compile_turbine(turbine: str, per_horizon: dict[int, ModelBundle], manifest: Manifest) -> TurbineModels:
    """Compile a turbine's six bundles to read manifest-ordered rows; raises
    MissingModel if a bundle feature is not a manifest parameter."""
    columns = []
    for h in HORIZONS_MINUTES:
        try:
            columns.append([manifest.parameters.index(name) for name in per_horizon[h].feature_names])
        except ValueError as exc:
            raise MissingModel(f"bundle ({turbine}, {h}) uses a feature missing from the manifest: {exc}")
    return TurbineModels(
        stack_forests([per_horizon[h].compiled for h in HORIZONS_MINUTES], columns, len(manifest.parameters)),
        {str(h): {"sha256": per_horizon[h].sha256, "created_at": format_rfc3339(per_horizon[h].created_at)}
         for h in HORIZONS_MINUTES})


class MonitoringAgent:
    """Consumes turbine topics and emits per-record prediction notifications."""

    def __init__(
        self,
        broker: Broker,
        models: dict[str, TurbineModels],
        manifest: Manifest,
        sink: NotificationSink,
        dead_letter: NotificationSink,
        group: str = "monitoring-agent",
        max_batch: int = 256,
        idle_poll_interval: float = 0.02,
    ):
        self.broker = broker
        self.turbines = sorted(models)
        self._models = models
        self.manifest = manifest
        self.sink = sink
        self.dead_letter = dead_letter
        self.group = group
        self.max_batch = max_batch
        self.idle_poll_interval = idle_poll_interval

        self.counters = {
            "processed": 0,
            "notifications": 0,
            "duplicates_skipped": 0,
            "dead_lettered": 0,
            "backoffs": 0,
            "busy_rounds": 0,
            "idle_rounds": 0,
        }
        self._counter_lock = threading.Lock()
        self.fatal_error: str | None = None
        # turbines in backoff (status Degraded while any is): the monotonic
        # time each sits out until, and the wait its next StorageFailure imposes
        self._backoff: dict[str, tuple[float, float]] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        # how the consumer thread waits between idle rounds: "inotify" or
        # "timer" (None until run_threaded); with inotify, stop() writes the
        # eventfd ``_wake_fd`` under ``_wake_lock``, which its thread closes
        self.wake: str | None = None
        self._wake_fd: int | None = None
        self._wake_lock = threading.Lock()

        # dedupe index rebuilt from the sink: the sink is the durable record
        self._seen, self.sink_index = index_sink(sink.path)

    # -- construction ---------------------------------------------------------

    @classmethod
    def start(
        cls,
        models_dir: Path,
        broker: Broker,
        turbines: list[str],
        sink_dir: Path,
        manifest: Manifest,
        allow_partial: bool = False,
        **kwargs,
    ) -> "MonitoringAgent":
        """Load and compile each turbine's bundles, subscribe to every turbine
        topic, report Ready.

        A turbine whose bundles are missing, corrupt, of another format
        version, mislabelled or read a feature the manifest lacks is a gap.
        By default any gap refuses the whole start, with one MissingModel
        naming every gap; ``allow_partial`` drops those turbines instead,
        unless no turbine is left.
        """
        models = {}
        gaps = []
        for turbine in turbines:
            # one turbine's bundles at a time: their trees are freed once compiled
            try:
                models[turbine] = compile_turbine(turbine, load_turbine_bundles(models_dir, turbine), manifest)
            except (MissingModel, CorruptModel, VersionMismatch) as exc:
                gaps.append(str(exc))
        if gaps and not (allow_partial and models):
            raise MissingModel("; ".join(gaps))
        sink_dir = Path(sink_dir)
        sink = NotificationSink(sink_dir / SINK_FILENAME)
        dead_letter = NotificationSink(sink_dir / DEAD_LETTER_FILENAME)
        agent = cls(broker, models, manifest, sink, dead_letter, **kwargs)
        for turbine in models:
            broker.ensure_topic(turbine)
        return agent

    # -- health -----------------------------------------------------------------

    @property
    def status(self) -> str:
        if self._stop.is_set():
            return STOPPED
        return DEGRADED if self._backoff else READY

    def health(self) -> dict:
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "status": self.status,
            "turbines": list(self.turbines),
            "counters": counters,
            "fatal_error": self.fatal_error,
            "wake": self.wake,
            "models": {turbine: self._models[turbine].provenance for turbine in self.turbines},
            "sink_index": dict(self.sink_index),
        }

    def _bump(self, key: str, by: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += by

    # -- message processing -------------------------------------------------------

    def _parse(self, msg: Message) -> OperationalRecord:
        try:
            return parse_operational_row(
                msg.payload.decode("utf-8", errors="strict"),
                self.manifest.parameters, msg.topic)
        except (DataError, UnicodeDecodeError) as exc:
            raise MalformedPayload(str(exc)) from exc

    def predict_records(self, turbine: str, records: list[OperationalRecord]) -> list[PredictionNotification]:
        """One notification per record of ``turbine``, all scored with one
        walk of its stacked forests."""
        stack = self._models[turbine].stack
        # a record of another width raises here instead of misreading the rows
        X = np.array([record.values for record in records], dtype=np.float64).reshape(len(records), stack.n_features)
        winners = []
        for h, class_ids, n_trees, votes in zip(HORIZONS_MINUTES, stack.class_ids, stack.n_trees,
                                                vote_counts(stack, X)):
            # argmax breaks vote ties to the lowest class index; the winner holds max(votes)
            winners.append((h, class_ids, n_trees, votes.argmax(axis=1).tolist(), votes.max(axis=1).tolist()))
        return [
            PredictionNotification(
                turbine_id=turbine,
                t=record.timestamp,
                horizons={h: HorizonPrediction(class_ids[best[i]], top[i] / n_trees)
                          for h, class_ids, n_trees, best, top in winners},
                bundle_version=FORMAT_VERSION,
                emitted_at=time.time(),
            )
            for i, record in enumerate(records)
        ]

    def _handle(self, msgs: list[Message]) -> list[PredictionNotification | Exception | None]:
        """The outcome of each of one turbine's messages, in order: its
        notification, the exception that failed it, or None for a duplicate,
        a record already in the sink or earlier in ``msgs``. Storage failures
        propagate."""
        turbine = msgs[0].topic
        outcomes = [_contained(self._parse, msg) for msg in msgs]
        todo = []
        seen = self._seen[turbine]
        batch: set[int] = set()
        for i, record in enumerate(outcomes):
            if isinstance(record, Exception):
                continue
            if record.timestamp in seen or record.timestamp in batch:
                outcomes[i] = None
            else:
                batch.add(record.timestamp)
                todo.append(i)
        scored = _contained(self.predict_records, turbine, [outcomes[i] for i in todo])
        if isinstance(scored, Exception):  # score one record at a time: only the failing ones fail
            scored = [_contained(self.predict_records, turbine, [outcomes[i]]) for i in todo]
            scored = [result if isinstance(result, Exception) else result[0] for result in scored]
        for i, result in zip(todo, scored):
            outcomes[i] = result
        return outcomes

    def _back_off(self, turbine: str) -> None:
        _, wait = self._backoff.get(turbine, (0.0, BACKOFF_INITIAL))
        self._backoff[turbine] = (time.monotonic() + wait, min(wait * 2.0, BACKOFF_MAX))
        self._bump("backoffs")

    def _drain_round(self) -> int:
        """Poll each turbine not in backoff once, in sorted order, append the
        round's notifications in one fsynced write (one wake-up of /stream),
        THEN commit the round's turbines in one write; the sink-derived dedupe
        index covers a crash in between. Returns messages committed. A
        StorageFailure backs off the turbine it came from, or all of the
        round's if the commit raised it; anything else propagates."""
        polled: list[list[Message]] = []
        for turbine in self.turbines:
            if self._stop.is_set():
                break
            if turbine in self._backoff and time.monotonic() < self._backoff[turbine][0]:
                continue
            try:
                msgs = self.broker.poll(self.group, turbine, self.max_batch)
            except StorageFailure:
                self._back_off(turbine)
                continue
            if msgs:
                polled.append(msgs)
            else:
                self._backoff.pop(turbine, None)
        if not polled:
            self._bump("idle_rounds")
            return 0
        lines: list[str] = []
        dead: list[str] = []
        keys: list[tuple[str, int]] = []
        duplicates = 0
        for msgs in polled:
            # each batch's lines are rendered before the next batch is scored
            for msg, result in zip(msgs, self._handle(msgs)):
                if result is None:
                    duplicates += 1
                elif isinstance(result, Exception):
                    error = str(result) if isinstance(result, MalformedPayload) else f"handler failure: {result!r}"
                    dead.append(json.dumps({
                        "turbine": msg.topic,
                        "offset": msg.offset,
                        "error": error,
                        "payload": msg.payload.decode("utf-8", errors="replace"),
                        "quarantined_at": time.time(),
                    }, sort_keys=True))
                else:
                    keys.append((msg.topic, result.t))
                    lines.append(result.to_json_line())
        self._bump("duplicates_skipped", duplicates)
        if dead:
            self.dead_letter.append_lines(dead)
            self._bump("dead_lettered", len(dead))
        self.sink.append_lines(lines)
        for turbine, t in keys:
            self._seen[turbine].add(t)
        self._bump("notifications", len(lines))
        try:
            self.broker.commit_many(self.group, {msgs[0].topic: msgs[-1].offset + 1 for msgs in polled})
        except StorageFailure:
            for msgs in polled:
                self._back_off(msgs[0].topic)
            self._bump("idle_rounds")
            return 0
        for msgs in polled:
            self._backoff.pop(msgs[0].topic, None)
        handled = sum(len(msgs) for msgs in polled)
        with self._counter_lock:
            self.counters["processed"] += handled
            self.counters["busy_rounds"] += 1
        return handled

    def process_available(self) -> int:
        """Synchronously drain every turbine topic until a round handles
        nothing. A turbine in backoff is left for a later call."""
        total = 0
        while handled := self._drain_round():
            total += handled
        return total

    # -- consumer thread -------------------------------------------------------

    def _open_wake(self) -> TopicWatch | None:
        """The inotify watch of the agent's topics, with ``_wake_fd`` open for
        stop(); None where either is unavailable."""
        try:
            watch = self.broker.watch(self.turbines)
        except OSError:
            return None
        try:
            self._wake_fd = os.eventfd(0, os.EFD_NONBLOCK | os.EFD_CLOEXEC)
        except (AttributeError, OSError):
            watch.close()
            return None
        return watch

    def _wait_s(self) -> float:
        """How long an idle wait may last: ``SAFETY_POLL_S``, or less until the
        earliest backoff ends."""
        wait = SAFETY_POLL_S
        if self._backoff:
            wait = min(wait, min(until for until, _ in self._backoff.values()) - time.monotonic())
        return max(wait, 0.0)

    def _consume(self, watch: TopicWatch | None) -> None:
        try:
            if watch is not None:
                poller = select.poll()
                poller.register(watch, select.POLLIN)
                poller.register(self._wake_fd, select.POLLIN)
            while not self._stop.is_set():
                if watch is not None:
                    watch.drain()  # what its events announced, this round reads
                if self._drain_round():
                    continue
                if watch is None:
                    self._stop.wait(self.idle_poll_interval)
                else:
                    poller.poll(math.ceil(self._wait_s() * 1000))
        except Exception as exc:
            self.fatal_error = f"{type(exc).__name__}: {exc}"
            self._stop.set()
        finally:
            if watch is not None:
                with self._wake_lock:
                    watch.close()
                    os.close(self._wake_fd)
                    self._wake_fd = None

    def run_threaded(self) -> None:
        """Start the one consumer thread, ``agent-loop``: it repeats the round
        of ``process_available`` until stop(), waiting for a publish after a
        round that handled nothing (the module docstring says how). Backoff
        and what stops the agent: see the module docstring. The thread
        closes the descriptors it waits on when it ends."""
        if self._thread is not None:
            raise RuntimeError("agent already running")
        self._stop.clear()
        watch = self._open_wake()
        self.wake = "timer" if watch is None else "inotify"
        self._thread = threading.Thread(target=self._consume, args=(watch,), name="agent-loop", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        with self._wake_lock:
            if self._wake_fd is not None:
                os.eventfd_write(self._wake_fd, 1)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
