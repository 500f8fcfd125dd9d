"""Online monitoring agent.

Loads all six horizon bundles per monitored turbine into memory, consumes
each turbine's telemetry topic, and appends one six-horizon prediction
notification per operational record to a durable sink.

Exactly-once notifications on top of at-least-once delivery:

* the sink itself is the durable dedupe record. Notifications are appended
  (and fsynced) BEFORE the offset commit, and the in-memory (turbine, t)
  index is rebuilt from the sink on start, so a crash between append and
  commit makes the redelivered message a Skip, never a duplicate line.
* malformed payloads are quarantined to a dead-letter log and their offset
  committed; the stream keeps flowing.

One consumer thread drains every turbine round-robin, one poll each per
round, and appends the round's notifications in one write before it
commits. A failing handler is contained to its message (dead-lettered). A
``StorageFailure`` backs off that turbine alone while the others keep
flowing (health reports Degraded). Any other exception, an unwritable sink
included, stops the agent and names its cause in ``fatal_error``. Both logs
append at the length acknowledged so far and cut a torn last line on open.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .broker import Broker, Message
from .durable import READ_BYTES, append_at, cut_torn_line, iter_lines
from .errors import (
    DataError,
    FatalStorageFailure,
    MalformedPayload,
    MissingModel,
    StorageFailure,
)
from .forest import predict
from .ingest import parse_operational_row
from .manifest import Manifest
from .model_io import ModelBundle, load_model
from .patterns import HORIZONS_MINUTES
from .timeutil import format_rfc3339, parse_rfc3339

SINK_FILENAME = "notifications.jsonl"
DEAD_LETTER_FILENAME = "dead_letter.jsonl"

READY = "Ready"
DEGRADED = "Degraded"
STOPPED = "Stopped"


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


@dataclass(frozen=True)
class Skip:
    reason: str  # only "duplicate": a message that fails is dead-lettered, not skipped


class NotificationSink:
    """Append-only JSONL file; appends are fsynced before returning.

    Appends are serialized by a lock and advance ``length``, the byte length
    of the whole lines written, under it. A follower (the streaming
    endpoint) finds where line N starts with ``line_offset`` once, then
    calls ``follow`` for the bytes appended since; ``durable.iter_lines``
    reads the whole file.
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


def bundle_path(models_dir: Path, turbine_id: str, horizon_minutes: int) -> Path:
    return Path(models_dir) / turbine_id / f"horizon_{horizon_minutes}.model"


def load_turbine_bundles(models_dir: Path, turbines: list[str]) -> dict[str, dict[int, ModelBundle]]:
    """All six bundles per turbine; raises MissingModel naming every gap."""
    missing = []
    loaded: dict[str, dict[int, ModelBundle]] = {}
    for turbine in turbines:
        per_horizon = {}
        for h in HORIZONS_MINUTES:
            path = bundle_path(models_dir, turbine, h)
            if not path.exists():
                missing.append((turbine, h))
                continue
            bundle = load_model(path)
            if bundle.turbine_id != turbine or bundle.horizon_minutes != h:
                raise MissingModel(
                    f"{path} holds turbine {bundle.turbine_id!r} horizon {bundle.horizon_minutes}, "
                    f"expected {turbine!r} horizon {h}")
            per_horizon[h] = bundle
        loaded[turbine] = per_horizon
    if missing:
        gaps = ", ".join(f"({t}, {h})" for t, h in missing)
        raise MissingModel(f"missing model bundles: {gaps}")
    return loaded


class MonitoringAgent:
    """Consumes turbine topics and emits per-record prediction notifications."""

    def __init__(
        self,
        broker: Broker,
        models: dict[str, dict[int, ModelBundle]],
        manifest: Manifest,
        sink: NotificationSink,
        dead_letter: NotificationSink,
        group: str = "monitoring-agent",
        max_batch: int = 256,
        idle_poll_interval: float = 0.02,
        backoff_initial: float = 0.1,
        backoff_max: float = 10.0,
    ):
        self.broker = broker
        self.models = models
        self.manifest = manifest
        self.sink = sink
        self.dead_letter = dead_letter
        self.group = group
        self.max_batch = max_batch
        self.idle_poll_interval = idle_poll_interval
        self.backoff_initial = backoff_initial
        self.backoff_max = backoff_max

        self.counters = {
            "processed": 0,
            "notifications": 0,
            "duplicates_skipped": 0,
            "dead_lettered": 0,
            "backoffs": 0,
        }
        self._counter_lock = threading.Lock()
        self.fatal_error: str | None = None
        # turbines in backoff (status Degraded while any is): the monotonic
        # time each sits out until, and the wait its next StorageFailure imposes
        self._not_before: dict[str, float] = {}
        self._backoff: dict[str, float] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

        # feature index per (turbine, horizon), resolved against the manifest
        self._projections: dict[tuple[str, int], list[int]] = {}
        for turbine, per_horizon in models.items():
            for h, bundle in per_horizon.items():
                try:
                    self._projections[(turbine, h)] = [
                        manifest.parameters.index(name) for name in bundle.feature_names
                    ]
                except ValueError as exc:
                    raise MissingModel(
                        f"bundle ({turbine}, {h}) uses a feature missing from the manifest: {exc}")
        # dedupe index rebuilt from the sink: the sink is the durable record
        self._seen: set[tuple[str, int]] = set()
        for line in iter_lines(sink.path):
            try:
                doc = json.loads(line)
                self._seen.add((doc["turbine"], parse_rfc3339(doc["t"])))
            except (json.JSONDecodeError, KeyError, DataError):
                continue

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
        """Load bundles, subscribe to every turbine topic, report Ready.

        By default a single missing (turbine, horizon) bundle refuses the
        whole start; ``allow_partial`` drops incomplete turbines instead.
        """
        if allow_partial:
            models = {}
            for turbine in turbines:
                try:
                    models.update(load_turbine_bundles(models_dir, [turbine]))
                except MissingModel:
                    continue
            if not models:
                raise MissingModel(f"no turbine in {turbines} has all horizon bundles")
        else:
            models = load_turbine_bundles(models_dir, turbines)
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
            "turbines": sorted(self.models),
            "counters": counters,
            "fatal_error": self.fatal_error,
        }

    def _bump(self, key: str, by: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += by

    # -- message processing -------------------------------------------------------

    def process_message(self, msg: Message) -> PredictionNotification | Skip:
        """Predict all six horizons for one record; Skip duplicates.

        The caller is responsible for durably appending the returned
        notification to the sink before committing the offset.
        """
        turbine = msg.topic
        try:
            record = parse_operational_row(
                msg.payload.decode("utf-8", errors="strict"),
                self.manifest.parameters, turbine)
        except (DataError, UnicodeDecodeError) as exc:
            raise MalformedPayload(str(exc)) from exc
        key = (turbine, record.timestamp)
        if key in self._seen:
            return Skip("duplicate")
        horizons = {}
        bundle_version = 0
        for h in HORIZONS_MINUTES:
            bundle = self.models[turbine][h]
            bundle_version = bundle.format_version
            idx = self._projections[(turbine, h)]
            x = [record.values[i] for i in idx]
            class_id, votes = predict(bundle.forest, x)
            winner_index = bundle.forest.class_ids.index(class_id)
            horizons[h] = HorizonPrediction(class_id, votes[winner_index] / bundle.forest.n_trees)
        return PredictionNotification(
            turbine_id=turbine,
            t=record.timestamp,
            horizons=horizons,
            bundle_version=bundle_version,
            emitted_at=time.time(),
        )

    def _back_off(self, turbine: str) -> None:
        backoff = self._backoff.get(turbine, self.backoff_initial)
        self._not_before[turbine] = time.monotonic() + backoff
        self._backoff[turbine] = min(backoff * 2.0, self.backoff_max)
        self._bump("backoffs")

    def _drain_round(self) -> int:
        """Poll each turbine not in backoff once, in sorted order, append the
        round's notifications in one fsynced write (one wake-up of /stream),
        THEN commit each turbine; the sink-derived dedupe index covers a crash
        in between. Returns messages committed. A StorageFailure backs off
        its turbine; anything else propagates."""
        polled: list[list[Message]] = []
        for turbine in sorted(self.models):
            if self._stop.is_set():
                break
            if time.monotonic() < self._not_before.get(turbine, 0.0):
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
            return 0
        lines: list[str] = []
        dead: list[str] = []
        keys: set[tuple[str, int]] = set()
        for msg in (msg for msgs in polled for msg in msgs):
            try:
                result = self.process_message(msg)
            except (FatalStorageFailure, StorageFailure):
                raise
            except Exception as exc:  # contain any handler failure to its message
                error = str(exc) if isinstance(exc, MalformedPayload) else f"handler failure: {exc!r}"
                dead.append(json.dumps({
                    "turbine": msg.topic,
                    "offset": msg.offset,
                    "error": error,
                    "payload": msg.payload.decode("utf-8", errors="replace"),
                    "quarantined_at": time.time(),
                }, sort_keys=True))
                continue
            # process_message skips earlier rounds' keys (in _seen), this the round's
            if isinstance(result, Skip) or (msg.topic, result.t) in keys:
                self._bump("duplicates_skipped")
                continue
            keys.add((msg.topic, result.t))
            lines.append(result.to_json_line())
        if dead:
            self.dead_letter.append_lines(dead)
            self._bump("dead_lettered", len(dead))
        self.sink.append_lines(lines)
        self._seen.update(keys)
        self._bump("notifications", len(lines))
        handled = 0
        for msgs in polled:
            turbine = msgs[0].topic
            try:
                self.broker.commit(self.group, turbine, msgs[-1].offset + 1)
            except StorageFailure:
                self._back_off(turbine)
                continue
            self._backoff.pop(turbine, None)
            self._bump("processed", len(msgs))
            handled += len(msgs)
        return handled

    def process_available(self) -> int:
        """Synchronously drain every turbine topic until a round handles
        nothing. A turbine in backoff is left for a later call."""
        total = 0
        while handled := self._drain_round():
            total += handled
        return total

    # -- consumer thread -------------------------------------------------------

    def _consume(self) -> None:
        try:
            while not self._stop.is_set():
                if self._drain_round() == 0:
                    self._stop.wait(self.idle_poll_interval)
        except Exception as exc:
            self.fatal_error = f"{type(exc).__name__}: {exc}"
            self._stop.set()

    def run_threaded(self) -> None:
        """Start the one consumer thread, ``agent-loop``: it repeats the round
        of ``process_available``, waiting ``idle_poll_interval`` after one that
        handled nothing, until stop(). Backoff and what stops the agent: see
        the module docstring."""
        if self._thread is not None:
            raise RuntimeError("agent already running")
        self._stop.clear()
        self._thread = threading.Thread(target=self._consume, name="agent-loop", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
