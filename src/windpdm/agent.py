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

Processing failures are contained to their message; broker outages are
retried with exponential backoff (health reports Degraded meanwhile). The
only unrecoverable condition is an unwritable sink.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .broker import Broker, Message
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
    reason: str  # "duplicate" or "dead_letter"


class NotificationSink:
    """Append-only JSONL file; appends are fsynced before returning.

    Appends are serialized by a lock; followers (the streaming endpoint)
    wait on ``condition`` and read with ``read_lines``.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch(exist_ok=True)
        self.lock = threading.Lock()
        self.condition = threading.Condition(self.lock)

    def append_lines(self, lines: list[str]) -> None:
        if not lines:
            return
        data = "".join(line + "\n" for line in lines)
        try:
            with self.condition:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(data)
                    fh.flush()
                    os.fsync(fh.fileno())
                self.condition.notify_all()
        except OSError as exc:
            raise FatalStorageFailure(f"sink {self.path} unwritable: {exc}") from exc

    def read_lines(self, start: int = 0) -> list[str]:
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.endswith("\n")]
        return lines[start:]

    def line_count(self) -> int:
        return len(self.read_lines())


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
        self._status = READY
        self.fatal_error: str | None = None
        self._degraded_turbines: set[str] = set()
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

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
        for line in sink.read_lines():
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
        if self._status == STOPPED:
            return STOPPED
        return DEGRADED if self._degraded_turbines else READY

    def health(self) -> dict:
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "status": self.status,
            "turbines": sorted(self.models),
            "counters": counters,
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

    def _drain_turbine(self, turbine: str) -> int:
        """Poll once and process the batch. Returns messages handled.

        Ordering contract: sink append (durable), THEN offset commit. The
        crash window between the two is covered by the sink-derived dedupe
        index.
        """
        msgs = self.broker.poll(self.group, turbine, self.max_batch)
        if not msgs:
            return 0
        notifications: list[PredictionNotification] = []
        dead: list[str] = []
        pending: set[tuple[str, int]] = set()
        for msg in msgs:
            try:
                result = self.process_message(msg)
            except (FatalStorageFailure, StorageFailure):
                raise
            except Exception as exc:  # contain any handler failure to its message
                error = str(exc) if isinstance(exc, MalformedPayload) else f"handler failure: {exc!r}"
                dead.append(json.dumps({
                    "turbine": turbine,
                    "offset": msg.offset,
                    "error": error,
                    "payload": msg.payload.decode("utf-8", errors="replace"),
                    "quarantined_at": time.time(),
                }, sort_keys=True))
                continue
            if isinstance(result, Skip):
                self._bump("duplicates_skipped")
                continue
            # process_message has already skipped keys in _seen; this catches
            # a record repeated within the batch
            key = (turbine, result.t)
            if key in pending:
                self._bump("duplicates_skipped")
                continue
            pending.add(key)
            notifications.append(result)
        if dead:
            self.dead_letter.append_lines(dead)
            self._bump("dead_lettered", len(dead))
        self.sink.append_lines([n.to_json_line() for n in notifications])
        self._seen.update(pending)
        self.broker.commit(self.group, turbine, msgs[-1].offset + 1)
        self._bump("processed", len(msgs))
        self._bump("notifications", len(notifications))
        return len(msgs)

    def process_available(self) -> int:
        """Synchronously drain every turbine topic until quiescent."""
        total = 0
        progressed = True
        while progressed:
            progressed = False
            for turbine in sorted(self.models):
                n = self._drain_turbine(turbine)
                total += n
                progressed = progressed or n > 0
        return total

    # -- supervision -----------------------------------------------------------

    def _supervise_turbine(self, turbine: str) -> None:
        backoff = self.backoff_initial
        while not self._stop.is_set():
            try:
                handled = self._drain_turbine(turbine)
                self._degraded_turbines.discard(turbine)
                backoff = self.backoff_initial
                if handled == 0:
                    self._stop.wait(self.idle_poll_interval)
            except FatalStorageFailure as exc:
                self.fatal_error = str(exc)
                self._status = STOPPED
                self._stop.set()
                return
            except Exception:
                self._degraded_turbines.add(turbine)
                self._bump("backoffs")
                self._stop.wait(backoff)
                backoff = min(backoff * 2.0, self.backoff_max)

    def run_threaded(self) -> None:
        """One consumer thread per turbine; call stop() to halt."""
        if self._threads:
            raise RuntimeError("agent already running")
        self._stop.clear()
        for turbine in sorted(self.models):
            thread = threading.Thread(
                target=self._supervise_turbine, args=(turbine,),
                name=f"agent-{turbine}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []
        if self._status != STOPPED:
            self._status = STOPPED
