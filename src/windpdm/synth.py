"""Deterministic synthetic turbine fleet with planted failure signal.

Real SCADA histories are proprietary, so verification runs on generated
stores whose ground truth is known exactly:

* the timeline of each turbine is tiled into blocks; a block is either
  quiet or hosts one episode of one planted alarm pattern (all of the
  pattern's alarms active for the episode's slots, and only then);
* operational parameters carry a pattern-specific signature: "onset"
  parameters ramp up through the six slots before an episode (the ramp
  level encodes minutes-to-start) and stay high during it, "offset"
  parameters ramp up through an episode's last six slots (encoding
  minutes-to-end). A classifier at any horizon 10..60 min can therefore
  separate the classes from a single row, up to the injected noise;
* the generator records exactly which slots it planted, so mined supports
  and model accuracies can be checked against bookkeeping, not guesses.

``signal_scale=0`` produces pure noise (features carry no information),
which pins chance-level behaviour in tests. Everything is a pure function
of the seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .durable import atomic_write
from .errors import InvalidValue
from .ingest import EventKind, OperationalRecord, StatusEvent, TurbineStore
from .manifest import Manifest
from .timeutil import SLOT_SECONDS, parse_rfc3339

GROUND_TRUTH_FILENAME = "ground_truth.json"

START = parse_rfc3339("2015-01-01T00:00:00Z")  # first slot of every generated store

_PARAMETER_POOL = [
    "wind_speed", "rotor_rpm", "gen_rpm", "power_kw", "gen_temp", "gearbox_temp",
    "nacelle_temp", "ambient_temp", "pitch_angle", "yaw_error", "vibration_x",
    "vibration_y", "hydraulic_pres", "grid_freq",
]

_ALARM_POOL = [
    "GOverSpMax", "WLFRTActive", "InvCH0Loss", "YawTqAsym", "YawBrBlock",
    "GenBrgOverTemp", "PitchLubePres", "ConvCoolFlow",
]

PRODROME_SLOTS = 6  # one hour of lead signal before each episode
EPISODE_SLOTS = 18  # 3 hours; at least 13 so both ramps fit
N_CRITICAL = 4  # the first alarms of the dictionary are the critical ones


@dataclass(frozen=True)
class PlantedPattern:
    alarms: frozenset[str]
    target_occupancy: float


# Every store plants these two. They use critical alarms only, and their
# episodes fit in the blocks of any slot count (checked up to 2,000,000).
PATTERNS = (
    PlantedPattern(frozenset(_ALARM_POOL[0:2]), 0.10),
    PlantedPattern(frozenset(_ALARM_POOL[2:3]), 0.05),
)


@dataclass
class SynthConfig:
    out_dir: Path
    seed: int = 1
    n_turbines: int = 2
    days: float = 10.0
    n_parameters: int = 12
    n_alarms: int = 6
    signal_scale: float = 1.0
    noise_scale: float = 0.1

    def __post_init__(self):
        self.out_dir = Path(self.out_dir)
        if self.n_parameters < 8:
            raise InvalidValue("need at least 8 parameters for the planted signatures")
        if self.n_alarms < N_CRITICAL:
            raise InvalidValue(f"need n_alarms >= {N_CRITICAL}")

    @property
    def start(self) -> int:
        return START

    @property
    def n_slots(self) -> int:
        return int(self.days * 144)

    @property
    def parameter_names(self) -> list[str]:
        pool = list(_PARAMETER_POOL)
        while len(pool) < self.n_parameters:
            pool.append(f"param_{len(pool) + 1:03d}")
        return pool[: self.n_parameters]

    @property
    def alarm_names(self) -> list[str]:
        pool = list(_ALARM_POOL)
        while len(pool) < self.n_alarms:
            pool.append(f"ALM{len(pool) + 1:03d}")
        return pool[: self.n_alarms]

    @property
    def turbine_names(self) -> list[str]:
        return [f"T{i + 1:02d}" for i in range(self.n_turbines)]


@dataclass
class GroundTruth:
    """Exact bookkeeping of what was planted, per turbine."""

    patterns: list[PlantedPattern]
    # per turbine: per slot, 0 for quiet or 1-based planted pattern index
    labels: dict[str, list[int]]
    start: int
    n_slots: int

    def occupancy(self, turbine: str, pattern_index: int) -> float:
        labels = self.labels[turbine]
        return sum(1 for v in labels if v == pattern_index) / len(labels)

    def save(self, path: Path) -> None:
        doc = {
            "start": self.start,
            "n_slots": self.n_slots,
            "patterns": [
                {"alarms": sorted(p.alarms), "target_occupancy": p.target_occupancy}
                for p in self.patterns
            ],
            "labels": self.labels,
        }
        atomic_write(path, json.dumps(doc).encode("utf-8"))

    @classmethod
    def load(cls, path: Path) -> "GroundTruth":
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(
            patterns=[
                PlantedPattern(frozenset(p["alarms"]), p["target_occupancy"])
                for p in doc["patterns"]
            ],
            labels=doc["labels"],
            start=doc["start"],
            n_slots=doc["n_slots"],
        )


def _plan_episodes(cfg: SynthConfig, rng: np.random.Generator) -> list[tuple[int, int]]:
    """(pattern_index 1-based, start_slot) pairs; episodes never overlap and
    keep a 6-slot prodrome gap before and a 7-slot margin after."""
    block = PRODROME_SLOTS + EPISODE_SLOTS + 7
    n_blocks = cfg.n_slots // block
    wanted = [
        int(round(p.target_occupancy * cfg.n_slots / EPISODE_SLOTS))
        for p in PATTERNS
    ]
    order = rng.permutation(n_blocks)
    episodes = []
    cursor = 0
    for pi, count in enumerate(wanted, start=1):
        for b in order[cursor:cursor + count]:
            episodes.append((pi, int(b) * block + PRODROME_SLOTS))
        cursor += count
    episodes.sort(key=lambda e: e[1])
    return episodes


def _signature_params(cfg: SynthConfig, pattern_index: int) -> tuple[list[int], list[int]]:
    """Disjoint (onset, offset) parameter column indices for one pattern."""
    base = (pattern_index - 1) * 3
    onset = [base, base + 1]
    offset = [base + 2]
    return onset, offset


def generate(cfg: SynthConfig) -> tuple[TurbineStore, GroundTruth]:
    """Build a valid turbine store plus its ground truth under ``out_dir``."""
    params = cfg.parameter_names
    alarms = cfg.alarm_names

    manifest = Manifest(
        parameters=params,
        alarms=alarms,
        turbines=cfg.turbine_names,
        critical_alarms=alarms[:N_CRITICAL],
    )
    store = TurbineStore.create(cfg.out_dir, manifest)
    truth = GroundTruth(patterns=list(PATTERNS), labels={}, start=cfg.start, n_slots=cfg.n_slots)

    p_count = cfg.n_parameters
    for t_index, turbine in enumerate(cfg.turbine_names):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, t_index)))
        episodes = _plan_episodes(cfg, rng)

        labels = [0] * cfg.n_slots
        onset_level = np.zeros(cfg.n_slots)
        offset_level = np.zeros(cfg.n_slots)
        onset_pattern = np.zeros(cfg.n_slots, dtype=np.int64)
        for pi, start_slot in episodes:
            for s in range(start_slot, start_slot + EPISODE_SLOTS):
                labels[s] = pi
            for d in range(1, PRODROME_SLOTS + 1):  # d slots before the episode
                s = start_slot - d
                onset_level[s] = (PRODROME_SLOTS + 1 - d) / (PRODROME_SLOTS + 1)
                onset_pattern[s] = pi
            for s in range(start_slot, start_slot + EPISODE_SLOTS):
                onset_level[s] = 1.0
                onset_pattern[s] = pi
            for u in range(1, PRODROME_SLOTS + 1):  # u slots before the episode ends
                s = start_slot + EPISODE_SLOTS - u
                offset_level[s] = (PRODROME_SLOTS + 1 - u) / (PRODROME_SLOTS + 1)
        truth.labels[turbine] = labels

        # baseline: slow per-parameter oscillation plus noise
        slots = np.arange(cfg.n_slots)
        baseline = rng.uniform(5.0, 50.0, size=p_count)
        amplitude = rng.uniform(0.5, 2.0, size=p_count)
        period = rng.uniform(40.0, 400.0, size=p_count)
        phase = rng.uniform(0.0, 2 * np.pi, size=p_count)
        values = (
            baseline[None, :]
            + amplitude[None, :] * np.sin(2 * np.pi * slots[:, None] / period[None, :] + phase[None, :])
            + rng.normal(0.0, cfg.noise_scale, size=(cfg.n_slots, p_count))
        )
        # planted signatures
        delta = 5.0 * cfg.signal_scale
        for pi in range(1, len(PATTERNS) + 1):
            mask = onset_pattern == pi
            onset_cols, offset_cols = _signature_params(cfg, pi)
            for col in onset_cols:
                values[mask, col] += delta * onset_level[mask]
            for col in offset_cols:
                values[mask, col] += delta * offset_level[mask]
        # filler columns (n_parameters >= 8 leaves room): one tightly
        # correlated pair and one constant
        a = 3 * len(PATTERNS)
        values[:, a + 1] = 0.98 * values[:, a] + rng.normal(0.0, 0.01, size=cfg.n_slots)
        values[:, p_count - 1] = 42.0  # constant, dropped by standardization

        records = [
            OperationalRecord(turbine, cfg.start + int(s) * SLOT_SECONDS,
                              tuple(float(v) for v in values[s]))
            for s in range(cfg.n_slots)
        ]
        store.append(turbine, records)

        events: list[StatusEvent] = []
        for pi, start_slot in episodes:
            begin_ts = cfg.start + start_slot * SLOT_SECONDS
            end_ts = cfg.start + (start_slot + EPISODE_SLOTS) * SLOT_SECONDS
            for i, code in enumerate(sorted(PATTERNS[pi - 1].alarms)):
                # keep the interval strictly inside the episode's slots
                events.append(StatusEvent(turbine, begin_ts + i, code, EventKind.ACTIVATION))
                events.append(StatusEvent(turbine, end_ts - 1 - i, code, EventKind.DEACTIVATION))
        events.sort(key=lambda e: e.timestamp)
        store.append(turbine, events)

    truth.save(cfg.out_dir / GROUND_TRUTH_FILENAME)
    return store, truth
