"""Labeled training sets: features at t, class label at t+delta.

Six datasets per turbine, one per look-ahead horizon (10..60 minutes in
10-minute steps). A row exists for each operational record whose t+delta
falls inside the class timeline; class imbalance is preserved (no
rebalancing), so the split is stratified per class.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .durable import atomic_write, atomic_write_csv
from .errors import EmptyDataset, InvalidValue
from .ingest import OperationalRecord
from .patterns import ClassTimeline, HORIZONS_MINUTES

VALID_HORIZONS = frozenset(HORIZONS_MINUTES)
DEFAULT_TRAIN_FRACTION = 2.0 / 3.0


@dataclass
class HorizonDataset:
    turbine_id: str
    horizon_minutes: int
    feature_names: list[str]
    features: np.ndarray  # (n, f) float64
    labels: np.ndarray  # (n,) int
    origins: np.ndarray  # (n,) epoch seconds of the feature row
    class_ids: list[int]  # Normal (0) first
    dropped_out_of_range: int = 0

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    def class_counts(self) -> dict[int, int]:
        return {c: int(np.sum(self.labels == c)) for c in self.class_ids}


@dataclass
class SplitResult:
    train: HorizonDataset
    test: HorizonDataset
    seed: int
    train_fraction: float
    small_classes: list[int] = field(default_factory=list)  # <2 rows, kept in train only


def label_records(
    records: list[OperationalRecord],
    parameter_names: list[str],
    feature_names: list[str],
    timeline: ClassTimeline,
    horizon_minutes: int,
) -> HorizonDataset:
    """Pair each record's selected features with the label at t+horizon,
    for a horizon of ``HORIZONS_MINUTES``; any other raises InvalidValue.

    Records whose t+horizon falls outside the timeline are dropped and
    counted.
    """
    if horizon_minutes not in VALID_HORIZONS:
        raise InvalidValue(f"horizon must be one of {sorted(VALID_HORIZONS)}")
    index = [parameter_names.index(name) for name in feature_names]
    delta = horizon_minutes * 60
    rows = []
    labels = []
    origins = []
    dropped = 0
    for rec in records:
        target = rec.timestamp + delta
        if not timeline.defines(target):
            dropped += 1
            continue
        rows.append([rec.values[i] for i in index])
        labels.append(timeline.label_at(target))
        origins.append(rec.timestamp)
    if not rows:
        raise EmptyDataset(
            f"no labelable rows for turbine {timeline.turbine_id} at t+{horizon_minutes}")
    return HorizonDataset(
        turbine_id=timeline.turbine_id,
        horizon_minutes=horizon_minutes,
        feature_names=list(feature_names),
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        origins=np.asarray(origins, dtype=np.int64),
        class_ids=list(timeline.class_ids),
        dropped_out_of_range=dropped,
    )


def stratified_split(d: HorizonDataset, train_fraction: float = DEFAULT_TRAIN_FRACTION, seed: int = 0) -> SplitResult:
    """Deterministic per-class split; proportions preserved within one row.

    Classes with fewer than 2 rows cannot be split; their rows stay in the
    train side and the class id is flagged in the result.
    """
    if not (0.0 < train_fraction < 1.0):
        raise InvalidValue(f"train_fraction must be in (0, 1), got {train_fraction}")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    train_idx: list[int] = []
    test_idx: list[int] = []
    small: list[int] = []
    for c in d.class_ids:
        members = np.nonzero(d.labels == c)[0]
        if members.size == 0:
            continue
        if members.size < 2:
            small.append(c)
            train_idx.extend(members.tolist())
            continue
        order = members[rng.permutation(members.size)]
        n_train = int(np.floor(members.size * train_fraction + 0.5))
        n_train = min(max(n_train, 1), members.size - 1)
        train_idx.extend(order[:n_train].tolist())
        test_idx.extend(order[n_train:].tolist())
    train_idx.sort()
    test_idx.sort()

    def subset(idx: list[int]) -> HorizonDataset:
        sel = np.asarray(idx, dtype=np.int64)
        return HorizonDataset(
            turbine_id=d.turbine_id,
            horizon_minutes=d.horizon_minutes,
            feature_names=list(d.feature_names),
            features=d.features[sel],
            labels=d.labels[sel],
            origins=d.origins[sel],
            class_ids=list(d.class_ids),
            dropped_out_of_range=d.dropped_out_of_range,
        )

    return SplitResult(subset(train_idx), subset(test_idx), seed, train_fraction, small)


def save_dataset(d: HorizonDataset, csv_path: Path) -> None:
    """Persist as CSV with a trailing label column plus a JSON sidecar."""
    csv_path = Path(csv_path)
    atomic_write_csv(csv_path, list(d.feature_names) + ["label"],
                     ([repr(float(v)) for v in row] + [int(label)] for row, label in zip(d.features, d.labels)))
    sidecar = {
        "turbine_id": d.turbine_id,
        "horizon_minutes": d.horizon_minutes,
        "feature_names": d.feature_names,
        "class_ids": d.class_ids,
        "class_counts": {str(k): v for k, v in d.class_counts().items()},
        "dropped_out_of_range": d.dropped_out_of_range,
        "origins": [int(t) for t in d.origins],
    }
    atomic_write(csv_path.with_suffix(".json"), json.dumps(sidecar, indent=2).encode("utf-8"))


def load_dataset(csv_path: Path) -> HorizonDataset:
    csv_path = Path(csv_path)
    sidecar = json.loads(csv_path.with_suffix(".json").read_text(encoding="utf-8"))
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[-1] != "label":
            raise EmptyDataset(f"{csv_path}: expected trailing 'label' column")
        rows = []
        labels = []
        for row in reader:
            rows.append([float(v) for v in row[:-1]])
            labels.append(int(row[-1]))
    if not rows:
        raise EmptyDataset(f"{csv_path}: no rows")
    return HorizonDataset(
        turbine_id=sidecar["turbine_id"],
        horizon_minutes=sidecar["horizon_minutes"],
        feature_names=sidecar["feature_names"],
        features=np.asarray(rows, dtype=np.float64),
        labels=np.asarray(labels, dtype=np.int64),
        origins=np.asarray(sidecar["origins"], dtype=np.int64),
        class_ids=list(sidecar["class_ids"]),
        dropped_out_of_range=sidecar["dropped_out_of_range"],
    )
