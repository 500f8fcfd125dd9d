"""Checks of the program's outputs against computations made apart from it.

The bundle file is parsed here from its documented layout, the forests are
walked with numpy, records are read from their CSV bytes, and the expected
pattern sets and majority shares come from synth's ground truth. Each check
returns a list of error strings (empty when the output is right) and, where
operations can be lost, the number that failed.
"""

from __future__ import annotations

import json
import struct
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

HORIZONS = ("10", "20", "30", "40", "50", "60")
_HEADER = struct.Struct("<4sIQ")


class Forest:
    """One bundle's forest as numpy arrays, read straight from the file."""

    def __init__(self, path: Path):
        blob = Path(path).read_bytes()
        _magic, _version, length = _HEADER.unpack_from(blob)
        doc = json.loads(blob[_HEADER.size:_HEADER.size + length])
        forest = doc["forest"]
        self.feature_names: list[str] = doc["feature_names"]
        self.class_ids: list[int] = forest["class_ids"]
        self.n_trees: int = forest["n_trees"]
        self.trees = []
        for t in forest["trees"]:
            counts = np.asarray([c if c is not None else [0] * len(self.class_ids) for c in t["counts"]])
            self.trees.append((np.asarray(t["feature"]), np.asarray(t["threshold"], dtype=np.float64),
                               np.asarray(t["left"]), np.asarray(t["right"]), counts.argmax(axis=1)))

    def vote(self, X: np.ndarray) -> list[tuple[int, float]]:
        """(class id, winning vote share) per row of X (columns = feature_names)."""
        votes = np.zeros((X.shape[0], len(self.class_ids)), dtype=np.int64)
        rows = np.arange(X.shape[0])
        for feature, threshold, left, right, leaf_class in self.trees:
            node = np.zeros(X.shape[0], dtype=np.int64)
            inner = feature[node] >= 0
            while inner.any():
                at = node[inner]
                go_left = X[rows[inner], feature[at]] <= threshold[at]
                node[inner] = np.where(go_left, left[at], right[at])
                inner = feature[node] >= 0
            np.add.at(votes, (rows, leaf_class[node]), 1)
        winners = votes.argmax(axis=1)  # first maximum: ties go to the lowest class
        return [(self.class_ids[w], int(votes[i, w]) / self.n_trees) for i, w in enumerate(winners)]


def parse_record(line: str) -> tuple[str, list[float]]:
    parts = line.split(",")
    return parts[0], [float(v) for v in parts[1:]]


def expected_notifications(models_dir: Path, parameters: list[str],
                           records: list[tuple[str, str]]) -> dict[tuple[str, str], dict[str, tuple[int, float]]]:
    """Per (turbine, t): the class and vote share each horizon should report."""
    by_turbine: dict[str, list[tuple[str, list[float]]]] = defaultdict(list)
    for turbine, line in records:
        by_turbine[turbine].append(parse_record(line))
    expected: dict[tuple[str, str], dict[str, tuple[int, float]]] = defaultdict(dict)
    for turbine, rows in by_turbine.items():
        values = np.asarray([v for _t, v in rows], dtype=np.float64)
        for h in HORIZONS:
            forest = Forest(Path(models_dir) / turbine / f"horizon_{h}.model")
            cols = [parameters.index(name) for name in forest.feature_names]
            for (t, _v), result in zip(rows, forest.vote(values[:, cols])):
                expected[(turbine, t)][h] = result
    return dict(expected)


def check_notifications(lines: list[str], expected: dict) -> tuple[list[str], int, list[dict]]:
    """Every expected (turbine, t) notified exactly once, with six horizons whose
    class and vote_fraction match the independent walk. Returns (errors,
    failed operations, parsed notifications)."""
    errors: list[str] = []
    docs = [json.loads(line) for line in lines]
    seen = Counter((d["turbine"], d["t"]) for d in docs)
    failed = 0
    for key, n in seen.items():
        if key not in expected:
            errors.append(f"notification for {key}, which was never published")
        elif n > 1:
            errors.append(f"{key} notified {n} times")
            failed += 1
    missing = [key for key in expected if key not in seen]
    if missing:
        errors.append(f"{len(missing)} published records never notified, e.g. {missing[0]}")
        failed += len(missing)
    for d in docs:
        want = expected.get((d["turbine"], d["t"]))
        if want is None:
            continue
        if sorted(d["horizons"]) != sorted(HORIZONS):
            errors.append(f"{d['turbine']} {d['t']}: horizons {sorted(d['horizons'])}")
            continue
        for h, (cls, share) in want.items():
            got = d["horizons"][h]
            if got["class"] != cls or got["vote_fraction"] != share:
                errors.append(f"{d['turbine']} {d['t']} t+{h}: got class {got['class']} "
                              f"vote {got['vote_fraction']}, expected class {cls} vote {share}")
    return errors, failed, docs


def check_dead_letter(path: Path) -> list[str]:
    if path.exists() and path.stat().st_size:
        return [f"dead-lettered: {path.read_text(encoding='utf-8').splitlines()[0][:200]}"]
    return []


def check_stream(received: list[str], round_keys: set[tuple[str, str]],
                 earlier_keys: set[tuple[str, str]]) -> tuple[list[str], int]:
    """Each of this round's records arrives once, in per-turbine time order,
    and no line from before the requested position is sent again."""
    errors: list[str] = []
    keys = [(d["turbine"], d["t"]) for d in map(json.loads, received)]
    resent = [k for k in keys if k in earlier_keys]
    if resent:
        errors.append(f"{len(resent)} history lines sent again on /stream, e.g. {resent[0]}")
    counts = Counter(keys)
    dup = [k for k, n in counts.items() if n > 1 and k in round_keys]
    if dup:
        errors.append(f"{len(dup)} records sent more than once on /stream, e.g. {dup[0]}")
    missing = [k for k in round_keys if k not in counts]
    if missing:
        errors.append(f"{len(missing)} records never arrived on /stream, e.g. {missing[0]}")
    last: dict[str, str] = {}
    for turbine, t in keys:
        if turbine in last and t <= last[turbine]:
            errors.append(f"/stream out of order for {turbine}: {t} after {last[turbine]}")
            break
        last[turbine] = t
    return errors, len(dup) + len(missing)


def check_patterns(mined: dict[str, list[list[str]]], planted: list[list[str]],
                   turbines: list[str]) -> list[str]:
    want = sorted(sorted(p) for p in planted)
    errors = []
    for turbine in turbines:
        got = sorted(sorted(p) for p in mined.get(turbine, []))
        if got != want:
            errors.append(f"{turbine}: mined patterns {got}, planted {want}")
    return errors


def majority_share(labels: list[int], horizon_minutes: int) -> float:
    """Share of the most common class among rows labelled at t+horizon."""
    shift = horizon_minutes // 10
    counts = Counter(labels[shift:])
    return max(counts.values()) / sum(counts.values())


def check_models(outcomes: list[dict], truth_labels: dict[str, list[int]],
                 turbines: list[str], horizons: list[int]) -> tuple[list[str], int]:
    """Every planned model completes, and beats its test set's majority class."""
    errors: list[str] = []
    by_key = {(o["turbine"], o["horizon"]): o for o in outcomes}
    failed = 0
    for turbine in turbines:
        for h in horizons:
            o = by_key.get((turbine, h))
            if o is None or o["status"] != "completed":
                errors.append(f"model ({turbine}, t+{h}) not completed: {o and o['skip_reason']}")
                failed += 1
                continue
            share = max(majority_share(truth_labels[turbine], h), o["prevalence_max"])
            if not o["accuracy"] > share:
                errors.append(f"model ({turbine}, t+{h}): accuracy {o['accuracy']:.4f} "
                              f"does not beat the majority share {share:.4f}")
    return errors, failed


def check_grid(cells: list[list], trees: list[int], depths: list[int]) -> tuple[list[str], int]:
    """Every cell present; deepest depth beats shallowest on mean accuracy."""
    acc = {(n, d): a for n, d, a in cells}
    missing = [(n, d) for n in trees for d in depths if (n, d) not in acc]
    errors = [f"grid cells missing: {missing}"] if missing else []
    if not missing:
        shallow = float(np.mean([acc[(n, min(depths))] for n in trees]))
        deep = float(np.mean([acc[(n, max(depths))] for n in trees]))
        if not deep > shallow:
            errors.append(f"grid: mean accuracy at depth {max(depths)} ({deep:.4f}) does not exceed "
                          f"depth {min(depths)} ({shallow:.4f}) on planted deep-tree labels")
    return errors, len(missing)
