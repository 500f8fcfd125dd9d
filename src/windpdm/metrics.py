"""Evaluation metrics and the hyperparameter grid harness.

Per-class accuracy means per-class recall (diagonal over row sum).
Collapsing every failure class into one Error superclass gives the
error/no-error pair: error accuracy (= sensitivity, detecting real
failures) and no-error accuracy (= specificity, avoiding false alarms).
A class absent from the evaluated rows has an undefined rate, reported as
None rather than 0.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .dataset import HorizonDataset, stratified_split
from .durable import atomic_write_csv
from .errors import EmptyMatrix, LengthMismatch, UnknownLabel
from .forest import RandomForest, predict_batch, train_forest
from .patterns import NORMAL_CLASS


@dataclass
class ConfusionMatrix:
    classes: list[int]  # Normal first
    counts: np.ndarray  # (k, k) int64, rows = actual, cols = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class EvaluationReport:
    classes: list[int]
    per_class_accuracy: list[Optional[float]]
    error_accuracy: Optional[float]
    no_error_accuracy: Optional[float]
    global_accuracy: float
    prevalence: list[float]  # fraction of evaluated rows per class

    @property
    def sensitivity(self) -> Optional[float]:
        return self.error_accuracy

    @property
    def specificity(self) -> Optional[float]:
        return self.no_error_accuracy


def confusion(pred: Sequence[int], actual: Sequence[int], classes: list[int]) -> ConfusionMatrix:
    if len(pred) != len(actual):
        raise LengthMismatch(f"{len(pred)} predictions vs {len(actual)} actuals")
    index = {c: i for i, c in enumerate(classes)}
    counts = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for p, a in zip(pred, actual):
        try:
            counts[index[int(a)], index[int(p)]] += 1
        except KeyError as exc:
            raise UnknownLabel(f"label {exc} not in class list {classes}") from None
    return ConfusionMatrix(list(classes), counts)


def evaluate(m: ConfusionMatrix) -> EvaluationReport:
    if m.total == 0:
        raise EmptyMatrix("confusion matrix has no observations")
    counts = m.counts
    k = len(m.classes)
    row_sums = counts.sum(axis=1)
    per_class = [
        (float(counts[i, i] / row_sums[i]) if row_sums[i] > 0 else None)
        for i in range(k)
    ]
    try:
        normal = m.classes.index(NORMAL_CLASS)
    except ValueError:
        raise EmptyMatrix(f"class list {m.classes} lacks the Normal class") from None
    error_rows = [i for i in range(k) if i != normal]
    error_total = int(row_sums[error_rows].sum()) if error_rows else 0
    if error_total > 0:
        error_hits = int(counts[np.ix_(error_rows, error_rows)].sum())
        error_accuracy = error_hits / error_total
    else:
        error_accuracy = None
    normal_total = int(row_sums[normal])
    no_error_accuracy = float(counts[normal, normal] / normal_total) if normal_total > 0 else None
    global_accuracy = float(np.trace(counts) / m.total)
    prevalence = [float(row_sums[i] / m.total) for i in range(k)]
    return EvaluationReport(
        classes=list(m.classes),
        per_class_accuracy=per_class,
        error_accuracy=error_accuracy,
        no_error_accuracy=no_error_accuracy,
        global_accuracy=global_accuracy,
        prevalence=prevalence,
    )


def score(forest: RandomForest, d: HorizonDataset) -> EvaluationReport:
    """Evaluate the forest's predictions for every row of ``d``."""
    pred = predict_batch(forest, d.features)
    return evaluate(confusion(pred.tolist(), d.labels.tolist(), d.class_ids))


@dataclass
class GridCell:
    n_trees: int
    max_depth: int
    accuracy: float
    seconds: float


@dataclass
class GridResult:
    trees_values: list[int]
    depth_values: list[int]
    cells: list[GridCell]
    seed: int


DEFAULT_TREES_GRID = list(range(5, 101, 5))
DEFAULT_DEPTH_GRID = list(range(5, 31, 5))


def grid_search(
    d: HorizonDataset,
    trees_values: Sequence[int],
    depth_values: Sequence[int],
    seed: int = 0,
) -> GridResult:
    """Train and score one forest per (n_trees, max_depth) cell.

    All cells share one stratified split. Each cell's ``seconds`` is the
    wall-clock time of its one training; publication runs should execute
    serially so measurements do not contend.
    """
    if not trees_values or not depth_values:
        raise EmptyMatrix("grid value sets must be non-empty")
    split = stratified_split(d, seed=seed)
    train, test = split.train, split.test
    cells = []
    for n_trees in trees_values:
        for max_depth in depth_values:
            try:
                begin = time.perf_counter()
                forest = train_forest(
                    train.features, train.labels, d.class_ids,
                    n_trees=n_trees, max_depth=max_depth, seed=seed,
                )
                seconds = time.perf_counter() - begin
                cells.append(GridCell(n_trees, max_depth, score(forest, test).global_accuracy, seconds))
            except Exception as exc:
                raise type(exc)(f"grid cell (n_trees={n_trees}, max_depth={max_depth}): {exc}") from exc
    return GridResult(list(trees_values), list(depth_values), cells, seed)


def write_grid_csv(g: GridResult, path: Path) -> None:
    atomic_write_csv(path, ["n_trees", "max_depth", "accuracy", "seconds"],
                     ([c.n_trees, c.max_depth, repr(c.accuracy), repr(c.seconds)] for c in g.cells))


def _fmt(rate: Optional[float]) -> str:
    return "" if rate is None else f"{100.0 * rate:.2f}%"


def evaluation_csv_rows(reports: dict[int, EvaluationReport]) -> tuple[list[str], list[list[str]]]:
    """One row per horizon model: per-class accuracy and prevalence columns,
    then the collapsed error/no-error, global, sensitivity, specificity."""
    horizons = sorted(reports)
    classes = reports[horizons[0]].classes
    header = (["model", "horizon_minutes"]
              + [f"class_{c}_accuracy" for c in classes]
              + [f"class_{c}_prevalence" for c in classes]
              + ["error_accuracy", "no_error_accuracy", "global_accuracy",
                 "sensitivity", "specificity"])
    rows = []
    for i, h in enumerate(horizons, start=1):
        r = reports[h]
        rows.append(
            [str(i), str(h)]
            + [_fmt(v) for v in r.per_class_accuracy]
            + [f"{100.0 * v:.2f}%" for v in r.prevalence]
            + [_fmt(r.error_accuracy), _fmt(r.no_error_accuracy), _fmt(r.global_accuracy),
               _fmt(r.sensitivity), _fmt(r.specificity)]
        )
    return header, rows


def write_evaluation_csv(reports: dict[int, EvaluationReport], path: Path) -> None:
    atomic_write_csv(path, *evaluation_csv_rows(reports))


def spearman_rank_correlation(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rho via Pearson correlation of midranks."""
    def midranks(values: Sequence[float]) -> np.ndarray:
        arr = np.asarray(values, dtype=np.float64)
        order = np.argsort(arr, kind="stable")
        ranks = np.empty(len(arr), dtype=np.float64)
        i = 0
        while i < len(arr):
            j = i
            while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
                j += 1
            ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return ranks

    rx = midranks(x)
    ry = midranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt(np.sum(rx * rx) * np.sum(ry * ry))
    if denom == 0:
        return 0.0
    return float(np.sum(rx * ry) / denom)
