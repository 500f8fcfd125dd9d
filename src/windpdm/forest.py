"""CART decision trees and a Random Forest, from scratch.

Conventions, fixed so independent reimplementations agree:

* Gini impurity as the split criterion; candidate thresholds are midpoints
  between consecutive distinct sorted values of each sampled feature.
* Split comparisons are exact. Minimizing the weighted child Gini is
  equivalent to maximizing S = sum(lc^2)/nl + sum(rc^2)/nr over the left and
  right class counts, a ratio of integers, so candidates are compared by
  integer cross-multiplication with ties broken by lowest feature index,
  then lowest threshold.
* A node becomes a leaf on max depth, purity, or when no candidate split
  strictly reduces impurity.
* features_per_split defaults to floor(sqrt(p)); bootstrap resamples n rows
  with replacement; each tree's rng derives from (seed, tree_index), so
  training is a pure function of (rows, hyperparameters, seed) and trees may
  train concurrently without changing the result.
* Prediction: each tree votes its leaf's majority class; the forest returns
  the vote argmax; all ties break to the lowest class id.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFiniteFeature

LEAF = -1
DEFAULT_N_TREES = 40
DEFAULT_MAX_DEPTH = 25


@dataclass
class DecisionTree:
    """Flat-array tree: node i is a leaf iff feature[i] == LEAF."""

    feature: list[int]
    threshold: list[float]
    left: list[int]
    right: list[int]
    counts: list[list[int] | None]
    n_classes: int
    leaf_class: list[int | None] = field(init=False)

    def __post_init__(self):
        self.leaf_class = [
            (int(max(range(self.n_classes), key=lambda c: (cnt[c], -c))) if cnt is not None else None)
            for cnt in self.counts
        ]

    def apply(self, x) -> int:
        """Index of the leaf reached by feature vector x."""
        i = 0
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        while feature[i] != LEAF:
            i = left[i] if x[feature[i]] <= threshold[i] else right[i]
        return i

    def predict_index(self, x) -> int:
        """Majority class index at the reached leaf (ties to lowest index)."""
        return self.leaf_class[self.apply(x)]

    def depth(self) -> int:
        depths = [0] * len(self.feature)
        best = 0
        for i in range(len(self.feature)):
            if self.feature[i] != LEAF:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
            best = max(best, depths[i])
        return best


@dataclass
class RandomForest:
    trees: list[DecisionTree]
    n_trees: int
    max_depth: int
    features_per_split: int
    class_ids: list[int]
    seed: int
    bootstrap: bool = True
    n_features: int = 0


def _best_split(x: np.ndarray, y_onehot: np.ndarray, feature_indices: np.ndarray):
    """Best (feature, threshold) by exact fraction comparison, or None.

    Returns (feature, threshold, left_mask) maximizing
    S = (nr * sum(lc^2) + nl * sum(rc^2)) / (nl * nr); the caller checks
    whether S beats the parent's purity.
    """
    n = x.shape[0]
    total = y_onehot.sum(axis=0).astype(np.int64)
    best = None  # (a, b, feature, threshold) with S = a / b
    for f in sorted(int(i) for i in feature_indices):
        col = x[:, f]
        order = np.argsort(col, kind="stable")
        sorted_col = col[order]
        boundaries = np.nonzero(sorted_col[:-1] < sorted_col[1:])[0]
        if boundaries.size == 0:
            continue
        cum = np.cumsum(y_onehot[order], axis=0).astype(np.int64)
        lc = cum[boundaries]
        rc = total[None, :] - lc
        nl = lc.sum(axis=1)
        nr = n - nl
        a_vec = nr * np.sum(lc * lc, axis=1) + nl * np.sum(rc * rc, axis=1)
        b_vec = nl * nr
        # float pre-ranking, then exact integer comparison among near-ties
        q = a_vec / b_vec
        q_max = q.max()
        near = np.nonzero(q >= q_max - 1e-9 * max(1.0, abs(q_max)))[0]
        for idx in near:
            a = int(a_vec[idx])
            b = int(b_vec[idx])
            i = int(boundaries[idx])
            thr = (float(sorted_col[i]) + float(sorted_col[i + 1])) / 2.0
            if best is None or a * best[1] > best[0] * b or (
                a * best[1] == best[0] * b and (f, thr) < (best[2], best[3])
            ):
                best = (a, b, f, thr)
    if best is None:
        return None
    a, b, f, thr = best
    parent_sq = int(np.sum(total.astype(object) ** 2))
    # split improves impurity iff S > sum(pc^2) / n, compared exactly
    if a * n <= parent_sq * b:
        return None
    return f, thr, x[:, f] <= thr


def train_tree(
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    max_depth: int,
    features_per_split: int,
    rng: np.random.Generator,
) -> DecisionTree:
    """Grow one greedy CART tree over class-index labels 0..n_classes-1."""
    X = np.asarray(X, dtype=np.float64)
    y_index = np.asarray(y_index, dtype=np.int64)
    if X.size == 0 or y_index.size == 0:
        raise EmptyInput("cannot train a tree on zero rows")
    if features_per_split < 1:
        raise EmptyInput("features_per_split must be >= 1")
    n, p = X.shape
    onehot = np.zeros((n, n_classes), dtype=np.int64)
    onehot[np.arange(n), y_index] = 1

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    node_counts: list[list[int] | None] = []

    def add_leaf(counts: np.ndarray) -> int:
        i = len(feature)
        feature.append(LEAF)
        threshold.append(0.0)
        left.append(LEAF)
        right.append(LEAF)
        node_counts.append([int(c) for c in counts])
        return i

    def grow(rows: np.ndarray, depth: int) -> int:
        counts = onehot[rows].sum(axis=0)
        if depth >= max_depth or np.count_nonzero(counts) <= 1:
            return add_leaf(counts)
        m = min(features_per_split, p)
        sampled = rng.choice(p, size=m, replace=False)
        found = _best_split(X[rows], onehot[rows], sampled)
        if found is None:
            return add_leaf(counts)
        f, thr, left_mask = found
        i = len(feature)
        feature.append(f)
        threshold.append(thr)
        left.append(0)
        right.append(0)
        node_counts.append(None)
        left[i] = grow(rows[left_mask], depth + 1)
        right[i] = grow(rows[~left_mask], depth + 1)
        return i

    grow(np.arange(n), 0)
    return DecisionTree(feature, threshold, left, right, node_counts, n_classes)


def default_features_per_split(p: int) -> int:
    return max(1, int(math.floor(math.sqrt(p))))


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    class_ids: list[int],
    n_trees: int = DEFAULT_N_TREES,
    max_depth: int = DEFAULT_MAX_DEPTH,
    features_per_split: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> RandomForest:
    """Train n_trees CART trees on bootstrap resamples; fully seed-determined."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.size == 0 or y.size == 0:
        raise EmptyInput("cannot train a forest on zero rows")
    n, p = X.shape
    if features_per_split is None:
        features_per_split = default_features_per_split(p)
    index_of = {c: i for i, c in enumerate(class_ids)}
    try:
        y_index = np.asarray([index_of[int(label)] for label in y], dtype=np.int64)
    except KeyError as exc:
        raise EmptyInput(f"label {exc} not in class list {class_ids}") from None
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((seed, t)))
        if bootstrap:
            rows = rng.integers(0, n, size=n)
        else:
            rows = np.arange(n)
        trees.append(train_tree(X[rows], y_index[rows], len(class_ids), max_depth, features_per_split, rng))
    return RandomForest(
        trees=trees,
        n_trees=n_trees,
        max_depth=max_depth,
        features_per_split=features_per_split,
        class_ids=list(class_ids),
        seed=seed,
        bootstrap=bootstrap,
        n_features=p,
    )


def _check_vector(f: RandomForest, x) -> list[float]:
    if len(x) != f.n_features:
        raise DimensionMismatch(f"expected {f.n_features} features, got {len(x)}")
    vec = [float(v) for v in x]
    for v in vec:
        if not math.isfinite(v):
            raise NonFiniteFeature(f"non-finite feature value {v!r}")
    return vec


def predict(f: RandomForest, x) -> tuple[int, list[int]]:
    """(winning class id, votes per class aligned to f.class_ids)."""
    vec = _check_vector(f, x)
    votes = [0] * len(f.class_ids)
    for tree in f.trees:
        votes[tree.predict_index(vec)] += 1
    winner = max(range(len(votes)), key=lambda c: (votes[c], -c))
    return f.class_ids[winner], votes


def predict_batch(f: RandomForest, X: np.ndarray) -> np.ndarray:
    """Class ids for each row of X."""
    return np.asarray([predict(f, row)[0] for row in np.asarray(X, dtype=np.float64)], dtype=np.int64)
