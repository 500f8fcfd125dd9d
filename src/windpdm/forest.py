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
* Prediction: each tree votes its leaf's majority class and the forest
  returns the vote argmax, all ties breaking to the lowest class id. Scoring
  runs over compiled arrays: ``compile_forest`` lays one forest's trees out
  as flat node arrays (``feature``, ``threshold``, ``children``,
  ``leaf_class`` and each tree's root), taking every leaf's class with one
  argmax, and refuses a forest the walk could not score;
  ``stack_forests`` joins compiled forests into one set, each reading its
  own columns of a wider row; ``vote_counts`` starts every (row, tree)
  pair at its tree's root, steps the pairs still at an inner node down one
  level at a time, each step one lookup in ``children``, and counts the
  leaves' classes with one ``bincount``. ``predict``, ``predict_batch``
  (and so ``metrics.score`` and the grid) and the monitoring agent all score
  this way, for one row or many. ``DecisionTree.predict_index`` walks one
  tree in Python; the tests use it as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Sequence

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
    counts: list[list[int] | None]  # per leaf, its rows per class; None at an inner node

    def predict_index(self, x) -> int:
        """Majority class index at the leaf feature vector x reaches (ties to
        the lowest index)."""
        i = 0
        while self.feature[i] != LEAF:
            i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
        counts = self.counts[i]
        return counts.index(max(counts))

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
    return DecisionTree(feature, threshold, left, right, node_counts)


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


@dataclass(frozen=True, eq=False)
class CompiledForests:
    """The trees of one or more forests as flat node arrays, for ``vote_counts``.

    Node indexes are absolute; ``feature`` holds the input column tested at
    an inner node and LEAF at a leaf. ``children[2 * i]`` is node i's left
    child, taken when its value is ``<= threshold[i]``, and
    ``children[2 * i + 1]`` its right child. Both children of a leaf are the
    leaf itself, so a pair that steps from a leaf stays there.
    ``leaf_class`` is a leaf's column in the vote matrix: its forest's first
    column plus its majority class index (ties to the lowest).
    """

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    # node indexes are intp: the walk indexes with them at every level, and
    # numpy converts any other index dtype to intp on each use
    children: np.ndarray
    leaf_class: np.ndarray  # int32
    roots: np.ndarray  # one per tree
    n_features: int  # width of an input row
    class_ids: tuple[list[int], ...]  # per forest
    n_trees: tuple[int, ...]  # per forest


def compile_forest(f: RandomForest) -> CompiledForests:
    """One forest's trees as node arrays that read its own features, built in
    bulk: one array per tree field for the whole forest, not a Python step
    per node. Raises ValueError (TypeError or OverflowError for an item numpy
    cannot read as a number) for a forest the walk could not score:

    * no trees, ``n_trees`` other than their count, or no classes;
    * a tree with no node, or whose five fields differ in length;
    * a feature index that is neither LEAF nor below ``f.n_features``;
    * an inner node whose children are not past it inside its tree, where a
      walk could leave the tree or never end, or a leaf whose children are
      neither LEAF nor inside its tree;
    * leaves that do not each hold one class count per class.
    """
    trees, n_classes = f.trees, len(f.class_ids)
    if not trees or f.n_trees != len(trees) or not n_classes:
        raise ValueError(f"a forest of {f.n_trees} trees holds {len(trees)}, over {n_classes} classes")
    # per field, each tree's list
    per_tree = [list(map(attrgetter(name), trees)) for name in ("feature", "threshold", "left", "right", "counts")]
    sizes = list(map(len, per_tree[0]))
    if 0 in sizes or any(list(map(len, lists)) != sizes for lists in per_tree[1:]):
        raise ValueError("a tree has no node, or fields of different lengths")
    n = sum(sizes)
    feature, threshold, left, right = (np.fromiter(chain.from_iterable(lists), dtype, n)
                                       for lists, dtype in zip(per_tree, (np.intp, np.float64, np.intp, np.intp)))
    if ((feature < LEAF) | (feature >= f.n_features)).any():
        raise ValueError(f"a feature index is neither {LEAF} nor below {f.n_features}")
    roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
    node = np.arange(n)
    shift = np.repeat(roots, sizes)  # a tree's node i is node root + i of the forest
    size = np.repeat(sizes, sizes)
    at_leaf = feature == LEAF
    for child in (left, right):
        inside = (child < size) & np.where(at_leaf, child >= 0, child > node - shift)
        if not (inside | (at_leaf & (child == LEAF))).all():
            raise ValueError("an inner node's child is not past it in its tree, or a leaf's neither LEAF nor in it")
    # the leaves' class counts in node order; an inner node's are None
    leaf_counts = list(filter(None, chain.from_iterable(per_tree[4])))
    if len(leaf_counts) != np.count_nonzero(at_leaf) or not {n_classes}.issuperset(map(len, leaf_counts)):
        raise ValueError(f"the leaves do not each hold {n_classes} class counts")
    counts = np.fromiter(chain.from_iterable(leaf_counts), np.int64, len(leaf_counts) * n_classes)
    leaf_class = np.zeros(n, dtype=np.int32)
    leaf_class[at_leaf] = counts.reshape(-1, n_classes).argmax(axis=1)
    children = np.column_stack([np.where(at_leaf, node, child + shift) for child in (left, right)]).ravel()
    return CompiledForests(feature.astype(np.int32), threshold, children, leaf_class, roots, f.n_features,
                           (f.class_ids,), (f.n_trees,))


def stack_forests(
    parts: Sequence[CompiledForests],
    columns: Sequence[Sequence[int]] | None = None,
    n_features: int | None = None,
) -> CompiledForests:
    """Stack forests compiled one by one (``compile_forest``) into one node
    array set, with array operations only.

    ``columns[i][j]`` is the input column that part i's feature j reads, one
    per feature of the part, and ``n_features`` (required with ``columns``)
    the input width; by default each part reads its own features, so the
    parts must share a width.
    """
    if columns is None:
        columns = [range(part.n_features) for part in parts]
        n_features = parts[0].n_features
    stacked = []
    offset = first_class = 0
    for part, cols in zip(parts, columns):
        if len(cols) != part.n_features:
            raise ValueError(f"{len(cols)} columns given for a forest of {part.n_features} features")
        # LEAF (-1) picks the appended last entry, so leaves stay LEAF
        feature = np.append(np.asarray(cols, dtype=np.int32), np.int32(LEAF))[part.feature]
        stacked.append((feature, part.threshold, part.children + offset, part.leaf_class + first_class,
                        part.roots + offset))
        offset += part.feature.size
        first_class += sum(map(len, part.class_ids))
    feature, threshold, children, leaf_class, roots = (np.concatenate(arrays) for arrays in zip(*stacked))
    return CompiledForests(feature, threshold, children, leaf_class, roots, n_features,
                           sum((part.class_ids for part in parts), ()), sum((part.n_trees for part in parts), ()))


def vote_counts(c: CompiledForests, X: np.ndarray) -> list[np.ndarray]:
    """Per forest of ``c``, an (n_rows, n_classes) int64 matrix of each row's
    votes. ``X`` must be finite and ``c.n_features`` wide; the callers check."""
    x = np.ascontiguousarray(X, dtype=np.float64).ravel()
    widths = [len(ids) for ids in c.class_ids]
    n, n_trees, width = x.size // c.n_features, c.roots.size, sum(widths)
    pair = np.arange(n * n_trees)  # the (row, tree) pairs still stepping
    node = np.tile(c.roots, n)
    at = np.repeat(np.arange(0, x.size, c.n_features), n_trees)  # where the pair's row starts in x
    leaf = np.empty(n * n_trees, dtype=np.intp)
    while pair.size:
        f = c.feature[node]
        inner = f != LEAF
        # drop the pairs at a leaf once they are half of those stepping; until
        # then they step in place (a leaf's children are itself; its LEAF
        # feature reads x[at - 1], a valid index, for a test it ignores)
        if 2 * np.count_nonzero(inner) <= inner.size:
            leaf[pair] = node  # final for the pairs at a leaf; the others step on
            keep = np.flatnonzero(inner)
            pair, node, at, f = pair[keep], node[keep], at[keep], f[keep]
        # children[2 * node + (x > threshold)]: x is finite, so ``>`` is
        # exactly "not <=" and True picks the right child; the shift and or
        # spell the same index, faster than a multiply and add in numpy
        node = c.children[(node << 1) | (x[at + f] > c.threshold[node])]
    cells = np.repeat(np.arange(0, n * width, width), n_trees) + c.leaf_class[leaf]
    counts = np.bincount(cells, minlength=n * width)
    return np.split(counts.reshape(n, width), np.cumsum(widths[:-1]), axis=1)


def _check_rows(f: RandomForest, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != f.n_features:
        got = X.shape[1] if X.ndim == 2 else f"an array of shape {X.shape}"
        raise DimensionMismatch(f"expected {f.n_features} features, got {got}")
    finite = np.isfinite(X)
    if not finite.all():
        v = float(X.flat[int(np.argmin(finite))])
        raise NonFiniteFeature(f"non-finite feature value {v!r}")
    return X


def predict(f: RandomForest, x) -> tuple[int, list[int]]:
    """(winning class id, votes per class aligned to f.class_ids)."""
    votes = vote_counts(compile_forest(f), _check_rows(f, [x]))[0][0]
    return f.class_ids[int(votes.argmax())], votes.tolist()


def predict_batch(f: RandomForest, X: np.ndarray) -> np.ndarray:
    """Class ids for each row of X."""
    votes = vote_counts(compile_forest(f), _check_rows(f, X))[0]
    return np.asarray(f.class_ids, dtype=np.int64)[votes.argmax(axis=1)]
