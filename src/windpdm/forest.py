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
  with replacement; each tree's rng derives from (seed, tree_index) and
  first draws the tree's bootstrap rows, so training is a pure function of
  (rows, hyperparameters, seed).
* Trees grow level by level, all trees of a forest together (``_Grower``).
  At each level above max depth, each tree with k nodes of more than one
  class at that level makes one draw, ``rng.random((k, p))``, row i for
  its i-th such node in node order; a node samples the features of the m
  (= min(features_per_split, p)) smallest uniforms of its row (stable
  argsort). A tree's draws depend only on its levels above, so a forest
  grown to depth m is the deeper forest cut at level m.
* Nodes are numbered per tree in level order: the root is 0, and the
  children of a level's split nodes are numbered after every node of that
  level, in the order of their parents, left before right. A node's
  children so come after it, and the nodes down to any level are a prefix
  of the tree's arrays. Inner nodes keep zero class counts.
* A tree is numpy node arrays from the grower on (``DecisionTree``), and a
  forest holds one array per field for all its trees, tree after tree, with
  each tree's node count (``RandomForest``); its ``trees`` are views cut
  from those arrays on first use. A forest is checked once, as it is built:
  building one that no walk could score raises ``ValueError``.
* Prediction: each tree votes its leaf's majority class and the forest
  returns the vote argmax, all ties breaking to the lowest class id. Scoring
  runs over compiled arrays: ``compile_forest`` derives from a forest's
  arrays each node's absolute ``children`` and each leaf's ``leaf_class``
  (one argmax over the class counts) and each tree's root;
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

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyInput, NonFiniteFeature

LEAF = -1
DEFAULT_N_TREES = 40
DEFAULT_MAX_DEPTH = 25
# candidates whose float score is within this share of their node's best are
# compared exactly
NEAR_TIE = 1e-9


@dataclass(eq=False)
class DecisionTree:
    """One tree's node arrays: node i is a leaf iff feature[i] == LEAF.

    ``left`` and ``right`` hold tree-local node indexes, LEAF at a leaf; a
    node's value goes left when it is ``<= threshold``. ``counts`` is an
    (n_nodes, n_classes) matrix of each leaf's training rows per class, zero
    at an inner node.
    """

    feature: np.ndarray  # intp
    threshold: np.ndarray  # float64
    left: np.ndarray  # intp
    right: np.ndarray  # intp
    counts: np.ndarray  # int64

    def predict_index(self, x) -> int:
        """Majority class index at the leaf feature vector x reaches (ties to
        the lowest index)."""
        i = 0
        while self.feature[i] != LEAF:
            i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
        return int(self.counts[i].argmax())

    def depth(self) -> int:
        depths = np.zeros(self.feature.size, dtype=np.intp)
        for i in np.flatnonzero(self.feature != LEAF):  # a node's children come after it
            depths[self.left[i]] = depths[self.right[i]] = depths[i] + 1
        return int(depths.max())


TREE_FIELDS = ("feature", "threshold", "left", "right", "counts")  # DecisionTree's, in order


@dataclass(eq=False)
class RandomForest:
    """A forest's trees as one array per ``DecisionTree`` field, tree after
    tree (``left`` and ``right`` stay tree-local), and ``tree_sizes``, each
    tree's node count. Building one checks that a walk could score it."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    counts: np.ndarray
    tree_sizes: np.ndarray  # intp
    n_trees: int
    max_depth: int
    features_per_split: int
    class_ids: list[int]
    seed: int
    bootstrap: bool = True
    n_features: int = 0

    def __post_init__(self):
        """Raise ValueError (or TypeError for a field numpy cannot compare)
        for a forest the walk could not score:

        * no trees, ``n_trees`` other than their count, or no classes;
        * a tree with no node, or fields that do not hold one entry (one row
          of ``counts``, one count per class) per node;
        * a feature index that is neither LEAF nor below ``n_features``;
        * an inner node whose children are not past it inside its tree, where
          a walk could leave the tree or never end, or a leaf whose children
          are neither LEAF nor inside its tree.
        """
        sizes, n_classes = self.tree_sizes, len(self.class_ids)
        if not sizes.size or self.n_trees != sizes.size or not n_classes:
            raise ValueError(f"a forest of {self.n_trees} trees holds {sizes.size}, over {n_classes} classes")
        n = int(sizes.sum())
        if (sizes < 1).any() or any(getattr(self, name).shape[:1] != (n,) for name in TREE_FIELDS) \
                or self.counts.shape != (n, n_classes):
            raise ValueError(f"a tree has no node, or its fields do not hold one entry per node "
                             f"and {n_classes} class counts per node")
        feature = self.feature
        if ((feature < LEAF) | (feature >= self.n_features)).any():
            raise ValueError(f"a feature index is neither {LEAF} nor below {self.n_features}")
        node = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # tree-local
        size = np.repeat(sizes, sizes)
        at_leaf = feature == LEAF
        for child in (self.left, self.right):
            inside = (child < size) & np.where(at_leaf, child >= 0, child > node)
            if not (inside | (at_leaf & (child == LEAF))).all():
                raise ValueError("an inner node's child is not past it in its tree, or a leaf's neither LEAF nor in it")

    @cached_property
    def trees(self) -> list[DecisionTree]:
        """Each tree as views of the forest's arrays, cut on first use."""
        ends = np.cumsum(self.tree_sizes).tolist()
        arrays = [getattr(self, name) for name in TREE_FIELDS]
        return [DecisionTree(*(a[start:end] for a in arrays)) for start, end in zip([0] + ends, ends)]

    def tree_shapes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each tree's node count, depth and leaf count, from the arrays."""
        sizes = self.tree_sizes
        starts = np.cumsum(sizes) - sizes
        at_leaf = self.feature == LEAF
        shift = np.repeat(starts, sizes)  # a tree's node i is node start + i of the forest
        depth = np.zeros(at_leaf.size, dtype=np.intp)
        level, d = starts, 0
        while level.size:
            depth[level] = d
            inner = level[~at_leaf[level]]
            level = np.concatenate([self.left[inner], self.right[inner]]) + np.tile(shift[inner], 2)
            d += 1
        return sizes, np.maximum.reduceat(depth, starts), np.add.reduceat(at_leaf, starts)

    def __eq__(self, other):
        if not isinstance(other, RandomForest):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


class _Grower:
    """Grows trees over the rows of one training matrix, all trees together,
    one level at a time.

    Each column's values are replaced by their dense ranks, so that one
    integer sort orders the values of every (node, sampled feature) segment
    of a level; ``value[f, r]`` is the value of rank r in column f.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_classes: int, features_per_split: int):
        finite = np.isfinite(X)
        if not finite.all():  # a NaN would take a rank of its own and split at a NaN threshold
            v = float(X.flat[int(np.argmin(finite))])
            raise NonFiniteFeature(f"non-finite feature value {v!r} in training rows")
        n, p = X.shape
        self.X, self.y, self.n_classes, self.m = X, y, n_classes, min(features_per_split, p)
        order = np.argsort(X, axis=0, kind="stable")
        by_value = np.take_along_axis(X, order, axis=0)
        ranks = np.zeros((n, p), dtype=np.intp)
        np.cumsum(by_value[1:] != by_value[:-1], axis=0, out=ranks[1:])
        self.rank = np.empty_like(ranks)
        np.put_along_axis(self.rank, order, ranks, axis=0)
        self.value = np.empty((p, n))
        self.value[np.arange(p)[:, None], ranks.T] = by_value.T
        # a sort key packs (segment, rank, class) into one int64, in that order
        self.class_bits, self.rank_bits = max(1, (n_classes - 1).bit_length()), max(1, (n - 1).bit_length())

    def grow(self, max_depth: int, rngs: Sequence[np.random.Generator], samples: Sequence[np.ndarray]):
        """One tree per (rng, sample of row indexes): the trees' node arrays
        in ``TREE_FIELDS`` order, tree after tree, and each tree's node count."""
        n_trees, n_classes = len(rngs), self.n_classes
        rows = np.concatenate(samples)  # the open nodes' rows, node after node
        if (self.m * rows.size).bit_length() + self.rank_bits + self.class_bits > 63:
            raise ValueError(f"{rows.size} sampled rows are too many to grow at once")
        size = np.fromiter(map(len, samples), np.intp, n_trees)  # rows per open node
        tree = np.arange(n_trees)  # each open node's tree ...
        local = np.zeros(n_trees, dtype=np.intp)  # ... and its index there
        n_nodes = np.ones(n_trees, dtype=np.intp)  # nodes numbered so far, per tree
        levels = []
        for depth in itertools.count():
            k = size.size
            node_of = np.repeat(np.arange(k), size)
            counts = np.bincount(node_of * n_classes + self.y[rows], minlength=k * n_classes).reshape(k, n_classes)
            feature = np.full(k, LEAF, dtype=np.intp)
            threshold = np.zeros(k)
            left = np.full(k, LEAF, dtype=np.intp)
            right = np.full(k, LEAF, dtype=np.intp)
            found = self._splits(rows, size, counts, tree, rngs) if depth < max_depth else None
            levels.append((tree, local, feature, threshold, left, right, counts))
            if found is None:
                break
            split, split_feature, split_threshold = found
            feature[split], threshold[split] = split_feature, split_threshold
            # children are numbered past the tree's nodes so far, left then right
            split_tree = tree[split]
            nth = np.arange(split.size) - np.searchsorted(split_tree, split_tree)  # within its tree
            left[split] = n_nodes[split_tree] + 2 * nth
            right[split] = left[split] + 1
            n_nodes += 2 * np.bincount(split_tree, minlength=n_trees)
            counts[split] = 0
            # route the split nodes' rows, a node's left rows before its right rows
            slot = np.full(k, -1)
            slot[split] = np.arange(split.size)
            kept = slot[node_of] >= 0
            rows, node_of = rows[kept], node_of[kept]
            child = 2 * slot[node_of] + (self.X[rows, feature[node_of]] > threshold[node_of])
            rows = rows[np.argsort(child, kind="stable")]
            size = np.bincount(child, minlength=2 * split.size)
            tree = np.repeat(split_tree, 2)
            local = np.column_stack([left[split], right[split]]).ravel()

        offset = np.cumsum(n_nodes) - n_nodes
        total = int(n_nodes.sum())
        arrays = (np.empty(total, dtype=np.intp), np.empty(total), np.empty(total, dtype=np.intp),
                  np.empty(total, dtype=np.intp), np.empty((total, n_classes), dtype=np.int64))
        for level_tree, level_local, *level_fields in levels:
            at = offset[level_tree] + level_local
            for array, values in zip(arrays, level_fields):
                array[at] = values
        return arrays, n_nodes

    def _splits(self, rows, size, counts, tree, rngs):
        """The splits of one level's open nodes, as (node indexes, features,
        thresholds) in node order, or None when no node splits. A node with
        more than one class draws its features; it splits at its best
        candidate if that strictly reduces impurity."""
        m, class_bits, rank_bits = self.m, self.class_bits, self.rank_bits
        eligible = np.count_nonzero(counts, axis=1) > 1
        nodes = np.flatnonzero(eligible)
        if not nodes.size:
            return None
        # one draw per tree for all its eligible nodes, in node order: a node
        # samples the features of the m smallest of its row's uniforms
        p = self.X.shape[1]
        draws = np.concatenate([rngs[t].random((c, p))
                                for t, c in enumerate(np.bincount(tree[nodes], minlength=len(rngs)).tolist()) if c])
        sampled = np.sort(np.argsort(draws, axis=1, kind="stable")[:, :m], axis=1)

        node_size = size[nodes]
        erows = rows[np.repeat(eligible, size)]
        enode = np.repeat(np.arange(nodes.size), node_size)
        # segment s is (node s // m, its sampled feature s % m); one sort orders
        # every segment's values, and a value's classes ascend
        key = enode[:, None] * m + np.arange(m)
        key <<= rank_bits
        key |= self.rank[erows[:, None], sampled[enode]]
        key <<= class_bits
        key |= self.y[erows][:, None]
        key = key.ravel()
        key.sort()
        cls = key & ((1 << class_bits) - 1)
        seg_size = np.repeat(node_size, m)
        seg_start = np.cumsum(seg_size) - seg_size
        # a candidate splits its segment after the last entry of a group of
        # equal values, other than the segment's last group. A group is pure
        # when its first and last classes agree. S is strictly convex across
        # a run of pure groups of one class, so a candidate inside the run
        # scores below one of the run's ends (or below the parent's purity,
        # at the segment's start or end); those are dropped
        ends = np.flatnonzero((key[1:] >> class_bits) != (key[:-1] >> class_bits))
        pure = cls[np.r_[0, ends + 1]] == cls[np.r_[ends, key.size - 1]]
        drop = pure[:-1] & pure[1:] & (cls[ends] == cls[ends + 1])
        drop[np.searchsorted(ends, seg_start[1:] - 1)] = True
        cut = ends[~drop]
        if not cut.size:
            return None
        seg = key[cut] >> (rank_bits + class_bits)
        owner = seg // m  # the candidate's node, among ``nodes``
        nl = cut + 1 - seg_start[seg]
        nr = seg_size[seg] - nl
        # S = a / b with a = nr * sum(lc^2) + nl * sum(rc^2) and b = nl * nr
        total = counts[nodes]
        lsq = np.zeros(cut.size, dtype=np.int64)
        rsq = np.zeros(cut.size, dtype=np.int64)
        before = np.zeros(key.size + 1, dtype=np.intp)
        for c in range(self.n_classes):
            np.cumsum(cls == c, out=before[1:])  # class c entries before each position
            lc = before[cut + 1] - before[cut + 1 - nl]
            rc = total[owner, c] - lc
            lsq += lc * lc
            rsq += rc * rc
        a = nr * lsq + nl * rsq
        b = nl * nr
        # float pre-ranking per node, then exact comparison among the near-ties,
        # in Python ints: a * b can pass int64 at about 10,900 rows
        q = a / b
        opens = np.r_[True, owner[1:] != owner[:-1]]  # a node's first candidate
        group = np.cumsum(opens) - 1  # the candidate's node, among those with candidates
        q_max = np.maximum.reduceat(q, np.flatnonzero(opens))[group]
        near = np.flatnonzero(q >= q_max - NEAR_TIE * np.maximum(1.0, np.abs(q_max)))
        a_near, b_near, g_near = a[near].astype(object), b[near].astype(object), group[near]
        best = _firsts(g_near, np.arange(near.size))
        while True:
            diff = a_near * b_near[best[g_near]] - a_near[best[g_near]] * b_near
            better = np.flatnonzero(diff > 0)
            if not better.size:
                break
            best[g_near[better]] = better  # one better candidate per node, whichever
        # ties go to the lowest feature, then the lowest threshold: the first candidate
        tied = np.flatnonzero(diff == 0)
        chosen = near[_firsts(g_near[tied], tied)]
        # a split must beat the parent's purity: S > sum(pc^2) / n, compared exactly
        parent_sq = (total[owner[chosen]].astype(object) ** 2).sum(axis=1)
        chosen = chosen[a[chosen].astype(object) * node_size[owner[chosen]] > parent_sq * b[chosen].astype(object)]
        if not chosen.size:
            return None
        f = sampled[owner[chosen], seg[chosen] % m]
        lo, hi = (key[cut[chosen] + [[0], [1]]] >> class_bits) & ((1 << rank_bits) - 1)  # the ranks either side
        return nodes[owner[chosen]], f, (self.value[f, lo] + self.value[f, hi]) / 2.0


def _firsts(groups: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The item at each group's first entry; ``groups`` ascend from 0 in
    steps of 0 or 1."""
    return items[np.r_[True, groups[1:] != groups[:-1]]]


def train_tree(
    X: np.ndarray,
    y_index: np.ndarray,
    n_classes: int,
    max_depth: int,
    features_per_split: int,
    rng: np.random.Generator,
) -> DecisionTree:
    """Grow one greedy CART tree over class-index labels 0..n_classes-1,
    drawing its features from ``rng``."""
    X = np.asarray(X, dtype=np.float64)
    y_index = np.asarray(y_index, dtype=np.int64)
    if X.size == 0 or y_index.size == 0:
        raise EmptyInput("cannot train a tree on zero rows")
    if features_per_split < 1:
        raise EmptyInput("features_per_split must be >= 1")
    arrays, _ = _Grower(X, y_index, n_classes, features_per_split).grow(max_depth, [rng], [np.arange(len(X))])
    return DecisionTree(*arrays)


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
    if n_trees < 1:
        raise EmptyInput(f"a forest needs at least one tree, not {n_trees}")
    n, p = X.shape
    if features_per_split is None:
        features_per_split = default_features_per_split(p)
    if features_per_split < 1:
        raise EmptyInput("features_per_split must be >= 1")
    index_of = {c: i for i, c in enumerate(class_ids)}
    try:
        y_index = np.asarray([index_of[int(label)] for label in y], dtype=np.int64)
    except KeyError as exc:
        raise EmptyInput(f"label {exc} not in class list {class_ids}") from None
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, t))) for t in range(n_trees)]
    samples = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    arrays, sizes = _Grower(X, y_index, len(class_ids), features_per_split).grow(max_depth, rngs, samples)
    return RandomForest(
        *arrays,
        sizes,
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
    """One forest's trees as node arrays that read its own features, derived
    from the forest's arrays with a few array operations."""
    sizes = f.tree_sizes
    roots = np.cumsum(sizes) - sizes
    node = np.arange(f.feature.size)
    shift = np.repeat(roots, sizes)  # a tree's node i is node root + i of the forest
    at_leaf = f.feature == LEAF
    children = np.column_stack([np.where(at_leaf, node, child + shift) for child in (f.left, f.right)]).ravel()
    # an inner node's counts are zero, so its argmax is 0, which no walk reads
    leaf_class = f.counts.argmax(axis=1).astype(np.int32)
    return CompiledForests(f.feature.astype(np.int32), f.threshold, children, leaf_class, roots, f.n_features,
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
