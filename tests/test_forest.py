import numpy as np
import pytest

import windpdm.forest as forest_module
from windpdm.errors import DimensionMismatch, EmptyInput, NonFiniteFeature
from windpdm.forest import (
    LEAF,
    TREE_FIELDS,
    DecisionTree,
    RandomForest,
    compile_forest,
    vote_counts,
    default_features_per_split,
    predict,
    predict_batch,
    stack_forests,
    train_forest,
    train_tree,
)
from windpdm.model_io import ModelBundle, deserialize_model, serialize_model

from oracles import brute_force_best_split, brute_force_tree


def rng_for(seed=0):
    return np.random.default_rng(np.random.SeedSequence((seed, 0)))


def tree_gini(counts):
    total = sum(counts)
    return 1.0 - sum((c / total) ** 2 for c in counts)


class TestTrainTree:
    def test_pure_input_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.zeros(3, dtype=np.int64)
        tree = train_tree(X, y, 2, max_depth=5, features_per_split=1, rng=rng_for())
        assert len(tree.feature) == 1
        assert tree.feature[0] == LEAF
        assert tree.counts[0].tolist() == [3, 0]

    def test_1d_separable_depth_one(self):
        X = np.array([[-3.0], [-1.5], [-0.5], [0.5], [2.0], [4.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        tree = train_tree(X, y, 2, max_depth=10, features_per_split=1, rng=rng_for())
        assert tree.depth() == 1
        assert tree.threshold[0] == pytest.approx(0.0)  # midpoint of -0.5 and 0.5
        pred = [tree.predict_index([x]) for x in (-2.0, -0.6, 0.6, 3.0)]
        assert pred == [0, 0, 1, 1]

    def test_root_split_matches_brute_force(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.normal(size=(20, 2))
            y = rng.integers(0, 3, size=20)
            if len(np.unique(y)) < 2:
                continue
            tree = train_tree(X, y, 3, max_depth=1, features_per_split=2, rng=rng_for(seed))
            expected = brute_force_best_split(X, y, 3)
            assert expected is not None
            assert (tree.feature[0], tree.threshold[0]) == expected, f"seed {seed}"

    def test_depth_never_exceeds_max(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 3, size=200)
        for max_depth in (1, 3, 7):
            tree = train_tree(X, y, 3, max_depth, 2, rng_for(max_depth))
            assert tree.depth() <= max_depth

    def test_every_split_reduces_impurity(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(150, 3))
        y = rng.integers(0, 2, size=150)
        tree = train_tree(X, y, 2, max_depth=25, features_per_split=2, rng=rng_for(9))

        def node_counts(i):
            if tree.feature[i] == LEAF:
                return np.array(tree.counts[i])
            return node_counts(tree.left[i]) + node_counts(tree.right[i])

        for i in range(len(tree.feature)):
            if tree.feature[i] == LEAF:
                continue
            parent = node_counts(i)
            left = node_counts(tree.left[i])
            right = node_counts(tree.right[i])
            weighted = (left.sum() * tree_gini(left) + right.sum() * tree_gini(right)) / parent.sum()
            assert weighted < tree_gini(parent) + 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            train_tree(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2, 5, 1, rng_for())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_training_value_is_refused(self, bad):
        X = np.random.default_rng(0).normal(size=(30, 2))
        X[7, 1] = bad
        y = np.arange(30) % 2
        with pytest.raises(NonFiniteFeature):
            train_tree(X, y, 2, 5, 1, rng_for())
        with pytest.raises(NonFiniteFeature):
            train_forest(X, y, [0, 1], n_trees=2, seed=0)


class TestTrainForest:
    def _planted(self, n=300, seed=0):
        # Bayes-optimal boundary x0 + x1 > 0, labels exactly on it
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
        return X, y

    def test_single_tree_no_bootstrap_equals_train_tree(self):
        X, y = self._planted()
        forest = train_forest(X, y, [0, 1], n_trees=1, max_depth=6,
                              features_per_split=2, seed=5, bootstrap=False)
        tree = train_tree(X, y, 2, 6, 2, rng_for(5))
        assert np.array_equal(forest.trees[0].feature, tree.feature)
        assert np.array_equal(forest.trees[0].threshold, tree.threshold)
        assert np.array_equal(forest.trees[0].counts, tree.counts)

    def test_same_seed_identical_bytes(self):
        X, y = self._planted()
        kwargs = dict(n_trees=5, max_depth=8, seed=77)
        a = train_forest(X, y, [0, 1], **kwargs)
        b = train_forest(X, y, [0, 1], **kwargs)
        bundle_a = ModelBundle("T1", 10, a, ["f0", "f1", "f2"], [], created_at=0)
        bundle_b = ModelBundle("T1", 10, b, ["f0", "f1", "f2"], [], created_at=0)
        assert serialize_model(bundle_a) == serialize_model(bundle_b)

    def test_different_seed_differs(self):
        X, y = self._planted()
        a = train_forest(X, y, [0, 1], n_trees=5, max_depth=8, seed=1)
        b = train_forest(X, y, [0, 1], n_trees=5, max_depth=8, seed=2)
        assert any(not np.array_equal(ta.threshold, tb.threshold) for ta, tb in zip(a.trees, b.trees))

    def test_separable_fixture_holdout_accuracy(self):
        X, y = self._planted(n=600, seed=3)
        forest = train_forest(X[:400], y[:400], [0, 1], n_trees=20, max_depth=10, seed=4)
        acc = float(np.mean(predict_batch(forest, X[400:]) == y[400:]))
        assert acc >= 0.95

    def test_forest_beats_single_tree_on_average(self):
        # training-set accuracy, averaged over 20 seeds (sanity, not theorem)
        rng = np.random.default_rng(10)
        n = 240
        X = rng.normal(size=(n, 6))
        y = ((X[:, 0] + X[:, 1] * X[:, 2] + 0.8 * rng.normal(size=n)) > 0).astype(np.int64)
        forest_scores = []
        tree_scores = []
        for seed in range(20):
            forest = train_forest(X[:160], y[:160], [0, 1], n_trees=15, max_depth=8, seed=seed)
            single = train_forest(X[:160], y[:160], [0, 1], n_trees=1, max_depth=8,
                                  seed=seed, bootstrap=False)
            forest_scores.append(float(np.mean(predict_batch(forest, X[:160]) == y[:160])))
            tree_scores.append(float(np.mean(predict_batch(single, X[:160]) == y[:160])))
        assert np.mean(forest_scores) >= np.mean(tree_scores)

    def test_unknown_label_rejected(self):
        X, y = self._planted()
        with pytest.raises(EmptyInput):
            train_forest(X, y + 5, [0, 1], n_trees=2, seed=0)

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_tree_is_empty_input(self, n_trees):
        X, y = self._planted()
        with pytest.raises(EmptyInput, match="at least one tree"):
            train_forest(X, y, [0, 1], n_trees=n_trees, seed=0)

    def test_default_features_per_split(self):
        assert default_features_per_split(14) == 3
        assert default_features_per_split(1) == 1
        assert default_features_per_split(104) == 10


def preorder(tree, i=0):
    """``tree`` from node i in ``brute_force_tree``'s form."""
    if tree.feature[i] == LEAF:
        return ("leaf", tuple(tree.counts[i].tolist()))
    return (int(tree.feature[i]), float(tree.threshold[i]),
            preorder(tree, tree.left[i]), preorder(tree, tree.right[i]))


def cut_at_level(tree, level):
    """``tree`` without its nodes below ``level``; a node at ``level`` becomes
    a leaf holding the class counts of the leaves under it. Nodes are
    numbered in level order, so the kept nodes are a prefix."""
    n = tree.feature.size
    inner = np.flatnonzero(tree.feature != LEAF)
    depth = np.zeros(n, dtype=np.intp)
    for i in inner:
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    assert (np.diff(depth) >= 0).all(), "nodes are not in level order"
    under = tree.counts.copy()
    for i in inner[::-1]:
        under[i] = under[tree.left[i]] + under[tree.right[i]]
    k = int(np.count_nonzero(depth <= level))
    edge = depth[:k] == level
    return DecisionTree(np.where(edge, LEAF, tree.feature[:k]), np.where(edge, 0.0, tree.threshold[:k]),
                        np.where(edge, LEAF, tree.left[:k]), np.where(edge, LEAF, tree.right[:k]),
                        np.where(edge[:, None], under[:k], tree.counts[:k]))


class TestLevelWiseGrowth:
    """Trees grow one level at a time, every tree of a forest together."""

    @pytest.mark.parametrize("bootstrap", [True, False])
    @pytest.mark.parametrize("seed, integer_valued", [(0, False), (1, False), (2, False),
                                                      (3, True), (4, True), (5, True)])
    def test_with_every_feature_each_tree_is_the_brute_force_tree(self, seed, integer_valued, bootstrap):
        # integer values repeat, so candidates tie in threshold and in S
        rng = np.random.default_rng(seed)
        n, p = 40, 3
        X = rng.integers(0, 4, size=(n, p)).astype(float) if integer_valued else rng.normal(size=(n, p))
        y = rng.integers(0, 3, size=n)
        forest = train_forest(X, y, [0, 1, 2], n_trees=3, max_depth=25, features_per_split=p,
                              seed=seed, bootstrap=bootstrap)
        for t, tree in enumerate(forest.trees):
            rows = np.random.default_rng(np.random.SeedSequence((seed, t))).integers(0, n, size=n) \
                if bootstrap else np.arange(n)
            assert preorder(tree) == brute_force_tree(X[rows], y[rows], 3, 25), f"tree {t}"

    @pytest.mark.parametrize("integer_valued", [False, True])
    def test_the_exact_comparison_alone_finds_the_brute_force_tree(self, integer_valued, monkeypatch):
        # with every candidate inside the float window, the exact integer
        # comparison decides every node by itself
        monkeypatch.setattr(forest_module, "NEAR_TIE", np.inf)
        rng = np.random.default_rng(7 + integer_valued)
        X = rng.integers(0, 4, size=(40, 3)).astype(float) if integer_valued else rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        tree = train_tree(X, y, 3, max_depth=25, features_per_split=3, rng=rng_for())
        assert preorder(tree) == brute_force_tree(X, y, 3, 25)

    def test_a_shallower_forest_is_the_deep_forest_cut(self):
        # draws are made per tree per level, so the levels a shallower forest
        # grows draw exactly what the deep forest's do
        rng = np.random.default_rng(21)
        X = rng.normal(size=(300, 5))
        y = rng.integers(0, 3, size=300)
        deep = train_forest(X, y, [0, 1, 2], n_trees=6, max_depth=25, seed=8)
        assert max(t.depth() for t in deep.trees) > 8
        for level in (1, 3, 8):
            shallow = train_forest(X, y, [0, 1, 2], n_trees=6, max_depth=level, seed=8)
            for t, (cut, grown) in enumerate(zip((cut_at_level(tree, level) for tree in deep.trees),
                                                 shallow.trees)):
                for name in TREE_FIELDS:
                    assert np.array_equal(getattr(cut, name), getattr(grown, name)), (level, t, name)


class TestForestArrays:
    """A forest holds one array per tree field and is checked as it is built;
    ``forest.trees`` cuts each tree from those arrays, and a traced benchmark
    run counts trees and nodes through it (``len(forest.trees)``,
    ``len(t.feature)``)."""

    def test_trained_and_loaded_forests_count_their_trees_and_nodes(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(120, 3))
        y = rng.integers(0, 3, size=120)
        trained = train_forest(X, y, [0, 1, 2], n_trees=7, max_depth=6, seed=11)
        bundle = ModelBundle("T1", 10, trained, ["f0", "f1", "f2"], [], created_at=0)
        loaded = deserialize_model(serialize_model(bundle)).forest
        for forest in (trained, loaded):
            assert len(forest.trees) == forest.n_trees == 7
            assert sum(len(t.feature) for t in forest.trees) == forest.feature.size == forest.tree_sizes.sum()
            for name in TREE_FIELDS:
                assert np.array_equal(np.concatenate([getattr(t, name) for t in forest.trees]), getattr(forest, name))
        assert loaded == trained

    def test_tree_shapes_count_each_trees_nodes_depth_and_leaves(self):
        forest = hand_forest([chain_tree(3, 2), leaf_tree([0, 1])], [0, 1], 1)
        assert [a.tolist() for a in forest.tree_shapes()] == [[7, 1], [3, 0], [4, 1]]

    @pytest.mark.parametrize("trees, match", [
        (lambda: [leaf_tree([1, 0]), tree_of([0, LEAF, LEAF], [0.5, 0.0, 0.0], [1, LEAF, LEAF], [0, LEAF, LEAF],
                                             [None, [1, 0], [0, 1]])], "not past it"),
        (lambda: [leaf_tree([1, 0]), tree_of([2, LEAF, LEAF], [0.5, 0.0, 0.0], [1, LEAF, LEAF], [2, LEAF, LEAF],
                                             [None, [1, 0], [0, 1]])], "neither -1 nor below 2"),
        (lambda: [leaf_tree([1, 0, 0])], "2 class counts"),
    ])
    def test_a_forest_no_walk_could_score_is_refused_as_it_is_built(self, trees, match):
        with pytest.raises(ValueError, match=match):
            hand_forest(trees(), [0, 1], 2)


class TestPredict:
    def _forest(self, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(200, 4))
        y = rng.integers(0, 3, size=200)
        return train_forest(X, y, [0, 1, 2], n_trees=9, max_depth=6, seed=seed), X

    def test_single_leaf_forest_votes_everything(self):
        X = np.ones((5, 2))
        y = np.full(5, 2, dtype=np.int64)
        forest = train_forest(X, y, [0, 1, 2], n_trees=7, max_depth=4, seed=0)
        label, votes = predict(forest, [1.0, 1.0])
        assert label == 2
        assert votes == [0, 0, 7]

    def test_votes_sum_to_n_trees(self):
        forest, X = self._forest(3)
        for row in X[:25]:
            _, votes = predict(forest, row)
            assert sum(votes) == forest.n_trees

    def test_matches_per_tree_recount(self):
        forest, _ = self._forest(4)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.normal(size=4).tolist()
            label, votes = predict(forest, x)
            recount = [0, 0, 0]
            for tree in forest.trees:
                recount[tree.predict_index(x)] += 1
            assert votes == recount
            best = max(range(3), key=lambda c: (recount[c], -c))
            assert label == forest.class_ids[best]

    def test_tree_order_does_not_change_prediction(self):
        forest, X = self._forest(6)
        shuffled = forest_of(forest.trees[::-1], max_depth=forest.max_depth,
                             features_per_split=forest.features_per_split, class_ids=forest.class_ids,
                             seed=forest.seed, n_features=forest.n_features)
        assert [t.feature.size for t in shuffled.trees] == [t.feature.size for t in forest.trees][::-1]
        for row in X[:20]:
            assert predict(forest, row) == predict(shuffled, row)

    def test_dimension_mismatch(self):
        forest, _ = self._forest(7)
        with pytest.raises(DimensionMismatch):
            predict(forest, [1.0, 2.0])

    def test_non_finite_feature(self):
        forest, _ = self._forest(8)
        with pytest.raises(NonFiniteFeature):
            predict(forest, [1.0, float("nan"), 0.0, 2.0])


def tree_of(feature, threshold, left, right, counts):
    """A DecisionTree from per-node lists; None counts are an inner node's."""
    n_classes = len(next(c for c in counts if c is not None))
    return DecisionTree(np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
                        np.array(left, dtype=np.intp), np.array(right, dtype=np.intp),
                        np.array([[0] * n_classes if c is None else c for c in counts], dtype=np.int64))


def leaf_tree(counts):
    return tree_of([LEAF], [0.0], [LEAF], [LEAF], [list(counts)])


def chain_tree(depth, n_classes):
    """A tree of ``depth`` inner nodes on feature 0 in a chain: x0 <= i goes
    left to a leaf of class i % n_classes, else down the chain."""
    feature, threshold, left, right, counts = [], [], [], [], []
    for i in range(depth):
        node = len(feature)
        feature += [0, LEAF]
        threshold += [float(i), 0.0]
        left += [node + 1, LEAF]
        right += [node + 2, LEAF]
        counts += [None, [int(c == i % n_classes) for c in range(n_classes)]]
    feature.append(LEAF)
    threshold.append(0.0)
    left.append(LEAF)
    right.append(LEAF)
    counts.append([1] * n_classes)  # a tie at the leaf: the lowest class wins
    return tree_of(feature, threshold, left, right, counts)


def forest_of(trees, **params):
    """The forest of ``trees``, in order; ``params`` are the other fields
    but ``n_trees``."""
    joined = (np.concatenate([getattr(t, name) for t in trees]) for name in TREE_FIELDS)
    sizes = np.fromiter((t.feature.size for t in trees), np.intp, len(trees))
    return RandomForest(*joined, sizes, n_trees=len(trees), **params)


def hand_forest(trees, class_ids, n_features):
    return forest_of(trees, max_depth=25, features_per_split=1, class_ids=class_ids, seed=0, n_features=n_features)


class TestCompiledWalk:
    """The compiled walk against a recount through each tree's own walk."""

    @staticmethod
    def recount(forest, X):
        votes = np.zeros((len(X), len(forest.class_ids)), dtype=np.int64)
        for r, x in enumerate(X):
            for tree in forest.trees:
                votes[r, tree.predict_index(x.tolist())] += 1
        return votes

    @pytest.mark.parametrize("n_classes", [2, 3, 4])
    def test_votes_equal_per_tree_recount(self, n_classes):
        rng = np.random.default_rng(n_classes)
        X = rng.normal(size=(300, 3))
        y = rng.integers(0, n_classes, size=300)  # noise: trees grow deep
        trained = train_forest(X, y, list(range(n_classes)), n_trees=6, max_depth=25, seed=n_classes)
        trees = trained.trees + [chain_tree(25, n_classes), leaf_tree([1] + [0] * (n_classes - 1)),
                                 leaf_tree([0] * (n_classes - 1) + [2])]
        forest = hand_forest(trees, list(range(10, 10 + n_classes)), 3)
        assert max(t.depth() for t in forest.trees) == 25
        compiled = compile_forest(forest)
        queries = np.vstack([rng.normal(size=(257, 3)), np.arange(-1.0, 26.0)[:, None].repeat(3, axis=1)])
        for n in (1, 2, 257, len(queries)):
            votes = vote_counts(compiled, queries[:n])
            assert len(votes) == 1
            assert votes[0].tolist() == self.recount(forest, queries[:n]).tolist()

    def test_zero_rows(self):
        forest = hand_forest([leaf_tree([0, 1])], [0, 1], 2)
        assert vote_counts(compile_forest(forest), np.empty((0, 2)))[0].shape == (0, 2)
        assert predict_batch(forest, np.empty((0, 2))).tolist() == []

    def test_six_forest_stack_equals_six_predicts(self):
        """Six forests over different columns of one wider row, stacked with
        remapped feature indexes, give each forest's own votes and winner."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 5))
        columns = [[0, 1], [4, 2, 0], [3], [1, 3], [2, 4, 1, 0], [4]]
        forests = []
        for i, cols in enumerate(columns):
            n_classes = 2 + i % 3
            y = (X[:, cols[0]] > 0).astype(np.int64) + rng.integers(0, n_classes - 1, size=200)
            forests.append(train_forest(X[:, cols], y, list(range(n_classes)), n_trees=5, max_depth=8, seed=i))
        # a forest of two trees whose votes tie 1-1 on every row: the lowest class wins
        forests.append(hand_forest([leaf_tree([0, 0, 3]), leaf_tree([0, 3, 0])], [5, 6, 7], 1))
        columns.append([2])
        stack = stack_forests([compile_forest(f) for f in forests], columns, 5)
        rows = rng.normal(size=(33, 5))
        for n in (1, 2, 33):
            votes = vote_counts(stack, rows[:n])
            assert len(votes) == len(forests)
            for forest, cols, v in zip(forests, columns, votes):
                for r in range(n):
                    label, expected = predict(forest, rows[r, cols])
                    assert v[r].tolist() == expected
                    assert forest.class_ids[int(v[r].argmax())] == label
        assert predict(forests[-1], [0.0]) == (6, [0, 1, 1])

    def test_predict_batch_checks_rows(self):
        forest = hand_forest([leaf_tree([0, 1])], [0, 1], 2)
        with pytest.raises(DimensionMismatch):
            predict_batch(forest, np.zeros((3, 3)))
        with pytest.raises(NonFiniteFeature, match="inf"):
            predict_batch(forest, np.array([[0.0, 1.0], [np.inf, np.nan]]))
