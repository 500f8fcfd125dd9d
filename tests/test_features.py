import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windpdm.errors import ConstantColumn, DegenerateMatrix
from windpdm.features import (
    FeatureMatrix,
    correlation_groups,
    pca,
    pearson_matrix,
    select_by_cumulative_variance,
    select_parameters,
    standardize,
)

from oracles import jacobi_eigh, union_find_groups


def matrix(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = names or [f"p{i}" for i in range(values.shape[1])]
    return FeatureMatrix(values, names)


class TestStandardize:
    def test_column_mean_zero_variance_one(self):
        sm = standardize(matrix([[1.0], [2.0], [3.0]]))
        col = sm.matrix.values[:, 0]
        assert abs(col.mean()) < 1e-9
        assert abs(col.std(ddof=1) - 1.0) < 1e-9

    def test_constant_column_dropped_and_reported(self):
        sm = standardize(matrix([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], ["const", "var"]))
        assert sm.dropped_constant == ["const"]
        assert sm.matrix.names == ["var"]

    def test_2x2_hand_oracle(self):
        # columns [0,2] and [10,20]: mean (1,15), sd (sqrt(2), sqrt(50))
        sm = standardize(matrix([[0.0, 10.0], [2.0, 20.0]]))
        expected = np.array([[-1.0 / np.sqrt(2) * np.sqrt(2), -1 / np.sqrt(2) * np.sqrt(2)]])
        # direct arithmetic: (0-1)/sqrt(2) and (10-15)/sqrt(50)
        assert sm.matrix.values[0, 0] == pytest.approx(-1.0 / np.sqrt(2.0), abs=1e-12)
        assert sm.matrix.values[1, 0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert sm.matrix.values[0, 1] == pytest.approx(-5.0 / np.sqrt(50.0), abs=1e-12)
        assert sm.matrix.values[1, 1] == pytest.approx(5.0 / np.sqrt(50.0), abs=1e-12)
        del expected

    def test_single_row_rejected(self):
        with pytest.raises(DegenerateMatrix):
            matrix([[1.0, 2.0]])

    def test_all_constant_rejected(self):
        with pytest.raises(DegenerateMatrix):
            standardize(matrix([[1.0], [1.0], [1.0]]))


class TestPca:
    def test_single_column(self):
        result = pca(standardize(matrix([[1.0], [2.0], [4.0]])))
        assert result.explained_variance_ratio == pytest.approx([1.0])
        assert abs(abs(result.components[0, 0]) - 1.0) < 1e-12

    def test_two_identical_columns_rank_one(self):
        values = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        result = pca(standardize(matrix(values)))
        assert result.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
        assert result.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-9)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 4))
        sm = standardize(matrix(x))
        result = pca(sm)
        cov = sm.matrix.values.T @ sm.matrix.values / (sm.matrix.n - 1)
        eigvals, eigvecs = jacobi_eigh(cov)
        ratios = np.clip(eigvals, 0, None) / np.clip(eigvals, 0, None).sum()
        assert np.allclose(result.explained_variance_ratio, ratios, atol=1e-6)
        for i in range(4):
            dot = abs(float(np.dot(result.components[i], eigvecs[i])))
            assert dot == pytest.approx(1.0, abs=1e-6)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(6)
        result = pca(standardize(matrix(rng.normal(size=(30, 5)))))
        gram = result.components @ result.components.T
        assert np.allclose(gram, np.eye(5), atol=1e-9)

    def test_ratios_descending_and_sum_to_one(self):
        rng = np.random.default_rng(7)
        result = pca(standardize(matrix(rng.normal(size=(25, 6)))))
        ratios = result.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-12)
        assert ratios.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(ratios >= 0.0)


class TestSelectByCumulativeVariance:
    def _result_with_ratios(self, ratios, p):
        rng = np.random.default_rng(0)
        sm = standardize(matrix(rng.normal(size=(10, p))))
        result = pca(sm)
        result.explained_variance_ratio = np.asarray(ratios)
        return result

    def test_single_ratio(self):
        result = pca(standardize(matrix([[1.0], [2.0], [3.0]])))
        names, k = select_by_cumulative_variance(result, 0.99)
        assert k == 1 and len(names) == 1

    def test_two_of_three(self):
        result = self._result_with_ratios([0.6, 0.39, 0.01], 3)
        _names, k = select_by_cumulative_variance(result, 0.99)
        assert k == 2

    def test_planted_three_blocks(self):
        # 3 latent factors drive 9 columns; block sizes 2/3/4 keep the three
        # eigenvalues distinct, so each retained component aligns with one
        # block and selection keeps exactly one parameter per block
        rng = np.random.default_rng(42)
        latents = rng.normal(size=(400, 3))
        cols = []
        names = []
        for block, width in enumerate((2, 3, 4)):
            for j in range(width):
                cols.append(latents[:, block] * (1.0 + 0.1 * j) + rng.normal(0, 1e-6, 400))
                names.append(f"b{block}_{j}")
        m = matrix(np.column_stack(cols), names)
        result = pca(standardize(m))
        selected, k = select_by_cumulative_variance(result, 0.99)
        assert k == 3
        assert len(selected) == 3
        blocks = {name.split("_")[0] for name in selected}
        assert blocks == {"b0", "b1", "b2"}

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        result = pca(standardize(matrix(rng.normal(size=(40, 6)))))
        ks = [select_by_cumulative_variance(result, t)[1]
              for t in (0.2, 0.5, 0.8, 0.95, 0.99, 1.0)]
        assert ks == sorted(ks)

    def test_bad_threshold(self):
        result = pca(standardize(matrix([[1.0], [2.0], [3.0]])))
        with pytest.raises(DegenerateMatrix):
            select_by_cumulative_variance(result, 0.0)


class TestPearson:
    def test_self_correlation_is_exactly_one(self):
        m = matrix(np.column_stack([np.arange(5.0), np.arange(5.0)]))
        corr = pearson_matrix(m)
        assert corr[0, 0] == 1.0
        assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self):
        x = np.arange(6.0)
        corr = pearson_matrix(matrix(np.column_stack([x, -x])))
        assert corr[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_formula(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([1.0, 2.0, 3.0, 5.0])
        corr = pearson_matrix(matrix(np.column_stack([x, y])))
        cov = np.sum((x - x.mean()) * (y - y.mean())) / 3
        expected = cov / (x.std(ddof=1) * y.std(ddof=1))
        assert corr[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(ConstantColumn):
            pearson_matrix(matrix([[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]]))

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(10)
        corr = pearson_matrix(matrix(rng.normal(size=(20, 5))))
        assert np.allclose(corr, corr.T)
        assert np.all(np.abs(corr) <= 1.0 + 1e-12)


class TestCorrelationGroups:
    def test_no_pair_above_threshold(self):
        rng = np.random.default_rng(11)
        m = matrix(rng.normal(size=(50, 4)))
        corr = pearson_matrix(m)
        groups, reps = correlation_groups(corr, m.names, threshold=0.9999)
        assert len(groups) == 4
        assert reps == sorted(m.names)

    def test_three_mutually_correlated(self):
        base = np.arange(30.0)
        cols = np.column_stack([base, base * 2, base * 3 + 0.001])
        corr = pearson_matrix(matrix(cols, ["c", "a", "b"]))
        groups, reps = correlation_groups(corr, ["c", "a", "b"], 0.95)
        assert groups == [["a", "b", "c"]]
        assert reps == ["a"]

    def test_chain_transitive_closure(self):
        # a~b and b~c strong, a~c weak: still one component
        rng = np.random.default_rng(12)
        b = rng.normal(size=200)
        a = b + rng.normal(0, 0.25, 200)
        c = b - rng.normal(0, 0.25, 200)
        m = matrix(np.column_stack([a, b, c]), ["a", "b", "c"])
        corr = pearson_matrix(m)
        assert abs(corr[0, 1]) >= 0.95 and abs(corr[1, 2]) >= 0.95
        assert abs(corr[0, 2]) < 0.95
        groups, _ = correlation_groups(corr, ["a", "b", "c"], 0.95)
        assert groups == union_find_groups(corr, ["a", "b", "c"], 0.95) == [["a", "b", "c"]]

    def test_matches_union_find_on_random_matrices(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = matrix(rng.normal(size=(12, 6)))
            corr = pearson_matrix(m)
            threshold = rng.uniform(0.05, 0.6)
            groups, _ = correlation_groups(corr, m.names, threshold)
            assert groups == union_find_groups(corr, m.names, threshold)

    def test_threshold_above_one_gives_singletons(self):
        rng = np.random.default_rng(14)
        m = matrix(rng.normal(size=(10, 3)))
        groups, _ = correlation_groups(pearson_matrix(m), m.names, 1.5)
        assert all(len(g) == 1 for g in groups)

    def test_threshold_zero_gives_one_group(self):
        rng = np.random.default_rng(15)
        m = matrix(rng.normal(size=(10, 3)))
        groups, _ = correlation_groups(pearson_matrix(m), m.names, 0.0)
        assert len(groups) == 1


class TestPipeline:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=20),
        p=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_never_grows_parameter_count(self, n, p, seed):
        rng = np.random.default_rng(seed)
        m = matrix(rng.normal(size=(n, p)))
        report = select_parameters(m)
        assert len(report.final_names) <= len(report.pca_survivors) <= p
        assert set(report.final_names) <= set(report.pca_survivors) <= set(m.names)

    def test_one_representative_per_group(self):
        rng = np.random.default_rng(16)
        m = matrix(rng.normal(size=(30, 6)))
        report = select_parameters(m)
        assert sorted(report.final_names) == sorted(g[0] for g in report.correlation_groups)

    def test_report_round_trips_through_json(self):
        rng = np.random.default_rng(17)
        report = select_parameters(matrix(rng.normal(size=(30, 5))))
        assert json.loads(report.to_json()) == dataclasses.asdict(report)

    def test_correlated_pair_never_survives_whole(self):
        # a tightly correlated pair loses at least one member to the funnel,
        # whichever stage catches it
        rng = np.random.default_rng(18)
        base = rng.normal(size=300)
        a = base + rng.normal(0, 0.15, 300)
        b = base + rng.normal(0, 0.15, 300)
        c = rng.normal(size=300)
        m = matrix(np.column_stack([a, b, c]), ["a", "b", "c"])
        report = select_parameters(m, variance_threshold=1.0, correlation_threshold=0.9)
        assert report.retained_component_count == 3
        assert not {"a", "b"} <= set(report.final_names)
        assert "c" in report.final_names
