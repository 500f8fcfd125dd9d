import numpy as np
import pytest

from windpdm.dataset import (
    HorizonDataset,
    label_records,
    load_dataset,
    save_dataset,
    stratified_split,
)
from windpdm.errors import EmptyDataset, InvalidValue
from windpdm.ingest import OperationalRecord
from windpdm.patterns import NORMAL_CLASS, ClassTimeline

from conftest import T0

PARAMS = ["wind_speed", "rotor_rpm", "power_kw"]
FEATURES = ["power_kw", "wind_speed"]  # reordered on purpose


def ops(n, turbine="T1"):
    return [
        OperationalRecord(turbine, T0 + i * 600, (float(i), 10.0 + i, 100.0 * i))
        for i in range(n)
    ]


def timeline(labels, class_ids=(0, 1)):
    return ClassTimeline("T1", T0, T0 + len(labels) * 600, list(labels), list(class_ids))


class TestLabelRecords:
    def test_seven_slots_horizon_10_gives_six_rows(self):
        tl = timeline([0, 1, 0, 1, 0, 0, 1])
        d = label_records(ops(7), PARAMS, FEATURES, tl, 10)
        assert d.n_rows == 6
        assert d.dropped_out_of_range == 1
        assert d.labels.tolist() == [1, 0, 1, 0, 0, 1]
        # feature projection follows the selected order, not the manifest order
        assert d.features[2].tolist() == [200.0, 2.0]

    def test_horizon_60_with_six_slots_is_empty(self):
        tl = timeline([0] * 6)
        with pytest.raises(EmptyDataset):
            label_records(ops(6), PARAMS, FEATURES, tl, 60)

    def test_random_timeline_lookup_oracle(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 3, size=60).tolist()
        tl = timeline(labels, class_ids=(0, 1, 2))
        for h in (10, 20, 30, 40, 50, 60):
            d = label_records(ops(60), PARAMS, FEATURES, tl, h)
            for row_i in range(d.n_rows):
                t = int(d.origins[row_i])
                assert d.labels[row_i] == tl.label_at(t + h * 60)

    def test_invalid_horizon(self):
        for horizon in (15, 0):  # 0, the label at t itself, is not a horizon either
            with pytest.raises(InvalidValue, match="horizon must be one of"):
                label_records(ops(10), PARAMS, FEATURES, timeline([0] * 10), horizon)

    def test_row_count_invariant(self):
        # rows = operational count - out-of-range drops (missing slots simply
        # contribute no record)
        tl = timeline([0] * 30)
        records = ops(30)
        del records[5:9]
        d = label_records(records, PARAMS, FEATURES, tl, 30)
        assert d.n_rows == len(records) - d.dropped_out_of_range


def make_dataset(counts: dict[int, int], seed=0) -> HorizonDataset:
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(n, c, dtype=np.int64) for c, n in counts.items()])
    rng.shuffle(labels)
    n = len(labels)
    return HorizonDataset(
        turbine_id="T1",
        horizon_minutes=10,
        feature_names=["f1", "f2"],
        features=rng.normal(size=(n, 2)),
        labels=labels,
        origins=np.arange(n, dtype=np.int64) * 600 + T0,
        class_ids=sorted(counts),
    )


class TestStratifiedSplit:
    def test_exact_proportionality(self):
        d = make_dataset({NORMAL_CLASS: 90, 1: 9})
        result = stratified_split(d, train_fraction=2 / 3, seed=1)
        assert result.train.class_counts() == {0: 60, 1: 6}
        assert result.test.class_counts() == {0: 30, 1: 3}

    def test_same_seed_same_partition(self):
        d = make_dataset({0: 50, 1: 20, 2: 5})
        a = stratified_split(d, seed=7)
        b = stratified_split(d, seed=7)
        assert a.train.origins.tolist() == b.train.origins.tolist()
        assert a.test.origins.tolist() == b.test.origins.tolist()

    def test_different_seed_differs(self):
        d = make_dataset({0: 50, 1: 20})
        a = stratified_split(d, seed=1)
        b = stratified_split(d, seed=2)
        assert a.train.origins.tolist() != b.train.origins.tolist()

    def test_partition_is_disjoint_and_complete(self):
        d = make_dataset({0: 33, 1: 14, 2: 7})
        result = stratified_split(d, seed=3)
        train_set = set(result.train.origins.tolist())
        test_set = set(result.test.origins.tolist())
        assert not (train_set & test_set)
        assert train_set | test_set == set(d.origins.tolist())

    def test_small_class_kept_in_train(self):
        d = make_dataset({0: 30, 1: 1})
        result = stratified_split(d, seed=4)
        assert result.small_classes == [1]
        assert result.train.class_counts()[1] == 1
        assert result.test.class_counts()[1] == 0

    def test_proportion_deviation_within_one_row(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            counts = {0: int(rng.integers(2, 60))}
            for c in range(1, int(rng.integers(1, 4)) + 1):
                counts[c] = int(rng.integers(2, 30))
            fraction = float(rng.uniform(0.3, 0.9))
            d = make_dataset(counts, seed=int(rng.integers(0, 1 << 30)))
            result = stratified_split(d, train_fraction=fraction, seed=int(rng.integers(0, 1 << 30)))
            for c, n in counts.items():
                got = result.train.class_counts()[c]
                assert abs(got - n * fraction) <= 1.0, (counts, fraction, c, got)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        d = make_dataset({0: 20, 1: 5})
        path = tmp_path / "d.csv"
        save_dataset(d, path)
        loaded = load_dataset(path)
        assert loaded.turbine_id == d.turbine_id
        assert loaded.horizon_minutes == d.horizon_minutes
        assert loaded.feature_names == d.feature_names
        assert loaded.class_ids == d.class_ids
        assert np.array_equal(loaded.labels, d.labels)
        assert np.array_equal(loaded.features, d.features)

    def test_csv_has_trailing_label_column(self, tmp_path):
        d = make_dataset({0: 3, 1: 2})
        path = tmp_path / "d.csv"
        save_dataset(d, path)
        header = path.read_text().splitlines()[0]
        assert header == "f1,f2,label"
