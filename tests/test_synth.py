import filecmp

import numpy as np
import pytest

from windpdm.ingest import TurbineStore
from windpdm.patterns import build_transactions, mine_patterns
from windpdm.synth import GROUND_TRUTH_FILENAME, GroundTruth, SynthConfig, generate

from conftest import T0


class TestDeterminism:
    def test_same_seed_identical_stores(self, tmp_path):
        a = SynthConfig(out_dir=tmp_path / "a", seed=1, n_turbines=2, days=3)
        b = SynthConfig(out_dir=tmp_path / "b", seed=1, n_turbines=2, days=3)
        generate(a)
        generate(b)
        for rel in ("manifest.txt", GROUND_TRUTH_FILENAME,
                    "T01/operational.log", "T01/status.log",
                    "T02/operational.log", "T02/status.log"):
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel

    def test_different_seed_differs(self, tmp_path):
        generate(SynthConfig(out_dir=tmp_path / "a", seed=1, n_turbines=1, days=2))
        generate(SynthConfig(out_dir=tmp_path / "b", seed=2, n_turbines=1, days=2))
        assert not filecmp.cmp(tmp_path / "a" / "T01" / "operational.log",
                               tmp_path / "b" / "T01" / "operational.log", shallow=False)


class TestStoreValidity:
    def test_store_reopens_and_scans(self, tmp_path):
        cfg = SynthConfig(out_dir=tmp_path / "s", seed=3, n_turbines=1, days=2)
        generate(cfg)
        store = TurbineStore.open(tmp_path / "s")
        ops = list(store.scan_operational("T01"))
        assert len(ops) == cfg.n_slots == 288
        events = list(store.scan_status("T01"))
        stamps = [e.timestamp for e in events]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_one_day_is_144_rows(self, tmp_path):
        cfg = SynthConfig(out_dir=tmp_path / "s", seed=4, n_turbines=1, days=1.0)
        generate(cfg)
        store = TurbineStore.open(tmp_path / "s")
        assert len(list(store.scan_operational("T01"))) == 144


class TestGroundTruth:
    def test_mined_support_matches_bookkeeping(self, tmp_path):
        cfg = SynthConfig(out_dir=tmp_path / "s", seed=5, n_turbines=1, days=12)
        _, truth = generate(cfg)
        store = TurbineStore.open(tmp_path / "s")
        end = cfg.start + cfg.n_slots * 600
        events = list(store.scan_status("T01"))
        txs = build_transactions(events, "T01", cfg.start, end)
        mined = mine_patterns(txs, set(store.manifest.critical_alarms),
                              min_support=0.01, max_patterns=8)
        by_alarms = {p.alarm_set: p for p in mined}
        for i, planted in enumerate(truth.patterns, start=1):
            occupancy = truth.occupancy("T01", i)
            assert abs(occupancy - planted.target_occupancy) <= 0.02
            mined_pattern = by_alarms[frozenset(planted.alarms)]
            assert mined_pattern.support == pytest.approx(occupancy, abs=1e-12)

    def test_ground_truth_round_trips(self, tmp_path):
        cfg = SynthConfig(out_dir=tmp_path / "s", seed=6, n_turbines=2, days=3)
        _, truth = generate(cfg)
        loaded = GroundTruth.load(tmp_path / "s" / GROUND_TRUTH_FILENAME)
        assert loaded == truth

    def test_labels_cover_every_slot(self, tmp_path):
        cfg = SynthConfig(out_dir=tmp_path / "s", seed=7, n_turbines=1, days=3)
        _, truth = generate(cfg)
        assert len(truth.labels["T01"]) == cfg.n_slots
        assert set(truth.labels["T01"]) <= {0, 1, 2}


class TestSignalKnob:
    def test_zero_signal_zeroes_the_planted_shift(self, tmp_path):
        silent = SynthConfig(out_dir=tmp_path / "a", seed=8, n_turbines=1, days=3,
                             signal_scale=0.0)
        loud = SynthConfig(out_dir=tmp_path / "b", seed=8, n_turbines=1, days=3,
                           signal_scale=1.0)
        generate(silent)
        generate(loud)
        sa = TurbineStore.open(tmp_path / "a")
        sb = TurbineStore.open(tmp_path / "b")
        a = np.asarray([r.values for r in sa.scan_operational("T01")])
        b = np.asarray([r.values for r in sb.scan_operational("T01")])
        assert not np.allclose(a[:, 0], b[:, 0])  # onset column shifted
        assert np.allclose(a[:, -2], b[:, -2])  # untouched noise column

    def test_zero_signal_means_chance_level_accuracy(self, tmp_path):
        cfg = SynthConfig(out_dir=tmp_path / "s", seed=10, n_turbines=1, days=10,
                          signal_scale=0.0)
        generate(cfg)
        store = TurbineStore.open(tmp_path / "s")
        end = cfg.start + cfg.n_slots * 600
        ops = list(store.scan_operational("T01"))
        events = list(store.scan_status("T01"))
        txs = build_transactions(events, "T01", cfg.start, end)
        critical = set(store.manifest.critical_alarms)
        mined = mine_patterns(txs, critical, 0.01, 8)
        from windpdm.dataset import label_records, stratified_split
        from windpdm.forest import predict_batch, train_forest
        from windpdm.patterns import build_class_timeline
        timeline = build_class_timeline(txs, mined, critical)
        d = label_records(ops, store.manifest.parameters,
                          store.manifest.parameters[:-1], timeline, 30)
        split = stratified_split(d, seed=3)
        # shallow trees: deep enough to use the (information-free) features,
        # shallow enough that leaf majorities are estimated from real mass
        forest = train_forest(split.train.features, split.train.labels, d.class_ids,
                              n_trees=20, max_depth=4, seed=4)
        acc = float(np.mean(predict_batch(forest, split.test.features)
                            == split.test.labels))
        majority = max(np.bincount(split.test.labels) / split.test.n_rows)
        assert abs(acc - majority) <= 0.05, (acc, majority)
