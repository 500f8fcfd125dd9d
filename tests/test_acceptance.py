"""Acceptance suite: one test per release criterion, at pinned tolerances.

Real SCADA histories are proprietary, so the gate is
property-based: exact agreement with independent brute-force oracles, and
planted-signal synthetic runs whose ground truth is known by construction.
Each criterion prints its own PASS line (run with -s to see them).
"""

import json
import time
from contextlib import contextmanager

import numpy as np

from windpdm.agent import SINK_FILENAME, MonitoringAgent
from windpdm.broker import Broker
from windpdm.dataset import HorizonDataset
from windpdm.features import FeatureMatrix, pca, standardize
from windpdm.forest import predict, train_forest, train_tree
from windpdm.ingest import TurbineStore
from windpdm.manifest import Manifest
from windpdm.metrics import (
    DEFAULT_DEPTH_GRID,
    DEFAULT_TREES_GRID,
    confusion,
    evaluate,
    grid_search,
    spearman_rank_correlation,
)
from windpdm.model_io import ModelBundle, serialize_model
from windpdm.patterns import HORIZONS_MINUTES, Transaction, mine_patterns
from windpdm.simulator import SimulatorConfig, replay
from windpdm.synth import SynthConfig, generate
from windpdm.timeutil import format_rfc3339
from windpdm.trainer import TrainingPlan, run as run_plan
from windpdm.errors import NoPatternsFound

from conftest import T0, make_planted_grid_data
from fakes import SimulatedCrash, install_failpoint
from oracles import (
    brute_force_best_split,
    brute_force_itemsets,
    jacobi_eigh,
    recompute_metrics,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_01_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence"):
        rng = np.random.default_rng(101)
        classes = [0, 1, 2, 3]
        pred = rng.integers(0, 4, size=1000).tolist()
        actual = rng.integers(0, 4, size=1000).tolist()
        begin = time.perf_counter()
        m = confusion(pred, actual, classes)
        report = evaluate(m)
        elapsed = time.perf_counter() - begin
        oracle = recompute_metrics(pred, actual, classes)
        assert m.counts.tolist() == oracle["counts"]  # integer-exact
        for got, want in zip(report.per_class_accuracy, oracle["per_class"]):
            assert (got is None) == (want is None)
            if got is not None:
                assert abs(got - want) <= 1e-12
        assert abs(report.sensitivity - oracle["sensitivity"]) <= 1e-12
        assert abs(report.specificity - oracle["specificity"]) <= 1e-12
        assert abs(report.global_accuracy - oracle["global"]) <= 1e-12
        assert elapsed < 1.0


def test_02_binary_identity():
    with criterion(2, "binary error/no-error identity"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(2, 200))
            pred = rng.integers(0, 2, size=n).tolist()
            actual = rng.integers(0, 2, size=n).tolist()
            if len(set(actual)) < 2:
                actual[0], actual[1] = 0, 1
            r = evaluate(confusion(pred, actual, [0, 1]))
            assert r.error_accuracy == r.sensitivity
            assert r.no_error_accuracy == r.specificity
            # the per-class accuracy columns repeat the collapsed ones
            assert r.per_class_accuracy[1] == r.error_accuracy
            assert r.per_class_accuracy[0] == r.no_error_accuracy


def _eigengroups(values, tol=1e-8):
    groups = [[0]]
    for i in range(1, len(values)):
        if abs(values[i] - values[i - 1]) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def test_03_pca_oracle():
    with criterion(3, "PCA vs Jacobi eigendecomposition"):
        rng = np.random.default_rng(103)
        for trial in range(50):
            n = int(rng.integers(3, 21))
            p = int(rng.integers(2, 9))
            m = FeatureMatrix(rng.normal(size=(n, p)), [f"x{i}" for i in range(p)])
            sm = standardize(m)
            result = pca(sm)
            # orthonormality within 1e-9
            gram = result.components @ result.components.T
            assert np.max(np.abs(gram - np.eye(len(gram)))) < 1e-9, f"trial {trial}"
            # ratios within 1e-6 of the Jacobi oracle
            x = sm.matrix.values
            cov = x.T @ x / (x.shape[0] - 1)
            eigvals, eigvecs = jacobi_eigh(cov)
            clipped = np.clip(eigvals, 0.0, None)
            ratios = clipped / clipped.sum()
            assert np.max(np.abs(result.explained_variance_ratio - ratios)) < 1e-6
            # component subspaces agree per eigenvalue group
            for group in _eigengroups(ratios):
                ours = result.components[group]
                theirs = eigvecs[group]
                diff = ours.T @ ours - theirs.T @ theirs
                assert np.max(np.abs(diff)) < 1e-6, f"trial {trial} group {group}"


def test_04_pattern_mining_oracle():
    with criterion(4, "pattern mining vs power-set enumeration"):
        rng = np.random.default_rng(104)
        begin = time.perf_counter()
        for trial in range(25):
            n_alarms = int(rng.integers(6, 16))  # up to 15 critical alarms
            items = [f"AL{i:02d}" for i in range(n_alarms)]
            n_tx = int(rng.integers(15, 60))
            txs = []
            for i in range(n_tx):
                size = int(rng.integers(0, min(6, n_alarms)))
                alarms = rng.choice(items, size=size, replace=False) if size else []
                txs.append(Transaction("T1", T0 + i * 600, frozenset(alarms)))
            min_support = float(rng.uniform(0.02, 0.4))
            frequent, maximal = brute_force_itemsets(
                [t.active_alarms for t in txs], items, min_support)
            try:
                mined = mine_patterns(txs, set(items), min_support, max_patterns=10 ** 9)
            except NoPatternsFound:
                assert not maximal, f"trial {trial}"
                continue
            assert {p.alarm_set for p in mined} == maximal, f"trial {trial}"
            for p in mined:
                assert p.support == frequent[p.alarm_set] / n_tx, f"trial {trial}"
        assert time.perf_counter() - begin < 10.0


def test_05_forest_correctness(tmp_path):
    with criterion(5, "forest correctness vs oracles + planted signal"):
        begin = time.perf_counter()
        rng = np.random.default_rng(105)
        # (a) root split equals exhaustive argmin-Gini on 20-row fixtures
        for seed in range(10):
            local = np.random.default_rng(seed)
            X = local.normal(size=(20, 2))
            y = local.integers(0, 3, size=20)
            if len(np.unique(y)) < 2:
                continue
            tree = train_tree(X, y, 3, max_depth=1, features_per_split=2,
                              rng=np.random.default_rng((seed, 0)))
            assert (tree.feature[0], tree.threshold[0]) == brute_force_best_split(X, y, 3)
        # (b) same seed, byte-identical serialized model
        X = rng.normal(size=(150, 4))
        y = (X[:, 0] > 0).astype(np.int64)
        blobs = []
        for _ in range(2):
            forest = train_forest(X, y, [0, 1], n_trees=10, max_depth=8, seed=55)
            bundle = ModelBundle("T1", 10, forest, list("abcd"), [], created_at=0)
            blobs.append(serialize_model(bundle))
        assert blobs[0] == blobs[1]
        # (c) forest vote equals per-tree recount on 100 random inputs
        forest = train_forest(X, y, [0, 1], n_trees=15, max_depth=8, seed=9)
        for _ in range(100):
            x = rng.normal(size=4).tolist()
            label, votes = predict(forest, x)
            recount = [0, 0]
            for tree in forest.trees:
                recount[tree.predict_index(x)] += 1
            assert votes == recount and sum(votes) == 15
            assert label == forest.class_ids[max(range(2), key=lambda c: (recount[c], -c))]
        # (d) planted synthetic turbine, production hyperparameters 40 trees / depth 25
        cfg = SynthConfig(out_dir=tmp_path / "store", seed=42, n_turbines=1, days=12)
        generate(cfg)
        plan = TrainingPlan(
            store_path=cfg.out_dir, output_dir=tmp_path / "out",
            start=cfg.start, end=cfg.start + cfg.n_slots * 600,
            n_trees=40, max_depth=25, seed=7)
        report = run_plan(plan)
        assert len(report.completed) == 6
        accuracies = [o.evaluation.global_accuracy for o in report.completed]
        assert min(accuracies) >= 0.90, accuracies
        assert time.perf_counter() - begin < 120.0


def test_06_grid_search_shape_and_trends():
    with criterion(6, "grid shape, depth dominance, cost growth"):
        begin = time.perf_counter()
        X, y = make_planted_grid_data()
        d = HorizonDataset(
            turbine_id="T1", horizon_minutes=10,
            feature_names=[f"f{i}" for i in range(X.shape[1])],
            features=X, labels=y,
            origins=np.arange(len(y), dtype=np.int64) * 600 + T0,
            class_ids=[0, 1, 2])
        result = grid_search(d, DEFAULT_TREES_GRID, DEFAULT_DEPTH_GRID, seed=2)
        assert len(result.cells) == 20 * 6 == 120
        acc = {(c.n_trees, c.max_depth): c.accuracy for c in result.cells}
        cost = {(c.n_trees, c.max_depth): c.seconds for c in result.cells}
        depth_means = [np.mean([acc[(t, m)] for t in DEFAULT_TREES_GRID])
                       for m in DEFAULT_DEPTH_GRID]
        tree_means = [np.mean([acc[(t, m)] for m in DEFAULT_DEPTH_GRID])
                      for t in DEFAULT_TREES_GRID]
        assert np.var(depth_means) > np.var(tree_means), (
            f"depth var {np.var(depth_means):.2e} vs trees var {np.var(tree_means):.2e}")
        mean_cost = [np.mean([cost[(t, m)] for m in DEFAULT_DEPTH_GRID])
                     for t in DEFAULT_TREES_GRID]
        rho = spearman_rank_correlation(DEFAULT_TREES_GRID, mean_cost)
        assert rho > 0.0, f"spearman {rho}"
        assert time.perf_counter() - begin < 900.0


def test_07_broker_at_least_once(tmp_path):
    with criterion(7, "broker at-least-once across crashes"):
        rng = np.random.default_rng(107)
        for schedule in range(200):
            root = tmp_path / f"s{schedule}"
            broker = Broker(root)
            broker.create_topic("T1")
            to_publish = int(rng.integers(2, 12))
            published = 0
            deliveries = []
            redelivery_allowed = set()
            while published < to_publish or broker.committed_offset("g", "T1") < published:
                roll = rng.random()
                if roll < 0.4 and published < to_publish:
                    broker.publish("T1", f"m{published}".encode())
                    published += 1
                    if rng.random() < 0.1:  # kill right after the publish ack
                        broker = Broker(root)
                elif roll < 0.85:
                    batch = broker.poll("g", "T1", int(rng.integers(1, 4)))
                    deliveries.extend(m.offset for m in batch)
                    if batch and rng.random() < 0.35:
                        redelivery_allowed.update(m.offset for m in batch)
                        broker = Broker(root)  # kill after poll, before commit
                        continue
                    if batch:
                        broker.commit("g", "T1", batch[-1].offset + 1)
                else:
                    broker = Broker(root)
            # zero lost messages
            assert set(deliveries) == set(range(published)), f"schedule {schedule}"
            # redelivery only in the poll-uncommitted window
            seen = set()
            for off in deliveries:
                if off in seen:
                    assert off in redelivery_allowed, f"schedule {schedule} offset {off}"
                seen.add(off)


def _agent_fixture(tmp_path, turbines=("T1", "T2"), n_trees=8):
    manifest = Manifest(
        parameters=["wind_speed", "rotor_rpm", "power_kw", "gen_temp"],
        alarms=["GOverSpMax"],
        turbines=list(turbines),
    )
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(80, 2))
    y = (X[:, 0] > 5).astype(np.int64)
    from windpdm.agent import bundle_path
    from windpdm.model_io import save_model
    from windpdm.patterns import StatusPattern
    models_dir = tmp_path / "models"
    for turbine in turbines:
        for h in HORIZONS_MINUTES:
            forest = train_forest(X, y, [0, 1], n_trees=n_trees, max_depth=4, seed=h)
            path = bundle_path(models_dir, turbine, h)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(ModelBundle(turbine, h, forest, ["wind_speed", "power_kw"],
                                   [StatusPattern(1, frozenset({"GOverSpMax"}), 0.1)],
                                   created_at=T0), path)
    return manifest, models_dir


def _payload(ts):
    return f"{format_rfc3339(ts)},4.2,7.0,3.0,55.0".encode()


def test_08_agent_exactly_once(tmp_path):
    with criterion(8, "agent exactly-once notifications across crashes"):
        manifest, models_dir = _agent_fixture(tmp_path)
        stages = ["poll", "before_sink_append", "after_sink_append", "after_commit"]
        rng = np.random.default_rng(108)
        for schedule in range(30):
            root = tmp_path / f"run{schedule}"
            broker_dir = root / "broker"
            sink_dir = root / "sink"
            published = {}
            broker = Broker(broker_dir)
            n_messages = int(rng.integers(4, 10))
            for turbine in ("T1", "T2"):
                broker.ensure_topic(turbine)
                for i in range(n_messages):
                    ts = T0 + i * 600
                    broker.publish(turbine, _payload(ts))
                    published[(turbine, format_rfc3339(ts))] = True
            crashes = int(rng.integers(1, 4))
            while True:
                agent = MonitoringAgent.start(
                    models_dir, Broker(broker_dir), list(manifest.turbines),
                    sink_dir, manifest, max_batch=int(rng.integers(1, 5)))
                if crashes > 0:
                    stage = stages[int(rng.integers(0, len(stages)))]
                    countdown = [int(rng.integers(1, 6))]

                    def failpoint(s, stage=stage, countdown=countdown):
                        if s == stage:
                            countdown[0] -= 1
                            if countdown[0] <= 0:
                                raise SimulatedCrash

                    install_failpoint(agent, failpoint)
                    try:
                        agent.process_available()
                    except SimulatedCrash:
                        crashes -= 1
                        continue
                    crashes = 0  # drained without hitting the failpoint
                else:
                    agent.process_available()
                break
            final = MonitoringAgent.start(
                models_dir, Broker(broker_dir), list(manifest.turbines), sink_dir, manifest)
            final.process_available()
            lines = (sink_dir / SINK_FILENAME).read_text().splitlines()
            docs = [json.loads(line) for line in lines]
            keys = [(doc["turbine"], doc["t"]) for doc in docs]
            assert len(keys) == len(set(keys)), f"schedule {schedule}: duplicate notification"
            assert set(keys) == set(published), f"schedule {schedule}: lost notification"
            for doc in docs:
                assert sorted(doc["horizons"]) == ["10", "20", "30", "40", "50", "60"]


def test_09_throughput_and_latency(tmp_path):
    with criterion(9, "fleet-day throughput and single-message latency"):
        turbines = [f"T{i:02d}" for i in range(1, 18)]
        manifest, models_dir = _agent_fixture(tmp_path, turbines=turbines, n_trees=40)
        store = TurbineStore.create(tmp_path / "sim_store", Manifest(
            parameters=manifest.parameters, alarms=manifest.alarms, turbines=turbines))
        from windpdm.ingest import OperationalRecord
        rng = np.random.default_rng(9)
        for turbine in turbines:
            records = [
                OperationalRecord(turbine, T0 + i * 600,
                                  tuple(float(v) for v in rng.uniform(0, 10, 4)))
                for i in range(144)
            ]
            store.append(turbine, records)

        broker = Broker(tmp_path / "broker")
        agent = MonitoringAgent.start(models_dir, broker, turbines,
                                      tmp_path / "sink", manifest, max_batch=512)
        begin = time.perf_counter()
        published = replay(SimulatorConfig(
            store_path=tmp_path / "sim_store", broker_path=tmp_path / "broker"),
            broker=broker)
        agent.process_available()
        elapsed = time.perf_counter() - begin
        assert published == 17 * 144 == 2448
        assert agent.counters["notifications"] == 2448
        assert elapsed <= 10.0, f"fleet day took {elapsed:.2f}s"

        # single-message publish -> notification latency under one second,
        # measured from an otherwise idle agent
        for turbine in turbines:
            broker.commit("latency-probe", turbine, broker.message_count(turbine))
        agent2 = MonitoringAgent.start(models_dir, broker, turbines,
                                       tmp_path / "sink2", manifest,
                                       idle_poll_interval=0.005, group="latency-probe")
        agent2.run_threaded()
        try:
            sink_file = tmp_path / "sink2" / SINK_FILENAME
            probe_begin = time.perf_counter()
            broker.publish(turbines[0], _payload(T0 + 86400))
            latency = None
            while time.perf_counter() - probe_begin < 2.0:
                lines = sink_file.read_text().splitlines()
                if any(format_rfc3339(T0 + 86400) in line for line in lines):
                    latency = time.perf_counter() - probe_begin
                    break
                time.sleep(0.002)
        finally:
            agent2.stop()
        assert latency is not None and latency < 1.0, f"latency {latency}"


def test_10_end_to_end_idempotence(tmp_path):
    with criterion(10, "trainer rerun reproduces byte-identical artifacts"):
        cfg = SynthConfig(out_dir=tmp_path / "store", seed=24, n_turbines=2, days=6)
        generate(cfg)
        outputs = []
        for name in ("first", "second"):
            plan = TrainingPlan(
                store_path=cfg.out_dir, output_dir=tmp_path / name,
                start=cfg.start, end=cfg.start + cfg.n_slots * 600,
                n_trees=40, max_depth=25, seed=33)
            report = run_plan(plan)
            assert len(report.completed) == 12
            outputs.append(tmp_path / name)
        first, second = outputs
        for turbine in ("T01", "T02"):
            for h in HORIZONS_MINUTES:
                rel = f"models/{turbine}/horizon_{h}.model"
                assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
            rel = f"reports/evaluation_{turbine}.csv"
            assert (first / rel).read_text() == (second / rel).read_text(), rel
