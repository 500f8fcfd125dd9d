import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from windpdm import agent, durable, model_io, trainer
from windpdm.agent import MonitoringAgent
from windpdm.broker import Broker
from windpdm.errors import EmptyDataset, PlanInvalid
from windpdm.forest import LEAF
from windpdm.ingest import TurbineStore
from windpdm.model_io import load_model
from windpdm.patterns import HORIZONS_MINUTES
from windpdm.synth import SynthConfig, generate
from windpdm.trainer import _PLAN_CASTS, TrainingPlan, derive_seed, parse_plan, run
from windpdm.timeutil import parse_rfc3339

from conftest import T0
from fakes import CrashingOs, SimulatedCrash


def synth_store(tmp_path, days=4.0, turbines=2, seed=5):
    cfg = SynthConfig(out_dir=tmp_path / "store", seed=seed, n_turbines=turbines, days=days)
    generate(cfg)
    return cfg


def plan_for(cfg: SynthConfig, out_dir, days=None, **kwargs) -> TrainingPlan:
    end = cfg.start + int((days or cfg.days) * 86400)
    defaults = dict(n_trees=6, max_depth=6, seed=3)
    defaults.update(kwargs)
    return TrainingPlan(
        store_path=cfg.out_dir, output_dir=out_dir,
        start=cfg.start, end=end, **defaults)


class TestRun:
    def test_one_turbine_produces_six_bundles_and_eval_rows(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        plan = plan_for(cfg, tmp_path / "out")
        report = run(plan)
        assert len(report.completed) == 6
        assert len(report.skipped) == 0
        models = sorted((tmp_path / "out" / "models" / "T01").iterdir())
        assert [p.name for p in models] == [f"horizon_{h}.model" for h in sorted(HORIZONS_MINUTES)]
        eval_csv = (tmp_path / "out" / "reports" / "evaluation_T01.csv").read_text()
        assert len(eval_csv.splitlines()) == 7  # header + 6 models

    def test_bundles_land_at_bundle_path(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        report = run(plan_for(cfg, tmp_path / "out"))
        assert [o.bundle_path for o in report.completed] == [
            model_io.bundle_path(tmp_path / "out" / "models", "T01", h) for h in HORIZONS_MINUTES]
        assert agent.bundle_path is model_io.bundle_path

    def test_completeness_invariant(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=2)
        report = run(plan_for(cfg, tmp_path / "out"))
        assert len(report.completed) + len(report.skipped) == 2 * 6

    def test_turbine_without_alarms_skipped_others_complete(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=2)
        store = TurbineStore.open(cfg.out_dir)
        # wipe T02's status log: no critical alarms at all
        (cfg.out_dir / "T02" / "status.log").write_text("")
        report = run(plan_for(cfg, tmp_path / "out"))
        t1 = [o for o in report.outcomes if o.turbine == "T01"]
        t2 = [o for o in report.outcomes if o.turbine == "T02"]
        assert all(o.status == "completed" for o in t1)
        assert all(o.status == "skipped" for o in t2)
        assert all("NoPatternsFound" in o.skip_reason for o in t2)
        del store

    def test_bundles_carry_plan_created_at(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        stamp = parse_rfc3339("2015-06-01T00:00:00Z")
        plan = plan_for(cfg, tmp_path / "out", created_at=stamp)
        run(plan)
        bundle = load_model(tmp_path / "out" / "models" / "T01" / "horizon_10.model")
        assert bundle.created_at == stamp

    def test_rerun_reproduces_identical_bundles(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        plan_a = plan_for(cfg, tmp_path / "a")
        plan_b = plan_for(cfg, tmp_path / "b")
        run(plan_a)
        run(plan_b)
        for h in HORIZONS_MINUTES:
            a = (tmp_path / "a" / "models" / "T01" / f"horizon_{h}.model").read_bytes()
            b = (tmp_path / "b" / "models" / "T01" / f"horizon_{h}.model").read_bytes()
            assert a == b, f"horizon {h} differs"
        ra = (tmp_path / "a" / "reports" / "evaluation_T01.csv").read_text()
        rb = (tmp_path / "b" / "reports" / "evaluation_T01.csv").read_text()
        assert ra == rb

    def test_unknown_turbine_rejected(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        plan = plan_for(cfg, tmp_path / "out")
        plan.turbines = ["T99"]
        with pytest.raises(PlanInvalid):
            run(plan)

    def test_full_fleet_yields_102_bundles(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=17, days=2.0)
        report = run(plan_for(cfg, tmp_path / "out", n_trees=2, max_depth=3))
        assert len(report.completed) == 17 * 6 == 102
        bundles = list((tmp_path / "out" / "models").glob("*/horizon_*.model"))
        assert len(bundles) == 102

    def test_report_json_written(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        run(plan_for(cfg, tmp_path / "out"))
        doc = json.loads((tmp_path / "out" / "reports" / "training_report.json").read_text())
        assert doc["completed"] == 6
        assert doc["fleet_accuracy"]["pooled"] is not None
        assert len(doc["outcomes"]) == 6

    def test_report_json_holds_each_forests_tree_stats(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        run(plan_for(cfg, tmp_path / "out", n_trees=5, max_depth=25))
        doc = json.loads((tmp_path / "out" / "reports" / "training_report.json").read_text())
        for outcome in doc["outcomes"]:
            trees = model_io.load_model(Path(outcome["bundle_path"])).forest.trees
            per_tree = {"nodes": [t.feature.size for t in trees], "depth": [t.depth() for t in trees],
                        "leaves": [int(np.count_nonzero(t.feature == LEAF)) for t in trees]}
            assert outcome["tree_stats"] == {name: {"mean": sum(v) / len(v), "max": max(v)}
                                             for name, v in per_tree.items()}
        assert doc["outcomes"][0]["tree_stats"]["depth"]["max"] > 1


class TestCrashDuringRetrain:
    """A crash inside a bundle's atomic write, while a retrain with another
    seed replaces an existing models/ directory, leaves every bundle loadable
    and each one the old bundle or the new one, byte for byte."""

    @pytest.mark.parametrize("stage", CrashingOs.STAGES)
    def test_every_bundle_is_old_or_new(self, tmp_path, monkeypatch, stage):
        cfg = synth_store(tmp_path, turbines=1)
        models = [f"models/T01/horizon_{h}.model" for h in HORIZONS_MINUTES]
        run(plan_for(cfg, tmp_path / "old", seed=3))
        run(plan_for(cfg, tmp_path / "new", seed=4))
        old = {m: (tmp_path / "old" / m).read_bytes() for m in models}
        new = {m: (tmp_path / "new" / m).read_bytes() for m in models}
        assert all(old[m] != new[m] for m in models)

        out = tmp_path / "out"
        shutil.copytree(tmp_path / "old", out)
        nth = 3  # the third bundle, horizon_30
        monkeypatch.setattr(durable, "os", CrashingOs(stage, nth))
        with pytest.raises(SimulatedCrash):
            run(plan_for(cfg, out, seed=4))
        monkeypatch.undo()

        assert (out / (models[nth - 1] + ".tmp")).exists() == (stage != "after_replace")
        agent = MonitoringAgent.start(
            out / "models", Broker(tmp_path / "broker"), ["T01"], tmp_path / "sink",
            TurbineStore.open(cfg.out_dir).manifest)
        assert sorted(map(int, agent.health()["models"]["T01"])) == sorted(HORIZONS_MINUTES)
        got = {m: (out / m).read_bytes() for m in models}
        assert all(got[m] in (old[m], new[m]) for m in models)
        replaced = nth if stage == "after_replace" else nth - 1
        assert [got[m] == new[m] for m in models] == [i < replaced for i in range(len(models))]


class TestSeedDerivation:
    def test_distinct_per_turbine_horizon_purpose(self):
        seeds = {
            derive_seed(1, t, h, p)
            for t in ("T01", "T02")
            for h in HORIZONS_MINUTES
            for p in ("split", "forest")
        }
        assert len(seeds) == 2 * 6 * 2

    def test_stable_value(self):
        assert derive_seed(1, "T01", 10, "split") == derive_seed(1, "T01", 10, "split")


class TestPlanParsing:
    def test_round_trip_from_file(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=1)
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            f"store_path = {cfg.out_dir}\n"
            f"output_dir = {tmp_path / 'out'}\n"
            "start = 2015-01-01T00:00:00Z\n"
            "end = 2015-01-03T00:00:00Z\n"
            "n_trees = 9\n"
            "max_depth = 7\n"
            "seed = 42\n"
            "turbines = [T01]\n"
        )
        plan = parse_plan(plan_file)
        assert plan.n_trees == 9
        assert plan.max_depth == 7
        assert plan.seed == 42
        assert plan.turbines == ["T01"]
        assert plan.start == T0

    def test_missing_required_key(self, tmp_path):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text("store_path = x\n")
        with pytest.raises(PlanInvalid):
            parse_plan(plan_file)

    def test_overrides_win(self, tmp_path):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            "start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\nseed = 1\n")
        plan = parse_plan(plan_file, overrides={"seed": 99})
        assert plan.seed == 99

    def test_empty_range_rejected(self, tmp_path):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            "start = 2015-01-02T00:00:00Z\nend = 2015-01-01T00:00:00Z\n")
        with pytest.raises(PlanInvalid):
            parse_plan(plan_file)

    def test_bad_value_rejected(self, tmp_path):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            "start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\nn_trees = many\n")
        with pytest.raises(PlanInvalid):
            parse_plan(plan_file)

    @pytest.mark.parametrize("line, key", [
        ("parallelism = 4", "parallelism"),  # a key this plan format no longer has
        ("n_tree = 100", "n_tree"),  # a typo for n_trees
    ])
    def test_unknown_key_rejected(self, tmp_path, line, key):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            f"start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\n{line}\n")
        with pytest.raises(PlanInvalid, match=f"unknown plan keys: {key}$"):
            parse_plan(plan_file)


    def test_required_keys_alone_give_the_dataclass_defaults(self, tmp_path):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            "start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\n")
        assert parse_plan(plan_file) == TrainingPlan(
            store_path=Path("s"), output_dir=Path("o"), start=T0, end=T0 + 86400)

    @pytest.mark.parametrize("line, key", [
        ("n_trees = 0", "n_trees"),
        ("n_trees = -3", "n_trees"),
        ("features_per_split = 0", "features_per_split"),
    ])
    def test_a_plan_that_grows_no_tree_is_refused(self, tmp_path, line, key):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            f"start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\n{line}\n")
        with pytest.raises(PlanInvalid, match=key):
            parse_plan(plan_file)
        with pytest.raises(PlanInvalid, match="n_trees"):
            parse_plan(plan_file, overrides={"n_trees": 0})

    def test_every_plan_field_has_a_cast(self):
        assert set(_PLAN_CASTS) == {f.name for f in fields(TrainingPlan)}

    @pytest.mark.parametrize("value, kept", [("true", True), ("False", False)])
    def test_keep_datasets_is_a_boolean(self, tmp_path, value, kept):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            f"start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\nkeep_datasets = {value}\n")
        assert parse_plan(plan_file).keep_datasets is kept

    def test_keep_datasets_rejects_other_words(self, tmp_path):
        plan_file = tmp_path / "plan.conf"
        plan_file.write_text(
            "store_path = s\noutput_dir = o\n"
            "start = 2015-01-01T00:00:00Z\nend = 2015-01-02T00:00:00Z\nkeep_datasets = yes\n")
        with pytest.raises(PlanInvalid, match="keep_datasets"):
            parse_plan(plan_file)


class TestIsolation:
    @pytest.mark.parametrize("stage", ["select_parameters", "train_forest"])
    @pytest.mark.parametrize("exc, reason", [
        (EmptyDataset("no rows"), "EmptyDataset: no rows"),
        (KeyError("x"), "unexpected failure: KeyError('x')"),
    ])
    def test_skip_reason_names_the_failure(self, tmp_path, monkeypatch, stage, exc, reason):
        # the turbine stage (select_parameters) and the horizon stage
        # (train_forest) word their skip reasons alike
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(trainer, stage, fail)
        cfg = synth_store(tmp_path, turbines=1)
        report = run(plan_for(cfg, tmp_path / "out"))
        assert [o.skip_reason for o in report.outcomes] == [reason] * len(HORIZONS_MINUTES)

    def test_broken_turbine_store_does_not_block_fleet(self, tmp_path):
        cfg = synth_store(tmp_path, turbines=2)
        # corrupt T01's operational log into unparseable garbage
        (cfg.out_dir / "T01" / "operational.log").write_text("garbage,1,2\n")
        report = run(plan_for(cfg, tmp_path / "out"))
        t1 = [o for o in report.outcomes if o.turbine == "T01"]
        t2 = [o for o in report.outcomes if o.turbine == "T02"]
        assert all(o.status == "skipped" for o in t1)
        assert all(o.status == "completed" for o in t2)
