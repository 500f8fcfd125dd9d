"""Seeded inputs for the three workloads.

Everything here is a pure function of ``--seed``, the sizes and (for the
live schedule's length) ``--seconds``, and runs in
the orchestrating process before the program's own process starts, so the
program's peak memory and CPU time never include input generation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from windpdm import synth, trainer
from windpdm.agent import SINK_FILENAME, HorizonPrediction, PredictionNotification
from windpdm.broker import Broker
from windpdm.ingest import TurbineStore
from windpdm.model_io import load_model, save_model
from windpdm.patterns import HORIZONS_MINUTES
from windpdm.simulator import SimulatorConfig, replay
from windpdm.timeutil import SLOT_SECONDS

STATUS_HEADER = "timestamp,alarm_code,kind"
SPEC_FILE = "spec.json"
# serving workloads train this many turbines and share their models across the fleet
TRAINED_TURBINES = 3


@dataclass
class OfflineSizes:
    fleet_turbines: int = 17
    days: float = 4.0
    plan_turbines: int = 6
    grid_rows: int = 1200
    grid_features: int = 3
    planted_depth: int = 7
    grid_trees: list[int] = field(default_factory=lambda: [5, 10, 20])
    grid_depths: list[int] = field(default_factory=lambda: [3, 8, 16])


@dataclass
class BacklogSizes:
    turbines: int = 17
    days: float = 3.0


@dataclass
class LiveSizes:
    turbines: int = 17
    history_days: float = 30.0
    train_days: float = 3.0
    steps_per_s: float = 2.0
    round_seconds: float = 8.0


SIZES = {"offline-build": OfflineSizes, "backlog-drain": BacklogSizes, "live-dashboard": LiveSizes}


def live_rounds(seconds: float, sizes: LiveSizes) -> int:
    """Rounds a live run of ``seconds`` can start: each lasts about
    ``round_seconds`` or more, one more for the last step's early start, and
    a traced run makes at least two."""
    return max(2, math.ceil(seconds / sizes.round_seconds) + 1)


def _synth(out_dir: Path, seed: int, turbines: int, days: float) -> tuple[TurbineStore, synth.GroundTruth]:
    return synth.generate(synth.SynthConfig(out_dir=out_dir, seed=seed, n_turbines=turbines, days=days))


def _range(truth: synth.GroundTruth) -> tuple[int, int]:
    return truth.start, truth.start + truth.n_slots * SLOT_SECONDS


def planted_grid_data(seed: int, n: int, p: int, planted_depth: int, min_rows: int = 20, n_classes: int = 3):
    """Labels from a random tree of depth ``planted_depth``: conjunctions
    that a shallow forest cannot represent, so depth must win the grid."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    X = rng.uniform(0.0, 1.0, size=(n, p))
    y = np.zeros(n, dtype=np.int64)
    leaf = [0]

    def assign(rows: np.ndarray, depth: int) -> None:
        f = int(rng.integers(0, p))
        vals = X[rows, f]
        thr = float(np.quantile(vals, rng.uniform(0.35, 0.65))) if rows.size else 0.0
        left, right = rows[vals <= thr], rows[vals > thr]
        if depth == 0 or rows.size < min_rows or left.size == 0 or right.size == 0:
            y[rows] = leaf[0] % n_classes
            leaf[0] += 1
            return
        assign(left, depth - 1)
        assign(right, depth - 1)

    assign(np.arange(n), planted_depth)
    return X, y


def prepare_offline(work: Path, seed: int, sizes: OfflineSizes) -> dict:
    """A synthetic fleet rendered as CSV files, plus planted grid data."""
    fleet = work / "fleet"
    store, truth = _synth(fleet, seed, sizes.fleet_turbines, sizes.days)
    csv_dir = work / "csv"
    csv_dir.mkdir()
    params = store.manifest.parameters
    for turbine in store.manifest.turbines:
        ops = (fleet / turbine / "operational.log").read_text(encoding="utf-8")
        status = (fleet / turbine / "status.log").read_text(encoding="utf-8")
        (csv_dir / f"{turbine}.operational.csv").write_text(
            ",".join(["timestamp"] + params) + "\n" + ops, encoding="utf-8")
        (csv_dir / f"{turbine}.status.csv").write_text(STATUS_HEADER + "\n" + status, encoding="utf-8")
    X, y = planted_grid_data(seed, sizes.grid_rows, sizes.grid_features, sizes.planted_depth)
    np.savez(work / "grid.npz", X=X, y=y)
    start, end = _range(truth)
    spec = {
        "manifest": str(fleet / "manifest.txt"),
        "ground_truth": str(fleet / synth.GROUND_TRUTH_FILENAME),
        "csv_dir": str(csv_dir),
        "fleet": list(store.manifest.turbines),
        "plan_turbines": list(store.manifest.turbines[: sizes.plan_turbines]),
        "start": start,
        "end": end,
        "seed": seed,
        "grid": str(work / "grid.npz"),
        "grid_trees": sizes.grid_trees,
        "grid_depths": sizes.grid_depths,
    }
    return spec


def _train_fleet_models(work: Path, store_dir: Path, truth: synth.GroundTruth, turbines: list[str],
                        seed: int, end: int | None = None) -> Path:
    """Train the first few turbines' six horizon models with the default plan
    and file turbine i's bundles from trained turbine i mod few, so the agent
    serves the whole fleet without paying a training per turbine per run."""
    start, full_end = _range(truth)
    out = work / "train"
    trained = turbines[:TRAINED_TURBINES]
    plan = trainer.TrainingPlan(store_path=store_dir, output_dir=out, start=start,
                                end=end or full_end, turbines=trained, seed=seed)
    report = trainer.run(plan)
    if report.skipped:
        raise RuntimeError(f"model training for the serving workloads failed: "
                           f"{[o.skip_reason for o in report.skipped]}")
    models = work / "models"
    for h in HORIZONS_MINUTES:
        bundles = [load_model(out / "models" / t / f"horizon_{h}.model") for t in trained]
        for i, turbine in enumerate(turbines):
            (models / turbine).mkdir(parents=True, exist_ok=True)
            save_model(dataclasses.replace(bundles[i % len(bundles)], turbine_id=turbine),
                       models / turbine / f"horizon_{h}.model")
    return models


def prepare_backlog(work: Path, seed: int, sizes: BacklogSizes) -> dict:
    """Several days per turbine queued in the broker before the agent starts."""
    store_dir = work / "store"
    store, truth = _synth(store_dir, seed, sizes.turbines, sizes.days)
    turbines = list(store.manifest.turbines)
    models = _train_fleet_models(work, store_dir, truth, turbines, seed)
    broker_dir = work / "broker"
    start, end = _range(truth)
    begin = time.perf_counter()
    published = replay(SimulatorConfig(store_path=store_dir, broker_path=broker_dir, start=start, end=end))
    publish_ms = (time.perf_counter() - begin) * 1e3 / published
    return {
        "store": str(store_dir),
        "models": str(models),
        "broker": str(broker_dir),
        "turbines": turbines,
        "messages": published,
        "publish_ms": publish_ms,
    }


def prepare_live(work: Path, seed: int, sizes: LiveSizes, seconds: float) -> dict:
    """A sink holding a long notification history, and a publish schedule of
    later records, one per turbine per step, long enough for every round a
    run of ``seconds`` can start."""
    max_rounds = live_rounds(seconds, sizes)
    steps_needed = int(math.ceil(sizes.round_seconds * sizes.steps_per_s)) * max_rounds
    days = max(sizes.train_days, steps_needed / 144.0 + 1.0)
    store_dir = work / "store"
    store, truth = _synth(store_dir, seed, sizes.turbines, days)
    turbines = list(store.manifest.turbines)
    start, _ = _range(truth)
    models = _train_fleet_models(work, store_dir, truth, turbines, seed,
                                 end=start + int(sizes.train_days * 144) * SLOT_SECONDS)

    # history: every turbine notified for every slot of the days before `start`
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11)))
    history_slots = int(sizes.history_days * 144)
    sink_dir = work / "sink"
    sink_dir.mkdir()
    with open(sink_dir / SINK_FILENAME, "w", encoding="utf-8") as fh:
        for s in range(history_slots):
            t = start - (history_slots - s) * SLOT_SECONDS
            classes = rng.integers(0, 3, size=(len(turbines), len(HORIZONS_MINUTES)))
            for i, turbine in enumerate(turbines):
                note = PredictionNotification(
                    turbine_id=turbine, t=t,
                    horizons={h: HorizonPrediction(int(classes[i, j]), 1.0)
                              for j, h in enumerate(HORIZONS_MINUTES)},
                    bundle_version=1, emitted_at=float(t + 5))
                fh.write(note.to_json_line() + "\n")

    records = {t: list(store.scan_operational(t)) for t in turbines}
    # each step falls due at a random point of its slot, so that the
    # /stream handler's 0.25-s wait does not lock onto a fixed step period:
    # with steps exactly 0.5 s apart, a small change in the handler's read
    # time moved it between one and two sink re-reads per step
    phase = np.random.default_rng(np.random.SeedSequence((seed, 13))).uniform(0.0, 1.0, steps_needed)
    schedule = {
        "phase": phase.tolist(),
        "steps": [[[t, records[t][k].to_csv_line()] for t in turbines] for k in range(steps_needed)],
    }
    (work / "schedule.json").write_text(json.dumps(schedule), encoding="utf-8")
    broker_dir = work / "broker"
    Broker(broker_dir)
    return {
        "store": str(store_dir),
        "models": str(models),
        "broker": str(broker_dir),
        "sink": str(sink_dir),
        "turbines": turbines,
        "history_lines": history_slots * len(turbines),
        "schedule": str(work / "schedule.json"),
        "steps_per_round": int(math.ceil(sizes.round_seconds * sizes.steps_per_s)),
        "steps_per_s": sizes.steps_per_s,
        "max_rounds": max_rounds,
    }


def prepare(workload: str, work: Path, seed: int, seconds: float, sizes=None) -> dict:
    """Write the workload's inputs under ``work``; ``sizes`` defaults to the
    benchmark's own."""
    sizes = sizes or SIZES[workload]()
    if workload == "live-dashboard":
        spec = prepare_live(work, seed, sizes, seconds)
    elif workload == "backlog-drain":
        spec = prepare_backlog(work, seed, sizes)
    else:
        spec = prepare_offline(work, seed, sizes)
    (work / SPEC_FILE).write_text(json.dumps(spec), encoding="utf-8")
    return spec
