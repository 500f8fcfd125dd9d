"""Offline model generation: per turbine, end to end.

For each planned turbine: load its history, select parameters, mine the
alarm patterns, build the six horizon datasets, train and evaluate six
forests, and persist six bundles plus reports. One turbine's failure never
blocks the rest; every planned (turbine, horizon) pair ends up either
completed or carrying a skip reason.

All randomness flows from the plan seed through a documented derivation:
``derive_seed(plan_seed, turbine, horizon, purpose)`` is the first 8 bytes
of sha256("<seed>|<turbine>|<horizon>|<purpose>") with purpose "split" or
"forest"; the forest derives per-tree generators from (seed, tree_index).
Bundles carry the plan's created_at stamp, so rerunning an identical plan
reproduces byte-identical model files.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import label_records, stratified_split
from .durable import atomic_write
from .errors import DataError, PlanInvalid, RuntimeFailure
from .features import FeatureMatrix, SelectionReport, select_parameters
from .forest import predict_batch, train_forest
from .ingest import TurbineStore
from .manifest import parse_bool, parse_key_values, parse_name_list
from .metrics import EvaluationReport, confusion, evaluate, write_evaluation_csv
from .model_io import ModelBundle, save_model
from .patterns import (
    HORIZONS_MINUTES,
    StatusPattern,
    build_class_timeline,
    build_transactions,
    mine_patterns,
    patterns_report,
)
from .timeutil import SLOT_SECONDS, format_rfc3339, parse_rfc3339


def derive_seed(plan_seed: int, turbine: str, horizon: int, purpose: str) -> int:
    text = f"{plan_seed}|{turbine}|{horizon}|{purpose}"
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


@dataclass
class TrainingPlan:
    store_path: Path
    output_dir: Path
    start: int
    end: int
    turbines: list[str] = field(default_factory=list)  # empty = all in manifest
    variance_threshold: float = 0.99
    correlation_threshold: float = 0.95
    min_support: float = 0.01
    max_patterns: int = 8
    n_trees: int = 40
    max_depth: int = 25
    features_per_split: int | None = None
    train_fraction: float = 2.0 / 3.0
    seed: int = 0
    created_at: int | None = None  # defaults to the range end: a data property, not wall clock
    keep_datasets: bool = False

    def __post_init__(self):
        self.store_path = Path(self.store_path)
        self.output_dir = Path(self.output_dir)
        if self.end <= self.start:
            raise PlanInvalid("plan range is empty")
        if self.start % SLOT_SECONDS or self.end % SLOT_SECONDS:
            raise PlanInvalid("plan range bounds must be 10-minute aligned")
        if self.created_at is None:
            self.created_at = self.end


# how each plan key is read; the defaults live only in TrainingPlan
_PLAN_CASTS = {
    "store_path": Path, "output_dir": Path, "turbines": parse_name_list, "keep_datasets": parse_bool,
    **dict.fromkeys(("start", "end", "created_at"), parse_rfc3339),
    **dict.fromkeys(("variance_threshold", "correlation_threshold", "min_support", "train_fraction"), float),
    **dict.fromkeys(("max_patterns", "n_trees", "max_depth", "features_per_split", "seed"), int),
}


def parse_plan(path: Path, overrides: dict | None = None) -> TrainingPlan:
    """Plan file: key = value lines; names mirror the TrainingPlan fields.

    A key that names no field raises PlanInvalid, so a typo cannot silently
    train with the default it meant to replace.
    """
    kv = parse_key_values(Path(path).read_text(encoding="utf-8"))
    if overrides:
        kv.update({k: str(v) for k, v in overrides.items() if v is not None})
    unknown = sorted(k for k in kv if k not in _PLAN_CASTS)
    if unknown:
        raise PlanInvalid(f"unknown plan keys: {', '.join(unknown)}")
    required = ("store_path", "output_dir", "start", "end")
    missing = [k for k in required if k not in kv]
    if missing:
        raise PlanInvalid(f"plan is missing keys: {', '.join(missing)}")
    given = {}
    for name, raw in kv.items():
        try:
            given[name] = _PLAN_CASTS[name](raw)
        except (ValueError, DataError) as exc:
            raise PlanInvalid(f"bad plan value {name} = {raw!r}: {exc}") from None
    return TrainingPlan(**given)


@dataclass
class HorizonOutcome:
    turbine: str
    horizon_minutes: int
    status: str  # "completed" | "skipped"
    skip_reason: str | None = None
    bundle_path: Path | None = None
    evaluation: EvaluationReport | None = None
    test_rows: int = 0
    duration_seconds: float = 0.0


@dataclass
class TrainingRunReport:
    outcomes: list[HorizonOutcome]
    selections: dict[str, SelectionReport]
    patterns: dict[str, list[StatusPattern]]
    total_seconds: float

    @property
    def completed(self) -> list[HorizonOutcome]:
        return [o for o in self.outcomes if o.status == "completed"]

    @property
    def skipped(self) -> list[HorizonOutcome]:
        return [o for o in self.outcomes if o.status == "skipped"]

    def fleet_accuracy(self) -> dict[str, float | None]:
        """Pooled (test-row weighted) and macro (per-model mean) accuracies."""
        evaluated = [o for o in self.completed if o.evaluation is not None and o.test_rows > 0]
        if not evaluated:
            return {"pooled": None, "macro": None}
        pooled = sum(o.evaluation.global_accuracy * o.test_rows for o in evaluated) / sum(
            o.test_rows for o in evaluated)
        macro = sum(o.evaluation.global_accuracy for o in evaluated) / len(evaluated)
        return {"pooled": pooled, "macro": macro}


def _train_turbine(plan: TrainingPlan, store: TurbineStore, turbine: str):
    outcomes: list[HorizonOutcome] = []
    selection = None
    patterns = None

    def skip_all(reason: str):
        for h in HORIZONS_MINUTES:
            outcomes.append(HorizonOutcome(turbine, h, "skipped", skip_reason=reason))

    try:
        ops = list(store.scan_operational(turbine, plan.start, plan.end))
        if len(ops) < 2:
            skip_all(f"only {len(ops)} operational rows in range")
            return outcomes, selection, patterns
        matrix = FeatureMatrix(
            np.asarray([rec.values for rec in ops]), list(store.manifest.parameters))
        selection = select_parameters(
            matrix, plan.variance_threshold, plan.correlation_threshold)

        events = list(store.scan_status(turbine, plan.start, plan.end))
        transactions = build_transactions(events, turbine, plan.start, plan.end)
        critical = set(store.manifest.critical_alarms)
        patterns = mine_patterns(transactions, critical, plan.min_support, plan.max_patterns)
        timeline = build_class_timeline(transactions, patterns, critical)
    except DataError as exc:
        skip_all(f"{type(exc).__name__}: {exc}")
        return outcomes, selection, patterns
    except Exception as exc:  # isolate unexpected failures to this turbine
        skip_all(f"unexpected failure: {exc!r}")
        return outcomes, selection, patterns

    models_dir = plan.output_dir / "models" / turbine
    models_dir.mkdir(parents=True, exist_ok=True)
    for h in HORIZONS_MINUTES:
        begin = time.perf_counter()
        try:
            d = label_records(ops, store.manifest.parameters, selection.final_names, timeline, h)
            split = stratified_split(
                d, plan.train_fraction, seed=derive_seed(plan.seed, turbine, h, "split"))
            forest = train_forest(
                split.train.features, split.train.labels, d.class_ids,
                n_trees=plan.n_trees, max_depth=plan.max_depth,
                features_per_split=plan.features_per_split,
                seed=derive_seed(plan.seed, turbine, h, "forest"))
            if split.test.n_rows > 0:
                pred = predict_batch(forest, split.test.features)
                report = evaluate(confusion(pred.tolist(), split.test.labels.tolist(), d.class_ids))
            else:
                report = None
            bundle = ModelBundle(
                turbine_id=turbine, horizon_minutes=h, forest=forest,
                feature_names=selection.final_names, patterns=patterns,
                created_at=plan.created_at)
            bundle_path = models_dir / f"horizon_{h}.model"
            save_model(bundle, bundle_path)
            if plan.keep_datasets:
                from .dataset import save_dataset
                datasets_dir = plan.output_dir / "datasets" / turbine
                datasets_dir.mkdir(parents=True, exist_ok=True)
                save_dataset(d, datasets_dir / f"horizon_{h}.csv")
            outcomes.append(HorizonOutcome(
                turbine, h, "completed", bundle_path=bundle_path,
                evaluation=report, test_rows=split.test.n_rows,
                duration_seconds=time.perf_counter() - begin))
        except DataError as exc:
            outcomes.append(HorizonOutcome(
                turbine, h, "skipped", skip_reason=f"{type(exc).__name__}: {exc}",
                duration_seconds=time.perf_counter() - begin))
        except Exception as exc:
            outcomes.append(HorizonOutcome(
                turbine, h, "skipped", skip_reason=f"unexpected failure: {exc!r}",
                duration_seconds=time.perf_counter() - begin))
    return outcomes, selection, patterns


def run(plan: TrainingPlan) -> TrainingRunReport:
    begin = time.perf_counter()
    store = TurbineStore.open(plan.store_path)
    turbines = plan.turbines or list(store.manifest.turbines)
    unknown = [t for t in turbines if t not in store.manifest.turbines]
    if unknown:
        raise PlanInvalid(f"turbines not in store manifest: {unknown}")
    try:
        plan.output_dir.mkdir(parents=True, exist_ok=True)
        (plan.output_dir / "reports").mkdir(exist_ok=True)
    except OSError as exc:
        raise RuntimeFailure(f"cannot create output dir {plan.output_dir}: {exc}") from exc

    all_outcomes: list[HorizonOutcome] = []
    selections: dict[str, SelectionReport] = {}
    mined: dict[str, list[StatusPattern]] = {}
    for turbine in turbines:
        outcomes, selection, patterns = _train_turbine(plan, store, turbine)
        all_outcomes.extend(outcomes)
        if selection is not None:
            selections[turbine] = selection
        if patterns is not None:
            mined[turbine] = patterns

    report = TrainingRunReport(
        outcomes=all_outcomes, selections=selections, patterns=mined,
        total_seconds=time.perf_counter() - begin)
    _write_reports(plan, report)
    return report


def _write_reports(plan: TrainingPlan, report: TrainingRunReport) -> None:
    reports_dir = plan.output_dir / "reports"
    for turbine, selection in report.selections.items():
        atomic_write(reports_dir / f"selection_{turbine}.txt", selection.to_text().encode("utf-8"))
        atomic_write(reports_dir / f"selection_{turbine}.json", selection.to_json().encode("utf-8"))
    for turbine, patterns in report.patterns.items():
        atomic_write(reports_dir / f"patterns_{turbine}.txt",
                     patterns_report(patterns, turbine).encode("utf-8"))
    by_turbine: dict[str, dict[int, EvaluationReport]] = {}
    for o in report.outcomes:
        if o.status == "completed" and o.evaluation is not None:
            by_turbine.setdefault(o.turbine, {})[o.horizon_minutes] = o.evaluation
    for turbine, reports in by_turbine.items():
        write_evaluation_csv(reports, reports_dir / f"evaluation_{turbine}.csv")

    lines = [
        "training run report",
        f"  range: {format_rfc3339(plan.start)} .. {format_rfc3339(plan.end)}",
        f"  completed: {len(report.completed)}  skipped: {len(report.skipped)}",
        f"  total wall clock: {report.total_seconds:.1f} s",
    ]
    fleet = report.fleet_accuracy()
    if fleet["pooled"] is not None:
        lines.append(f"  fleet accuracy: pooled {100 * fleet['pooled']:.2f}%  "
                     f"macro {100 * fleet['macro']:.2f}%")
    for o in report.outcomes:
        if o.status == "completed":
            acc = (f"{100 * o.evaluation.global_accuracy:.2f}%"
                   if o.evaluation is not None else "n/a")
            lines.append(f"  {o.turbine} t+{o.horizon_minutes}: completed, "
                         f"accuracy {acc}, {o.duration_seconds:.2f} s")
        else:
            lines.append(f"  {o.turbine} t+{o.horizon_minutes}: skipped ({o.skip_reason})")
    atomic_write(reports_dir / "training_report.txt", ("\n".join(lines) + "\n").encode("utf-8"))

    doc = {
        "completed": len(report.completed),
        "skipped": len(report.skipped),
        "fleet_accuracy": report.fleet_accuracy(),
        "outcomes": [
            {
                "turbine": o.turbine,
                "horizon_minutes": o.horizon_minutes,
                "status": o.status,
                "skip_reason": o.skip_reason,
                "bundle_path": str(o.bundle_path) if o.bundle_path else None,
                "global_accuracy": (o.evaluation.global_accuracy
                                    if o.evaluation is not None else None),
                "test_rows": o.test_rows,
                "duration_seconds": o.duration_seconds,
            }
            for o in report.outcomes
        ],
    }
    atomic_write(reports_dir / "training_report.json", json.dumps(doc, indent=2).encode("utf-8"))
