"""Command-line entry point.

Commands map one-to-one onto the pipeline stages: ingest, select-features,
mine-patterns, train, evaluate, grid-search, serve, simulate, status, and
synth (the synthetic fleet generator).

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure.
Failures print a single structured line ``error: <kind>: <message>`` on
stderr. Option values resolve as flags > WINDPDM_<OPTION> environment
variables > --config file entries > built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np

from . import agent as agent_mod
from . import simulator as simulator_mod
from . import synth as synth_mod
from . import trainer as trainer_mod
from .broker import Broker
from .dataset import load_dataset
from .durable import atomic_write
from .endpoint import AgentEndpoint
from .errors import DataError, RuntimeFailure, WindPdmError
from .features import FeatureMatrix, select_parameters
from .forest import predict_batch
from .ingest import TurbineStore, parse_operational_csv, parse_status_csv
from .manifest import parse_key_values
from .metrics import (
    confusion,
    evaluate,
    evaluation_csv_rows,
    grid_search,
    write_evaluation_csv,
    write_grid_csv,
)
from .model_io import dump_text, load_model
from .patterns import build_transactions, mine_patterns, patterns_report
from .timeutil import parse_rfc3339


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_range_spec(spec: str) -> list[int]:
    """'5..100:5' -> [5, 10, ..., 100]; '5,10,20' -> [5, 10, 20]."""
    spec = spec.strip()
    if ".." in spec:
        bounds, _, step = spec.partition(":")
        lo, _, hi = bounds.partition("..")
        step = int(step) if step else 1
        return list(range(int(lo), int(hi) + 1, step))
    return [int(v) for v in spec.split(",") if v.strip()]


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    return parse_key_values(Path(path).read_text(encoding="utf-8"))


def _resolve(args, config: dict[str, str], name: str, default=None, cast=str):
    """flags > env > config file > default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    env = os.environ.get("WINDPDM_" + name.upper().replace("-", "_"))
    if env is not None:
        return cast(env)
    if name in config:
        return cast(config[name])
    return default


def build_parser() -> _Parser:
    parser = _Parser(prog="windpdm", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value config file supplying option defaults")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="parse CSV files and append them to a turbine store")
    p.add_argument("--store", required=True)
    p.add_argument("--turbine", required=True)
    p.add_argument("--operational", help="operational CSV file")
    p.add_argument("--status", help="status CSV file")
    p.add_argument("--skip-invalid", action="store_true",
                   help="count and skip invalid rows instead of rejecting the file")

    p = sub.add_parser("select-features", help="run the parameter reduction funnel")
    p.add_argument("--store", required=True)
    p.add_argument("--turbine", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--variance-threshold", type=float)
    p.add_argument("--correlation-threshold", type=float)
    p.add_argument("--out", help="directory for the text + JSON reports")

    p = sub.add_parser("mine-patterns", help="mine critical alarm patterns (failure classes)")
    p.add_argument("--store", required=True)
    p.add_argument("--turbine", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--end", required=True)
    p.add_argument("--min-support", type=float)
    p.add_argument("--max-patterns", type=int)
    p.add_argument("--out", help="write the pattern report here as well as stdout")

    p = sub.add_parser("train", help="run a training plan end to end")
    p.add_argument("--plan", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--n-trees", type=int)
    p.add_argument("--max-depth", type=int)
    p.add_argument("--output-dir")

    p = sub.add_parser("evaluate", help="evaluate a model bundle against a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", help="write a one-row evaluation CSV here")
    p.add_argument("--dump", action="store_true", help="print the bundle text dump instead")

    p = sub.add_parser("grid-search", help="accuracy/cost grid over forest hyperparameters")
    p.add_argument("--dataset", required=True)
    p.add_argument("--trees", default="5..100:5", help="e.g. 5..100:5 or 10,40,80")
    p.add_argument("--depth", default="5..30:5")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("serve", help="run broker consumer + agent + streaming endpoint")
    p.add_argument("--store", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--broker", required=True)
    p.add_argument("--sink", required=True)
    p.add_argument("--turbines", help="comma-separated subset (default: manifest)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787)
    p.add_argument("--allow-partial", action="store_true")

    p = sub.add_parser("simulate", help="replay stored telemetry into broker topics")
    p.add_argument("--store", required=True)
    p.add_argument("--broker", required=True)
    p.add_argument("--turbines")
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--days", type=float, help="limit to the first N days of the store range")
    p.add_argument("--speedup", default="max",
                   help="'max' or milliseconds per simulated 10-minute step "
                        "(600000 = real time)")

    p = sub.add_parser("status", help="query a running agent's health endpoint")
    p.add_argument("--endpoint", default="http://127.0.0.1:8787")

    p = sub.add_parser("synth", help="generate a deterministic synthetic turbine store")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--turbines", type=int, default=2)
    p.add_argument("--days", type=float, default=10.0)
    p.add_argument("--parameters", type=int, default=12)
    p.add_argument("--alarms", type=int, default=6)
    p.add_argument("--signal-scale", type=float, default=1.0)
    p.add_argument("--noise-scale", type=float, default=0.1)

    return parser


def cmd_ingest(args, config) -> int:
    store = TurbineStore.open(Path(args.store))
    skip = bool(_resolve(args, config, "skip-invalid", False))
    if not args.operational and not args.status:
        raise UsageError("ingest needs --operational and/or --status")
    total = 0
    warnings = []
    if args.operational:
        data = Path(args.operational).read_bytes()
        records = parse_operational_csv(data, store.manifest.parameters, args.turbine)
        n, warns = store.append(args.turbine, records, skip_invalid=skip)
        total += n
        warnings += warns
    if args.status:
        data = Path(args.status).read_bytes()
        events = parse_status_csv(data, store.manifest.alarms, args.turbine)
        n, warns = store.append(args.turbine, events, skip_invalid=skip)
        total += n
        warnings += warns
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"appended {total} records ({len(warnings)} skipped)")
    return 0


def cmd_select_features(args, config) -> int:
    store = TurbineStore.open(Path(args.store))
    start, end = parse_rfc3339(args.start), parse_rfc3339(args.end)
    ops = list(store.scan_operational(args.turbine, start, end))
    matrix = FeatureMatrix(np.asarray([r.values for r in ops]), list(store.manifest.parameters))
    report = select_parameters(
        matrix,
        variance_threshold=_resolve(args, config, "variance-threshold", 0.99, float),
        correlation_threshold=_resolve(args, config, "correlation-threshold", 0.95, float),
    )
    print(report.to_text(), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atomic_write(out / f"selection_{args.turbine}.txt", report.to_text().encode("utf-8"))
        atomic_write(out / f"selection_{args.turbine}.json", report.to_json().encode("utf-8"))
    return 0


def cmd_mine_patterns(args, config) -> int:
    store = TurbineStore.open(Path(args.store))
    start, end = parse_rfc3339(args.start), parse_rfc3339(args.end)
    events = list(store.scan_status(args.turbine, start, end))
    transactions = build_transactions(events, args.turbine, start, end)
    mined = mine_patterns(
        transactions,
        set(store.manifest.critical_alarms),
        min_support=_resolve(args, config, "min-support", 0.01, float),
        max_patterns=_resolve(args, config, "max-patterns", 8, int),
    )
    text = patterns_report(mined, args.turbine)
    print(text, end="")
    if args.out:
        atomic_write(args.out, text.encode("utf-8"))
    return 0


def cmd_train(args, config) -> int:
    overrides = {
        "seed": _resolve(args, config, "seed"),
        "n_trees": _resolve(args, config, "n-trees"),
        "max_depth": _resolve(args, config, "max-depth"),
        "output_dir": _resolve(args, config, "output-dir"),
    }
    plan = trainer_mod.parse_plan(Path(args.plan), overrides)
    report = trainer_mod.run(plan)
    fleet = report.fleet_accuracy()
    print(f"completed {len(report.completed)} models, skipped {len(report.skipped)}")
    if fleet["pooled"] is not None:
        print(f"fleet accuracy: pooled {100 * fleet['pooled']:.2f}%, macro {100 * fleet['macro']:.2f}%")
    for o in report.skipped:
        print(f"skipped {o.turbine} t+{o.horizon_minutes}: {o.skip_reason}", file=sys.stderr)
    return 0


def cmd_evaluate(args, config) -> int:
    bundle = load_model(Path(args.model))
    if args.dump:
        print(dump_text(bundle), end="")
        return 0
    d = load_dataset(Path(args.dataset))
    pred = predict_batch(bundle.forest, d.features)
    report = evaluate(confusion(pred.tolist(), d.labels.tolist(), d.class_ids))
    header, rows = evaluation_csv_rows({bundle.horizon_minutes: report})
    print(", ".join(header))
    print(", ".join(rows[0]))
    if args.out:
        write_evaluation_csv({bundle.horizon_minutes: report}, Path(args.out))
    return 0


def cmd_grid_search(args, config) -> int:
    d = load_dataset(Path(args.dataset))
    result = grid_search(
        d,
        _parse_range_spec(args.trees),
        _parse_range_spec(args.depth),
        seed=args.seed,
    )
    write_grid_csv(result, Path(args.out))
    print(f"wrote {len(result.cells)} cells to {args.out}")
    return 0


def cmd_serve(args, config) -> int:
    store = TurbineStore.open(Path(args.store))
    manifest = store.manifest
    turbines = args.turbines.split(",") if args.turbines else list(manifest.turbines)
    broker = Broker(Path(args.broker))
    agent = agent_mod.MonitoringAgent.start(
        Path(args.models), broker, turbines, Path(args.sink), manifest,
        allow_partial=args.allow_partial)
    endpoint = AgentEndpoint(agent, host=args.host, port=args.port)
    endpoint.start()
    agent.run_threaded()
    host, port = endpoint.address
    print(f"serving: health http://{host}:{port}/health  stream http://{host}:{port}/stream")

    stop = threading.Event()

    def handle_signal(_sig, _frame):
        stop.set()

    signal.signal(signal.SIGINT, handle_signal)
    signal.signal(signal.SIGTERM, handle_signal)
    while not stop.is_set() and agent.status != agent_mod.STOPPED:
        stop.wait(0.2)
    agent.stop()
    endpoint.stop()
    print(f"stopped: {json.dumps(agent.health())}")
    if agent.fatal_error:
        raise RuntimeFailure(f"agent stopped: {agent.fatal_error}")
    return 0


def cmd_simulate(args, config) -> int:
    store_path = Path(args.store)
    start = parse_rfc3339(args.start) if args.start else None
    end = parse_rfc3339(args.end) if args.end else None
    if args.days is not None:
        store = TurbineStore.open(store_path)
        stamps = [rec.timestamp
                  for t in store.manifest.turbines
                  for rec in store.scan_operational(t)]
        if stamps:
            start = min(stamps) if start is None else start
            end = start + int(args.days * 86400)
    speedup = None if args.speedup == "max" else float(args.speedup)
    cfg = simulator_mod.SimulatorConfig(
        store_path=store_path,
        broker_path=Path(args.broker),
        turbines=args.turbines.split(",") if args.turbines else [],
        start=start,
        end=end,
        speedup_ms_per_step=speedup,
    )
    published = simulator_mod.replay(cfg)
    print(f"published {published} messages")
    return 0


def cmd_status(args, config) -> int:
    url = args.endpoint.rstrip("/") + "/health"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
    except OSError as exc:
        raise RuntimeFailure(f"cannot reach {url}: {exc}") from exc
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_synth(args, config) -> int:
    cfg = synth_mod.SynthConfig(
        out_dir=Path(args.out),
        seed=args.seed,
        n_turbines=args.turbines,
        days=args.days,
        n_parameters=args.parameters,
        n_alarms=args.alarms,
        signal_scale=args.signal_scale,
        noise_scale=args.noise_scale,
    )
    _store, truth = synth_mod.generate(cfg)
    print(f"generated {cfg.n_turbines} turbines x {cfg.n_slots} slots at {args.out}")
    for i, p in enumerate(truth.patterns, start=1):
        occupancies = [truth.occupancy(t, i) for t in cfg.turbine_names]
        print(f"  planted pattern {i} {sorted(p.alarms)}: "
              f"occupancy {min(occupancies):.3f}..{max(occupancies):.3f}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "select-features": cmd_select_features,
    "mine-patterns": cmd_mine_patterns,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "grid-search": cmd_grid_search,
    "serve": cmd_serve,
    "simulate": cmd_simulate,
    "status": cmd_status,
    "synth": cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except RuntimeFailure as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3
    except WindPdmError as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
