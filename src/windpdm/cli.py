"""Command-line entry point.

Commands map one-to-one onto the pipeline stages: ingest, select-features,
mine-patterns, train, evaluate, grid-search, serve, simulate, status, and
synth (the synthetic fleet generator).

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure.
Failures print a single structured line ``error: <kind>: <message>`` on
stderr.

Each optional option is declared once, in ``_COMMANDS``, and resolves before
the command runs: flag > WINDPDM_<OPTION> environment variable > ``--config``
file entry > the library's default. A config key applies, with that
command's cast, to every command that declares it. A key that names no
option, or a value that does not parse, is a data error naming its source.
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
from typing import Callable, NamedTuple

from . import agent as agent_mod
from . import simulator as simulator_mod
from . import synth as synth_mod
from . import trainer as trainer_mod
from .broker import Broker
from .dataset import load_dataset
from .durable import atomic_write
from .endpoint import DEFAULT_HOST, DEFAULT_PORT, AgentEndpoint
from .errors import DataError, RuntimeFailure, WindPdmError
from .ingest import TurbineStore, parse_operational_csv, parse_status_csv
from .manifest import parse_bool, parse_key_values
from .metrics import (
    DEFAULT_DEPTH_GRID,
    DEFAULT_TREES_GRID,
    evaluation_csv_rows,
    grid_search,
    score,
    write_evaluation_csv,
    write_grid_csv,
)
from .model_io import dump_text, load_model
from .patterns import patterns_report
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


def _names(text: str) -> list[str]:
    """'T01,T02' -> ['T01', 'T02']."""
    return [name for name in text.split(",") if name]


def _speedup(text: str) -> float | str:
    """'max' (as fast as possible) or milliseconds per simulated step."""
    return text if text == "max" else float(text)


def _given(opts: dict, *names: str, **renamed: str) -> dict:
    """The named options that resolved to a value, as keyword arguments.

    ``param="option"`` passes an option under the callee's parameter name;
    an option left unset is left out, so the callee's default applies.
    """
    pairs = [(name, name) for name in names] + list(renamed.items())
    return {param: opts[name] for param, name in pairs if name in opts}


def cmd_ingest(opts) -> int:
    store = TurbineStore.open(Path(opts["store"]))
    turbine = opts["turbine"]
    skip = _given(opts, "skip_invalid")
    if "operational" not in opts and "status" not in opts:
        raise UsageError("ingest needs --operational and/or --status")
    total = 0
    warnings = []
    if "operational" in opts:
        data = Path(opts["operational"]).read_bytes()
        records = parse_operational_csv(data, store.manifest.parameters, turbine)
        n, warns = store.append(turbine, records, **skip)
        total += n
        warnings += warns
    if "status" in opts:
        data = Path(opts["status"]).read_bytes()
        events = parse_status_csv(data, store.manifest.alarms, turbine)
        n, warns = store.append(turbine, events, **skip)
        total += n
        warnings += warns
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"appended {total} records ({len(warnings)} skipped)")
    return 0


def cmd_select_features(opts) -> int:
    store = TurbineStore.open(Path(opts["store"]))
    turbine = opts["turbine"]
    start, end = parse_rfc3339(opts["start"]), parse_rfc3339(opts["end"])
    _ops, report = trainer_mod.select_features(
        store, turbine, start, end, **_given(opts, "variance_threshold", "correlation_threshold"))
    print(report.to_text(), end="")
    if "out" in opts:
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        trainer_mod.write_selection_report(out, turbine, report)
    return 0


def cmd_mine_patterns(opts) -> int:
    store = TurbineStore.open(Path(opts["store"]))
    turbine = opts["turbine"]
    start, end = parse_rfc3339(opts["start"]), parse_rfc3339(opts["end"])
    _transactions, mined = trainer_mod.mine_classes(
        store, turbine, start, end, **_given(opts, "min_support", "max_patterns"))
    text = patterns_report(mined, turbine)
    print(text, end="")
    if "out" in opts:
        atomic_write(opts["out"], text.encode("utf-8"))
    return 0


def cmd_train(opts) -> int:
    overrides = _given(opts, "seed", "n_trees", "max_depth", "output_dir")
    plan = trainer_mod.parse_plan(Path(opts["plan"]), overrides)
    report = trainer_mod.run(plan)
    fleet = report.fleet_accuracy()
    print(f"completed {len(report.completed)} models, skipped {len(report.skipped)}")
    if fleet["pooled"] is not None:
        print(f"fleet accuracy: pooled {100 * fleet['pooled']:.2f}%, macro {100 * fleet['macro']:.2f}%")
    for o in report.skipped:
        print(f"skipped {o.turbine} t+{o.horizon_minutes}: {o.skip_reason}", file=sys.stderr)
    return 0


def cmd_evaluate(opts) -> int:
    if not opts.get("dump") and "dataset" not in opts:
        raise UsageError("evaluate needs --dataset unless --dump is given")
    bundle = load_model(Path(opts["model"]))
    if opts.get("dump"):
        print(dump_text(bundle), end="")
        return 0
    d = load_dataset(Path(opts["dataset"]))
    report = score(bundle.forest, d)
    header, rows = evaluation_csv_rows({bundle.horizon_minutes: report})
    print(", ".join(header))
    print(", ".join(rows[0]))
    if "out" in opts:
        write_evaluation_csv({bundle.horizon_minutes: report}, Path(opts["out"]))
    return 0


def cmd_grid_search(opts) -> int:
    d = load_dataset(Path(opts["dataset"]))
    result = grid_search(
        d,
        opts.get("trees", DEFAULT_TREES_GRID),
        opts.get("depth", DEFAULT_DEPTH_GRID),
        **_given(opts, "seed"),
    )
    write_grid_csv(result, Path(opts["out"]))
    print(f"wrote {len(result.cells)} cells to {opts['out']}")
    return 0


def cmd_serve(opts) -> int:
    store = TurbineStore.open(Path(opts["store"]))
    manifest = store.manifest
    turbines = opts.get("turbines") or list(manifest.turbines)
    broker = Broker(Path(opts["broker"]))
    agent = agent_mod.MonitoringAgent.start(
        Path(opts["models"]), broker, turbines, Path(opts["sink"]), manifest,
        **_given(opts, "allow_partial"))
    endpoint = AgentEndpoint(agent, **_given(opts, "host", "port"))
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


def cmd_simulate(opts) -> int:
    store_path = Path(opts["store"])
    start, end = opts.get("start"), opts.get("end")
    if "days" in opts:
        store = TurbineStore.open(store_path)
        # each turbine's log is ascending, so its first record is its earliest
        firsts = [next(store.scan_operational(t), None) for t in store.manifest.turbines]
        stamps = [rec.timestamp for rec in firsts if rec is not None]
        if stamps:
            start = min(stamps) if start is None else start
            end = start + int(opts["days"] * 86400)
    if opts.get("speedup") == "max":  # as fast as possible, the simulator's default
        del opts["speedup"]
    cfg = simulator_mod.SimulatorConfig(
        store_path=store_path,
        broker_path=Path(opts["broker"]),
        start=start,
        end=end,
        **_given(opts, "turbines", speedup_ms_per_step="speedup"),
    )
    published = simulator_mod.replay(cfg)
    print(f"published {published} messages")
    return 0


def cmd_status(opts) -> int:
    endpoint = opts.get("endpoint", f"http://{DEFAULT_HOST}:{DEFAULT_PORT}")
    url = endpoint.rstrip("/") + "/health"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as resp:
            doc = json.loads(resp.read().decode("utf-8"))
    except OSError as exc:
        raise RuntimeFailure(f"cannot reach {url}: {exc}") from exc
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_synth(opts) -> int:
    cfg = synth_mod.SynthConfig(
        out_dir=Path(opts["out"]),
        **_given(opts, "seed", "days", "signal_scale", "noise_scale",
                 n_turbines="turbines", n_parameters="parameters", n_alarms="alarms"),
    )
    _store, truth = synth_mod.generate(cfg)
    print(f"generated {cfg.n_turbines} turbines x {cfg.n_slots} slots at {opts['out']}")
    for i, p in enumerate(truth.patterns, start=1):
        occupancies = [truth.occupancy(t, i) for t in cfg.turbine_names]
        print(f"  planted pattern {i} {sorted(p.alarms)}: "
              f"occupancy {min(occupancies):.3f}..{max(occupancies):.3f}")
    return 0


class _Opt(NamedTuple):
    """An optional option; a ``parse_bool`` cast makes it a switch."""
    name: str
    cast: Callable = str
    help: str | None = None


class _Command(NamedTuple):
    run: Callable[[dict], int]
    help: str
    required: tuple[str, ...]
    options: tuple[_Opt, ...] = ()


_COMMANDS = {
    "ingest": _Command(
        cmd_ingest, "parse CSV files and append them to a turbine store", ("store", "turbine"), (
            _Opt("operational", help="operational CSV file"),
            _Opt("status", help="status CSV file"),
            _Opt("skip-invalid", parse_bool,
                 "count and skip invalid rows instead of rejecting the file"))),
    "select-features": _Command(
        cmd_select_features, "run the parameter reduction funnel",
        ("store", "turbine", "start", "end"), (
            _Opt("variance-threshold", float),
            _Opt("correlation-threshold", float),
            _Opt("out", help="directory for the text + JSON reports"))),
    "mine-patterns": _Command(
        cmd_mine_patterns, "mine critical alarm patterns (failure classes)",
        ("store", "turbine", "start", "end"), (
            _Opt("min-support", float),
            _Opt("max-patterns", int),
            _Opt("out", help="write the pattern report here as well as stdout"))),
    "train": _Command(
        cmd_train, "run a training plan end to end", ("plan",), (
            _Opt("seed", int),
            _Opt("n-trees", int),
            _Opt("max-depth", int),
            _Opt("output-dir"))),
    "evaluate": _Command(
        cmd_evaluate, "evaluate a model bundle against a dataset CSV", ("model",), (
            _Opt("dataset", help="dataset CSV to score (required without --dump)"),
            _Opt("out", help="write a one-row evaluation CSV here"),
            _Opt("dump", parse_bool, "print the bundle text dump instead"))),
    "grid-search": _Command(
        cmd_grid_search, "accuracy/cost grid over forest hyperparameters", ("dataset", "out"), (
            _Opt("trees", _parse_range_spec, "e.g. 5..100:5 or 10,40,80"),
            _Opt("depth", _parse_range_spec),
            _Opt("seed", int))),
    "serve": _Command(
        cmd_serve, "run broker consumer + agent + streaming endpoint",
        ("store", "models", "broker", "sink"), (
            _Opt("turbines", _names, "comma-separated subset (default: manifest)"),
            _Opt("host"),
            _Opt("port", int),
            _Opt("allow-partial", parse_bool))),
    "simulate": _Command(
        cmd_simulate, "replay stored telemetry into broker topics", ("store", "broker"), (
            _Opt("turbines", _names),
            _Opt("start", parse_rfc3339),
            _Opt("end", parse_rfc3339),
            _Opt("days", float, "limit to the first N days of the store range"),
            _Opt("speedup", _speedup,
                 "'max' or milliseconds per simulated 10-minute step (600000 = real time)"))),
    "status": _Command(
        cmd_status, "query a running agent's health endpoint", (), (
            _Opt("endpoint"),)),
    "synth": _Command(
        cmd_synth, "generate a deterministic synthetic turbine store", ("out",), (
            _Opt("seed", int),
            _Opt("turbines", int),
            _Opt("days", float),
            _Opt("parameters", int),
            _Opt("alarms", int),
            _Opt("signal-scale", float),
            _Opt("noise-scale", float))),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="windpdm", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value config file supplying option defaults")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.required:
            p.add_argument("--" + flag, required=True)
        for opt in command.options:
            if opt.cast is parse_bool:
                p.add_argument("--" + opt.name, action="store_true", default=None, help=opt.help)
            else:
                p.add_argument("--" + opt.name, type=opt.cast, help=opt.help)
    return parser


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config = parse_key_values(Path(path).read_text(encoding="utf-8"))
    known = {opt.name for command in _COMMANDS.values() for opt in command.options}
    unknown = sorted(set(config) - known)
    if unknown:
        raise DataError(f"unknown config keys in {path}: {', '.join(unknown)}")
    return config


def _cast(opt: _Opt, raw: str, source: str):
    try:
        return opt.cast(raw)
    except (ValueError, DataError) as exc:
        raise DataError(f"bad value {raw!r} from {source}: {exc}") from None


def _resolve(args, command: _Command, config: dict[str, str]) -> dict:
    """The required flags plus every option that resolved to a value.

    flag > WINDPDM_<OPTION> > --config; an option none of them sets is left
    out, so the command's callee applies its own default.
    """
    opts = {flag: getattr(args, flag) for flag in command.required}
    for opt in command.options:
        dest = opt.name.replace("-", "_")
        value = getattr(args, dest)
        env = "WINDPDM_" + dest.upper()
        if value is None and env in os.environ:
            value = _cast(opt, os.environ[env], env)
        elif value is None and opt.name in config:
            value = _cast(opt, config[opt.name], f"--config key {opt.name}")
        if value is not None:
            opts[dest] = value
    return opts


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 1
        command = _COMMANDS[args.command]
        return command.run(_resolve(args, command, _load_config(args.config)))
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return 2
    except (WindPdmError, OSError, ValueError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
