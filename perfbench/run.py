"""Benchmark of windpdm: offline model build, backlog drain, live dashboard.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Makes the workload's inputs from the seed, runs the program in a process of
its own (worker.py) for about ``--seconds``, checks the outputs apart from
the program (checks.py) and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. All
files live in a temporary directory under perfbench/.work that the run
deletes; a traced run leaves its spans in perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline-build", "backlog-drain", "live-dashboard")
WORKER_GRACE_S = 150.0

# name, unit; BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_ms_per_op", "ms"),
]


def median(values) -> float:
    # no values only when every round failed, which the judge has counted
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(sorted(values)[min(len(values) - 1, int(q * len(values)))]) if values else 0.0


def run_worker(workload: str, work: Path, seconds: float, trace: int, trace_out: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--work", str(work),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=seconds + WORKER_GRACE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    return json.loads((work / "result.json").read_text(encoding="utf-8"))


# -- judging each workload ----------------------------------------------------

def judge_offline(spec: dict, result: dict) -> dict:
    truth = json.loads(Path(spec["ground_truth"]).read_text(encoding="utf-8"))
    planted = [p["alarms"] for p in truth["patterns"]]
    errors, failed, attempted = [], 0, 0
    horizons = [10, 20, 30, 40, 50, 60]
    for r in result["rounds"]:
        attempted += len(spec["plan_turbines"]) * len(horizons) + len(spec["grid_trees"]) * len(spec["grid_depths"])
        e, f = checks.check_models(r["outcomes"], truth["labels"], spec["plan_turbines"], horizons)
        errors += e
        failed += f
        errors += checks.check_patterns(r["patterns"], planted, spec["plan_turbines"])
        e, f = checks.check_grid(r["grid"], spec["grid_trees"], spec["grid_depths"])
        errors += e
        failed += f
    latencies = [v for r in result["rounds"] if not r["traced"] for v in r["latencies_ms"]]
    return {"errors": errors, "failed": failed, "attempted": attempted, "latencies_ms": latencies}


def _records_of_store(store_dir: Path, turbines: list[str]) -> list[tuple[str, str]]:
    return [(t, line.rstrip("\n")) for t in turbines
            for line in (store_dir / t / "operational.log").read_text(encoding="utf-8").splitlines(True)
            if line.endswith("\n")]


def judge_backlog(spec: dict, result: dict) -> dict:
    from windpdm.manifest import MANIFEST_FILENAME, load_manifest
    store = Path(spec["store"])
    parameters = load_manifest(store / MANIFEST_FILENAME).parameters
    expected = checks.expected_notifications(Path(spec["models"]), parameters,
                                             _records_of_store(store, spec["turbines"]))
    errors, failed, attempted, latencies = [], 0, 0, []
    for k, r in enumerate(result["rounds"]):
        attempted += spec["messages"]
        sink = Path(r["sink"])
        lines = (sink / "notifications.jsonl").read_text(encoding="utf-8").splitlines()
        e, f, docs = checks.check_notifications(lines, expected)
        errors += [f"round {k}: {x}" for x in e]
        failed += f
        errors += checks.check_dead_letter(sink / "dead_letter.jsonl")
        if r["committed"] != r["ends"]:
            errors.append(f"round {k}: committed offsets {r['committed']} short of {r['ends']}")
        if r["fatal_error"]:
            errors.append(f"round {k}: agent stopped: {r['fatal_error']}")
        if not r["traced"]:
            latencies += [(d["emitted_at"] - r["start_wall"]) * 1e3 for d in docs]
    return {"errors": errors, "failed": failed, "attempted": attempted, "latencies_ms": latencies}


def judge_live(spec: dict, result: dict) -> dict:
    from windpdm.manifest import MANIFEST_FILENAME, load_manifest
    store = Path(spec["store"])
    parameters = load_manifest(store / MANIFEST_FILENAME).parameters
    errors, failed, attempted, latencies = [], 0, 0, []
    published: list[tuple[str, str]] = []
    sink = Path(spec["sink"])
    all_lines = (sink / "notifications.jsonl").read_text(encoding="utf-8").splitlines()
    history = all_lines[:spec["history_lines"]]
    earlier = {(d["turbine"], d["t"]) for d in map(json.loads, history)}
    for k, r in enumerate(result["rounds"]):
        gen = r["generator"]
        attempted += r["steps"] * len(spec["turbines"])
        if gen is None or r["generator_timed_out"]:
            errors.append(f"round {k}: generator missed its deadline")
            failed += r["steps"] * len(spec["turbines"])
            continue
        if gen["stream_error"] or gen["reader_alive"]:
            errors.append(f"round {k}: stream reader: {gen['stream_error']} alive={gen['reader_alive']}")
        records = [tuple(x) for x in gen["records"]]
        keyed = {(t, checks.parse_record(line)[0]): sched
                 for (t, line), sched in zip(records, _schedule_times(gen))}
        round_keys = set(keyed)
        e, f = checks.check_stream([line for _a, line in gen["received"]], round_keys, earlier)
        errors += [f"round {k}: {x}" for x in e]
        failed += f
        earlier |= round_keys
        published += records
        if r["fatal_error"]:
            errors.append(f"round {k}: agent stopped: {r['fatal_error']}")
        if not r["traced"]:
            for arrival, line in gen["received"]:
                d = json.loads(line)
                sched = keyed.get((d["turbine"], d["t"]))
                if sched is not None:
                    latencies.append((arrival - sched) * 1e3)
    expected = checks.expected_notifications(Path(spec["models"]), parameters, published)
    e, f, _docs = checks.check_notifications(all_lines[spec["history_lines"]:], expected)
    errors += e
    failed += f
    errors += checks.check_dead_letter(sink / "dead_letter.jsonl")
    return {"errors": errors, "failed": failed, "attempted": attempted, "latencies_ms": latencies}


def _schedule_times(gen: dict) -> list[float]:
    return [scheduled for scheduled, _began, _dur, n in gen["steps"] for _ in range(n)]


JUDGES = {"offline-build": judge_offline, "backlog-drain": judge_backlog, "live-dashboard": judge_live}


# -- metrics ------------------------------------------------------------------

def _job_s(workload: str, r: dict) -> float:
    if workload == "live-dashboard":
        gen = r["generator"]
        return max((a for a, _l in gen["received"]), default=gen["start_at"]) - gen["start_at"]
    return r["job_s"]


def _measured(result: dict, traced: bool) -> list[dict]:
    # a live round whose generator died has no figures; the judge counted it failed
    return [r for r in result["rounds"] if r["traced"] == traced and r.get("generator", True)]


def end_to_end(workload: str, spec: dict, result: dict, verdict: dict) -> dict:
    plain = _measured(result, traced=False)
    return {
        "setup_s": median([r["setup_cpu_s"] for r in plain]),
        "peak_rss_mb": result["peak_rss_mb"],
        "cpu_ms_per_op": median([r["cpu_s"] * 1e3 / r["ops"] for r in plain]),
    }


def per_layer(workload: str, spec: dict, result: dict, verdict: dict) -> dict:
    plain, traced = _measured(result, traced=False), _measured(result, traced=True)
    values = {name: 0.0 for name, _unit in LAYER_METRICS}
    layer_rounds = [r["layers"] for r in traced]
    for name in values:
        got = [lr[name] for lr in layer_rounds if name in lr]
        if got:
            values[name] = sum(got) / len(got)
    cpu = lambda rs: median([r["cpu_s"] * 1e3 / r["ops"] for r in rs])  # noqa: E731
    untraced_cpu = cpu(plain)
    values["tracing.overhead_pct"] = (cpu(traced) / untraced_cpu - 1.0) * 100.0 if untraced_cpu else 0.0
    values["workload.latency_p50_ms"] = median(verdict["latencies_ms"])
    values["workload.job_s"] = median([_job_s(workload, r) for r in plain])
    values["workload.setup_wall_s"] = median([r["setup_s"] for r in plain])
    if workload == "offline-build":
        values["workload.train_s"] = median([r["train_s"] for r in plain])
        values["workload.grid_s"] = median([r["grid_s"] for r in plain])
    elif workload == "backlog-drain":
        values["workload.drain_msgs_per_s"] = median([r["ops"] / r["job_s"] for r in plain])
        values["agent.single_thread_msgs_per_s"] = result["single_thread_msgs_per_s"]
        values["broker.publish_ms"] = spec["publish_ms"]
    else:
        lat = verdict["latencies_ms"]
        values["workload.dashboard_p99_ms"] = percentile(lat, 0.99)
        values["workload.dashboard_samples"] = len(lat)
        gens = [r["generator"] for r in result["rounds"] if r["generator"]]
        late = [(began - sched) * 1e3 for g in gens for sched, began, _d, _n in g["steps"]]
        values["load.late_ms_p50"] = median(late)
        values["load.late_ms_max"] = max(late, default=0.0)
        publish = [d * 1e3 / n for g in gens for _s, _b, d, n in g["steps"]]
        values["broker.publish_ms"] = median(publish)
        emit_to_client = []
        delivered = 0
        for r in traced:
            for arrival, line in r["generator"]["received"]:
                emit_to_client.append((arrival - json.loads(line)["emitted_at"]) * 1e3)
            delivered += len(r["generator"]["received"])
        values["endpoint.emit_to_client_ms"] = median(emit_to_client)
        stream_bytes = sum(r["layers"]["_stream_bytes"] for r in traced)
        values["endpoint.sink_bytes_read_per_msg"] = stream_bytes / max(1, delivered)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "windpdm" / "__init__.py").is_file():
        print(f"error: no windpdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    trace_out = HERE / "results" / f"trace-{args.workload}-{args.seed}.json" if args.trace else None
    try:
        spec = inputs.prepare(args.workload, work, args.seed, args.seconds)
        result = run_worker(args.workload, work, args.seconds, args.trace, trace_out)
        verdict = JUDGES[args.workload](spec, result)
        # a thread or process of the run still alive at its end is a failed operation
        attempted = verdict["attempted"] + len(result["leftovers"])
        failed = verdict["failed"] + len(result["leftovers"])
        errors = verdict["errors"]
        for x in result["leftovers"]:
            print(f"left running: {x}", file=sys.stderr)
        metrics = (per_layer if args.trace else end_to_end)(args.workload, spec, result, verdict)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    out = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
