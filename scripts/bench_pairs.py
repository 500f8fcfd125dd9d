#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and keep every run.

Usage: python scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json
           [--workloads live-dashboard ...] [--seeds 1 2 3]

For each seed and workload it runs ``perfbench/run.py --trace 0`` once in
each checkout, for the ``run_seconds`` fixed in the change's BENCHMARK.json,
the parent first in even pairs and the change first in odd ones, so a drift
of the host's speed falls on both sides alike. The output
holds the last line each run printed (its JSON result) and the machine: CPU
count, the filesystem type of the parent's work directory as listed in
/proc/mounts, and the Python and numpy versions. It is rewritten after every
run, so an interrupted set keeps the runs it finished. An existing ``--out``
file is extended, so sets of other seeds or workloads land in the same file,
but only if it records the same machine and command as this invocation.

At the end it prints, for each workload and end-to-end metric of the whole
file, both medians, the parent's interquartile range, the pairs the change
won and lost, and whether the change's median is within the metric's bound
in BENCHMARK.json; then every run that was not correct, failed an
operation or printed no result.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

WORKLOADS = ("offline-build", "backlog-drain", "live-dashboard")


def filesystem_type(path: Path) -> str:
    """Type of the mount holding ``path``: the longest mount point above it."""
    path = path.resolve()
    best, fstype = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        if (path == Path(mount) or Path(mount) in path.parents) and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"exit_code": proc.returncode, "result": result}


def _value(result: dict | None, name: str) -> float | None:
    return (result or {}).get("metrics", {}).get(name, {}).get("value")


def summarize(doc: dict, benchmark: dict) -> list[str]:
    """The end-of-run report on ``doc`` (a bench_pairs output) as lines."""
    by_workload: dict[str, dict[int, dict]] = {}
    for run in doc["runs"]:
        by_workload.setdefault(run["workload"], {}).setdefault(run["pair"], {})[run["side"]] = run["result"]
    lines = []
    for workload, pairs in by_workload.items():
        for metric in benchmark["end_to_end"]:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            got = [(_value(sides.get("parent"), name), _value(sides.get("change"), name))
                   for sides in pairs.values()]
            parent = [p for p, _ in got if p is not None]
            change = [c for _, c in got if c is not None]
            if not parent or not change:
                lines.append(f"{workload} {name}: no runs on {'the change' if parent else 'the parent'}")
                continue
            both = [(p, c) for p, c in got if p is not None and c is not None]
            won = sum(sign * (c - p) < 0 for p, c in both)
            lost = sum(sign * (c - p) > 0 for p, c in both)
            mp, mc = float(np.median(parent)), float(np.median(change))
            q1, q3 = np.percentile(parent, [25, 75])
            verdict = "within" if sign * (mc - mp) / mp <= metric["bound"] else "OUTSIDE"
            lines.append(
                f"{workload} {name}: parent {mp:.4g} | change {mc:.4g} {metric['unit']} ({(mc - mp) / mp:+.1%}); "
                f"parent IQR {q1:.4g}-{q3:.4g} ({(q3 - q1) / mp:.1%} of median); "
                f"change won {won}, lost {lost} of {len(both)} pairs; {verdict} bound {metric['bound']}")
    for run in doc["runs"]:
        result = run["result"]
        where = f"pair {run['pair']} {run['side']} {run['workload']} seed {run['seed']}"
        if result is None:
            lines.append(f"{where}: exit code {run['exit_code']}, no result")
        elif not result.get("correct") or result.get("failed"):
            lines.append(f"{where}: correct={result.get('correct')}, "
                         f"failed {result.get('failed')} of {result.get('attempted')}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    work = args.parent / "perfbench" / ".work"
    work.mkdir(parents=True, exist_ok=True)
    machine = {
        "cpus": os.cpu_count(),
        "work_filesystem": filesystem_type(work),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    command = f"perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
    doc = {"machine": machine, "command": command, "runs": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text(encoding="utf-8"))
        if (doc["machine"], doc["command"]) != (machine, command):
            ap.error(f"{args.out} records another machine or command: "
                     f"{doc['machine']} {doc['command']!r}")
    checkouts = {"parent": args.parent, "change": args.change}
    pair = 1 + max((run["pair"] for run in doc["runs"]), default=-1)
    for seed in args.seeds:
        for workload in args.workloads:
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(checkouts[side], workload, seed, seconds)
                doc["runs"].append({"pair": pair, "side": side, "workload": workload, "seed": seed, **run})
                args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
                metrics = (run["result"] or {}).get("metrics", {})
                print(pair, side, workload, seed, {k: round(v["value"], 3) for k, v in metrics.items()},
                      flush=True)
            pair += 1
    for line in summarize(doc, benchmark):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
