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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    args = ap.parse_args(argv)
    seconds = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
