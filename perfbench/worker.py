"""The program's process: runs one workload in rounds and records raw results.

Started by run.py with the prepared inputs in ``--work``; writes
``result.json`` there. Rounds repeat the same operations until ``--seconds``
have passed. With ``--trace 1`` rounds alternate untraced and traced, so one
run gives both the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import selectors
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from windpdm import agent as agent_mod  # noqa: E402
from windpdm import ingest, metrics, trainer  # noqa: E402
from windpdm.broker import Broker  # noqa: E402
from windpdm.dataset import HorizonDataset  # noqa: E402
from windpdm.endpoint import AgentEndpoint  # noqa: E402
from windpdm.manifest import MANIFEST_FILENAME, load_manifest  # noqa: E402

from tracing import Tracer  # noqa: E402

DRAIN_TIMEOUT_S = 120.0
GENERATOR_READY_TIMEOUT_S = 30.0
GENERATOR_GRACE_S = 20.0
# the agent's CPU is measured over the publish schedule plus this long for
# the last step's records to be processed
WINDOW_TAIL_S = 1.0


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children, so that work the
    program moves into worker processes still counts."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Offline:
    """Ingest the fleet's CSV history into a fresh store, train the plan, run the grid."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.work = work
        self.manifest = load_manifest(Path(spec["manifest"]))
        csv_dir = Path(spec["csv_dir"])
        self.csv = {t: ((csv_dir / f"{t}.operational.csv").read_bytes(),
                        (csv_dir / f"{t}.status.csv").read_bytes()) for t in spec["fleet"]}
        data = np.load(spec["grid"])
        X, y = data["X"], data["y"]
        self.grid_data = HorizonDataset(
            turbine_id="grid", horizon_minutes=10,
            feature_names=[f"f{i}" for i in range(X.shape[1])], features=X, labels=y,
            origins=np.arange(len(y), dtype=np.int64) * 600, class_ids=sorted({int(v) for v in y}))

    def round(self, k: int) -> dict:
        base = self.work / "rounds" / f"r{k}"
        store_dir = base / "store"
        begin, setup_cpu = time.perf_counter(), cpu_seconds()
        # program functions are looked up on their modules, where tracing wraps them
        store = ingest.TurbineStore.create(store_dir, self.manifest)
        for turbine, (ops, status) in self.csv.items():
            store.append(turbine, ingest.parse_operational_csv(ops, self.manifest.parameters, turbine))
            store.append(turbine, ingest.parse_status_csv(status, self.manifest.alarms, turbine))
        setup_s, setup_cpu_s = time.perf_counter() - begin, cpu_seconds() - setup_cpu

        plan = trainer.TrainingPlan(
            store_path=store_dir, output_dir=base / "out", start=self.spec["start"],
            end=self.spec["end"], turbines=self.spec["plan_turbines"], seed=self.spec["seed"])
        cpu0, wall0, t0 = cpu_seconds(), time.time(), time.perf_counter()
        report = trainer.run(plan)
        t1 = time.perf_counter()
        grid = metrics.grid_search(self.grid_data, self.spec["grid_trees"], self.spec["grid_depths"],
                                   seed=self.spec["seed"])
        t2, cpu1 = time.perf_counter(), cpu_seconds()
        # a model is available when its bundle lands on disk; each model's
        # latency runs from the previous model's landing (the first from the start)
        landed = sorted(o.bundle_path.stat().st_mtime_ns / 1e9 for o in report.completed)
        latencies = [(b - a) * 1e3 for a, b in zip([wall0] + landed, landed)]
        result = {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "job_s": t2 - t0,
            "train_s": t1 - t0,
            "grid_s": t2 - t1,
            "cpu_s": cpu1 - cpu0,
            "ops": len(report.outcomes) + len(grid.cells),
            "latencies_ms": latencies,
            "outcomes": [
                {"turbine": o.turbine, "horizon": o.horizon_minutes, "status": o.status,
                 "skip_reason": o.skip_reason,
                 "accuracy": o.evaluation.global_accuracy if o.evaluation else None,
                 "prevalence_max": max(o.evaluation.prevalence) if o.evaluation else None}
                for o in report.outcomes
            ],
            "patterns": {t: [sorted(p.alarm_set) for p in ps] for t, ps in report.patterns.items()},
            "grid": [[c.n_trees, c.max_depth, c.accuracy] for c in grid.cells],
        }
        shutil.rmtree(base)
        return result


class Backlog:
    """Restart the agent over a full backlog and run it as ``serve`` does until
    every committed offset reaches the end of its topic."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.work = work
        self.manifest = load_manifest(Path(spec["store"]) / MANIFEST_FILENAME)

    def _start(self, group: str, sink_dir: Path):
        broker = Broker(Path(self.spec["broker"]))
        agent = agent_mod.MonitoringAgent.start(
            Path(self.spec["models"]), broker, self.spec["turbines"], sink_dir, self.manifest, group=group)
        return broker, agent

    def round(self, k: int) -> dict:
        group = f"drain-{k}"
        sink_dir = self.work / "sinks" / f"r{k}"
        total = self.spec["messages"]
        begin, setup_cpu = time.perf_counter(), cpu_seconds()
        broker, agent = self._start(group, sink_dir)
        setup_s, setup_cpu_s = time.perf_counter() - begin, cpu_seconds() - setup_cpu
        cpu0, wall0, t0 = cpu_seconds(), time.time(), time.perf_counter()
        agent.run_threaded()
        try:
            while (agent.health()["counters"]["processed"] < total and agent.status != agent_mod.STOPPED
                   and time.perf_counter() - t0 < DRAIN_TIMEOUT_S):
                time.sleep(0.002)
            t1, cpu1 = time.perf_counter(), cpu_seconds()
        finally:
            agent.stop()
        return {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "job_s": t1 - t0,
            "cpu_s": cpu1 - cpu0,
            "ops": total,
            "start_wall": wall0,
            "sink": str(sink_dir),
            "committed": {t: broker.committed_offset(group, t) for t in self.spec["turbines"]},
            "ends": {t: broker.message_count(t) for t in self.spec["turbines"]},
            "fatal_error": agent.fatal_error,
        }

    def single_thread_baseline(self) -> float:
        """Messages per second of a one-thread ``process_available`` drain."""
        _broker, agent = self._start("single-thread", self.work / "sinks" / "single-thread")
        t0 = time.perf_counter()
        handled = agent.process_available()
        return handled / (time.perf_counter() - t0)


def _count_lines(path: Path) -> int:
    n = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            n += block.count(b"\n")
    return n


class Live:
    """Restart the agent and endpoint over a long sink history, then serve a
    separate generator process that publishes open loop and follows /stream."""

    def __init__(self, spec: dict, work: Path):
        self.spec = spec
        self.work = work
        self.manifest = load_manifest(Path(spec["store"]) / MANIFEST_FILENAME)
        self.max_rounds = spec["max_rounds"]  # the schedule holds this many rounds of records
        # the agent's process and the publisher each keep to a CPU of their
        # own: the publisher never takes the agent's CPU, and the agent's
        # threads (which inherit this CPU) never pass the interpreter lock
        # between CPUs, which under load from other tenants cost up to 30%
        # more CPU per record
        cpus = sorted(os.sched_getaffinity(0))
        self.generator_cpu = cpus[-1]
        os.sched_setaffinity(0, {cpus[0]})

    def round(self, k: int) -> dict:
        sink_dir = Path(self.spec["sink"])
        begin, setup_cpu = time.perf_counter(), cpu_seconds()
        broker = Broker(Path(self.spec["broker"]))
        agent = agent_mod.MonitoringAgent.start(
            Path(self.spec["models"]), broker, self.spec["turbines"], sink_dir, self.manifest)
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        agent.run_threaded()
        setup_s, setup_cpu_s = time.perf_counter() - begin, cpu_seconds() - setup_cpu
        out_file = self.work / f"generator-{k}.json"
        steps = self.spec["steps_per_round"]
        try:
            from_line = _count_lines(sink_dir / agent_mod.SINK_FILENAME)
            gen_result, cpu_s, timed_out = self._drive_generator(k, endpoint.address[1], from_line, out_file)
        finally:
            agent.stop()
            endpoint.stop()
            _join_other_threads(timeout=5.0)
        return {
            "setup_s": setup_s,
            "setup_cpu_s": setup_cpu_s,
            "cpu_s": cpu_s,
            "from_line": from_line,
            "first_step": k * steps,
            "steps": steps,
            "ops": steps * len(self.spec["turbines"]),
            "generator": gen_result,
            "generator_timed_out": timed_out,
            "fatal_error": agent.fatal_error,
        }

    def _drive_generator(self, k: int, port: int, from_line: int, out_file: Path):
        steps = self.spec["steps_per_round"]
        cmd = [sys.executable, str(HERE / "generator.py"),
               "--broker", self.spec["broker"], "--port", str(port),
               "--schedule", self.spec["schedule"], "--first-step", str(k * steps),
               "--steps", str(steps), "--steps-per-s", str(self.spec["steps_per_s"]),
               "--from-line", str(from_line), "--out", str(out_file), "--cpu", str(self.generator_cpu)]
        schedule_s = steps / self.spec["steps_per_s"]
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        timed_out = False
        cpu0 = cpu1 = cpu_seconds()
        try:
            if _read_line(proc, GENERATOR_READY_TIMEOUT_S) == "ready":
                # the schedule starts once the generator is connected, so its
                # start-up is neither counted as lateness nor as agent CPU
                start_at = time.time() + 0.05
                proc.stdin.write(f"{start_at!r}\n")
                proc.stdin.close()
                time.sleep(max(0.0, start_at - time.time()))
                # a window of fixed length: idle polling and /stream wake-ups
                # cost the same share in every round. The generator is not
                # reaped before the window ends, so its CPU is not counted.
                cpu0 = cpu_seconds()
                time.sleep(max(0.0, start_at + schedule_s + WINDOW_TAIL_S - time.time()))
                cpu1 = cpu_seconds()
                try:
                    proc.wait(timeout=schedule_s + 2 * GENERATOR_GRACE_S)
                except subprocess.TimeoutExpired:
                    timed_out = True
            else:
                # never started: killed below, and the round is judged failed
                timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        gen_result = None
        if not timed_out and out_file.exists():
            gen_result = json.loads(out_file.read_text(encoding="utf-8"))
        return gen_result, cpu1 - cpu0, timed_out


def _read_line(proc: subprocess.Popen, timeout: float) -> str | None:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            return None
    return proc.stdout.readline().strip()


def _join_other_threads(timeout: float) -> None:
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(max(0.0, deadline - time.monotonic()))


def leftovers() -> list[str]:
    """Threads and child processes of this process still alive."""
    _join_other_threads(timeout=5.0)
    found = [f"thread {t.name}" for t in threading.enumerate() if t is not threading.main_thread()]
    task_dir = Path("/proc/self/task")
    if task_dir.is_dir():
        for task in task_dir.iterdir():
            children = (task / "children")
            if children.exists():
                found += [f"process {pid}" for pid in children.read_text().split()]
    return found


RUNNERS = {"offline-build": Offline, "backlog-drain": Backlog, "live-dashboard": Live}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    work = Path(args.work)
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))  # written by inputs.prepare
    runner = RUNNERS[args.workload](spec, work)
    tracer = Tracer() if args.trace else None
    min_rounds = 2 if tracer else 1

    rounds = []
    begin = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - begin < args.seconds:
        if len(rounds) >= getattr(runner, "max_rounds", float("inf")):
            break
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            result = runner.round(len(rounds))
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        if traced:
            result["layers"] = tracer.layer_metrics()
        rounds.append(result)
        # what a round leaves in reference cycles (its agent, threads and their
        # sink reads) would otherwise still be alive in the next round and
        # lift the peak memory of some runs by about 10 MB
        gc.collect()

    doc = {"rounds": rounds}
    if tracer is not None:
        if isinstance(runner, Backlog):
            doc["single_thread_msgs_per_s"] = runner.single_thread_baseline()
        tracer.reset()
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    doc["leftovers"] = leftovers()
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (work / "result.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
