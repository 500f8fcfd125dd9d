"""Spans around the public functions of each windpdm module.

The program's source is not edited: ``Tracer.install`` replaces each public
function and method with a wrapper, in every windpdm module that refers to
it (``agent`` imports ``predict`` from ``forest``, so the wrapper goes into
``windpdm.agent`` as well as ``windpdm.forest``), and ``uninstall`` puts the
originals back. A span records name, start, end, parent span and thread. Spans
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ["ingest", "features", "patterns", "dataset", "forest", "model_io",
           "metrics", "broker", "agent", "endpoint", "trainer"]
# classes whose public methods are layer boundaries; record types, reports and
# DecisionTree (40 walks per prediction) are left out to keep the cost down
CLASSES = {"TurbineStore", "Broker", "NotificationSink", "MonitoringAgent",
           "AgentEndpoint", "_Handler"}
EXTRA_METHODS = {"__init__", "do_GET"}  # Broker/agent start-up, the HTTP entry point

PROCESS = "agent.MonitoringAgent.process_message"
HANDLER = "endpoint._Handler.do_GET"

# every per-layer metric, in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("ingest.csv_parse_ms", "ms"),
    ("ingest.append_ms", "ms"),
    ("ingest.scan_ms", "ms"),
    ("ingest.parse_row_us", "us"),
    ("features.select_ms", "ms"),
    ("patterns.mine_ms", "ms"),
    ("dataset.label_split_ms", "ms"),
    ("forest.train_ms", "ms"),
    ("forest.trees_grown", "count"),
    ("forest.nodes_grown", "count"),
    ("forest.nodes_per_s", "1/s"),
    ("forest.predict_batch_rows_per_s", "1/s"),
    ("forest.predict_calls", "count"),
    ("forest.predict_us", "us"),
    ("model_io.save_ms", "ms"),
    ("model_io.load_ms", "ms"),
    ("model_io.bundle_bytes", "B"),
    ("metrics.grid_cells", "count"),
    ("metrics.grid_cell_s_sum", "s"),
    ("broker.open_ms", "ms"),
    ("broker.publish_ms", "ms"),
    ("broker.polls", "count"),
    ("broker.poll_hit_ratio", "ratio"),
    ("broker.poll_ms", "ms"),
    ("broker.commit_ms", "ms"),
    ("agent.load_bundles_ms", "ms"),
    ("agent.dedupe_rebuild_ms", "ms"),
    ("agent.batch_msgs", "count"),
    ("agent.process_message_us", "us"),
    ("agent.sink_append_ms", "ms"),
    ("agent.publish_to_emit_ms", "ms"),
    ("agent.single_thread_msgs_per_s", "msg/s"),
    ("endpoint.sink_reads", "count"),
    ("endpoint.sink_bytes_read_per_msg", "B"),
    ("endpoint.emit_to_client_ms", "ms"),
    ("load.late_ms_p50", "ms"),
    ("load.late_ms_max", "ms"),
    ("workload.setup_wall_s", "s"),
    ("workload.job_s", "s"),
    ("workload.latency_p50_ms", "ms"),
    ("workload.train_s", "s"),
    ("workload.grid_s", "s"),
    ("workload.drain_msgs_per_s", "msg/s"),
    ("workload.dashboard_p99_ms", "ms"),
    ("workload.dashboard_samples", "count"),
] + [(f"self_ms.{m}", "ms") for m in MODULES] + [
    ("tracing.spans", "count"),
    ("tracing.overhead_pct", "%"),
]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.archive: list[tuple] = []  # spans of earlier rounds
        self.spans: list[tuple] = []
        self.threads: dict[int, str] = {}
        self.reset()

    def reset(self) -> None:
        """Start a new round; the spans recorded so far are kept for ``write``."""
        self.archive.extend(self.spans)
        self.spans = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        ident = threading.get_ident()
        if ident not in self.threads:
            self.threads[ident] = threading.current_thread().name
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else (0, "")
            stack.append((sid, name))
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
            if inspect.isgenerator(result):
                return tracer._iterate(sid, parent[0], name, start, result)
            tracer.spans.append((sid, parent[0], name, start, end, threading.get_ident(), cpu))
            if observe is not None:
                observe(tracer, args, result, parent[1])
            return result

        return wrapper

    def _iterate(self, sid, parent, name, start, gen):
        """A lazy scan: the span covers the call and the whole iteration."""
        stack = self._stack()
        cpu = 0.0
        try:
            while True:
                stack.append((sid, name))
                began = time.thread_time()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    cpu += time.thread_time() - began
                    stack.pop()
                yield item
        finally:
            self.spans.append((sid, parent, name, start, time.perf_counter(), threading.get_ident(), cpu))

    def count(self, key: str, by: float = 1) -> None:
        with self._lock:
            self.counts[key] += by

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = {m: importlib.import_module(f"windpdm.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and attr in CLASSES:
                    self._patch_class(short, obj)
        # replace every module-level reference, so names imported by value are covered
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and inspect.isfunction(obj):
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _patch_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in EXTRA_METHODS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                replacement = self._wrap(name, obj)
            elif isinstance(obj, classmethod):
                replacement = classmethod(self._wrap(name, obj.__func__))
            else:
                continue
            self._patches.append((cls, attr, obj))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the spans recorded since the last reset."""
        names = {span[0]: span[2] for span in self.spans}
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        under_process: dict[str, list[float]] = defaultdict(list)
        child_cpu: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, _t, cpu in self.spans:
            total[name] += end - start
            calls[name] += 1
            child_cpu[parent] += cpu
            if names.get(parent) == PROCESS:
                under_process[name].append(end - start)
        # self time in CPU seconds of the span's thread: with 17 agent threads
        # sharing the interpreter lock, wall-clock spans mostly measure waiting
        self_ms: dict[str, float] = defaultdict(float)
        for sid, _p, name, _s, _e, _t, cpu in self.spans:
            self_ms[name.split(".", 1)[0]] += (cpu - child_cpu.get(sid, 0.0)) * 1e3

        def ms(*span_names):
            return sum(total[n] for n in span_names) * 1e3

        def mean_ms(span_name):
            return total[span_name] * 1e3 / calls[span_name] if calls[span_name] else 0.0

        c = self.counts
        train_s = total["forest.train_forest"]
        batch_s = total["forest.predict_batch"]
        agent_polls = self.samples["agent.batch"]
        out = {
            "ingest.csv_parse_ms": ms("ingest.parse_operational_csv", "ingest.parse_status_csv"),
            "ingest.append_ms": ms("ingest.TurbineStore.append"),
            "ingest.scan_ms": ms("ingest.TurbineStore.scan_operational", "ingest.TurbineStore.scan_status"),
            "ingest.parse_row_us": _mean_us(under_process["ingest.parse_operational_row"]),
            "features.select_ms": ms("features.select_parameters"),
            "patterns.mine_ms": ms("patterns.build_transactions", "patterns.mine_patterns",
                                   "patterns.build_class_timeline"),
            "dataset.label_split_ms": ms("dataset.label_records", "dataset.stratified_split"),
            "forest.train_ms": train_s * 1e3,
            "forest.trees_grown": c["trees"],
            "forest.nodes_grown": c["nodes"],
            "forest.nodes_per_s": c["nodes"] / train_s if train_s else 0.0,
            "forest.predict_batch_rows_per_s": c["batch_rows"] / batch_s if batch_s else 0.0,
            "forest.predict_calls": len(under_process["forest.predict"]),
            "forest.predict_us": _mean_us(under_process["forest.predict"]),
            "model_io.save_ms": ms("model_io.save_model"),
            "model_io.load_ms": ms("model_io.load_model"),
            "model_io.bundle_bytes": c["bundle_bytes"] / c["bundles"] if c["bundles"] else 0.0,
            "metrics.grid_cells": c["grid_cells"],
            "metrics.grid_cell_s_sum": c["grid_cell_s"],
            "broker.open_ms": ms("broker.Broker.__init__"),
            "broker.polls": calls["broker.Broker.poll"],
            "broker.poll_hit_ratio": (c["poll_hits"] / calls["broker.Broker.poll"]
                                      if calls["broker.Broker.poll"] else 0.0),
            "broker.poll_ms": mean_ms("broker.Broker.poll"),
            "broker.commit_ms": mean_ms("broker.Broker.commit"),
            "agent.load_bundles_ms": ms("agent.load_turbine_bundles"),
            "agent.dedupe_rebuild_ms": ms("agent.MonitoringAgent.__init__"),
            "agent.batch_msgs": sum(agent_polls) / len(agent_polls) if agent_polls else 0.0,
            "agent.process_message_us": mean_ms(PROCESS) * 1e3,
            "agent.sink_append_ms": mean_ms("agent.NotificationSink.append_lines"),
            "agent.publish_to_emit_ms": _median(self.samples["publish_to_emit_ms"]),
            "endpoint.sink_reads": c["stream_reads"],
            "tracing.spans": len(self.spans),
        }
        out.update({f"self_ms.{m}": self_ms.get(m, 0.0) for m in MODULES})
        out["_stream_bytes"] = c["stream_bytes"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["id", "parent", "name", "start", "end", "thread", "thread_cpu_s"],
               "threads": {str(k): v for k, v in self.threads.items()},
               "spans": self.archive + self.spans}
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, path)


def _mean_us(durations: list[float]) -> float:
    return sum(durations) * 1e6 / len(durations) if durations else 0.0


# -- counts taken from arguments and results at the same boundaries ----------

def _trained(tracer, args, forest, parent):
    tracer.count("trees", len(forest.trees))
    tracer.count("nodes", sum(len(t.feature) for t in forest.trees))


def _batch(tracer, args, result, parent):
    tracer.count("batch_rows", len(result))


def _bundle_file(tracer, args, result, parent):
    tracer.count("bundles")
    tracer.count("bundle_bytes", os.path.getsize(args[1] if len(args) > 1 else args[0]))


def _poll(tracer, args, msgs, parent):
    if msgs:
        tracer.count("poll_hits")
        if threading.current_thread().name.startswith("agent-") or parent == "agent.MonitoringAgent.process_available":
            tracer.samples["agent.batch"].append(len(msgs))


def _processed(tracer, args, result, parent):
    emitted = getattr(result, "emitted_at", None)
    if emitted is not None:
        tracer.samples["publish_to_emit_ms"].append((emitted - args[1].timestamp) * 1e3)


def _sink_read(tracer, args, result, parent):
    if parent == HANDLER:
        tracer.count("stream_reads")
        tracer.count("stream_bytes", os.path.getsize(args[0].path))


def _grid(tracer, args, result, parent):
    tracer.count("grid_cells", len(result.cells))
    tracer.count("grid_cell_s", sum(c.seconds for c in result.cells))


_OBSERVERS = {
    "forest.train_forest": _trained,
    "forest.predict_batch": _batch,
    "model_io.save_model": _bundle_file,
    "model_io.load_model": _bundle_file,
    "broker.Broker.poll": _poll,
    PROCESS: _processed,
    "agent.NotificationSink.read_lines": _sink_read,
    "metrics.grid_search": _grid,
}
