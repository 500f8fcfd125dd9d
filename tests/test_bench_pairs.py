import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BENCHMARK = {"end_to_end": [
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]}


def _run(pair, side, cpu, rate, correct=True, failed=0):
    return {"pair": pair, "side": side, "workload": "w", "seed": pair + 1, "exit_code": 0,
            "result": {"correct": correct, "attempted": 10, "failed": failed, "metrics": {
                "cpu_ms_per_op": {"value": cpu, "unit": "ms"},
                "rate": {"value": rate, "unit": "1/s"}}}}


@pytest.fixture
def doc():
    runs = []
    # parent cpu 1, 2, 3, 4 (median 2.5, IQR 1.75-3.25); change cpu 1.5, 1, 2, 10
    for pair, (p, c) in enumerate([(1.0, 1.5), (2.0, 1.0), (3.0, 2.0), (4.0, 10.0)]):
        runs.append(_run(pair, "parent", p, 100.0))
        runs.append(_run(pair, "change", c, 80.0, failed=2 if pair == 3 else 0))
    runs.append({"pair": 4, "side": "parent", "workload": "w", "seed": 5, "exit_code": 1,
                 "result": None})
    return {"machine": {}, "command": "", "runs": runs}


def test_metric_lines(doc):
    lines = bench_pairs.summarize(doc, BENCHMARK)
    assert lines[0] == (
        "w cpu_ms_per_op: parent 2.5 | change 1.75 ms (-30.0%); "
        "parent IQR 1.75-3.25 (60.0% of median); "
        "change won 2, lost 2 of 4 pairs; within bound 0.25")
    # higher is better: a 20% drop is worse than the 0.1 bound
    assert lines[1] == (
        "w rate: parent 100 | change 80 1/s (-20.0%); "
        "parent IQR 100-100 (0.0% of median); "
        "change won 0, lost 4 of 4 pairs; OUTSIDE bound 0.1")


def test_bad_runs_are_listed(doc):
    lines = bench_pairs.summarize(doc, BENCHMARK)
    assert lines[2:] == [
        "pair 3 change w seed 4: correct=True, failed 2 of 10",
        "pair 4 parent w seed 5: exit code 1, no result",
    ]


def test_a_side_without_runs_is_named():
    doc = {"runs": [_run(0, "parent", 1.0, 1.0)]}
    assert bench_pairs.summarize(doc, BENCHMARK) == [
        "w cpu_ms_per_op: no runs on the change",
        "w rate: no runs on the change",
    ]


def test_each_workload_alternates_which_side_runs_first(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    ran = []

    def fake_run(checkout, workload, seed, seconds):
        ran.append((workload, seed, checkout.name))
        return {"exit_code": 0, "result": None}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--out", str(out), "--workloads"]
    bench_pairs.main(argv + ["backlog-drain", "live-dashboard", "--seeds", "1", "2"])
    bench_pairs.main(argv + ["live-dashboard", "--seeds", "3"])  # extends the file
    firsts = {}
    for workload, seed, side in ran[::2]:
        firsts.setdefault(workload, []).append(side)
    assert firsts == {"backlog-drain": ["parent", "change"],
                      "live-dashboard": ["parent", "change", "parent"]}
