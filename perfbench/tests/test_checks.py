"""Each benchmark check passes on the program's real output and fails on a
wrong one. The workloads run at a reduced size; nothing here is a timing gate.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

SMALL = {
    "offline-build": {"fleet_turbines": 2, "days": 3, "plan_turbines": 1, "grid_rows": 400,
                      "grid_trees": [2, 4], "grid_depths": [2, 12]},
    "backlog-drain": {"turbines": 2, "days": 2},
    "live-dashboard": {"turbines": 2, "history_days": 1, "steps_per_s": 4, "round_seconds": 1},
}
SECONDS = 0.1


def _run(workload: str, work: Path, seed: int, trace: int) -> tuple[dict, dict]:
    spec = inputs.prepare(workload, work, seed, SECONDS, inputs.SIZES[workload](**SMALL[workload]))
    trace_out = work / "trace.json" if trace else None
    result = run.run_worker(workload, work, SECONDS, trace, trace_out)
    return spec, result


@pytest.fixture(scope="module")
def offline(tmp_path_factory):
    return _run("offline-build", tmp_path_factory.mktemp("offline-build"), 5, trace=0)


@pytest.fixture(scope="module")
def backlog(tmp_path_factory):
    return _run("backlog-drain", tmp_path_factory.mktemp("backlog-drain"), 5, trace=0)


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    return _run("live-dashboard", tmp_path_factory.mktemp("live-dashboard"), 5, trace=0)


# -- offline-build ------------------------------------------------------------

def test_offline_output_passes(offline):
    spec, result = offline
    verdict = run.judge_offline(spec, result)
    assert verdict["errors"] == [] and verdict["failed"] == 0
    assert result["leftovers"] == []


def test_mined_patterns_differing_from_planted_fail(offline):
    spec, result = offline
    truth = json.loads(Path(spec["ground_truth"]).read_text())
    planted = [p["alarms"] for p in truth["patterns"]]
    mined = result["rounds"][0]["patterns"]
    assert checks.check_patterns(mined, planted, spec["plan_turbines"]) == []
    turbine = spec["plan_turbines"][0]
    for wrong in (mined[turbine][:1], mined[turbine] + [["YawTqAsym"]],
                  [sorted(set(mined[turbine][0]) | {"YawTqAsym"})] + mined[turbine][1:]):
        assert checks.check_patterns({turbine: wrong}, planted, spec["plan_turbines"])


def test_model_missing_or_below_majority_fails(offline):
    spec, result = offline
    truth = json.loads(Path(spec["ground_truth"]).read_text())
    outcomes = result["rounds"][0]["outcomes"]
    horizons = [10, 20, 30, 40, 50, 60]
    assert checks.check_models(outcomes, truth["labels"], spec["plan_turbines"], horizons) == ([], 0)
    errors, failed = checks.check_models(outcomes[1:], truth["labels"], spec["plan_turbines"], horizons)
    assert errors and failed == 1
    weak = [dict(o, accuracy=o["prevalence_max"]) if i == 0 else o for i, o in enumerate(outcomes)]
    errors, failed = checks.check_models(weak, truth["labels"], spec["plan_turbines"], horizons)
    assert errors and failed == 0


def test_grid_where_shallow_beats_deep_fails(offline):
    spec, result = offline
    cells = result["rounds"][0]["grid"]
    trees, depths = spec["grid_trees"], spec["grid_depths"]
    assert checks.check_grid(cells, trees, depths) == ([], 0)
    acc = {(n, d): a for n, d, a in cells}
    swapped = [[n, d, acc[(n, depths[-1] if d == depths[0] else depths[0])]] for n, d, _a in cells]
    errors, _ = checks.check_grid(swapped, trees, depths)
    assert errors
    errors, failed = checks.check_grid(cells[1:], trees, depths)
    assert errors and failed == 1


# -- backlog-drain and live-dashboard notifications ---------------------------

def _backlog_lines(spec, result):
    from windpdm.manifest import load_manifest
    store = Path(spec["store"])
    params = load_manifest(store / "manifest.txt").parameters
    expected = checks.expected_notifications(Path(spec["models"]), params,
                                             run._records_of_store(store, spec["turbines"]))
    lines = (Path(result["rounds"][0]["sink"]) / "notifications.jsonl").read_text().splitlines()
    return expected, lines


def test_backlog_output_passes(backlog):
    spec, result = backlog
    verdict = run.judge_backlog(spec, result)
    assert verdict["errors"] == [] and verdict["failed"] == 0
    assert verdict["attempted"] == spec["messages"] * len(result["rounds"])
    assert result["leftovers"] == []


def test_dropped_notification_fails(backlog):
    expected, lines = _backlog_lines(*backlog)
    errors, failed, _ = checks.check_notifications(lines[:5] + lines[6:], expected)
    assert errors and failed == 1


def test_duplicated_notification_fails(backlog):
    expected, lines = _backlog_lines(*backlog)
    errors, failed, _ = checks.check_notifications(lines + [lines[3]], expected)
    assert errors and failed == 1


@pytest.mark.parametrize("field", ["class", "vote_fraction"])
def test_misvoted_notification_fails(backlog, field):
    expected, lines = _backlog_lines(*backlog)
    doc = json.loads(lines[7])
    vote = doc["horizons"]["30"]
    vote[field] = vote[field] + 1 if field == "class" else vote[field] - 1.0 / 40
    errors, failed, _ = checks.check_notifications(lines[:7] + [json.dumps(doc)] + lines[8:], expected)
    assert errors and failed == 0


def test_notification_missing_a_horizon_fails(backlog):
    expected, lines = _backlog_lines(*backlog)
    doc = json.loads(lines[0])
    del doc["horizons"]["60"]
    errors, _failed, _ = checks.check_notifications([json.dumps(doc)] + lines[1:], expected)
    assert errors


def test_dead_letter_fails(tmp_path):
    path = tmp_path / "dead_letter.jsonl"
    assert checks.check_dead_letter(path) == []
    path.write_text('{"error": "x"}\n')
    assert checks.check_dead_letter(path)


def test_live_output_passes(live):
    spec, result = live
    verdict = run.judge_live(spec, result)
    assert verdict["errors"] == [] and verdict["failed"] == 0
    assert len(verdict["latencies_ms"]) == verdict["attempted"]
    assert result["leftovers"] == []


def test_live_schedule_repeats_for_a_seed(tmp_path):
    def schedule(seed, name):
        spec = inputs.prepare("live-dashboard", tmp_path / name, seed, SECONDS,
                              inputs.LiveSizes(**SMALL["live-dashboard"]))
        return json.loads(Path(spec["schedule"]).read_text())

    first, again, other = schedule(3, "a"), schedule(3, "b"), schedule(4, "c")
    assert first == again
    assert first["phase"] != other["phase"]
    assert len(first["phase"]) == len(first["steps"])
    assert all(0.0 <= p < 1.0 for p in first["phase"])


def _stream_case(spec, result):
    gen = result["rounds"][-1]["generator"]
    received = [line for _arrival, line in gen["received"]]
    keys = {(d["turbine"], d["t"]) for d in map(json.loads, received)}
    sink = (Path(spec["sink"]) / "notifications.jsonl").read_text().splitlines()
    earlier_lines = sink[:result["rounds"][-1]["from_line"]]
    earlier = {(d["turbine"], d["t"]) for d in map(json.loads, earlier_lines)}
    return received, keys, earlier, earlier_lines


def test_history_line_sent_again_on_stream_fails(live):
    received, keys, earlier, earlier_lines = _stream_case(*live)
    assert checks.check_stream(received, keys, earlier) == ([], 0)
    errors, _ = checks.check_stream([earlier_lines[-1]] + received, keys, earlier)
    assert errors


def test_stream_loss_duplicate_and_disorder_fail(live):
    received, keys, earlier, _ = _stream_case(*live)
    assert checks.check_stream(received[1:], keys, earlier)[1] == 1
    assert checks.check_stream(received + received[:1], keys, earlier)[1] == 1
    by_turbine = [line for line in received if json.loads(line)["turbine"] == "T01"]
    errors, _ = checks.check_stream(list(reversed(by_turbine)), keys, earlier)
    assert any("out of order" in e for e in errors)


# -- the benchmark's declaration ---------------------------------------------

def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == LAYER_METRICS
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "results"))
    import subprocess
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "backlog-drain",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    spec, result = _run(workload, tmp_path, 2, trace=1)
    verdict = run.JUDGES[workload](spec, result)
    assert verdict["errors"] == [] and verdict["failed"] == 0
    assert result["leftovers"] == []
    metrics = run.per_layer(workload, spec, result, verdict)
    assert {name for name, _unit in LAYER_METRICS} <= set(metrics)
    assert metrics["tracing.spans"] > 0
    assert (tmp_path / "trace.json").is_file()


def test_live_round_whose_generator_died_is_counted_failed(live):
    spec, result = live
    dead = dict(result["rounds"][0], generator=None, generator_timed_out=True)
    broken = dict(result, rounds=[dead] + result["rounds"][1:])
    verdict = run.judge_live(spec, broken)
    assert verdict["errors"] and verdict["failed"] >= dead["steps"] * len(spec["turbines"])
    for report in (run.end_to_end, run.per_layer):
        assert report("live-dashboard", spec, broken, verdict)
