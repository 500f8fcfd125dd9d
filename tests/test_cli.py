import json
import subprocess
import sys

import pytest

from windpdm.cli import _parse_range_spec, main
from windpdm.timeutil import format_rfc3339

from conftest import T0


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_store(tmp_path):
    out = tmp_path / "store"
    assert run_cli("synth", "--out", str(out), "--turbines", "1", "--days", "4",
                   "--seed", "11") == 0
    return out


@pytest.fixture
def trained(tmp_path, synth_store):
    plan = tmp_path / "plan.conf"
    plan.write_text(
        f"store_path = {synth_store}\n"
        f"output_dir = {tmp_path / 'out'}\n"
        "start = 2015-01-01T00:00:00Z\n"
        "end = 2015-01-05T00:00:00Z\n"
        "n_trees = 5\nmax_depth = 5\nseed = 2\nkeep_datasets = true\n")
    assert run_cli("train", "--plan", str(plan)) == 0
    return tmp_path / "out"


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run_cli("ingest") == 1  # missing required flags
        assert "error: usage:" in capsys.readouterr().err

    def test_unknown_command_is_1(self):
        assert run_cli("frobnicate") == 1

    def test_data_error_is_2(self, tmp_path, capsys):
        assert run_cli("mine-patterns", "--store", str(tmp_path / "nope"),
                       "--turbine", "T01",
                       "--start", "2015-01-01T00:00:00Z",
                       "--end", "2015-01-02T00:00:00Z") == 2
        assert "error: data:" in capsys.readouterr().err

    def test_runtime_error_is_3(self, capsys):
        assert run_cli("status", "--endpoint", "http://127.0.0.1:1") == 3
        assert "error: runtime:" in capsys.readouterr().err


class TestPipelineCommands:
    def test_train_writes_six_bundles(self, trained):
        models = sorted((trained / "models" / "T01").iterdir())
        assert len(models) == 6

    def test_select_features_report(self, synth_store, tmp_path, capsys):
        assert run_cli("select-features", "--store", str(synth_store),
                       "--turbine", "T01",
                       "--start", "2015-01-01T00:00:00Z",
                       "--end", "2015-01-05T00:00:00Z",
                       "--out", str(tmp_path / "sel")) == 0
        out = capsys.readouterr().out
        assert "final parameters" in out
        assert (tmp_path / "sel" / "selection_T01.json").exists()

    def test_mine_patterns_lists_classes(self, synth_store, capsys):
        assert run_cli("mine-patterns", "--store", str(synth_store),
                       "--turbine", "T01",
                       "--start", "2015-01-01T00:00:00Z",
                       "--end", "2015-01-05T00:00:00Z") == 0
        out = capsys.readouterr().out
        assert "Class 0: Normal" in out
        assert "Class 1:" in out

    def test_evaluate_dataset_against_bundle(self, trained, capsys):
        model = trained / "models" / "T01" / "horizon_10.model"
        dataset = trained / "datasets" / "T01" / "horizon_10.csv"
        assert run_cli("evaluate", "--model", str(model), "--dataset", str(dataset)) == 0
        out = capsys.readouterr().out
        assert "global_accuracy" in out

    def test_evaluate_dump(self, trained, capsys):
        model = trained / "models" / "T01" / "horizon_10.model"
        assert run_cli("evaluate", "--model", str(model), "--dataset", "unused",
                       "--dump") == 0
        assert "model bundle: turbine T01" in capsys.readouterr().out

    def test_grid_search_writes_cells(self, trained, tmp_path):
        dataset = trained / "datasets" / "T01" / "horizon_10.csv"
        out = tmp_path / "grid.csv"
        assert run_cli("grid-search", "--dataset", str(dataset),
                       "--trees", "2,4", "--depth", "3,5", "--seed", "1",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5

    def test_ingest_round_trip(self, tmp_path, synth_store, capsys):
        ops = tmp_path / "ops.csv"
        store_params = (synth_store / "manifest.txt").read_text().splitlines()[0]
        params = store_params.split("[")[1].rstrip("]").split(", ")
        header = "timestamp," + ",".join(params)
        t = T0 + 30 * 86400
        ops.write_text(header + "\n" + format_rfc3339(t) + "," +
                       ",".join(["1.0"] * len(params)) + "\n")
        assert run_cli("ingest", "--store", str(synth_store), "--turbine", "T01",
                       "--operational", str(ops)) == 0
        assert "appended 1 records" in capsys.readouterr().out


class TestConfigPrecedence:
    def test_env_overrides_config_file(self, synth_store, tmp_path, capsys, monkeypatch):
        config = tmp_path / "conf"
        config.write_text("min-support = 0.5\n")
        monkeypatch.setenv("WINDPDM_MIN_SUPPORT", "0.01")
        assert run_cli("--config", str(config), "mine-patterns",
                       "--store", str(synth_store), "--turbine", "T01",
                       "--start", "2015-01-01T00:00:00Z",
                       "--end", "2015-01-05T00:00:00Z") == 0
        # 0.01 finds the 5%-occupancy pattern that 0.5 would reject
        assert "Class 2:" in capsys.readouterr().out

    def test_flag_overrides_env(self, synth_store, capsys, monkeypatch):
        monkeypatch.setenv("WINDPDM_MAX_PATTERNS", "1")
        assert run_cli("mine-patterns", "--store", str(synth_store),
                       "--turbine", "T01",
                       "--start", "2015-01-01T00:00:00Z",
                       "--end", "2015-01-05T00:00:00Z",
                       "--max-patterns", "5") == 0
        assert "Class 2:" in capsys.readouterr().out


class TestSkipInvalid:
    """--skip-invalid resolves like every option: flag > env > config file."""

    @pytest.fixture
    def stale_rows(self, tmp_path, synth_store):
        # one row before the stored history: out of order
        store_params = (synth_store / "manifest.txt").read_text().splitlines()[0]
        params = store_params.split("[")[1].rstrip("]").split(", ")
        ops = tmp_path / "ops.csv"
        ops.write_text("timestamp," + ",".join(params) + "\n" + format_rfc3339(T0) + "," +
                       ",".join(["1.0"] * len(params)) + "\n")
        return ["ingest", "--store", str(synth_store), "--turbine", "T01", "--operational", str(ops)]

    def test_flag_skips(self, stale_rows, capsys):
        assert run_cli(*stale_rows, "--skip-invalid") == 0
        assert "appended 0 records (1 skipped)" in capsys.readouterr().out

    def test_env_true_skips(self, stale_rows, capsys, monkeypatch):
        monkeypatch.setenv("WINDPDM_SKIP_INVALID", "true")
        assert run_cli(*stale_rows) == 0
        assert "appended 0 records (1 skipped)" in capsys.readouterr().out

    def test_config_true_skips(self, stale_rows, tmp_path, capsys):
        config = tmp_path / "conf"
        config.write_text("skip-invalid = true\n")
        assert run_cli("--config", str(config), *stale_rows) == 0
        assert "appended 0 records (1 skipped)" in capsys.readouterr().out

    def test_env_false_rejects(self, stale_rows, capsys, monkeypatch):
        monkeypatch.setenv("WINDPDM_SKIP_INVALID", "false")
        assert run_cli(*stale_rows) == 2
        assert "error: data:" in capsys.readouterr().err

    def test_env_other_word_is_a_data_error(self, stale_rows, capsys, monkeypatch):
        monkeypatch.setenv("WINDPDM_SKIP_INVALID", "maybe")
        assert run_cli(*stale_rows) == 2
        assert "expected true or false, got 'maybe'" in capsys.readouterr().err


class TestRangeSpec:
    def test_step_form(self):
        assert _parse_range_spec("5..100:5") == list(range(5, 101, 5))

    def test_comma_form(self):
        assert _parse_range_spec("5,10,20") == [5, 10, 20]

    def test_full_grid_sizes(self):
        assert len(_parse_range_spec("5..100:5")) == 20
        assert len(_parse_range_spec("5..30:5")) == 6


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "windpdm", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "synth" in proc.stdout
        assert "grid-search" in proc.stdout

    def test_serve_simulate_status_round_trip(self, tmp_path, trained, synth_store):
        import signal
        import socket
        import time
        import urllib.request

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        server = subprocess.Popen(
            [sys.executable, "-m", "windpdm", "serve",
             "--store", str(synth_store),
             "--models", str(trained / "models"),
             "--broker", str(tmp_path / "broker"),
             "--sink", str(tmp_path / "sink"),
             "--port", str(port)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            health_url = f"http://127.0.0.1:{port}/health"
            deadline = time.time() + 15
            doc = None
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(health_url, timeout=1) as resp:
                        doc = json.loads(resp.read())
                    break
                except OSError:
                    time.sleep(0.1)
            assert doc is not None and doc["status"] == "Ready"

            assert run_cli("simulate", "--store", str(synth_store),
                           "--broker", str(tmp_path / "broker"),
                           "--days", "1", "--speedup", "max") == 0
            deadline = time.time() + 15
            while time.time() < deadline:
                with urllib.request.urlopen(health_url, timeout=1) as resp:
                    doc = json.loads(resp.read())
                if doc["counters"]["notifications"] >= 144:
                    break
                time.sleep(0.1)
            assert doc["counters"]["notifications"] == 144  # one synth turbine-day

            assert run_cli("status", "--endpoint", f"http://127.0.0.1:{port}") == 0
        finally:
            server.send_signal(signal.SIGINT)
            try:
                out, _ = server.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                server.kill()
                out, _ = server.communicate()
        assert server.returncode == 0, out
        assert "serving:" in out
