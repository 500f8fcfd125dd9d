import json
import subprocess
import sys

import pytest

from windpdm import cli
from windpdm.cli import _parse_range_spec, main
from windpdm.ingest import TurbineStore
from windpdm.manifest import parse_bool
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

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--alarms", "3"], "need n_alarms >= 4"),
        (["synth", "--parameters", "5"], "need at least 8 parameters"),
    ])
    def test_bad_synth_value_is_2(self, tmp_path, capsys, argv, message):
        assert run_cli(*argv, "--out", str(tmp_path / "x")) == 2
        assert capsys.readouterr().err.startswith(f"error: data: {message}")

    @pytest.mark.parametrize("extra, message", [
        (["--min-support", "2"], "min_support must be in (0, 1]"),
        (["--start", "2015-01-01T00:05:00Z"], "range bounds must be 10-minute aligned"),
    ])
    def test_bad_mining_value_is_2(self, synth_store, capsys, extra, message):
        mine = ["mine-patterns", "--store", str(synth_store), "--turbine", "T01",
                "--start", "2015-01-01T00:00:00Z", "--end", "2015-01-05T00:00:00Z"]
        assert run_cli(*mine, *extra) == 2
        assert capsys.readouterr().err.startswith(f"error: data: {message}")

    def test_bad_speedup_is_2(self, synth_store, tmp_path, capsys):
        assert run_cli("simulate", "--store", str(synth_store), "--broker", str(tmp_path / "b"),
                       "--speedup", "0") == 2
        assert capsys.readouterr().err.startswith("error: data: speedup must be positive")

    def test_csv_that_is_not_utf8_is_2(self, synth_store, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"timestamp,alarm_code,kind\n2015-01-01T00:03:21Z,Caf\xe9,A\n")
        assert run_cli("ingest", "--store", str(synth_store), "--turbine", "T01",
                       "--status", str(bad)) == 2
        assert capsys.readouterr().err.startswith("error: data: byte 50: not UTF-8")

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

    @pytest.mark.parametrize("start, end, rows", [
        ("2016-01-01T00:00:00Z", "2016-01-02T00:00:00Z", 0),
        ("2015-01-04T23:50:00Z", "2015-01-05T00:00:00Z", 1),
    ])
    def test_select_features_on_too_few_rows_is_2(self, synth_store, capsys, start, end, rows):
        assert run_cli("select-features", "--store", str(synth_store), "--turbine", "T01",
                       "--start", start, "--end", end) == 2
        assert capsys.readouterr().err == f"error: data: only {rows} operational rows in range\n"

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

    def test_evaluate_dump_needs_no_dataset(self, trained, capsys):
        model = trained / "models" / "T01" / "horizon_10.model"
        assert run_cli("evaluate", "--model", str(model), "--dump") == 0
        assert "model bundle: turbine T01" in capsys.readouterr().out
        assert run_cli("evaluate", "--model", str(model)) == 1
        assert "evaluate needs --dataset" in capsys.readouterr().err

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


class TestStagesAgreeWithTrain:
    def test_default_reports_are_the_same_text(self, synth_store, tmp_path, capsys):
        # each stage default lives once, in the library; the stage commands
        # and a plan that names no stage key must therefore agree
        window = ["--store", str(synth_store), "--turbine", "T01",
                  "--start", "2015-01-01T00:00:00Z", "--end", "2015-01-05T00:00:00Z"]
        assert run_cli("select-features", *window) == 0
        selection = capsys.readouterr().out
        assert run_cli("mine-patterns", *window) == 0
        patterns = capsys.readouterr().out
        plan = tmp_path / "plan.conf"
        plan.write_text(
            f"store_path = {synth_store}\noutput_dir = {tmp_path / 'out'}\n"
            "start = 2015-01-01T00:00:00Z\nend = 2015-01-05T00:00:00Z\n"
            "n_trees = 2\nmax_depth = 2\n")
        assert run_cli("train", "--plan", str(plan)) == 0
        reports = tmp_path / "out" / "reports"
        assert (reports / "selection_T01.txt").read_text() == selection
        assert (reports / "patterns_T01.txt").read_text() == patterns

    def test_out_files_are_the_train_reports(self, synth_store, tmp_path):
        # one stage function and one writer each: with the plan's range and
        # thresholds, the stage commands write the train reports byte for byte
        window = ["--store", str(synth_store), "--turbine", "T01",
                  "--start", "2015-01-01T00:00:00Z", "--end", "2015-01-04T00:00:00Z"]
        plan = tmp_path / "plan.conf"
        plan.write_text(
            f"store_path = {synth_store}\noutput_dir = {tmp_path / 'out'}\n"
            "start = 2015-01-01T00:00:00Z\nend = 2015-01-04T00:00:00Z\n"
            "variance_threshold = 0.9\ncorrelation_threshold = 0.9\n"
            "min_support = 0.04\nmax_patterns = 1\nn_trees = 2\nmax_depth = 2\n")
        assert run_cli("train", "--plan", str(plan)) == 0
        assert run_cli("select-features", *window, "--variance-threshold", "0.9",
                       "--correlation-threshold", "0.9", "--out", str(tmp_path / "sel")) == 0
        assert run_cli("mine-patterns", *window, "--min-support", "0.04", "--max-patterns", "1",
                       "--out", str(tmp_path / "patterns.txt")) == 0
        reports = tmp_path / "out" / "reports"
        for name in ("selection_T01.txt", "selection_T01.json"):
            assert (tmp_path / "sel" / name).read_bytes() == (reports / name).read_bytes()
        assert (tmp_path / "patterns.txt").read_bytes() == (reports / "patterns_T01.txt").read_bytes()


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


# two sample values per cast: (text from a flag, the environment or a config
# file, the value the command receives)
_SAMPLES = {
    str: [("a", "a"), ("b", "b")],
    int: [("3", 3), ("4", 4)],
    float: [("0.5", 0.5), ("0.25", 0.25)],
    parse_bool: [("true", True), ("false", False)],
    cli._names: [("T01,T02", ["T01", "T02"]), ("T03", ["T03"])],
    cli._parse_range_spec: [("2,4", [2, 4]), ("1..3", [1, 2, 3])],
    cli._speedup: [("5", 5.0), ("max", "max")],
    cli.parse_rfc3339: [("2015-01-01T00:00:00Z", T0), ("2015-01-02T00:00:00Z", T0 + 86400)],
}

_OPTIONS = [(name, opt) for name, command in cli._COMMANDS.items() for opt in command.options]


class TestEveryOptionResolves:
    """flag > WINDPDM_<OPTION> > --config > unset, for every optional option."""

    @pytest.mark.parametrize("command,opt", _OPTIONS,
                             ids=[f"{c}--{o.name}" for c, o in _OPTIONS])
    def test_sources_in_order(self, command, opt, tmp_path, monkeypatch):
        (a, a_value), (b, b_value) = _SAMPLES[opt.cast]
        received = {}

        def capture(opts):
            received.clear()
            received.update(opts)
            return 0

        monkeypatch.setitem(cli._COMMANDS, command, cli._COMMANDS[command]._replace(run=capture))
        dest = opt.name.replace("-", "_")
        env = "WINDPDM_" + dest.upper()
        monkeypatch.delenv(env, raising=False)
        config = tmp_path / "conf"
        argv = [command] + [v for flag in cli._COMMANDS[command].required for v in ("--" + flag, "x")]
        flag = ["--" + opt.name] if opt.cast is parse_bool else ["--" + opt.name, a]

        assert run_cli(*argv) == 0
        assert dest not in received  # unset: the callee's default applies

        config.write_text(f"{opt.name} = {a}\n")
        assert run_cli("--config", str(config), *argv) == 0
        assert received[dest] == a_value

        monkeypatch.setenv(env, b)
        assert run_cli("--config", str(config), *argv) == 0
        assert received[dest] == b_value

        config.write_text(f"{opt.name} = {b}\n")
        assert run_cli("--config", str(config), *argv, *flag) == 0
        assert received[dest] == a_value


class TestBadOptionSources:
    @pytest.fixture
    def mine(self, synth_store):
        return ["mine-patterns", "--store", str(synth_store), "--turbine", "T01",
                "--start", "2015-01-01T00:00:00Z", "--end", "2015-01-05T00:00:00Z"]

    def test_bad_env_value_is_a_data_error_naming_it(self, mine, capsys, monkeypatch):
        monkeypatch.setenv("WINDPDM_MIN_SUPPORT", "abc")
        assert run_cli(*mine) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "WINDPDM_MIN_SUPPORT" in err

    def test_bad_config_value_is_a_data_error_naming_it(self, mine, tmp_path, capsys):
        config = tmp_path / "conf"
        config.write_text("min-support = abc\n")
        assert run_cli("--config", str(config), *mine) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: data:") and "--config key min-support" in err

    def test_unknown_config_keys_rejected(self, mine, tmp_path, capsys):
        config = tmp_path / "conf"
        config.write_text("min_support = 0.9\nmax-patterns = 3\nbogus = 1\n")
        assert run_cli("--config", str(config), *mine) == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "min_support" in err and "max-patterns" not in err


class TestOptionsReachTheLibrary:
    def test_env_days_sets_synth_slots(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WINDPDM_DAYS", "1")
        out = tmp_path / "store"
        assert run_cli("synth", "--out", str(out)) == 0
        assert " x 144 slots " in capsys.readouterr().out
        store = TurbineStore.open(out)
        for turbine in store.manifest.turbines:
            assert sum(1 for _ in store.scan_operational(turbine)) == 144

    def test_env_and_config_shape_the_grid(self, trained, tmp_path, monkeypatch):
        config = tmp_path / "conf"
        config.write_text("depth = 3\n")
        monkeypatch.setenv("WINDPDM_TREES", "2")
        out = tmp_path / "grid.csv"
        assert run_cli("--config", str(config), "grid-search",
                       "--dataset", str(trained / "datasets" / "T01" / "horizon_10.csv"),
                       "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 2  # header and one cell

    def test_simulate_days_parses_one_record_per_turbine(self, tmp_path, monkeypatch):
        from windpdm import ingest, simulator

        store = tmp_path / "store"
        assert run_cli("synth", "--out", str(store), "--turbines", "2", "--days", "3") == 0
        parsed = []
        parse_row = ingest.parse_operational_row
        monkeypatch.setattr(ingest, "parse_operational_row",
                            lambda *a: parsed.append(a) or parse_row(*a))
        configs = []
        monkeypatch.setattr(simulator, "replay", lambda cfg: configs.append(cfg) or 0)
        assert run_cli("simulate", "--store", str(store), "--broker", str(tmp_path / "b"),
                       "--days", "1") == 0
        assert len(parsed) == 2
        assert (configs[0].start, configs[0].end) == (T0, T0 + 86400)


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
