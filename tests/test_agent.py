import http.client
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from windpdm.agent import (
    DEAD_LETTER_FILENAME,
    READY,
    SINK_FILENAME,
    STOPPED,
    MonitoringAgent,
    NotificationSink,
    Skip,
    bundle_path,
)
from windpdm.broker import Broker, Message
from windpdm.endpoint import AgentEndpoint
from windpdm.errors import FatalStorageFailure, MissingModel
from windpdm.forest import predict, train_forest
from windpdm.manifest import Manifest
from windpdm.model_io import ModelBundle, save_model
from windpdm.patterns import HORIZONS_MINUTES, StatusPattern
from windpdm.timeutil import format_rfc3339

from conftest import T0
from fakes import FaultyBroker, SimulatedCrash, install_failpoint

FEATURES = ["wind_speed", "power_kw"]


@pytest.fixture
def manifest():
    return Manifest(
        parameters=["wind_speed", "rotor_rpm", "power_kw", "gen_temp"],
        alarms=["GOverSpMax", "WLFRTActive"],
        turbines=["T1", "T2"],
    )


def make_models(models_dir, turbines, skip=()):
    """Tiny real bundles: class 1 iff wind_speed > 5."""
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 10, size=(60, 2))
    y = (X[:, 0] > 5).astype(np.int64)
    bundles = {}
    for turbine in turbines:
        for h in HORIZONS_MINUTES:
            if (turbine, h) in skip:
                continue
            forest = train_forest(X, y, [0, 1], n_trees=3, max_depth=3, seed=h)
            bundle = ModelBundle(
                turbine_id=turbine, horizon_minutes=h, forest=forest,
                feature_names=FEATURES,
                patterns=[StatusPattern(1, frozenset({"GOverSpMax"}), 0.2)],
                created_at=T0)
            path = bundle_path(models_dir, turbine, h)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(bundle, path)
            bundles[(turbine, h)] = bundle
    return bundles


def row_payload(ts, wind_speed=1.0):
    return f"{format_rfc3339(ts)},{wind_speed},7.0,3.0,55.0".encode()


@pytest.fixture
def rig(tmp_path, manifest):
    models_dir = tmp_path / "models"
    bundles = make_models(models_dir, manifest.turbines)
    broker = Broker(tmp_path / "broker")
    agent = MonitoringAgent.start(
        models_dir, broker, list(manifest.turbines), tmp_path / "sink", manifest,
        idle_poll_interval=0.005, backoff_initial=0.02, backoff_max=0.2)
    return agent, broker, bundles, tmp_path


class TestStart:
    def test_two_turbines_six_bundles_ready(self, rig):
        agent, broker, _, _ = rig
        assert agent.status == READY
        assert sorted(agent.models) == ["T1", "T2"]
        assert broker.topics() == ["T1", "T2"]
        for per_horizon in agent.models.values():
            assert sorted(per_horizon) == list(HORIZONS_MINUTES)

    def test_missing_bundle_names_the_gap(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, manifest.turbines, skip={("T1", 30)})
        broker = Broker(tmp_path / "broker")
        with pytest.raises(MissingModel, match=r"\(T1, 30\)"):
            MonitoringAgent.start(models_dir, broker, list(manifest.turbines),
                                  tmp_path / "sink", manifest)

    def test_allow_partial_drops_incomplete_turbine(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, manifest.turbines, skip={("T1", 30)})
        broker = Broker(tmp_path / "broker")
        agent = MonitoringAgent.start(models_dir, broker, list(manifest.turbines),
                                      tmp_path / "sink", manifest, allow_partial=True)
        assert sorted(agent.models) == ["T2"]


class TestProcessMessage:
    def test_notification_matches_direct_predict(self, rig):
        agent, _, bundles, _ = rig
        msg = Message("T1", 0, time.time(), row_payload(T0, wind_speed=8.5))
        result = agent.process_message(msg)
        assert result.turbine_id == "T1"
        assert result.t == T0
        assert sorted(result.horizons) == list(HORIZONS_MINUTES)
        for h, p in result.horizons.items():
            # manifest order is (wind_speed, rotor_rpm, power_kw, gen_temp);
            # the bundle projects (wind_speed, power_kw)
            expected_class, votes = predict(bundles[("T1", h)].forest, [8.5, 3.0])
            assert p.class_id == expected_class
            assert p.vote_fraction == votes[
                bundles[("T1", h)].forest.class_ids.index(expected_class)] / 3
            assert 0.0 <= p.vote_fraction <= 1.0

    def test_duplicate_is_skipped(self, rig):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0))
        agent.process_available()
        broker.publish("T1", row_payload(T0))  # same (turbine, t) again
        agent.process_available()
        sink_lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(sink_lines) == 1
        assert agent.counters["duplicates_skipped"] == 1

    def test_corrupt_payload_goes_to_dead_letter(self, rig):
        agent, broker, _, tmp = rig
        broker.publish("T1", b"this is not a csv row")
        broker.publish("T1", row_payload(T0))
        agent.process_available()
        dead = (tmp / "sink" / DEAD_LETTER_FILENAME).read_text().splitlines()
        assert len(dead) == 1
        assert "not a csv row" in json.loads(dead[0])["payload"]
        sink_lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(sink_lines) == 1  # the good message still flowed
        assert agent.counters["dead_lettered"] == 1
        # offset committed past the poison message
        assert broker.committed_offset(agent.group, "T1") == 2

    def test_wrong_dimension_payload_dead_lettered(self, rig):
        agent, broker, _, tmp = rig
        broker.publish("T1", f"{format_rfc3339(T0)},1.0,2.0".encode())
        agent.process_available()
        assert agent.counters["dead_lettered"] == 1


class TestCrashRecovery:
    def _restart(self, tmp, manifest, broker):
        return MonitoringAgent.start(
            tmp / "models", broker, list(manifest.turbines), tmp / "sink", manifest,
            idle_poll_interval=0.005)

    def test_crash_between_sink_and_commit_yields_one_notification(self, rig, manifest):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0))

        def crash_after_sink(stage):
            if stage == "after_sink_append":
                raise SimulatedCrash

        install_failpoint(agent, crash_after_sink)
        with pytest.raises(SimulatedCrash):
            agent.process_available()
        # restart: offset was never committed, so the message is redelivered
        agent2 = self._restart(tmp, manifest, Broker(tmp / "broker"))
        agent2.process_available()
        lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(lines) == 1
        assert agent2.counters["duplicates_skipped"] == 1

    def test_crash_before_sink_loses_nothing(self, rig, manifest):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0))
        broker.publish("T1", row_payload(T0 + 600))

        def crash_before_sink(stage):
            if stage == "before_sink_append":
                raise SimulatedCrash

        install_failpoint(agent, crash_before_sink)
        with pytest.raises(SimulatedCrash):
            agent.process_available()
        assert (tmp / "sink" / SINK_FILENAME).read_text() == ""
        agent2 = self._restart(tmp, manifest, Broker(tmp / "broker"))
        agent2.process_available()
        lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(lines) == 2

    def test_restart_resumes_from_committed_offset(self, rig, manifest):
        agent, broker, _, tmp = rig
        for i in range(3):
            broker.publish("T2", row_payload(T0 + i * 600))
        agent.process_available()
        del agent
        broker2 = Broker(tmp / "broker")
        for i in range(3, 5):
            broker2.publish("T2", row_payload(T0 + i * 600))
        agent2 = self._restart(tmp, manifest, broker2)
        agent2.process_available()
        lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(lines) == 5
        keys = {(json.loads(l)["turbine"], json.loads(l)["t"]) for l in lines}
        assert len(keys) == 5


class TestSupervision:
    def test_handler_failure_contained_to_its_message(self, rig):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0))
        broker.publish("T1", row_payload(T0 + 600))
        original = agent.process_message
        blown = []

        def flaky(msg):
            if msg.offset == 0 and not blown:
                blown.append(True)
                raise RuntimeError("injected handler panic")
            return original(msg)

        agent.process_message = flaky
        agent.process_available()
        sink_lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(sink_lines) == 1  # second message processed
        dead = (tmp / "sink" / DEAD_LETTER_FILENAME).read_text().splitlines()
        assert len(dead) == 1
        assert "injected handler panic" in dead[0]

    def test_broker_pause_and_resume_without_loss(self, tmp_path, manifest):
        models_dir = tmp_path / "models"
        make_models(models_dir, manifest.turbines)
        inner = Broker(tmp_path / "broker")
        flaky = FaultyBroker(inner)
        agent = MonitoringAgent.start(
            models_dir, flaky, list(manifest.turbines), tmp_path / "sink", manifest,
            idle_poll_interval=0.005, backoff_initial=0.02, backoff_max=0.1)
        for i in range(4):
            inner.publish("T1", row_payload(T0 + i * 600))
        flaky.pause_for(300)
        agent.run_threaded()
        try:
            deadline = time.time() + 0.25
            saw_degraded = False
            while time.time() < deadline:
                if agent.status == "Degraded":
                    saw_degraded = True
                    break
                time.sleep(0.01)
            deadline = time.time() + 5.0
            while time.time() < deadline and agent.counters["notifications"] < 4:
                time.sleep(0.02)
        finally:
            agent.stop()
        assert saw_degraded
        assert agent.counters["notifications"] == 4
        assert agent.counters["backoffs"] >= 1

    def test_sink_failure_stops_agent_with_status(self, rig, monkeypatch):
        agent, broker, _, _ = rig
        broker.publish("T1", row_payload(T0))

        def broken_append(lines):
            raise FatalStorageFailure("sink disk full")

        monkeypatch.setattr(agent.sink, "append_lines", broken_append)
        agent.run_threaded()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline and agent.status != STOPPED:
                time.sleep(0.01)
        finally:
            agent.stop()
        assert agent.status == STOPPED
        assert "disk full" in agent.fatal_error

    def test_threaded_latency_under_one_second(self, rig):
        agent, broker, _, tmp = rig
        agent.run_threaded()
        try:
            begin = time.time()
            broker.publish("T1", row_payload(T0))
            sink_file = tmp / "sink" / SINK_FILENAME
            while time.time() - begin < 1.0:
                if sink_file.read_text().strip():
                    break
                time.sleep(0.002)
            elapsed = time.time() - begin
        finally:
            agent.stop()
        assert sink_file.read_text().strip(), "notification never arrived"
        assert elapsed < 1.0


class TestEndpoint:
    def test_health_and_stream(self, rig):
        agent, broker, _, tmp = rig
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        try:
            broker.publish("T1", row_payload(T0))
            agent.process_available()
            with urllib.request.urlopen(f"http://{host}:{port}/health", timeout=5) as resp:
                doc = json.loads(resp.read())
            assert doc["status"] == READY
            assert doc["counters"]["notifications"] == 1
            resp = urllib.request.urlopen(f"http://{host}:{port}/stream?from=0", timeout=5)
            line = resp.readline().decode()
            first = json.loads(line)
            assert first["turbine"] == "T1"
            assert sorted(first["horizons"]) == ["10", "20", "30", "40", "50", "60"]
            # live follow: a second notification shows up on the open stream
            broker.publish("T1", row_payload(T0 + 600))
            agent.process_available()
            second = json.loads(resp.readline().decode())
            assert second["t"] == format_rfc3339(T0 + 600)
            resp.close()
        finally:
            endpoint.stop()

    def test_stream_from_offset(self, rig):
        agent, broker, _, _ = rig
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        try:
            for i in range(3):
                broker.publish("T2", row_payload(T0 + i * 600))
            agent.process_available()
            resp = urllib.request.urlopen(f"http://{host}:{port}/stream?from=2", timeout=5)
            line = json.loads(resp.readline().decode())
            assert line["t"] == format_rfc3339(T0 + 1200)
            resp.close()
        finally:
            endpoint.stop()

    def test_stop_ends_open_stream_handler(self, rig):
        agent, broker, _, _ = rig
        before = set(threading.enumerate())
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        broker.publish("T1", row_payload(T0))
        agent.process_available()
        # http.client keeps the connection alive (urllib asks to close it)
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request("GET", "/stream?from=0")
            resp = conn.getresponse()
            assert json.loads(resp.readline().decode())["turbine"] == "T1"
        finally:
            endpoint.stop()  # the client is still connected
        try:
            deadline = time.time() + 2.0
            left = [t for t in threading.enumerate() if t not in before]
            while left and time.time() < deadline:
                time.sleep(0.01)
                left = [t for t in threading.enumerate() if t not in before]
            assert left == []
        finally:
            conn.close()

    def test_unknown_path_404(self, rig):
        agent, _, _, _ = rig
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=5)
            assert err.value.code == 404
        finally:
            endpoint.stop()


class TestSink:
    def test_append_and_read_lines(self, tmp_path):
        sink = NotificationSink(tmp_path / "s.jsonl")
        sink.append_lines(["one", "two"])
        sink.append_lines(["three"])
        assert sink.read_lines() == ["one", "two", "three"]
        assert sink.read_lines(2) == ["three"]
        assert sink.line_count() == 3

    def test_skip_dataclass(self):
        assert Skip("duplicate").reason == "duplicate"
