import errno
import hashlib
import http.client
import json
import os
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from windpdm import agent as agent_mod
from windpdm.agent import (
    DEAD_LETTER_FILENAME,
    READY,
    SINK_FILENAME,
    STOPPED,
    HorizonPrediction,
    MonitoringAgent,
    NotificationSink,
    PredictionNotification,
    bundle_path,
    index_sink,
)
from windpdm.broker import Broker
from windpdm.durable import iter_lines
from windpdm.endpoint import AgentEndpoint
from windpdm.errors import FatalStorageFailure, MissingModel, StorageFailure
from windpdm.forest import predict, train_forest
from windpdm.ingest import OperationalRecord, parse_operational_row
from windpdm.manifest import Manifest
from windpdm.model_io import ModelBundle, save_model
from windpdm.patterns import HORIZONS_MINUTES, StatusPattern
from windpdm.timeutil import format_rfc3339

from conftest import T0
from fakes import FaultyBroker, SimulatedCrash, install_failpoint
from oracles import sink_keys_per_line

FEATURES = ["wind_speed", "power_kw"]


@pytest.fixture
def manifest():
    return Manifest(
        parameters=["wind_speed", "rotor_rpm", "power_kw", "gen_temp"],
        alarms=["GOverSpMax", "WLFRTActive"],
        turbines=["T1", "T2"],
    )


def make_models(models_dir, turbines, skip=(), features=FEATURES):
    """Tiny real bundles: class 1 iff the first feature > 5."""
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
                feature_names=features,
                patterns=[StatusPattern(1, frozenset({"GOverSpMax"}), 0.2)],
                created_at=T0)
            path = bundle_path(models_dir, turbine, h)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(bundle, path)
            bundles[(turbine, h)] = bundle
    return bundles


def row_payload(ts, wind_speed=1.0):
    return f"{format_rfc3339(ts)},{wind_speed},7.0,3.0,55.0".encode()


def note_line(turbine, ts):
    """A sink line as the agent writes it."""
    return PredictionNotification(
        turbine, ts, {h: HorizonPrediction(0, 1.0) for h in HORIZONS_MINUTES}, 1, float(ts)).to_json_line()


@pytest.fixture
def short_backoff(monkeypatch):
    monkeypatch.setattr(agent_mod, "BACKOFF_INITIAL", 0.02)
    monkeypatch.setattr(agent_mod, "BACKOFF_MAX", 0.1)


@pytest.fixture
def rig(tmp_path, manifest, short_backoff):
    models_dir = tmp_path / "models"
    bundles = make_models(models_dir, manifest.turbines)
    broker = Broker(tmp_path / "broker")
    agent = MonitoringAgent.start(
        models_dir, broker, list(manifest.turbines), tmp_path / "sink", manifest,
        idle_poll_interval=0.005)
    return agent, broker, bundles, tmp_path


class TestStart:
    def test_two_turbines_six_bundles_ready(self, rig):
        agent, broker, _, _ = rig
        assert agent.status == READY
        assert agent.turbines == ["T1", "T2"]
        assert broker.topics() == ["T1", "T2"]
        for per_horizon in agent.health()["models"].values():
            assert sorted(map(int, per_horizon)) == list(HORIZONS_MINUTES)

    def test_missing_bundle_names_the_gap(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, manifest.turbines, skip={("T1", 30)})
        broker = Broker(tmp_path / "broker")
        with pytest.raises(MissingModel, match=r"\(T1, 30\)"):
            MonitoringAgent.start(models_dir, broker, list(manifest.turbines),
                                  tmp_path / "sink", manifest)

    def test_bundle_feature_missing_from_manifest_refuses_start(self, tmp_path, manifest):
        make_models(tmp_path / "m", manifest.turbines)
        narrow = Manifest(parameters=["wind_speed", "rotor_rpm", "gen_temp"],
                          alarms=manifest.alarms, turbines=manifest.turbines)
        with pytest.raises(MissingModel, match=r"bundle \(T1, 10\) uses a feature missing.*power_kw"):
            MonitoringAgent.start(tmp_path / "m", Broker(tmp_path / "broker"), list(manifest.turbines),
                                  tmp_path / "sink", narrow)

    def test_allow_partial_drops_incomplete_turbine(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, manifest.turbines, skip={("T1", 30)})
        broker = Broker(tmp_path / "broker")
        agent = MonitoringAgent.start(models_dir, broker, list(manifest.turbines),
                                      tmp_path / "sink", manifest, allow_partial=True)
        assert agent.turbines == ["T2"]

    def test_allow_partial_drops_turbine_reading_a_feature_missing_from_manifest(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, ["T1"], features=["wind_speed", "blade_pitch"])
        make_models(models_dir, ["T2"])
        agent = MonitoringAgent.start(models_dir, Broker(tmp_path / "broker"), list(manifest.turbines),
                                      tmp_path / "sink", manifest, allow_partial=True)
        assert agent.turbines == ["T2"]

    def test_corrupt_bundle_is_a_gap(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, manifest.turbines, skip={("T2", 10)})
        path = bundle_path(models_dir, "T1", 20)
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF  # a payload byte: the checksum no longer matches
        path.write_bytes(bytes(blob))
        with pytest.raises(MissingModel, match=r"horizon_20\.model: checksum mismatch.*\(T2, 10\)"):
            MonitoringAgent.start(models_dir, Broker(tmp_path / "broker"), list(manifest.turbines),
                                  tmp_path / "sink", manifest)
        make_models(models_dir, ["T2"])
        agent = MonitoringAgent.start(models_dir, Broker(tmp_path / "broker"), list(manifest.turbines),
                                      tmp_path / "sink", manifest, allow_partial=True)
        assert agent.turbines == ["T2"]

    def test_gaps_in_two_turbines_named_in_one_error(self, tmp_path, manifest):
        models_dir = tmp_path / "m"
        make_models(models_dir, manifest.turbines, skip={("T1", 30), ("T2", 10)})
        with pytest.raises(MissingModel, match=r"\(T1, 30\).*\(T2, 10\)"):
            MonitoringAgent.start(models_dir, Broker(tmp_path / "broker"), list(manifest.turbines),
                                  tmp_path / "sink", manifest)


class TestProcessMessage:
    def test_notification_matches_direct_predict(self, rig, manifest):
        agent, _, bundles, _ = rig
        record = parse_operational_row(row_payload(T0, wind_speed=8.5).decode(), manifest.parameters, "T1")
        [result] = agent.predict_records("T1", [record])
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

    def test_predict_records_checks_row_width(self, rig):
        agent, _, _, _ = rig
        assert agent.predict_records("T1", []) == []
        with pytest.raises(ValueError):  # the manifest has 4 parameters
            agent.predict_records("T1", [OperationalRecord("T1", T0, (8.5, 3.0))])

    def test_duplicate_is_skipped(self, rig):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0))
        agent.process_available()
        broker.publish("T1", row_payload(T0))  # same (turbine, t) again
        agent.process_available()
        sink_lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(sink_lines) == 1
        assert agent.counters["duplicates_skipped"] == 1

    def test_duplicate_inside_one_batch(self, rig):
        agent, broker, _, tmp = rig
        for ts in (T0, T0, T0 + 600):
            broker.publish("T1", row_payload(ts))
        assert agent.process_available() == 3
        lines = [json.loads(l) for l in (tmp / "sink" / SINK_FILENAME).read_text().splitlines()]
        assert [doc["t"] for doc in lines] == [format_rfc3339(T0), format_rfc3339(T0 + 600)]
        assert agent.counters["duplicates_skipped"] == 1
        assert broker.committed_offset(agent.group, "T1") == 3

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

    def test_malformed_between_good_messages_of_one_batch(self, rig):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0, wind_speed=8.0))
        broker.publish("T1", b"not,a,row")
        broker.publish("T1", row_payload(T0 + 600, wind_speed=2.0))
        assert agent.process_available() == 3
        lines = [json.loads(l) for l in (tmp / "sink" / SINK_FILENAME).read_text().splitlines()]
        assert [doc["t"] for doc in lines] == [format_rfc3339(T0), format_rfc3339(T0 + 600)]
        assert [doc["horizons"]["10"]["class"] for doc in lines] == [1, 0]
        dead = [json.loads(l) for l in (tmp / "sink" / DEAD_LETTER_FILENAME).read_text().splitlines()]
        assert [(d["offset"], d["error"]) for d in dead] == [(1, "line 0: expected 5 columns, got 3")]

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

    def test_round_appends_once_then_commits_each_turbine(self, rig):
        agent, broker, _, tmp = rig
        for turbine in ("T1", "T2"):
            broker.publish(turbine, row_payload(T0))
            broker.publish(turbine, row_payload(T0 + 600))
        events = []

        def record(stage):
            events.append(stage)

        install_failpoint(agent, record)
        agent.max_batch = 2
        assert agent.process_available() == 4
        # one fsynced write for the whole round, then one commit of both turbines
        assert [e for e in events if e != "poll"] == [
            "before_sink_append", "after_sink_append", "after_commit"]
        lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert [json.loads(l)["turbine"] for l in lines] == ["T1", "T1", "T2", "T2"]
        assert broker.committed_offset(agent.group, "T1") == 2
        assert broker.committed_offset(agent.group, "T2") == 2

    def test_drain_through_install_failpoint_fires_all_four_stages(self, rig):
        agent, broker, _, _ = rig
        broker.publish("T1", row_payload(T0))
        events = []
        install_failpoint(agent, events.append)
        assert agent.process_available() == 1
        assert list(dict.fromkeys(events)) == [
            "poll", "before_sink_append", "after_sink_append", "after_commit"]

    def test_failed_commit_backs_off_every_turbine_of_the_round(self, rig, monkeypatch):
        agent, broker, _, tmp = rig
        for turbine in ("T1", "T2"):
            broker.publish(turbine, row_payload(T0))
        real_commit_many = broker.commit_many

        def fail_once(group, offsets):
            monkeypatch.setattr(broker, "commit_many", real_commit_many)
            raise StorageFailure("offsets log unwritable")

        monkeypatch.setattr(broker, "commit_many", fail_once)
        assert agent.process_available() == 0
        assert agent.status == "Degraded"
        assert sorted(agent._backoff) == ["T1", "T2"]
        time.sleep(2 * agent_mod.BACKOFF_INITIAL)
        # redelivered, and found in the sink the failed round already wrote
        assert agent.process_available() == 2
        assert agent.status == READY
        assert agent.counters["duplicates_skipped"] == 2
        assert len((tmp / "sink" / SINK_FILENAME).read_text().splitlines()) == 2
        assert broker.committed_offset(agent.group, "T1") == 1

    def test_crash_between_sink_and_commit_over_a_sink_of_many_blocks(self, rig, manifest, monkeypatch):
        agent, broker, _, tmp = rig
        for i in range(12):
            for turbine in ("T1", "T2"):
                broker.publish(turbine, row_payload(T0 + i * 600))
        assert agent.process_available() == 24
        for i in range(12, 16):
            for turbine in ("T1", "T2"):
                broker.publish(turbine, row_payload(T0 + i * 600))

        def crash_after_sink(stage):
            if stage == "after_sink_append":
                raise SimulatedCrash

        install_failpoint(agent, crash_after_sink)
        with pytest.raises(SimulatedCrash):
            agent.process_available()
        # blocks shorter than a line: every line straddles a block boundary
        monkeypatch.setattr(agent_mod, "READ_BYTES", 100)
        agent2 = self._restart(tmp, manifest, Broker(tmp / "broker"))
        assert agent2.health()["sink_index"] == {"lines": 32, "indexed": 32, "skipped": 0}
        assert agent2.process_available() == 8
        lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(lines) == len({(json.loads(l)["turbine"], json.loads(l)["t"]) for l in lines}) == 32
        assert agent2.counters["duplicates_skipped"] == 8
        assert agent2.counters["notifications"] == 0

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
        original = agent.predict_records

        def flaky(turbine, records):
            # the record at offset 0 fails its batch, and alone when rescored
            if any(record.timestamp == T0 for record in records):
                raise RuntimeError("injected handler panic")
            return original(turbine, records)

        agent.predict_records = flaky
        agent.process_available()
        sink_lines = (tmp / "sink" / SINK_FILENAME).read_text().splitlines()
        assert len(sink_lines) == 1  # second message processed
        dead = (tmp / "sink" / DEAD_LETTER_FILENAME).read_text().splitlines()
        assert len(dead) == 1
        assert "injected handler panic" in dead[0]

    def test_broker_pause_and_resume_without_loss(self, tmp_path, manifest, short_backoff):
        models_dir = tmp_path / "models"
        make_models(models_dir, manifest.turbines)
        inner = Broker(tmp_path / "broker")
        flaky = FaultyBroker(inner)
        agent = MonitoringAgent.start(
            models_dir, flaky, list(manifest.turbines), tmp_path / "sink", manifest,
            idle_poll_interval=0.005)
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

    def test_paused_topic_does_not_stall_the_others(self, tmp_path, manifest, short_backoff):
        models_dir = tmp_path / "models"
        make_models(models_dir, manifest.turbines)
        inner = Broker(tmp_path / "broker")
        flaky = FaultyBroker(inner)
        agent = MonitoringAgent.start(
            models_dir, flaky, list(manifest.turbines), tmp_path / "sink", manifest,
            idle_poll_interval=0.005)
        sink_file = tmp_path / "sink" / SINK_FILENAME

        def notified(turbine):
            return sum(json.loads(l)["turbine"] == turbine for l in sink_file.read_text().splitlines())

        for i in range(3):
            inner.publish("T1", row_payload(T0 + i * 600))
        flaky.pause_for(2000, topics={"T1"})
        pause_ends = time.monotonic() + 2.0
        agent.run_threaded()
        try:
            for i in range(3):
                inner.publish("T2", row_payload(T0 + i * 600))
            while time.monotonic() < pause_ends and notified("T2") < 3:
                time.sleep(0.01)
            status_while_paused = agent.status
            t1_while_paused = notified("T1")
            assert time.monotonic() < pause_ends, "T2 did not flow while T1 was paused"
            deadline = time.monotonic() + 5.0
            # processed is bumped after the commit that ends T1's backoff
            while time.monotonic() < deadline and agent.counters["processed"] < 6:
                time.sleep(0.02)
            status_after = agent.status
        finally:
            agent.stop()
        assert status_while_paused == "Degraded"
        assert t1_while_paused == 0
        assert notified("T1") == 3
        assert status_after == READY

    def test_programming_error_stops_agent(self, rig, monkeypatch):
        agent, _, _, _ = rig

        def broken_poll(group, topic, max_batch=256):
            raise TypeError("boom")

        monkeypatch.setattr(agent.broker, "poll", broken_poll)
        agent.run_threaded()
        try:
            deadline = time.time() + 5.0
            while time.time() < deadline and agent.status != STOPPED:
                time.sleep(0.01)
            health = agent.health()
        finally:
            agent.stop()
        assert health["status"] == STOPPED
        assert "TypeError" in health["fatal_error"] and "boom" in health["fatal_error"]
        assert agent.counters["backoffs"] == 0

    @pytest.mark.parametrize("n_turbines", [1, 17])
    def test_one_consumer_thread_for_any_fleet(self, tmp_path, n_turbines):
        turbines = [f"T{i:02d}" for i in range(1, n_turbines + 1)]
        manifest = Manifest(parameters=["wind_speed", "rotor_rpm", "power_kw", "gen_temp"],
                            alarms=["GOverSpMax"], turbines=turbines)
        make_models(tmp_path / "models", turbines)
        agent = MonitoringAgent.start(tmp_path / "models", Broker(tmp_path / "broker"),
                                      turbines, tmp_path / "sink", manifest)

        def agent_threads():
            return [t.name for t in threading.enumerate() if t.name.startswith("agent-")]

        agent.run_threaded()
        try:
            assert len(agent_threads()) == 1
            with pytest.raises(RuntimeError):
                agent.run_threaded()
        finally:
            agent.stop()
        assert agent_threads() == []

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

    @pytest.mark.parametrize("start, history, appended, expected", [
        (3, ["l0", "l1", "l2"], ["l3", "l4"], ["l3", "l4"]),  # at the end
        (4, ["l0", "l1"], ["l2", "l3", "l4", "l5"], ["l4", "l5"]),  # past the end
    ])
    def test_stream_from_line(self, rig, start, history, appended, expected):
        # from=N in the middle is test_stream_from_offset
        agent, _, _, _ = rig
        agent.sink.append_lines(history)
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        try:
            resp = urllib.request.urlopen(f"http://{host}:{port}/stream?from={start}", timeout=5)
            for line in appended:  # one append each: skipped lines span reads
                agent.sink.append_lines([line])
            got = [resp.readline().decode().rstrip("\n") for _ in expected]
            resp.close()
        finally:
            endpoint.stop()
        assert got == expected

    def test_stream_non_ascii_lines_intact(self, rig):
        agent, _, _, _ = rig
        wide = '{"note": "Ærøskøbing – 風車 ✓"}'
        agent.sink.append_lines([wide, "after"])
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        try:
            resp = urllib.request.urlopen(f"http://{host}:{port}/stream?from=0", timeout=5)
            tail = urllib.request.urlopen(f"http://{host}:{port}/stream?from=1", timeout=5)
            agent.sink.append_lines([wide, "last"])
            got = [resp.readline().decode("utf-8").rstrip("\n") for _ in range(4)]
            got_tail = [tail.readline().decode("utf-8").rstrip("\n") for _ in range(3)]
            resp.close()
            tail.close()
        finally:
            endpoint.stop()
        assert got == [wide, "after", wide, "last"]
        assert got_tail == ["after", wide, "last"]

    def test_stream_delivers_concurrent_appends_once_in_order(self, rig):
        agent, _, _, _ = rig
        endpoint = AgentEndpoint(agent, port=0)
        endpoint.start()
        host, port = endpoint.address
        # 500 appends from more writer threads than cores, switching often
        per_writer = {w: [f"w{w}-{i}" for i in range(125)] for w in range(4)}
        writers = [threading.Thread(target=lambda lines=lines: [agent.sink.append_lines([x]) for x in lines])
                   for lines in per_writer.values()]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            resp = urllib.request.urlopen(f"http://{host}:{port}/stream?from=0", timeout=5)
            for writer in writers:
                writer.start()
            got = [resp.readline().decode().rstrip("\n") for _ in range(500)]
            for writer in writers:
                writer.join(timeout=10)
            resp.close()
        finally:
            sys.setswitchinterval(interval)
            endpoint.stop()
        assert not any(writer.is_alive() for writer in writers)
        assert got == list(iter_lines(agent.sink.path))
        for w, lines in per_writer.items():
            assert [x for x in got if x.startswith(f"w{w}-")] == lines

    def test_health_reports_each_bundle_provenance(self, rig):
        agent, _, _, tmp = rig
        models = json.loads(json.dumps(agent.health()))["models"]
        assert sorted(models) == ["T1", "T2"]
        for turbine, per_horizon in models.items():
            assert sorted(per_horizon, key=int) == [str(h) for h in HORIZONS_MINUTES]
            for h, provenance in per_horizon.items():
                blob = bundle_path(tmp / "models", turbine, int(h)).read_bytes()
                # the payload's sha256 is the file's last 32 bytes
                assert provenance == {"sha256": hashlib.sha256(blob[16:-32]).hexdigest(),
                                      "created_at": format_rfc3339(T0)}
                assert blob[-32:].hex() == provenance["sha256"]

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
        assert list(iter_lines(sink.path)) == ["one", "two", "three"]

    def test_torn_tail_cut_on_open(self, tmp_path):
        path = tmp_path / "s.jsonl"
        whole = json.dumps({"turbine": "T1", "t": "2015-01-01T00:00:00Z"})
        path.write_text(whole + "\n" + '{"turbine": "T1", "t": "2015-01-0', encoding="utf-8")
        sink = NotificationSink(path)
        sink.append_lines([json.dumps({"turbine": "T1", "t": "2015-01-01T00:10:00Z"})])
        lines = list(iter_lines(sink.path))
        assert [json.loads(line)["t"] for line in lines] == [
            "2015-01-01T00:00:00Z", "2015-01-01T00:10:00Z"]
        assert sink.length == path.stat().st_size

    def test_failed_append_is_overwritten_by_the_next(self, tmp_path, monkeypatch):
        sink = NotificationSink(tmp_path / "s.jsonl")
        sink.append_lines(["one"])
        real_fsync = os.fsync

        def fail_once(fd):
            monkeypatch.setattr(os, "fsync", real_fsync)
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fail_once)
        with pytest.raises(FatalStorageFailure):
            sink.append_lines(["two", "lost"])  # written, never acknowledged
        assert sink.length == 4
        sink.append_lines(["three"])
        assert sink.follow(0, timeout=0) == (sink.length, b"one\nthree\n")
        assert sink.length == (tmp_path / "s.jsonl").stat().st_size
        assert list(iter_lines(sink.path)) == ["one", "three"]

    def test_agent_start_cuts_torn_tails_of_both_sinks(self, rig, manifest):
        agent, broker, _, tmp = rig
        broker.publish("T1", row_payload(T0))
        agent.process_available()
        for name in (SINK_FILENAME, DEAD_LETTER_FILENAME):
            with open(tmp / "sink" / name, "ab") as fh:
                fh.write(b'{"turbine": "T1", "t": "2015-01-0')
        restarted = MonitoringAgent.start(
            tmp / "models", broker, list(manifest.turbines), tmp / "sink", manifest)
        assert len(list(iter_lines(restarted.sink.path))) == 1
        assert list(iter_lines(restarted.dead_letter.path)) == []
        for name in (SINK_FILENAME, DEAD_LETTER_FILENAME):
            data = (tmp / "sink" / name).read_bytes()
            assert data == b"" or data.endswith(b"\n")

    def test_follow_returns_at_once_when_sink_is_ahead(self, tmp_path):
        sink = NotificationSink(tmp_path / "s.jsonl")
        sink.append_lines(["one"])
        pos = sink.length
        sink.append_lines(["two", "three"])  # lands before the follower waits
        begin = time.monotonic()
        end, data = sink.follow(pos, timeout=5)
        assert time.monotonic() - begin < 1.0
        assert data == b"two\nthree\n"
        assert end == sink.length

    def test_follow_waits_for_an_append(self, tmp_path):
        sink = NotificationSink(tmp_path / "s.jsonl")
        assert sink.follow(0, timeout=0.01) == (0, b"")
        timer = threading.Timer(0.05, sink.append_lines, [["late"]])
        timer.start()
        try:
            assert sink.follow(0, timeout=5) == (5, b"late\n")
        finally:
            timer.join()

    def test_follow_reads_whole_lines_in_bounded_pieces(self, tmp_path):
        sink = NotificationSink(tmp_path / "s.jsonl")
        lines = ["x" * (3 << 20)] + [f"{i:07d}" * 40 for i in range(20000)] + ["ü" * 10]
        sink.append_lines(lines)
        pos, pieces = 0, []
        while pos < sink.length:
            pos, data = sink.follow(pos, timeout=0)
            assert data.endswith(b"\n")
            pieces.append(data)
        assert len(pieces) > 2
        assert b"".join(pieces).decode("utf-8").split("\n")[:-1] == lines

    def test_line_offset_counts_bytes(self, tmp_path):
        sink = NotificationSink(tmp_path / "s.jsonl")
        sink.append_lines(["ä€", "b"])
        assert sink.line_offset(0) == (0, 0)
        assert sink.line_offset(1) == (len("ä€\n".encode()), 0)
        assert sink.line_offset(2) == (sink.length, 0)
        assert sink.line_offset(5) == (sink.length, 3)


class TestSinkIndex:
    """The dedupe index rebuilt from the sink at start (``index_sink``)."""

    def mixed_sink(self, path):
        stamp = format_rfc3339(T0 + 600)
        lines = [
            note_line("T1", T0),
            note_line("T2", T0),
            json.dumps({"turbine": "T1", "t": stamp, "extra": [1, 2]}),  # keys in another order
            '{ "t" : "%s" ,  "turbine" : "T2" }' % stamp,  # extra spaces
            note_line("T1", T0 + 1200) + "\r",  # a CRLF line
            "not json at all",
            json.dumps({"turbine": "T1"}),  # no t
            json.dumps({"t": stamp}),  # no turbine
            note_line("T2", T0 + 1200).replace(format_rfc3339(T0 + 1200), "2015-13-01T00:00:00Z"),
            note_line("T2", T0 + 1800).replace(format_rfc3339(T0 + 1800), "0001-01-01T00:00:00+01:00"),
            "[1, 2]",  # JSON, not an object
            json.dumps({"t": 5, "turbine": "T1"}),  # t not a string
            json.dumps({'"t': stamp, "turbine": "T1"}),  # a key named '"t', and no t key
            note_line("T9", T0),  # a turbine that is not monitored
            note_line("T\u00fc", T0),  # an escaped turbine id
            note_line("T1", T0),  # a line notified twice
        ] + [note_line("T2", T0 + 600 * (3 + i)) for i in range(8)]
        torn = note_line("T1", T0 + 3000)[:-5]  # a torn last line
        path.write_text("".join(line + "\n" for line in lines) + torn, encoding="utf-8")
        return lines

    @pytest.mark.parametrize("block", [64, 1000, 1 << 20])
    def test_index_equals_per_line_json_oracle(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(agent_mod, "READ_BYTES", block)
        path = tmp_path / SINK_FILENAME
        lines = self.mixed_sink(path)
        seen, stats = index_sink(path)
        expected = sink_keys_per_line(path)
        assert seen == expected
        assert "T9" in seen and "T\u00fc" in seen
        assert stats == {"lines": len(lines), "indexed": sum(map(len, expected.values())), "skipped": 8}

    def test_sink_in_the_written_form_reads_no_line_alone(self, tmp_path, monkeypatch):
        path = tmp_path / SINK_FILENAME
        path.write_text("".join(note_line(turbine, T0 + 600 * i) + "\n"
                                for i in range(50) for turbine in ("T1", "T2")), encoding="utf-8")
        monkeypatch.setattr(agent_mod, "READ_BYTES", 1000)

        def no_line_alone(line):
            raise AssertionError(f"read alone: {line!r}")

        monkeypatch.setattr(agent_mod, "_line_key", no_line_alone)
        seen, stats = index_sink(path)
        assert seen == sink_keys_per_line(path)
        assert stats == {"lines": 100, "indexed": 100, "skipped": 0}

    def test_broken_json_in_the_written_form_counts_as_notified(self, rig, manifest):
        agent, broker, _, tmp = rig
        broken = '{"horizons": {"10": , "t": "%s", "turbine": "T1"}' % format_rfc3339(T0)
        (tmp / "sink" / SINK_FILENAME).write_text(broken + "\n", encoding="utf-8")
        assert sink_keys_per_line(tmp / "sink" / SINK_FILENAME) == {}
        restarted = MonitoringAgent.start(
            tmp / "models", broker, list(manifest.turbines), tmp / "sink", manifest)
        assert restarted.health()["sink_index"] == {"lines": 1, "indexed": 1, "skipped": 0}
        broker.publish("T1", row_payload(T0))
        assert restarted.process_available() == 1
        assert restarted.counters["duplicates_skipped"] == 1
        assert (tmp / "sink" / SINK_FILENAME).read_text(encoding="utf-8") == broken + "\n"

    def test_health_counts_a_line_that_gives_no_key(self, rig, manifest):
        agent, broker, _, tmp = rig
        (tmp / "sink" / SINK_FILENAME).write_text(
            note_line("T1", T0) + "\nnot a notification\n" + note_line("T2", T0) + "\n", encoding="utf-8")
        restarted = MonitoringAgent.start(
            tmp / "models", broker, list(manifest.turbines), tmp / "sink", manifest)
        assert restarted.health()["sink_index"] == {"lines": 3, "indexed": 2, "skipped": 1}
        broker.publish("T1", row_payload(T0 + 600))
        assert restarted.process_available() == 1
        # filled once at start: a message changes no figure
        assert restarted.health()["sink_index"] == {"lines": 3, "indexed": 2, "skipped": 1}
        assert json.loads(json.dumps(restarted.health()))["sink_index"]["skipped"] == 1

    def test_sink_that_is_not_utf8_refuses_the_start(self, rig, manifest):
        agent, broker, _, tmp = rig
        (tmp / "sink" / SINK_FILENAME).write_bytes(note_line("T1", T0).encode() + b"\n\xff\xfe\n")
        with pytest.raises(UnicodeDecodeError):
            MonitoringAgent.start(tmp / "models", broker, list(manifest.turbines), tmp / "sink", manifest)


def _wait_for(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestWake:
    """The consumer thread waits on the broker's inotify watch between idle
    rounds: a publish wakes it, stop() ends the wait, and the timer remains
    where inotify does not."""

    @pytest.fixture
    def slow_safety(self, monkeypatch):
        # a wake-up within the test's time cannot then come from the safety round
        monkeypatch.setattr(agent_mod, "SAFETY_POLL_S", 60.0)

    def test_publish_from_another_process_wakes_the_agent(self, rig, slow_safety):
        agent, _, _, tmp = rig
        sink_file = tmp / "sink" / SINK_FILENAME
        agent.run_threaded()
        try:
            assert agent.health()["wake"] == "inotify"
            assert _wait_for(lambda: agent.counters["idle_rounds"] >= 1, 5.0)
            src = os.path.dirname(os.path.dirname(agent_mod.__file__))
            publisher = (f"import sys; sys.path.insert(0, {src!r}); from windpdm.broker import Broker; "
                         f"Broker({str(tmp / 'broker')!r}).publish('T1', {row_payload(T0)!r})")
            begin = time.monotonic()
            subprocess.run([sys.executable, "-c", publisher], check=True, timeout=30)
            assert _wait_for(lambda: sink_file.read_text().strip(), 5.0)
            elapsed = time.monotonic() - begin
            counters = agent.health()["counters"]
        finally:
            agent.stop()
        assert elapsed < 5.0
        assert counters["notifications"] == 1
        assert counters["busy_rounds"] >= 1 and counters["idle_rounds"] >= 1

    def test_stop_ends_a_blocked_wait_at_once(self, rig, slow_safety):
        agent, _, _, _ = rig
        agent.run_threaded()
        assert _wait_for(lambda: agent.counters["idle_rounds"] >= 1, 5.0)
        time.sleep(0.05)  # the thread is in its wait
        begin = time.monotonic()
        agent.stop()
        assert time.monotonic() - begin < 0.5
        assert agent.status == STOPPED

    def test_no_descriptor_outlives_stop(self, rig, slow_safety):
        agent, broker, _, _ = rig
        before = _open_fds()
        agent.run_threaded()
        assert agent.health()["wake"] == "inotify"
        broker.publish("T1", row_payload(T0))
        assert _wait_for(lambda: agent.counters["notifications"] == 1, 5.0)
        agent.stop()
        assert _open_fds() == before

    def test_start_and_stop_race_leaks_no_descriptor(self, rig):
        agent, broker, _, _ = rig
        before = _open_fds()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for i in range(20):
                agent.run_threaded()
                if i % 2:
                    broker.publish("T1", row_payload(T0 + i * 600))
                agent.stop()
        finally:
            sys.setswitchinterval(interval)
        assert _open_fds() == before
        assert not [t for t in threading.enumerate() if t.name == "agent-loop"]

    def test_timer_serves_where_the_watch_is_unavailable(self, rig, slow_safety, monkeypatch):
        agent, broker, _, tmp = rig

        def unavailable(topics):
            raise OSError(errno.EMFILE, "too many inotify instances")

        monkeypatch.setattr(broker, "watch", unavailable)
        before = _open_fds()
        agent.run_threaded()
        try:
            assert agent.health()["wake"] == "timer"
            assert _wait_for(lambda: agent.counters["idle_rounds"] >= 1, 5.0)
            broker.publish("T1", row_payload(T0))
            # idle_poll_interval is 0.005 s: far inside the safety interval
            assert _wait_for(lambda: agent.counters["notifications"] == 1, 5.0)
        finally:
            agent.stop()
        assert _open_fds() == before

    def test_backoff_retry_is_not_held_to_the_safety_interval(self, rig, slow_safety):
        agent, broker, _, _ = rig
        flaky = FaultyBroker(broker)
        agent.broker = flaky
        broker.publish("T1", row_payload(T0))  # before the watch opens: no event announces it
        flaky.pause_for(30, topics={"T1"})
        agent.run_threaded()
        try:
            begin = time.monotonic()
            assert _wait_for(lambda: agent.counters["notifications"] == 1, 5.0)
            elapsed = time.monotonic() - begin
        finally:
            agent.stop()
        assert agent.counters["backoffs"] >= 1
        # a few backoff waits (BACKOFF_INITIAL doubling, capped at BACKOFF_MAX), not one safety interval
        assert elapsed < 2.0
