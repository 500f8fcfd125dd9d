import json
import time

import pytest

from windpdm.agent import SINK_FILENAME, MonitoringAgent
from windpdm.broker import Broker
from windpdm.errors import StorageFailure
from windpdm.simulator import SimulatorConfig, replay
from windpdm.synth import SynthConfig, generate

from test_agent import make_models, manifest  # noqa: F401  (manifest fixture)

from conftest import T0
from fakes import FaultyBroker


@pytest.fixture
def replay_store(tmp_path):
    cfg = SynthConfig(out_dir=tmp_path / "store", seed=1, n_turbines=2, days=1)
    generate(cfg)
    return cfg


class TestReplay:
    def test_publishes_every_stored_record(self, tmp_path, replay_store):
        cfg = SimulatorConfig(store_path=replay_store.out_dir,
                              broker_path=tmp_path / "broker")
        published = replay(cfg)
        assert published == 2 * 144
        broker = Broker(tmp_path / "broker")
        assert broker.message_count("T01") == 144
        assert broker.message_count("T02") == 144

    def test_range_limits_replay(self, tmp_path, replay_store):
        cfg = SimulatorConfig(store_path=replay_store.out_dir,
                              broker_path=tmp_path / "broker",
                              start=T0, end=T0 + 6 * 600)
        assert replay(cfg) == 2 * 6

    def test_payload_is_csv_row_bytes(self, tmp_path, replay_store):
        cfg = SimulatorConfig(store_path=replay_store.out_dir,
                              broker_path=tmp_path / "broker",
                              turbines=["T01"], end=T0 + 600)
        replay(cfg)
        broker = Broker(tmp_path / "broker")
        msg = broker.poll("g", "T01", 1)[0]
        text = msg.payload.decode()
        assert text.startswith("2015-01-01T00:00:00Z,")
        assert len(text.split(",")) == 13  # timestamp + 12 parameters

    def test_pacing_close_to_configured_step(self, tmp_path, replay_store):
        # 6 slots at 40 ms per step; the pacing loop must not run fast, and
        # drift stays well inside the per-step budget (at the real-time step
        # of 600 s this bounds drift far below 1%)
        cfg = SimulatorConfig(store_path=replay_store.out_dir,
                              broker_path=tmp_path / "broker",
                              end=T0 + 6 * 600,
                              speedup_ms_per_step=40.0)
        begin = time.monotonic()
        replay(cfg)
        elapsed = time.monotonic() - begin
        assert 6 * 0.040 <= elapsed <= 6 * 0.040 * 1.5


class TestFaultInjection:
    def test_kill_agent_then_restart_resumes_without_loss(self, tmp_path, manifest):  # noqa: F811
        models_dir = tmp_path / "models"
        make_models(models_dir, manifest.turbines)

        # replay needs a store whose manifest matches the models' layout
        from windpdm.ingest import OperationalRecord, TurbineStore
        store = TurbineStore.create(tmp_path / "store", manifest)
        for turbine in manifest.turbines:
            store.append(turbine, [
                OperationalRecord(turbine, T0 + i * 600, (1.0, 2.0, 3.0, 4.0))
                for i in range(10)
            ])

        broker = Broker(tmp_path / "broker")
        agent = MonitoringAgent.start(models_dir, broker, list(manifest.turbines),
                                      tmp_path / "sink", manifest,
                                      idle_poll_interval=0.005)
        agent.run_threaded()
        killer = FaultyBroker(broker)
        killer.after_publish(7, agent.stop)
        cfg = SimulatorConfig(store_path=tmp_path / "store", broker_path=tmp_path / "broker")
        published = replay(cfg, broker=killer)
        assert published == 20

        restarted = MonitoringAgent.start(models_dir, Broker(tmp_path / "broker"),
                                          list(manifest.turbines), tmp_path / "sink",
                                          manifest)
        restarted.process_available()
        lines = (tmp_path / "sink" / SINK_FILENAME).read_text().splitlines()
        keys = {(json.loads(l)["turbine"], json.loads(l)["t"]) for l in lines}
        assert len(lines) == len(keys) == 20

    def test_pause_window_blocks_consumers(self, tmp_path, replay_store):
        inner = Broker(tmp_path / "broker")
        flaky = FaultyBroker(inner)
        flaky.after_publish(2, lambda: flaky.pause_for(150))
        cfg = SimulatorConfig(store_path=replay_store.out_dir,
                              broker_path=tmp_path / "broker",
                              end=T0 + 3 * 600)
        replay(cfg, broker=flaky)
        with pytest.raises(StorageFailure):
            flaky.poll("g", "T01", 1)
        time.sleep(0.16)
        assert len(flaky.poll("g", "T01", 10)) == 3

    def test_bad_speedup_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SimulatorConfig(store_path=tmp_path, broker_path=tmp_path,
                            speedup_ms_per_step=0.0)
