import io
import json
import os
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest

from windpdm import broker as broker_mod
from windpdm import durable
from windpdm.broker import _FRAME_HEADER, GROUPS_DIR, Broker
from windpdm.errors import InvalidValue, OffsetAhead, StorageFailure, TopicExists, UnknownTopic

from fakes import CrashingOs, SimulatedCrash


@pytest.fixture
def broker(tmp_path):
    return Broker(tmp_path / "broker")


class TestTopics:
    def test_fresh_topic_next_offset_zero(self, broker):
        broker.create_topic("T1")
        assert broker.message_count("T1") == 0

    def test_duplicate_name_rejected(self, broker):
        broker.create_topic("T1")
        with pytest.raises(TopicExists):
            broker.create_topic("T1")

    def test_ensure_topic_is_idempotent(self, broker):
        broker.ensure_topic("T1")
        broker.ensure_topic("T1")
        assert broker.topics() == ["T1"]

    def test_unknown_topic(self, broker):
        with pytest.raises(UnknownTopic):
            broker.poll("g", "nope")
        with pytest.raises(UnknownTopic):
            broker.publish("nope", b"x")

    def test_bad_topic_name(self, broker):
        with pytest.raises(UnknownTopic):
            broker.create_topic("../escape")

    @pytest.mark.parametrize("name", [".", "..", "...", "T1\n"])
    def test_topic_name_that_is_no_plain_path_component_rejected(self, broker, name):
        with pytest.raises(UnknownTopic):
            broker.create_topic(name)
        assert broker.topics() == []

    def test_ensure_topic_loads_a_topic_another_handle_created(self, tmp_path):
        late = Broker(tmp_path / "b")
        early = Broker(tmp_path / "b")
        early.create_topic("T1")
        early.publish("T1", b"a")
        assert late.ensure_topic("T1") == "T1"
        assert late.message_count("T1") == 1
        assert [m.payload for m in late.poll("g", "T1")] == [b"a"]

    @pytest.mark.parametrize("call", ["create_topic", "ensure_topic"])
    def test_topic_made_by_another_handle_during_the_mkdir(self, broker, monkeypatch, call):
        real_mkdir = Path.mkdir

        def racing_mkdir(path, *args, **kwargs):
            monkeypatch.setattr(Path, "mkdir", real_mkdir)
            Broker(broker.root).create_topic("T1")  # the other handle wins the race
            return real_mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", racing_mkdir)
        if call == "create_topic":
            with pytest.raises(TopicExists):
                broker.create_topic("T1")
        else:
            assert broker.ensure_topic("T1") == "T1"
            assert broker.publish("T1", b"a") == 0

    def test_ensure_topic_completes_a_topic_whose_creation_crashed(self, tmp_path):
        (tmp_path / "b" / "T1").mkdir(parents=True)  # a crash before segments/ was made
        broker = Broker(tmp_path / "b")
        assert broker.ensure_topic("T1") == "T1"
        assert broker.publish("T1", b"a") == 0
        assert [m.payload for m in broker.poll("g", "T1")] == [b"a"]
        assert broker.topics() == Broker(tmp_path / "b").topics() == ["T1"]

    def test_topic_survives_restart(self, tmp_path):
        a = Broker(tmp_path / "b")
        a.create_topic("T1")
        a.publish("T1", b"one")
        a.publish("T1", b"two")
        reopened = Broker(tmp_path / "b")
        assert reopened.topics() == ["T1"]
        msgs = reopened.poll("g", "T1", 10)
        assert [m.payload for m in msgs] == [b"one", b"two"]

    def test_topic_rolled_by_an_older_build_refuses_to_open(self, tmp_path):
        a = Broker(tmp_path / "b")
        a.create_topic("T1")
        a.publish("T1", b"zero")
        (tmp_path / "b" / "T1" / "segments" / "00000000000000000012.log").write_bytes(b"")
        with pytest.raises(StorageFailure, match="00000000000000000012.log"):
            Broker(tmp_path / "b")


class TestPublish:
    def test_offsets_are_sequential(self, broker):
        broker.create_topic("T1")
        assert broker.publish("T1", b"a") == 0
        assert broker.publish("T1", b"b") == 1

    def test_empty_payload_rejected(self, broker):
        broker.create_topic("T1")
        with pytest.raises(StorageFailure):
            broker.publish("T1", b"")

    def test_publish_restart_poll(self, tmp_path):
        a = Broker(tmp_path / "b")
        a.create_topic("T1")
        a.publish("T1", b"payload")
        del a  # crash: all volatile state dropped
        b = Broker(tmp_path / "b")
        msgs = b.poll("g", "T1", 10)
        assert len(msgs) == 1
        assert msgs[0].payload == b"payload"
        assert msgs[0].offset == 0


class TestPollCommit:
    def test_poll_returns_from_committed(self, broker):
        broker.create_topic("T1")
        for i in range(3):
            broker.publish("T1", f"m{i}".encode())
        msgs = broker.poll("g", "T1", 10)
        assert [m.offset for m in msgs] == [0, 1, 2]

    def test_poll_does_not_advance(self, broker):
        broker.create_topic("T1")
        broker.publish("T1", b"a")
        broker.publish("T1", b"b")
        first = broker.poll("g", "T1", 10)
        second = broker.poll("g", "T1", 10)
        assert [m.offset for m in first] == [m.offset for m in second] == [0, 1]

    def test_poll_after_commit_starts_there(self, broker):
        broker.create_topic("T1")
        for i in range(4):
            broker.publish("T1", f"m{i}".encode())
        broker.commit("g", "T1", 2)
        msgs = broker.poll("g", "T1", 10)
        assert [m.offset for m in msgs] == [2, 3]

    def test_max_batch_respected(self, broker):
        broker.create_topic("T1")
        for i in range(5):
            broker.publish("T1", f"m{i}".encode())
        assert [m.offset for m in broker.poll("g", "T1", 2)] == [0, 1]

    def test_commit_zero_on_empty_topic(self, broker):
        broker.create_topic("T1")
        broker.commit("g", "T1", 0)
        assert broker.committed_offset("g", "T1") == 0

    def test_commit_beyond_next_offset(self, broker):
        broker.create_topic("T1")
        broker.publish("T1", b"a")
        with pytest.raises(OffsetAhead):
            broker.commit("g", "T1", 2)

    def test_negative_commit(self, broker):
        broker.create_topic("T1")
        with pytest.raises(OffsetAhead):
            broker.commit("g", "T1", -1)

    def test_groups_are_independent(self, broker):
        broker.create_topic("T1")
        for i in range(3):
            broker.publish("T1", f"m{i}".encode())
        broker.commit("g1", "T1", 3)
        assert [m.offset for m in broker.poll("g2", "T1", 10)] == [0, 1, 2]
        assert broker.poll("g1", "T1", 10) == []

    def test_commit_then_crash_then_poll_resumes(self, tmp_path):
        a = Broker(tmp_path / "b")
        a.create_topic("T1")
        for i in range(5):
            a.publish("T1", f"m{i}".encode())
        a.commit("g", "T1", 3)
        del a
        b = Broker(tmp_path / "b")
        assert [m.offset for m in b.poll("g", "T1", 10)] == [3, 4]


    def test_fresh_handle_reads_what_another_committed(self, tmp_path):
        a = Broker(tmp_path / "b")
        for topic in ("T1", "T2"):
            a.create_topic(topic)
            for i in range(4):
                a.publish(topic, f"{topic}-{i}".encode())
        a.commit("g", "T1", 1)
        a.commit_many("g", {"T1": 3, "T2": 2})
        b = Broker(tmp_path / "b")
        assert (b.committed_offset("g", "T1"), b.committed_offset("g", "T2")) == (3, 2)
        assert [m.offset for m in b.poll("g", "T2", 10)] == [2, 3]
        assert b.committed_offset("other", "T1") == 0

    def test_commit_many_checks_every_offset_before_writing(self, broker):
        broker.create_topic("T1")
        broker.create_topic("T2")
        broker.publish("T1", b"a")
        with pytest.raises(OffsetAhead):
            broker.commit_many("g", {"T1": 1, "T2": 1})
        with pytest.raises(UnknownTopic):
            broker.commit_many("g", {"T1": 1, "nope": 0})
        assert broker.committed_offset("g", "T1") == 0
        assert not (broker.root / GROUPS_DIR).exists()

    def test_commit_sees_frames_another_handle_published(self, tmp_path):
        reader = Broker(tmp_path / "b")
        reader.create_topic("T1")
        writer = Broker(tmp_path / "b")
        writer.publish("T1", b"a")
        reader.commit("g", "T1", 1)
        assert reader.committed_offset("g", "T1") == 1

    @pytest.mark.parametrize("group", ["../../escaped", "..", "a/b", "", "g\n"])
    def test_group_name_that_is_no_plain_file_name_rejected(self, broker, group):
        broker.create_topic("T1")
        with pytest.raises(InvalidValue):
            broker.commit(group, "T1", 0)
        with pytest.raises(InvalidValue):
            broker.committed_offset(group, "T1")
        with pytest.raises(InvalidValue):
            broker.poll(group, "T1")
        assert not (broker.root.parent / "escaped.log").exists()
        assert not (broker.root / GROUPS_DIR).exists()


def _committed(root, topics=("T1", "T2")):
    reopened = Broker(root)
    return {t: reopened.committed_offset("g", t) for t in topics}


class TestOffsetsLog:
    @pytest.fixture
    def two_topics(self, tmp_path):
        broker = Broker(tmp_path / "b")
        for topic in ("T1", "T2"):
            broker.create_topic(topic)
            for i in range(5):
                broker.publish(topic, f"m{i}".encode())
        return broker

    OLD = {"T1": 1, "T2": 2}
    NEW = {"T1": 4, "T2": 3}

    def test_one_line_per_commit_and_one_fsync(self, two_topics, monkeypatch):
        two_topics.commit_many("g", self.OLD)
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        two_topics.commit_many("g", self.NEW)
        assert len(fsyncs) == 1
        log = two_topics.root / GROUPS_DIR / "g.log"
        assert [json.loads(line) for line in log.read_text().splitlines()] == [self.OLD, self.NEW]

    def test_torn_commit_reads_as_the_old_offsets_or_the_new(self, two_topics):
        two_topics.commit_many("g", self.OLD)
        log = two_topics.root / GROUPS_DIR / "g.log"
        old_len = log.stat().st_size
        two_topics.commit_many("g", self.NEW)
        whole = log.read_bytes()
        for cut in range(old_len, len(whole) + 1):
            log.write_bytes(whole[:cut])  # what a crash inside the append may leave
            assert _committed(two_topics.root) == (self.NEW if cut == len(whole) else self.OLD), cut
        # the next commit overwrites a torn record
        log.write_bytes(whole[:old_len + 3])
        reopened = Broker(two_topics.root)
        reopened.commit("g", "T2", 5)
        assert _committed(two_topics.root) == {"T1": 1, "T2": 5}
        assert len(log.read_text().splitlines()) == 2

    def test_crash_at_the_commit_fsync(self, two_topics, monkeypatch):
        two_topics.commit_many("g", self.OLD)
        monkeypatch.setattr(durable, "os", CrashingOs("after_tmp_write", 1))  # the first fsync
        with pytest.raises(SimulatedCrash):
            two_topics.commit_many("g", self.NEW)
        monkeypatch.undo()
        assert _committed(two_topics.root) in (self.OLD, self.NEW)

    @pytest.mark.parametrize("stage", CrashingOs.STAGES)
    def test_crash_inside_compaction(self, two_topics, monkeypatch, stage):
        two_topics.commit_many("g", self.OLD)
        log = two_topics.root / GROUPS_DIR / "g.log"
        monkeypatch.setattr(broker_mod, "OFFSETS_LOG_BYTES", log.stat().st_size + 1)
        monkeypatch.setattr(durable, "os", CrashingOs(stage, 1))
        with pytest.raises(SimulatedCrash):
            two_topics.commit_many("g", self.NEW)
        monkeypatch.undo()
        assert _committed(two_topics.root) in (self.OLD, self.NEW)

    def test_compaction_keeps_the_log_small(self, two_topics, monkeypatch):
        monkeypatch.setattr(broker_mod, "OFFSETS_LOG_BYTES", 100)
        for i in range(20):
            two_topics.commit_many("g", {"T1": i % 6, "T2": (i + 1) % 6})
            log = two_topics.root / GROUPS_DIR / "g.log"
            assert log.stat().st_size <= 100
            assert _committed(two_topics.root) == {"T1": i % 6, "T2": (i + 1) % 6}

    @pytest.mark.parametrize("log_bytes", [broker_mod.OFFSETS_LOG_BYTES, 100])
    def test_handles_committing_different_topics_keep_each_others_offsets(
            self, two_topics, monkeypatch, log_bytes):
        monkeypatch.setattr(broker_mod, "OFFSETS_LOG_BYTES", log_bytes)  # 100: compact often
        a, b = two_topics, Broker(two_topics.root)
        a.commit_many("g", self.OLD)
        b.committed_offset("g", "T1")  # b reads the group now, a commits after
        for i in range(1, 6):
            a.commit("g", "T1", i)
            b.commit("g", "T2", 5 - i)
            assert _committed(two_topics.root) == {"T1": i, "T2": 5 - i}, i
            assert (a.committed_offset("g", "T1"), b.committed_offset("g", "T2")) == (i, 5 - i)
        lines = (two_topics.root / GROUPS_DIR / "g.log").read_bytes().split(b"\n")
        assert lines[-1] == b"" and all(json.loads(line) for line in lines[:-1])

    def test_concurrent_handles_serialize_their_commits(self, tmp_path, monkeypatch):
        monkeypatch.setattr(broker_mod, "OFFSETS_LOG_BYTES", 200)
        topics = [f"T{i}" for i in range(4)]
        setup = Broker(tmp_path / "b")
        for topic in topics:
            setup.create_topic(topic)
            for i in range(30):
                setup.publish(topic, b"m")
        errors = []

        def consume(topic):
            handle = Broker(tmp_path / "b")
            try:
                for offset in range(1, 31):
                    handle.commit("g", topic, offset)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=consume, args=(t,)) for t in topics]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert _committed(tmp_path / "b", topics) == {t: 30 for t in topics}

    def test_consumer_processes_of_one_group_keep_each_others_offsets(self, two_topics):
        script = ("import sys\nfrom windpdm.broker import Broker\n"
                  "b = Broker(sys.argv[1])\n"
                  "for offset in range(6):\n    b.commit('g', sys.argv[2], offset)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(broker_mod.__file__).parents[1])}
        procs = [subprocess.Popen([sys.executable, "-c", script, str(two_topics.root), topic], env=env)
                 for topic in ("T1", "T2")]
        assert [proc.wait(timeout=60) for proc in procs] == [0, 0]
        assert _committed(two_topics.root) == {"T1": 5, "T2": 5}

    def test_unreadable_last_record_raises(self, two_topics):
        two_topics.commit_many("g", self.OLD)
        log = two_topics.root / GROUPS_DIR / "g.log"
        with open(log, "ab") as fh:
            fh.write(b"[1, 2]\n")
        with pytest.raises(StorageFailure, match="no offset map"):
            Broker(two_topics.root).committed_offset("g", "T1")


class TestDurabilityEdgeCases:
    def test_torn_tail_truncated_on_writer_reopen(self, tmp_path):
        a = Broker(tmp_path / "b")
        a.create_topic("T1")
        a.publish("T1", b"good")
        seg = next((tmp_path / "b" / "T1" / "segments").iterdir())
        with open(seg, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00partial-frame-garbage")
        b = Broker(tmp_path / "b")
        assert b.message_count("T1") == 1
        assert b.publish("T1", b"next") == 1
        msgs = b.poll("g", "T1", 10)
        assert [m.payload for m in msgs] == [b"good", b"next"]

    def test_reader_leaves_a_torn_tail_in_place(self, tmp_path):
        writer = Broker(tmp_path / "b")
        writer.create_topic("T1")
        writer.publish("T1", b"one")
        writer.publish("T1", b"two")
        seg = next((tmp_path / "b" / "T1" / "segments").iterdir())
        with open(seg, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00partial-frame-garbage")
        before = seg.read_bytes()
        reader = Broker(tmp_path / "b")
        assert [m.payload for m in reader.poll("g", "T1", 10)] == [b"one", b"two"]
        assert reader.message_count("T1") == 2
        assert seg.read_bytes() == before
        # the publisher's next frame overwrites the torn one
        assert writer.publish("T1", b"three") == 2
        assert [m.payload for m in reader.poll("g", "T1", 10)] == [b"one", b"two", b"three"]

    def test_reader_instance_sees_writer_appends(self, tmp_path):
        writer = Broker(tmp_path / "b")
        writer.create_topic("T1")
        reader = Broker(tmp_path / "b")
        assert reader.poll("g", "T1", 10) == []
        writer.publish("T1", b"late")
        msgs = reader.poll("g", "T1", 10)
        assert [m.payload for m in msgs] == [b"late"]

    def test_failed_publish_is_overwritten_by_the_retry(self, tmp_path, monkeypatch):
        broker = Broker(tmp_path / "b")
        broker.create_topic("T1")
        assert broker.publish("T1", b"zero") == 0
        real_fsync = os.fsync

        def fail_once(fd):
            monkeypatch.setattr(os, "fsync", real_fsync)
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fail_once)
        with pytest.raises(StorageFailure):
            broker.publish("T1", b"lost")  # written, never acknowledged
        assert broker.publish("T1", b"one") == 1
        reopened = Broker(tmp_path / "b")
        assert [m.payload for m in reopened.poll("g", "T1", 10)] == [b"zero", b"one"]

    def test_offset_gap_behind_live_broker_raises(self, tmp_path):
        broker = Broker(tmp_path / "b")
        broker.create_topic("T1")
        for i in range(3):
            broker.publish("T1", f"m{i}".encode())
        seg = next((tmp_path / "b" / "T1" / "segments").iterdir())
        good_size = seg.stat().st_size
        # a well-formed frame whose offset skips ahead of the log's next one
        payload = b"stray"
        with open(seg, "ab") as fh:
            fh.write(_FRAME_HEADER.pack(len(payload), zlib.crc32(payload), 7, 0.0) + payload)
        with pytest.raises(StorageFailure, match="offset 7"):
            broker.poll("g", "T1", 10)
        with pytest.raises(StorageFailure, match="offset 7"):
            broker.message_count("T1")
        # nothing was dropped: once the stray frame is cut off, all three remain
        os.truncate(seg, good_size)
        assert broker.message_count("T1") == 3
        assert [m.payload for m in broker.poll("g", "T1", 10)] == [b"m0", b"m1", b"m2"]


    def test_stray_frame_met_by_a_first_scan_raises_and_keeps_the_good_frames(self, tmp_path):
        writer = Broker(tmp_path / "b")
        writer.create_topic("T1")
        reader = Broker(tmp_path / "b")
        for i in range(3):
            writer.publish("T1", f"m{i}".encode())
        seg = next((tmp_path / "b" / "T1" / "segments").iterdir())
        good_size = seg.stat().st_size
        payload = b"stray"
        with open(seg, "ab") as fh:
            fh.write(_FRAME_HEADER.pack(len(payload), zlib.crc32(payload), 7, 0.0) + payload)
        # one scan indexes the three good frames, then meets the stray one
        with pytest.raises(StorageFailure, match="offset 7"):
            reader.message_count("T1")
        with pytest.raises(StorageFailure, match="offset 7"):
            reader.poll("g", "T1", 10)
        os.truncate(seg, good_size)
        assert reader.message_count("T1") == 3
        assert [m.payload for m in reader.poll("g", "T1", 10)] == [b"m0", b"m1", b"m2"]

    def test_corrupt_indexed_frame_fails_the_poll(self, broker, tmp_path):
        broker.create_topic("T1")
        for i in range(3):
            broker.publish("T1", f"m{i}".encode())
        seg = next((tmp_path / "broker" / "T1" / "segments").iterdir())
        frame_size = _FRAME_HEADER.size + len(b"m0")
        with open(seg, "r+b") as fh:
            fh.seek(frame_size + _FRAME_HEADER.size)  # first payload byte of offset 1
            fh.write(b"X")
        with pytest.raises(StorageFailure, match="failed validation"):
            broker.poll("g", "T1", 10)
        broker.commit("g", "T1", 2)
        assert [m.payload for m in broker.poll("g", "T1", 10)] == [b"m2"]


class TestPollReads:
    def test_full_batch_opens_its_segment_once(self, broker, monkeypatch):
        broker.create_topic("T1")
        for i in range(256):
            broker.publish("T1", f"m{i}".encode())
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return open(path, *args, **kwargs)

        monkeypatch.setattr(broker_mod, "open", counting_open, raising=False)
        msgs = broker.poll("g", "T1", 256)
        assert [m.offset for m in msgs] == list(range(256))
        assert len(opened) == 1


class TestIdlePoll:
    def _count_slow_calls(self, broker, monkeypatch) -> list[str]:
        """Record every file open, stat and directory listing."""
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(broker_mod, "open", counting("open", open), raising=False)
        monkeypatch.setattr(io, "open", counting("open", io.open))
        monkeypatch.setattr(os, "listdir", counting("listdir", os.listdir))
        monkeypatch.setattr(os, "scandir", counting("scandir", os.scandir))
        monkeypatch.setattr(Path, "iterdir", counting("iterdir", Path.iterdir))
        monkeypatch.setattr(os, "stat", counting("stat", os.stat))
        return calls

    def test_idle_poll_opens_no_file_and_lists_no_directory(self, broker, monkeypatch):
        for topic in ("T1", "T2", "T3"):
            broker.create_topic(topic)
        broker.publish("T1", b"a")
        broker.publish("T2", b"b")
        broker.commit_many("g", {"T1": 1, "T2": 1})
        calls = self._count_slow_calls(broker, monkeypatch)
        for _ in range(3):
            # the segment's size; T3 has no segment yet
            for topic in ("T1", "T2", "T3"):
                calls.clear()
                assert broker.poll("g", topic) == []
                assert calls == ["stat"]
        broker.publish("T3", b"c")
        assert [m.payload for m in broker.poll("g", "T3")] == [b"c"]

    def test_torn_tail_stays_on_the_slow_path_until_the_next_frame(self, tmp_path, monkeypatch):
        writer = Broker(tmp_path / "b")
        writer.create_topic("T1")
        writer.publish("T1", b"one")
        reader = Broker(tmp_path / "b")
        assert [m.payload for m in reader.poll("g", "T1")] == [b"one"]
        reader.commit("g", "T1", 1)
        seg = next((tmp_path / "b" / "T1" / "segments").iterdir())
        with open(seg, "ab") as fh:
            fh.write(b"\x99\x00\x00\x00partial-frame")
        calls = self._count_slow_calls(reader, monkeypatch)
        assert reader.poll("g", "T1") == []
        assert reader.poll("g", "T1") == []
        assert calls.count("open") == 2
        writer.publish("T1", b"two")
        assert [m.payload for m in reader.poll("g", "T1")] == [b"two"]
        reader.commit("g", "T1", 2)
        calls.clear()
        assert reader.poll("g", "T1") == []
        assert calls == ["stat"]

    def test_empty_segment_left_by_a_crash_reads_as_no_frames(self, tmp_path, monkeypatch):
        """A publisher that died between creating the segment and writing its
        first frame leaves an empty file: it holds no frame, an idle poll of it
        makes one stat, and the next publish takes offset 0."""
        root = tmp_path / "b"
        Broker(root).create_topic("T1")
        (root / "T1" / "segments" / broker_mod.SEGMENT_NAME).touch()
        reader = Broker(root)
        assert reader.message_count("T1") == 0
        with monkeypatch.context() as counting:
            calls = self._count_slow_calls(reader, counting)
            assert reader.poll("g", "T1") == []
            assert calls == ["stat"]
        assert Broker(root).publish("T1", b"zero") == 0
        assert [(m.offset, m.payload) for m in reader.poll("g", "T1")] == [(0, b"zero")]

    def test_publish_into_the_active_segment_lists_no_directory(self, broker, monkeypatch):
        broker.create_topic("T1")
        broker.publish("T1", b"a")
        calls = self._count_slow_calls(broker, monkeypatch)
        for i in range(3):
            assert broker.publish("T1", b"b") == i + 1
        assert not LISTINGS & set(calls)

    def test_poll_that_finds_new_frames_lists_no_directory(self, tmp_path, monkeypatch):
        writer = Broker(tmp_path / "b")
        writer.create_topic("T1")
        reader = Broker(tmp_path / "b")
        calls = self._count_slow_calls(reader, monkeypatch)
        for i in range(6):
            writer.publish("T1", f"payload-{i}".encode())
            calls.clear()
            assert [m.offset for m in reader.poll("g", "T1")] == list(range(i + 1))
            assert "open" in calls and not LISTINGS & set(calls)

    def test_random_polls_match_the_published_log(self, tmp_path, monkeypatch):
        """A writer and a reader, both reopened halfway: every poll from a
        random committed offset returns the log's slice, and no poll lists a
        directory."""
        rng = np.random.default_rng(14)
        root = tmp_path / "b"
        writer = Broker(root)
        writer.create_topic("T1")
        reader = Broker(root)
        calls = self._count_slow_calls(reader, monkeypatch)
        published: list[bytes] = []
        for step in range(120):
            if step == 60:
                writer, reader = Broker(root), Broker(root)
                calls.clear()
            for _ in range(int(rng.integers(0, 4))):
                payload = rng.bytes(int(rng.integers(1, 80)))
                assert writer.publish("T1", payload) == len(published)
                published.append(payload)
            start = int(rng.integers(0, len(published) + 1))
            reader.commit("g", "T1", start)
            max_batch = int(rng.integers(1, 20))
            got = reader.poll("g", "T1", max_batch)
            assert [(m.offset, m.payload) for m in got] == list(enumerate(published))[start:start + max_batch]
        assert not LISTINGS & set(calls)


LISTINGS = {"listdir", "scandir", "iterdir"}


class TestAtLeastOnceHarness:
    def test_randomized_crash_schedules(self, tmp_path):
        """Random interleavings of publish/poll/commit with crash points:
        nothing is ever lost; redelivery happens only for offsets polled but
        not committed at the crash."""
        rng = np.random.default_rng(2024)
        for schedule in range(40):
            root = tmp_path / f"s{schedule}"
            broker = Broker(root)
            broker.create_topic("T1")
            to_publish = int(rng.integers(3, 15))
            published = 0
            deliveries: list[int] = []
            redelivery_allowed: set[int] = set()
            while published < to_publish or broker.committed_offset("g", "T1") < published:
                action = rng.random()
                if action < 0.45 and published < to_publish:
                    broker.publish("T1", f"m{published}".encode())
                    published += 1
                elif action < 0.8:
                    batch = broker.poll("g", "T1", int(rng.integers(1, 5)))
                    deliveries.extend(m.offset for m in batch)
                    if batch and rng.random() < 0.4:
                        # crash between poll and commit: these may come again
                        redelivery_allowed.update(m.offset for m in batch)
                        broker = Broker(root)
                        continue
                    if batch:
                        broker.commit("g", "T1", batch[-1].offset + 1)
                else:
                    # crash at an arbitrary point (e.g. right after publish ack)
                    broker = Broker(root)
            assert set(deliveries) == set(range(published)), f"schedule {schedule}"
            seen = set()
            for off in deliveries:
                if off in seen:
                    assert off in redelivery_allowed, f"schedule {schedule}: offset {off}"
                seen.add(off)
