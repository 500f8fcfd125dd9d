import os
import zlib

import numpy as np
import pytest

from windpdm import broker as broker_mod
from windpdm.broker import _FRAME_HEADER, Broker
from windpdm.errors import OffsetAhead, StorageFailure, TopicExists, UnknownTopic


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

    def test_topic_survives_restart(self, tmp_path):
        a = Broker(tmp_path / "b")
        a.create_topic("T1")
        a.publish("T1", b"one")
        a.publish("T1", b"two")
        reopened = Broker(tmp_path / "b")
        assert reopened.topics() == ["T1"]
        msgs = reopened.poll("g", "T1", 10)
        assert [m.payload for m in msgs] == [b"one", b"two"]


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

    def test_segment_rolling(self, tmp_path):
        broker = Broker(tmp_path / "b", max_segment_bytes=64)
        broker.create_topic("T1")
        for i in range(12):
            broker.publish("T1", f"payload-{i:02d}".encode())
        segments = list((tmp_path / "b" / "T1" / "segments").iterdir())
        assert len(segments) > 1
        reopened = Broker(tmp_path / "b", max_segment_bytes=64)
        msgs = reopened.poll("g", "T1", 100)
        assert [m.payload.decode() for m in msgs] == [f"payload-{i:02d}" for i in range(12)]

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

    def test_batch_spanning_segments_reads_each_in_order(self, tmp_path):
        broker = Broker(tmp_path / "b", max_segment_bytes=64)
        broker.create_topic("T1")
        for i in range(12):
            broker.publish("T1", f"payload-{i:02d}".encode())
        broker.commit("g", "T1", 1)
        msgs = Broker(tmp_path / "b", max_segment_bytes=64).poll("g", "T1", 9)
        assert [m.offset for m in msgs] == list(range(1, 10))
        assert [m.payload.decode() for m in msgs] == [f"payload-{i:02d}" for i in range(1, 10)]


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
