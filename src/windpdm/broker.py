"""Embedded durable pub/sub commit log, one topic per turbine.

Guarantees (the contract the monitoring agent builds on):

* publish() returns only after the frame is fsynced, so an acknowledged
  message survives a process kill;
* polls never advance the consumer position; commit() durably records the
  next-to-read offset per (group, topic), so every message is delivered at
  least once, with redelivery confined to the polled-but-uncommitted window;
* offsets are contiguous from 0 and observed in order between commits.

On-disk layout per topic: ``segments/<base-offset>.log`` files of
length-prefixed, crc32-checksummed frames, plus ``offsets/<group>.offset``.
A topic has one publishing handle, which keeps the offsets and the end of
its last acknowledged frame in memory. publish() writes at that end and cuts
what lies past it, so the bytes of a failed publish or of a frame torn by a
crash are overwritten by the next acknowledged frame. No other call writes a
segment: every handle reads an incomplete or invalid tail frame as not yet
published and skips it until then.

Appends to one topic are serialized by a lock; different topics, and
poll/commit across groups, are independent. The intended deployment is one
publisher process and one consumer process per topic sharing the directory.
"""

from __future__ import annotations

import struct
import threading
import time
import zlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .durable import append_at, atomic_write, fsync_dir
from .errors import OffsetAhead, StorageFailure, TopicExists, UnknownTopic
from .manifest import NAME_RE

_FRAME_HEADER = struct.Struct("<IIQd")  # payload len, crc32(payload), offset, publish ts
SEGMENT_SUFFIX = ".log"
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Message:
    topic: str
    offset: int
    timestamp: float
    payload: bytes


class _TopicState:
    def __init__(self, name: str, root: Path):
        self.name = name
        self.dir = root / name
        self.segments_dir = self.dir / "segments"
        self.offsets_dir = self.dir / "offsets"
        self.lock = threading.Lock()
        # per offset: (segment path, byte position of frame start); len() is the next offset
        self.index: list[tuple[Path, int]] = []
        # per segment: byte position after the last complete frame scanned or published
        self.scan_pos: dict[Path, int] = {}

    def segment_files(self) -> list[Path]:
        files = [p for p in self.segments_dir.iterdir() if p.name.endswith(SEGMENT_SUFFIX)]
        return sorted(files, key=lambda p: int(p.stem))


def _frames(fh, pos: int, end: int):
    """Yield ``(offset, timestamp, payload, next_pos)`` for each complete,
    crc-valid frame of the open segment ``fh`` from byte ``pos``, stopping at
    the first torn or corrupt one. Nothing past ``end`` is read, so a corrupt
    length field cannot cause a large read."""
    fh.seek(pos)
    while pos + _FRAME_HEADER.size <= end:
        header = fh.read(_FRAME_HEADER.size)
        if len(header) < _FRAME_HEADER.size:
            return
        length, crc, offset, ts = _FRAME_HEADER.unpack(header)
        next_pos = pos + _FRAME_HEADER.size + length
        if next_pos > end:
            return
        payload = fh.read(length)
        if len(payload) < length or zlib.crc32(payload) != crc:
            return
        yield offset, ts, payload, next_pos
        pos = next_pos


class Broker:
    """Handle over a broker directory; all volatile state rebuilds from disk."""

    def __init__(self, root: Path, max_segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_segment_bytes = max_segment_bytes
        self._topics: dict[str, _TopicState] = {}
        self._registry_lock = threading.Lock()
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and (entry / "segments").is_dir():
                self._load_topic(entry.name)

    # -- topic registry -------------------------------------------------------

    def _load_topic(self, name: str) -> _TopicState:
        state = _TopicState(name, self.root)
        self._refresh_index(state)
        self._topics[name] = state
        return state

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def _state(self, topic: str) -> _TopicState:
        try:
            return self._topics[topic]
        except KeyError:
            raise UnknownTopic(f"topic {topic!r} does not exist") from None

    def create_topic(self, name: str) -> str:
        if not NAME_RE.match(name):  # a topic is a directory, named like a turbine
            raise UnknownTopic(f"invalid topic name {name!r}")
        with self._registry_lock:
            if name in self._topics or (self.root / name).exists():
                raise TopicExists(f"topic {name!r} already exists")
            state = _TopicState(name, self.root)
            state.segments_dir.mkdir(parents=True)
            state.offsets_dir.mkdir(parents=True)
            fsync_dir(state.dir)
            fsync_dir(self.root)
            self._topics[name] = state
            return name

    def ensure_topic(self, name: str) -> str:
        try:
            return self.create_topic(name)
        except TopicExists:
            return name

    # -- publishing -----------------------------------------------------------

    def publish(self, topic: str, payload: bytes) -> int:
        if not payload:
            raise StorageFailure("empty payload rejected")
        state = self._state(topic)
        with state.lock:
            offset = len(state.index)
            segment = self._active_segment(state)
            frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload), offset, time.time()) + payload
            pos = state.scan_pos.get(segment, 0)
            try:
                state.scan_pos[segment] = append_at(segment, pos, frame)
            except OSError as exc:
                raise StorageFailure(f"append to {segment} failed: {exc}") from exc
            state.index.append((segment, pos))
            return offset

    def _active_segment(self, state: _TopicState) -> Path:
        segments = state.segment_files()
        # the acknowledged end, not the file size, which counts a failed publish
        if segments and state.scan_pos.get(segments[-1], 0) < self.max_segment_bytes:
            return segments[-1]
        segment = state.segments_dir / f"{len(state.index):020d}{SEGMENT_SUFFIX}"
        segment.touch()
        fsync_dir(state.segments_dir)
        return segment

    # -- consuming --------------------------------------------------------------

    def _refresh_index(self, state: _TopicState) -> None:
        """Pick up frames appended since the last scan (possibly by another
        process), resuming from the stored byte positions. A frame that breaks
        offset contiguity raises StorageFailure and is never indexed, nor is
        anything after it."""
        with state.lock:
            try:
                for seg in state.segment_files():
                    pos = state.scan_pos.get(seg, 0)
                    if (size := seg.stat().st_size) <= pos:
                        continue
                    with open(seg, "rb") as fh:
                        for offset, _ts, _payload, next_pos in _frames(fh, pos, size):
                            if offset != len(state.index):
                                state.scan_pos[seg] = pos
                                raise StorageFailure(
                                    f"topic {state.name}: offset {offset} at {seg} breaks contiguity "
                                    f"(expected {len(state.index)})")
                            state.index.append((seg, pos))
                            pos = next_pos
                    state.scan_pos[seg] = pos
            except OSError as exc:
                raise StorageFailure(f"topic {state.name}: scan failed: {exc}") from exc

    def _offset_file(self, state: _TopicState, group: str) -> Path:
        return state.offsets_dir / f"{group}.offset"

    def committed_offset(self, group: str, topic: str) -> int:
        state = self._state(topic)
        path = self._offset_file(state, group)
        try:
            text = path.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return 0
        except OSError as exc:
            raise StorageFailure(f"reading {path} failed: {exc}") from exc
        return int(text) if text else 0

    def poll(self, group: str, topic: str, max_batch: int = 256) -> list[Message]:
        """Messages from the group's committed offset onward, in order, read with
        one open per segment. Does not advance the committed offset."""
        state = self._state(topic)
        self._refresh_index(state)
        start = self.committed_offset(group, topic)
        with state.lock:
            wanted = state.index[start:start + max_batch]
            ends = {seg: state.scan_pos[seg] for seg, _ in wanted}
        out: list[Message] = []
        while len(out) < len(wanted):
            seg, pos = wanted[len(out)]
            try:
                with open(seg, "rb") as fh:
                    frames = _frames(fh, pos, ends[seg])
                    for offset, ts, payload, _next in islice(frames, len(wanted) - len(out)):
                        if offset != start + len(out):
                            break
                        out.append(Message(topic, offset, ts, payload))
            except OSError as exc:
                raise StorageFailure(f"reading {seg} failed: {exc}") from exc
            if len(out) < len(wanted) and wanted[len(out)][0] == seg:
                raise StorageFailure(f"frame at {seg}:{wanted[len(out)][1]} failed validation")
        return out

    def commit(self, group: str, topic: str, offset: int) -> None:
        """Durably record the next-to-read offset for the group."""
        state = self._state(topic)
        self._refresh_index(state)
        if offset > len(state.index):
            raise OffsetAhead(f"commit {offset} is ahead of next offset {len(state.index)}")
        if offset < 0:
            raise OffsetAhead(f"negative offset {offset}")
        path = self._offset_file(state, group)
        try:
            atomic_write(path, str(offset).encode())
        except OSError as exc:
            raise StorageFailure(f"commit to {path} failed: {exc}") from exc

    def message_count(self, topic: str) -> int:
        state = self._state(topic)
        self._refresh_index(state)
        return len(state.index)
