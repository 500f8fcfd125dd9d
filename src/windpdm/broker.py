"""Embedded durable pub/sub commit log, one topic per turbine.

Guarantees (the contract the monitoring agent builds on):

* publish() returns only after the frame is fsynced, so an acknowledged
  message survives a process kill;
* polls never advance the consumer position; commit_many() durably records
  the next-to-read offset of each of its topics for a group, all or none, so
  every message is delivered at least once, with redelivery confined to the
  polled-but-uncommitted window;
* offsets are contiguous from 0 and observed in order between commits.

On-disk layout: ``<topic>/segments/<base-offset>.log`` files of
length-prefixed, crc32-checksummed frames, and one offsets log per consumer
group, ``@groups/<group>.log`` (``NAME_RE`` rejects ``@``, so no topic can
take that name). A topic has one publishing handle, which keeps the offsets
and the end of its last acknowledged frame in memory. publish() writes at
that end and cuts what lies past it, so the bytes of a failed publish or of a
frame torn by a crash are overwritten by the next acknowledged frame. No
other call writes a segment: every handle reads an incomplete or invalid tail
frame as not yet published and skips it until then.

Each line of an offsets log is one commit: a JSON object holding the group's
whole offset map, appended with one fsync, so a crash leaves the round's old
offsets or its new ones. Every read and write of the log holds an ``flock``
on ``@groups`` (shared to read, exclusive to commit), which serializes
commits across handles and processes. A commit re-reads the last whole line
under its lock and writes that map with only its own topics changed, so
consumers of different topics of one group, in one process or several, do
not undo each other's commits. Once the log passes ``OFFSETS_LOG_BYTES`` the
next commit replaces it by its one record. A handle reads the map on the
group's first use and keeps it in memory for its polls, updating it at each
of its commits; a topic is consumed for a group by one handle at a time.

An idle poll opens no file. It is answered from memory and two stats when
the group has committed every indexed offset, the last scanned segment is
still as long as the scan found it, and no segment has been started after
it; otherwise the topic is rescanned. The directory's mtime is not used: its
coarse clock can hide a roll made within one tick.

Appends to one topic are serialized by a lock and commits by the flock;
polls are independent. The intended deployment is one publisher process and
one consumer process per topic sharing the directory.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .durable import append_at, atomic_write, flocked, fsync_dir
from .errors import InvalidValue, OffsetAhead, StorageFailure, TopicExists, UnknownTopic
from .manifest import NAME_RE

_FRAME_HEADER = struct.Struct("<IIQd")  # payload len, crc32(payload), offset, publish ts
SEGMENT_SUFFIX = ".log"
DEFAULT_SEGMENT_BYTES = 64 * 1024 * 1024
GROUPS_DIR = "@groups"
OFFSETS_LOG_BYTES = 64 * 1024  # a group's offsets log is compacted past this size


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
        self.lock = threading.Lock()
        # per offset: (segment path, byte position of frame start); len() is the next offset
        self.index: list[tuple[Path, int]] = []
        # per segment: byte position after the last complete frame scanned or published
        self.scan_pos: dict[Path, int] = {}
        # the last segment scanned or published to
        self.active: Path | None = None
        # caught_up's memo of (n, segment_path(n)): a Path built per idle poll is slow
        self._next_segment: tuple[int, Path] = (0, self.segment_path(0))

    def segment_path(self, base_offset: int) -> Path:
        return self.segments_dir / f"{base_offset:020d}{SEGMENT_SUFFIX}"

    def segment_files(self) -> list[Path]:
        files = [p for p in self.segments_dir.iterdir() if p.name.endswith(SEGMENT_SUFFIX)]
        return sorted(files, key=lambda p: int(p.stem))

    def caught_up(self, start: int) -> bool:
        """Whether a poll from ``start`` would find nothing, decided without a
        scan: ``start`` is the end of the index, the active segment is as long
        as it was scanned, and no segment starts at the next offset (a check
        skipped while the active segment is that one, which holds no frame)."""
        with self.lock:
            if start != len(self.index):
                return False
            active, end = self.active, self.scan_pos.get(self.active, 0)
            if self._next_segment[0] != start:
                self._next_segment = (start, self.segment_path(start))
            upcoming = self._next_segment[1]
        try:
            if active is not None and os.stat(active).st_size != end:
                return False
        except OSError:
            return False
        return active == upcoming or not os.path.exists(upcoming)


class _GroupLog:
    """A consumer group's committed offsets, kept in memory from its log."""

    def __init__(self, path: Path):
        self.path = path
        self.lock = threading.Lock()
        self.offsets: dict[str, int] = {}
        self.length = 0  # byte length of the log's whole lines
        try:
            with flocked(path.parent, exclusive=False):
                self.reload()
        except FileNotFoundError:  # no group has committed yet
            pass
        except OSError as exc:
            raise StorageFailure(f"locking {path.parent} failed: {exc}") from exc

    def reload(self) -> None:
        """Read the map and length from the log's last whole line (under an
        ``flock`` of its directory); a missing log is an empty map."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise StorageFailure(f"reading {self.path} failed: {exc}") from exc
        length = data.rfind(b"\n") + 1  # a torn last line is no commit
        offsets = {}
        if length:
            try:
                offsets = json.loads(data[data.rfind(b"\n", 0, length - 1) + 1:length])
            except ValueError as exc:
                raise StorageFailure(f"{self.path}: unreadable last record: {exc}") from exc
            if not isinstance(offsets, dict) or not all(isinstance(v, int) for v in offsets.values()):
                raise StorageFailure(f"{self.path}: last record is no offset map")
        self.offsets, self.length = offsets, length


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
        self._groups: dict[str, _GroupLog] = {}
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
            state.active = segment
            return offset

    def _active_segment(self, state: _TopicState) -> Path:
        segments = state.segment_files()
        # the acknowledged end, not the file size, which counts a failed publish
        if segments and state.scan_pos.get(segments[-1], 0) < self.max_segment_bytes:
            return segments[-1]
        segment = state.segment_path(len(state.index))
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
                segments = state.segment_files()
                for seg in segments:
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
                if segments:
                    state.active = segments[-1]
            except OSError as exc:
                raise StorageFailure(f"topic {state.name}: scan failed: {exc}") from exc

    def _group(self, group: str) -> _GroupLog:
        log = self._groups.get(group)
        if log is None:
            if not NAME_RE.match(group):  # a group names a file under the broker root
                raise InvalidValue(f"invalid group name {group!r}")
            with self._registry_lock:
                log = self._groups.get(group)
                if log is None:
                    log = self._groups[group] = _GroupLog(self.root / GROUPS_DIR / f"{group}.log")
        return log

    def committed_offset(self, group: str, topic: str) -> int:
        self._state(topic)
        return self._group(group).offsets.get(topic, 0)

    def poll(self, group: str, topic: str, max_batch: int = 256) -> list[Message]:
        """Messages from the group's committed offset onward, in order, read with
        one open per segment. Does not advance the committed offset. A caught-up
        topic opens no file (see the module docstring)."""
        state = self._state(topic)
        start = self._group(group).offsets.get(topic, 0)
        if state.caught_up(start):
            return []
        self._refresh_index(state)
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
        self.commit_many(group, {topic: offset})

    def commit_many(self, group: str, offsets: dict[str, int]) -> None:
        """Durably record the next-to-read offset of every topic in
        ``offsets`` for the group, all or none: one line holding the group's
        whole offset map, appended to its log with one fsync."""
        log = self._group(group)
        for topic, offset in offsets.items():
            state = self._state(topic)
            if offset < 0:
                raise OffsetAhead(f"negative offset {offset}")
            if offset > len(state.index):
                self._refresh_index(state)
                if offset > len(state.index):
                    raise OffsetAhead(f"commit {offset} is ahead of next offset {len(state.index)}")
        with log.lock:
            try:
                if not log.length and not log.path.parent.is_dir():  # the group's first commit
                    log.path.parent.mkdir(exist_ok=True)
                    fsync_dir(self.root)
                with flocked(log.path.parent, exclusive=True):
                    log.reload()  # another handle may have committed other topics
                    merged = {**log.offsets, **offsets}
                    record = (json.dumps(merged, sort_keys=True, separators=(",", ":")) + "\n").encode()
                    if log.length and log.length + len(record) <= OFFSETS_LOG_BYTES:
                        length = append_at(log.path, log.length, record)
                    else:  # the group's first commit, or compaction
                        atomic_write(log.path, record)
                        length = len(record)
            except OSError as exc:
                raise StorageFailure(f"commit to {log.path} failed: {exc}") from exc
            log.offsets, log.length = merged, length

    def message_count(self, topic: str) -> int:
        state = self._state(topic)
        self._refresh_index(state)
        return len(state.index)
