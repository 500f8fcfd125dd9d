"""Embedded durable pub/sub commit log, one topic per turbine.

Guarantees (the contract the monitoring agent builds on):

* publish() returns only after the frame is fsynced, so an acknowledged
  message survives a process kill;
* polls never advance the consumer position; commit_many() durably records
  the next-to-read offset of each of its topics for a group, all or none, so
  every message is delivered at least once, with redelivery confined to the
  polled-but-uncommitted window;
* offsets are contiguous from 0 and observed in order between commits.

On-disk layout: a topic is ``<topic>/segments/``, made by one ``mkdir``,
holding one segment file, ``SEGMENT_NAME``, of length-prefixed,
crc32-checksummed frames, which the topic's first publish creates; one
offsets log per consumer group is ``@groups/<group>.log`` (``NAME_RE``
rejects ``@``, so no topic can take that name). A handle keeps each topic as
the start of every frame and the end of the last; only opening a topic lists
its directory. A ``segments/`` directory that holds any other ``*.log`` was
rolled by an older build, so opening it raises ``StorageFailure`` rather
than drop those frames. The one publishing handle of a topic writes at the
end of the segment and cuts what lies past it, so a failed or torn frame is
overwritten by the next acknowledged one. No other call writes the segment:
every handle reads an incomplete or invalid tail frame as not yet published
and skips it until then.

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

The tail rule, ``_TopicState.refresh``, is the one place that looks for
what other handles appended: one stat of the segment, scanned from its end
if it grew; a missing segment holds no frame yet. A poll whose committed
offset has then reached the next offset returns at once, so an idle poll
makes one stat and opens no file.

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
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .durable import append_at, atomic_write, create_file, flocked, fsync_dir
from .errors import InvalidValue, OffsetAhead, StorageFailure, TopicExists, UnknownTopic
from .manifest import NAME_RE

_FRAME_HEADER = struct.Struct("<IIQd")  # payload len, crc32(payload), offset, publish ts
SEGMENT_NAME = "00000000000000000000.log"  # a topic's one segment: the name of the first one older builds rolled
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
        """Index the topic's segment, listing its directory once."""
        self.name = name
        self.path = root / name / "segments" / SEGMENT_NAME
        self.lock = threading.Lock()
        self.starts, self.end = array("q"), 0  # the start of each frame and the end of the last
        if rolled := sorted(p.name for p in self.path.parent.glob("*.log") if p.name != SEGMENT_NAME):
            raise StorageFailure(f"topic {name}: {self.path.parent} holds segments rolled by an "
                                 f"older build, which this one cannot read: {', '.join(rolled)}")
        self.scan()

    @property
    def next_offset(self) -> int:
        return len(self.starts)

    def scan(self) -> None:
        """Index the frames past ``end``; a frame that breaks offset
        contiguity raises StorageFailure."""
        try:
            if (size := os.stat(self.path).st_size) <= self.end:
                return
            with open(self.path, "rb") as fh:
                for offset, _ts, _payload, next_pos in _frames(fh, self.end, size):
                    if offset != len(self.starts):
                        raise StorageFailure(f"topic {self.name}: offset {offset} at {self.path} "
                                             f"breaks contiguity (expected {len(self.starts)})")
                    self.starts.append(self.end)
                    self.end = next_pos
        except OSError as exc:
            if isinstance(exc, FileNotFoundError) and not self.end:
                return  # nothing is published yet
            raise StorageFailure(f"topic {self.name}: scan failed: {exc}") from exc

    def refresh(self) -> int:
        """Index what other handles appended by the tail rule (module
        docstring), and return the next offset."""
        with self.lock:
            self.scan()
            return len(self.starts)


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

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._topics: dict[str, _TopicState] = {}
        self._groups: dict[str, _GroupLog] = {}
        self._registry_lock = threading.Lock()
        for entry in sorted(self.root.iterdir()):
            if entry.is_dir() and (entry / "segments").is_dir():
                self._topics[entry.name] = _TopicState(entry.name, self.root)

    # -- topic registry -------------------------------------------------------

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
            segments_dir = self.root / name / "segments"
            try:
                # fails if this handle or another made the topic; completes a half-made one
                segments_dir.mkdir(parents=True)
            except FileExistsError:
                raise TopicExists(f"topic {name!r} already exists") from None
            fsync_dir(segments_dir.parent)
            fsync_dir(self.root)
            self._topics[name] = _TopicState(name, self.root)
            return name

    def ensure_topic(self, name: str) -> str:
        try:
            return self.create_topic(name)
        except TopicExists:  # load it if another handle made it after this one opened
            with self._registry_lock:
                if name not in self._topics:
                    self._topics[name] = _TopicState(name, self.root)
            return name

    # -- publishing -----------------------------------------------------------

    def publish(self, topic: str, payload: bytes) -> int:
        if not payload:
            raise StorageFailure("empty payload rejected")
        state = self._state(topic)
        with state.lock:
            offset = state.next_offset
            frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload), offset, time.time()) + payload
            try:
                if not offset:
                    create_file(state.path)
                # the acknowledged end, not the file size, which counts a failed publish
                end = append_at(state.path, state.end, frame)
            except OSError as exc:
                raise StorageFailure(f"publish to topic {topic} failed: {exc}") from exc
            state.starts.append(state.end)
            state.end = end
            return offset

    # -- consuming --------------------------------------------------------------

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
        one open. Does not advance the committed offset. A caught-up topic opens
        no file (see the module docstring)."""
        state = self._state(topic)
        start = self._group(group).offsets.get(topic, 0)
        if start >= state.refresh():
            return []
        with state.lock:  # end only grows, so it bounds the wanted frames
            wanted, pos, end = min(max_batch, len(state.starts) - start), state.starts[start], state.end
        out: list[Message] = []
        try:
            with open(state.path, "rb") as fh:
                for offset, ts, payload, _next in islice(_frames(fh, pos, end), wanted):
                    if offset != start + len(out):
                        break
                    out.append(Message(topic, offset, ts, payload))
        except OSError as exc:
            raise StorageFailure(f"reading {state.path} failed: {exc}") from exc
        if len(out) < wanted:
            raise StorageFailure(f"frame at {state.path}:{state.starts[start + len(out)]} failed validation")
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
            if offset > state.next_offset and offset > (next_offset := state.refresh()):
                raise OffsetAhead(f"commit {offset} is ahead of next offset {next_offset}")
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
        return self._state(topic).refresh()
