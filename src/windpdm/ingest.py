"""Parse and persist per-turbine SCADA data.

Two record kinds, two append-only logs per turbine:

* operational rows: 10-minute mean values of the declared parameters,
  CSV dialect ``timestamp,param_1,...,param_P`` with RFC-3339 UTC stamps;
* status events: alarm activations/deactivations at second resolution,
  CSV dialect ``timestamp,alarm_code,kind`` with kind in {A, D}.

Both kinds are read the same way: the header line must match exactly (a
mismatch names the expected header), then each non-blank line is one record,
and an error names its line number. A store scan parses the log lines with
the same row parsers and keeps the records of a time range.

The store keeps one directory per turbine holding ``operational.log`` and
``status.log`` (log lines are exactly the CSV data lines), with the manifest
at the store root. Appends are fsynced before returning, so an acknowledged
append survives a process kill. An append writes at the acknowledged length,
over what a failed one left; a torn trailing line (no LF) is cut, and the
cut fsynced, when the writer first opens the log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

from .durable import append_at, cut_torn_line, iter_lines
from .errors import (
    AlarmAlternationViolation,
    MalformedRow,
    MisalignedTimestamp,
    NonFiniteValue,
    OutOfOrderAppend,
    UnknownAlarmCode,
    UnknownTurbine,
)
from .manifest import MANIFEST_FILENAME, Manifest, load_manifest
from .timeutil import format_rfc3339, is_slot_aligned, parse_rfc3339

OPERATIONAL_LOG = "operational.log"
STATUS_LOG = "status.log"
STATUS_HEADER = "timestamp,alarm_code,kind"


class EventKind(Enum):
    ACTIVATION = "A"
    DEACTIVATION = "D"


@dataclass(frozen=True)
class OperationalRecord:
    turbine_id: str
    timestamp: int  # epoch seconds, 10-minute aligned
    values: tuple[float, ...]

    def to_csv_line(self) -> str:
        return ",".join([format_rfc3339(self.timestamp)] + [repr(v) for v in self.values])


@dataclass(frozen=True)
class StatusEvent:
    turbine_id: str
    timestamp: int  # epoch seconds
    alarm_code: str
    kind: EventKind

    def to_csv_line(self) -> str:
        return f"{format_rfc3339(self.timestamp)},{self.alarm_code},{self.kind.value}"


Record = Union[OperationalRecord, StatusEvent]


def _read_csv(data: bytes, header: str, parse_row: Callable, names, turbine_id: str) -> list:
    """Check the header line, then parse each non-blank line after it with
    ``parse_row(line, names, turbine_id, lineno)``."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"byte {exc.start}: not UTF-8 ({exc.reason})") from None
    got = lines[0].strip()
    if not got:
        raise MalformedRow("missing header line")
    if got != header:
        raise MalformedRow(f"header mismatch: expected {header!r}, got {got!r}")
    return [parse_row(line.strip(), names, turbine_id, lineno)
            for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


def parse_operational_csv(data: bytes, parameters: list[str], turbine_id: str) -> list[OperationalRecord]:
    """Parse operational CSV bytes (header + data lines) against a parameter list."""
    header = ",".join(["timestamp"] + parameters)
    return _read_csv(data, header, parse_operational_row, parameters, turbine_id)


def parse_operational_row(line: str, parameters: list[str], turbine_id: str, lineno: int = 0) -> OperationalRecord:
    parts = line.split(",")
    if len(parts) != len(parameters) + 1:
        raise MalformedRow(f"line {lineno}: expected {len(parameters) + 1} columns, got {len(parts)}")
    ts = parse_rfc3339(parts[0])
    if not is_slot_aligned(ts):
        raise MisalignedTimestamp(f"line {lineno}: {parts[0]} is not on a 10-minute boundary")
    values = []
    for raw in parts[1:]:
        try:
            v = float(raw)
        except ValueError:
            raise MalformedRow(f"line {lineno}: unparseable number {raw!r}") from None
        if not math.isfinite(v):
            raise NonFiniteValue(f"line {lineno}: non-finite value {raw!r}")
        values.append(v)
    return OperationalRecord(turbine_id, ts, tuple(values))


def parse_status_csv(data: bytes, alarm_dictionary: Iterable[str], turbine_id: str) -> list[StatusEvent]:
    """Parse status CSV bytes; alternation is validated at the store, not here."""
    return _read_csv(data, STATUS_HEADER, parse_status_row, frozenset(alarm_dictionary), turbine_id)


def parse_status_row(line: str, alarms: frozenset[str], turbine_id: str, lineno: int = 0) -> StatusEvent:
    parts = line.split(",")
    if len(parts) != 3:
        raise MalformedRow(f"line {lineno}: expected 3 columns, got {len(parts)}")
    ts = parse_rfc3339(parts[0])
    code = parts[1].strip()
    if code not in alarms:
        raise UnknownAlarmCode(f"line {lineno}: alarm code {code!r} not in dictionary")
    kind_raw = parts[2].strip()
    try:
        kind = EventKind(kind_raw)
    except ValueError:
        raise MalformedRow(f"line {lineno}: kind must be A or D, got {kind_raw!r}") from None
    return StatusEvent(turbine_id, ts, code, kind)


class _LogState:
    """Mutable tail state of one log, rebuilt by scanning on open."""

    __slots__ = ("length", "last_ts", "active_alarms")

    def __init__(self, length: int):
        self.length = length  # bytes of whole lines acknowledged
        self.last_ts: int | None = None
        self.active_alarms: set[str] = set()


class TurbineStore:
    """Append-only partitioned store: one directory per turbine, two logs each.

    Single writer per turbine log; scans open independent file handles so any
    number of readers may run concurrently with the writer.
    """

    def __init__(self, root: Path, manifest: Manifest):
        self.root = Path(root)
        self.manifest = manifest
        self._states: dict[tuple[str, str], _LogState] = {}

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(cls, root: Path, manifest: Manifest) -> "TurbineStore":
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        manifest.save(root / MANIFEST_FILENAME)
        for turbine in manifest.turbines:
            (root / turbine).mkdir(exist_ok=True)
        return cls(root, manifest)

    @classmethod
    def open(cls, root: Path) -> "TurbineStore":
        root = Path(root)
        manifest = load_manifest(root / MANIFEST_FILENAME)
        return cls(root, manifest)

    # -- internals ----------------------------------------------------------

    def _log_path(self, turbine_id: str, log_name: str) -> Path:
        if turbine_id not in self.manifest.turbines:
            raise UnknownTurbine(f"turbine {turbine_id!r} not declared in manifest")
        return self.root / turbine_id / log_name

    def _state(self, turbine_id: str, log_name: str) -> _LogState:
        key = (turbine_id, log_name)
        state = self._states.get(key)
        if state is not None:
            return state
        state = _LogState(cut_torn_line(self._log_path(turbine_id, log_name)))
        rows = self._rows(turbine_id, log_name)
        if log_name == OPERATIONAL_LOG:
            for rec in rows:
                state.last_ts = rec.timestamp
        else:
            for ev in rows:
                state.last_ts = ev.timestamp
                if ev.kind is EventKind.ACTIVATION:
                    state.active_alarms.add(ev.alarm_code)
                else:
                    state.active_alarms.discard(ev.alarm_code)
        self._states[key] = state
        return state

    def _rows(self, turbine_id: str, log_name: str) -> Iterator[Record]:
        """The records of one stored log in file order; none if it does not exist yet."""
        path = self._log_path(turbine_id, log_name)
        if not path.exists():
            return iter(())
        if log_name == OPERATIONAL_LOG:
            parse_row, names = parse_operational_row, self.manifest.parameters
        else:
            parse_row, names = parse_status_row, self.manifest.alarm_set
        return (parse_row(line, names, turbine_id) for line in iter_lines(path))

    def _scan(self, turbine_id: str, log_name: str, start: int | None, end: int | None) -> Iterator[Record]:
        return (rec for rec in self._rows(turbine_id, log_name)
                if (start is None or rec.timestamp >= start) and (end is None or rec.timestamp < end))

    # -- operations -----------------------------------------------------------

    def append(self, turbine_id: str, records: list[Record], skip_invalid: bool = False) -> tuple[int, list[str]]:
        """Append records (all operational or all status) to the matching log.

        Records must be timestamp-sorted and strictly after the last stored
        timestamp. With ``skip_invalid`` the offending records are dropped and
        reported as warnings instead of raising. Returns (appended, warnings).
        """
        if not records:
            return 0, []
        kind = type(records[0])
        if any(type(rec) is not kind for rec in records):
            raise MalformedRow("append batch mixes operational and status records")
        log_name = OPERATIONAL_LOG if kind is OperationalRecord else STATUS_LOG
        path = self._log_path(turbine_id, log_name)
        state = self._state(turbine_id, log_name)

        accepted: list[Record] = []
        warnings: list[str] = []
        last_ts = state.last_ts
        active = set(state.active_alarms)

        def reject(exc: Exception) -> None:
            if skip_invalid:
                warnings.append(str(exc))
            else:
                raise exc

        for rec in records:
            if rec.turbine_id != turbine_id:
                reject(UnknownTurbine(f"record turbine {rec.turbine_id!r} does not match {turbine_id!r}"))
                continue
            if last_ts is not None and rec.timestamp <= last_ts:
                reject(OutOfOrderAppend(
                    f"timestamp {format_rfc3339(rec.timestamp)} not after {format_rfc3339(last_ts)}"))
                continue
            if isinstance(rec, StatusEvent):
                if rec.kind is EventKind.ACTIVATION and rec.alarm_code in active:
                    reject(AlarmAlternationViolation(f"alarm {rec.alarm_code!r} already active"))
                    continue
                if rec.kind is EventKind.DEACTIVATION and rec.alarm_code not in active:
                    reject(AlarmAlternationViolation(f"alarm {rec.alarm_code!r} not active"))
                    continue
                if rec.kind is EventKind.ACTIVATION:
                    active.add(rec.alarm_code)
                else:
                    active.discard(rec.alarm_code)
            accepted.append(rec)
            last_ts = rec.timestamp

        if accepted:
            payload = "".join(rec.to_csv_line() + "\n" for rec in accepted)
            state.length = append_at(path, state.length, payload.encode("utf-8"))
            state.last_ts = last_ts
            state.active_alarms = active
        return len(accepted), warnings

    def scan_operational(self, turbine_id: str, start: int | None = None, end: int | None = None) -> Iterator[OperationalRecord]:
        """Stored operational records with timestamp in [start, end), ascending."""
        return self._scan(turbine_id, OPERATIONAL_LOG, start, end)

    def scan_status(self, turbine_id: str, start: int | None = None, end: int | None = None) -> Iterator[StatusEvent]:
        """Stored status events with timestamp in [start, end), ascending."""
        return self._scan(turbine_id, STATUS_LOG, start, end)
