"""Store manifest: declared parameter names, alarm dictionary, turbine ids.

Format is a key-value text file, one declaration per line:

    parameters = [wind_speed, rotor_rpm, gen_temp]
    alarms = [GOverSpMax, WLFRTActive, InvCH0Loss]
    turbines = [T01, T02]
    critical_alarms = [GOverSpMax, WLFRTActive]

``critical_alarms`` is optional and defaults to the full alarm dictionary.
Names must match ``[A-Za-z0-9_.+-]+`` so they can double as path components
and CSV fields without quoting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .durable import atomic_write
from .errors import DataError

NAME_RE = re.compile(r"^[A-Za-z0-9_.+-]+$")

MANIFEST_FILENAME = "manifest.txt"


def _check_names(kind: str, names: list[str]) -> list[str]:
    seen = set()
    for name in names:
        if not NAME_RE.match(name):
            raise DataError(f"invalid {kind} name {name!r}")
        if name in seen:
            raise DataError(f"duplicate {kind} name {name!r}")
        seen.add(name)
    return names


@dataclass
class Manifest:
    parameters: list[str]
    alarms: list[str]
    turbines: list[str]
    critical_alarms: list[str] = field(default_factory=list)

    def __post_init__(self):
        _check_names("parameter", self.parameters)
        _check_names("alarm", self.alarms)
        _check_names("turbine", self.turbines)
        if not self.critical_alarms:
            self.critical_alarms = list(self.alarms)
        _check_names("critical alarm", self.critical_alarms)
        unknown = set(self.critical_alarms) - set(self.alarms)
        if unknown:
            raise DataError(f"critical alarms not in alarm dictionary: {sorted(unknown)}")

    @property
    def alarm_set(self) -> frozenset[str]:
        return frozenset(self.alarms)

    def to_text(self) -> str:
        lines = [
            f"parameters = [{', '.join(self.parameters)}]",
            f"alarms = [{', '.join(self.alarms)}]",
            f"turbines = [{', '.join(self.turbines)}]",
            f"critical_alarms = [{', '.join(self.critical_alarms)}]",
        ]
        return "\n".join(lines) + "\n"

    def save(self, path: Path) -> None:
        atomic_write(path, self.to_text().encode("utf-8"))


def parse_key_values(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise DataError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_name_list(value: str) -> list[str]:
    value = value.strip()
    if not (value.startswith("[") and value.endswith("]")):
        raise DataError(f"expected a bracketed list, got {value!r}")
    inner = value[1:-1].strip()
    if not inner:
        return []
    return [part.strip() for part in inner.split(",")]


def parse_bool(value: str) -> bool:
    """``true`` or ``false``, in any case; any other value raises DataError."""
    if value.strip().lower() not in ("true", "false"):
        raise DataError(f"expected true or false, got {value!r}")
    return value.strip().lower() == "true"


def load_manifest(path: Path) -> Manifest:
    if not path.exists():
        raise DataError(f"manifest not found: {path}")
    kv = parse_key_values(path.read_text(encoding="utf-8"))
    for required in ("parameters", "alarms", "turbines"):
        if required not in kv:
            raise DataError(f"manifest missing key {required!r}")
    return Manifest(
        parameters=parse_name_list(kv["parameters"]),
        alarms=parse_name_list(kv["alarms"]),
        turbines=parse_name_list(kv["turbines"]),
        critical_alarms=parse_name_list(kv.get("critical_alarms", "[]")),
    )
