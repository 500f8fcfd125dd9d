"""UTC timestamp helpers.

Timestamps travel through the pipeline as integer epoch seconds; RFC-3339
strings appear only at file-format boundaries. Operational data lives on a
10-minute grid (600 s slots).
"""

from datetime import datetime, timezone

from .errors import MalformedRow

SLOT_SECONDS = 600


def parse_rfc3339(text: str) -> int:
    """Parse an RFC-3339 UTC timestamp into epoch seconds."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(raw)
        if dt.tzinfo is None:
            raise MalformedRow(f"timestamp {text!r} has no UTC offset")
        return int(dt.astimezone(timezone.utc).timestamp())
    except (ValueError, OverflowError) as exc:  # the offset can move a date out of range
        raise MalformedRow(f"bad timestamp {text!r}: {exc}") from None


def format_rfc3339(ts: int) -> str:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def is_slot_aligned(ts: int) -> bool:
    return ts % SLOT_SECONDS == 0


def slot_floor(ts: int) -> int:
    return ts - (ts % SLOT_SECONDS)
