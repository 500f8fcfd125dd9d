"""Every file write of windpdm. Logs (store, broker segments and offsets
logs, sinks) are created by ``create_file`` or ``cut_torn_line`` and written
by ``append_at`` at the length their owner acknowledged and cut back to
their last whole entry on open, or skipped there by readers, so a failed or
torn append is never read back. Whole files (bundles, compacted offsets
logs, manifest, datasets, reports) are replaced by ``atomic_write``, CSV
files through ``atomic_write_csv``: a crash leaves the old file or the new
one. Files that several processes write (offsets logs) are read and written
under a ``flocked`` lock on their directory.
"""

from __future__ import annotations

import csv
import fcntl
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

READ_BYTES = 1 << 20  # block size of log reads; a follower finishes a line it cuts


def fsync_dir(path: Path) -> None:
    """Make the directory's entries (files created, renamed) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def flocked(directory: Path, exclusive: bool) -> Iterator[None]:
    """Hold an exclusive or a shared ``flock`` on ``directory``, which
    serializes the writers of the files in it across handles and processes."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        yield
    finally:
        os.close(fd)  # releases the lock


def create_file(path: Path) -> None:
    """Create ``path`` if it is missing, keeping any bytes it holds, and fsync
    its directory so that the new entry survives a crash."""
    with open(path, "ab"):
        pass
    fsync_dir(Path(path).parent)


def append_at(path: Path, pos: int, data: bytes) -> int:
    """Write ``data`` at byte ``pos`` of the existing file, cut what lies past
    it, fsync, and return ``pos + len(data)``. ``pos`` is the acknowledged
    length, so the bytes a failed append left behind are overwritten; empty
    ``data`` cuts the file to ``pos``."""
    with open(path, "r+b") as fh:
        fh.seek(pos)
        fh.write(data)
        fh.truncate()
        fh.flush()
        os.fsync(fh.fileno())
    return pos + len(data)


def cut_torn_line(path: Path) -> int:
    """Cut the bytes after the last newline (a line torn by a crash), found by
    reading back from the end; return the length left. Creates a missing file."""
    with open(path, "a+b") as fh:
        size = end = fh.seek(0, os.SEEK_END)
        keep = 0
        while end > 0:
            start = max(0, end - READ_BYTES)
            fh.seek(start)
            cut = fh.read(end - start).rfind(b"\n")
            if cut >= 0:
                keep = start + cut + 1
                break
            end = start
    if keep < size:
        append_at(path, keep, b"")
    return keep


def iter_lines(path: Path) -> Iterator[str]:
    """The whole lines of a UTF-8 file, lazily, without their newline."""
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        for line in fh:
            if line.endswith("\n"):
                yield line[:-1]


def atomic_write(path: Path, data: bytes) -> None:
    """Write and fsync ``<name>.tmp``, rename it over ``path``, fsync the directory."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def atomic_write_csv(path: Path, header: list[str], rows: Iterable[list]) -> None:
    """``atomic_write`` a CSV file: the header, then one line per row, each
    ended by a bare newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write(path, buf.getvalue().encode("utf-8"))
