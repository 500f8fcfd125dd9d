import ast
import os
from pathlib import Path

import pytest

import windpdm
from windpdm import durable
from windpdm.durable import append_at, atomic_write, cut_torn_line, fsync_dir, iter_lines


def count_fsyncs(monkeypatch) -> list[int]:
    calls = []
    real_fsync = os.fsync

    def fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


class TestAppendAt:
    def test_writes_at_pos_and_cuts_what_lies_past_it(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"one\ngarbage")
        assert append_at(path, 4, b"two\n") == 8
        assert path.read_bytes() == b"one\ntwo\n"

    def test_empty_data_cuts_to_pos(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"one\ntorn")
        assert append_at(path, 4, b"") == 4
        assert path.read_bytes() == b"one\n"

    def test_fsyncs_before_returning(self, tmp_path, monkeypatch):
        path = tmp_path / "log"
        path.write_bytes(b"")
        calls = count_fsyncs(monkeypatch)
        append_at(path, 0, b"x\n")
        assert len(calls) == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            append_at(tmp_path / "nope", 0, b"x\n")


class TestCutTornLine:
    def test_whole_lines_are_kept(self, tmp_path, monkeypatch):
        path = tmp_path / "log"
        path.write_bytes(b"a\nb\n")
        calls = count_fsyncs(monkeypatch)
        assert cut_torn_line(path) == 4
        assert path.read_bytes() == b"a\nb\n"
        assert calls == []  # nothing cut, nothing synced

    def test_torn_line_is_cut_and_synced(self, tmp_path, monkeypatch):
        path = tmp_path / "log"
        path.write_bytes(b"a\nb\nhalf-writ")
        calls = count_fsyncs(monkeypatch)
        assert cut_torn_line(path) == 4
        assert path.read_bytes() == b"a\nb\n"
        assert len(calls) == 1

    def test_no_newline_at_all_leaves_empty(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"torn")
        assert cut_torn_line(path) == 0
        assert path.read_bytes() == b""

    def test_missing_file_is_created_empty(self, tmp_path):
        path = tmp_path / "log"
        assert cut_torn_line(path) == 0
        assert path.read_bytes() == b""

    def test_search_crosses_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(durable, "READ_BYTES", 4)
        path = tmp_path / "log"
        path.write_bytes(b"ab\n" + b"x" * 13)
        assert cut_torn_line(path) == 3
        assert path.read_bytes() == b"ab\n"


class TestIterLines:
    def test_whole_lines_without_newline(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes("one\n\nü\r\n".encode() + b"torn")
        assert list(iter_lines(path)) == ["one", "", "ü\r"]


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        path = tmp_path / "artifact"
        atomic_write(path, b"old")
        atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]

    def test_syncs_file_then_directory(self, tmp_path, monkeypatch):
        calls = count_fsyncs(monkeypatch)
        atomic_write(tmp_path / "artifact", b"data")
        assert len(calls) == 2

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "artifact"
        atomic_write(path, b"old")

        def fail(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"


def test_fsync_dir_syncs_the_directory(tmp_path, monkeypatch):
    calls = count_fsyncs(monkeypatch)
    fsync_dir(tmp_path)
    assert len(calls) == 1


# -- one write path ------------------------------------------------------------

WRITE_CALLS = {"write_text", "write_bytes", "truncate", "touch"}
OS_WRITE_CALLS = {"fsync", "replace", "rename", "open", "write", "ftruncate"}


def _write_mode(node: ast.Call):
    """The writing mode of an ``open(path, mode)`` or ``path.open(mode)``
    call, ``"<computed>"`` for a builtin ``open`` whose mode is not a literal,
    else None. A ``.open`` whose first argument is not a string literal takes
    a path, not a mode (``TurbineStore.open(root)``)."""
    func = node.func
    builtin = isinstance(func, ast.Name) and func.id == "open"
    if not (builtin or isinstance(func, ast.Attribute) and func.attr == "open"):
        return None
    index = 1 if builtin else 0
    mode = node.args[index] if len(node.args) > index else None
    for kw in node.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return "<computed>" if builtin and mode is not None else None
    return mode.value if set(mode.value) & set("wax+") else None


def durable_write_violations(source: str) -> list[str]:
    """Writes in ``source`` that bypass ``windpdm.durable``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: from os import {a.name}"
                      for a in node.names if a.name in OS_WRITE_CALLS]
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id == "os" and func.attr in OS_WRITE_CALLS:
                found.append(f"line {node.lineno}: os.{func.attr}")
                continue
            if func.attr in WRITE_CALLS:
                found.append(f"line {node.lineno}: .{func.attr}")
        mode = _write_mode(node)
        if mode is not None:
            found.append(f"line {node.lineno}: open mode {mode!r}")
    return found


def test_the_guard_catches_each_kind_of_write():
    source = "\n".join([
        "import os",
        "from os import replace",
        "os.fsync(fd)",
        "os.replace(a, b)",
        "p.write_text('x')",
        "p.write_bytes(b'x')",
        "fh.truncate(0)",
        "p.touch()",
        "open(p, 'ab')",
        "open(p, mode='w')",
        "open(p, 'r+b')",
        "p.open('x')",
        "open(p, m)",
        "open(p)",
        "open(p, 'rb')",
        "TurbineStore.open(root)",
        "p.open()",
    ])
    assert len(durable_write_violations(source)) == 12


def test_every_write_in_the_package_goes_through_durable():
    package = Path(windpdm.__file__).parent
    violations = {
        path.name: found
        for path in sorted(package.glob("*.py")) if path.name != "durable.py"
        if (found := durable_write_violations(path.read_text(encoding="utf-8")))
    }
    assert violations == {}
