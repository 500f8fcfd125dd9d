"""Smoke tests: each script under scripts/ runs to exit 0 on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("grid_surface.py", ["--trees", "2,4", "--depth", "2,3", "--rows", "200"]),
    ("end_to_end_demo.py", ["--turbines", "1", "--days", "4", "--workdir", "demo"]),
])
def test_script_exits_0(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
