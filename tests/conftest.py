import threading
import time

import numpy as np
import pytest

from windpdm.manifest import Manifest
from windpdm.ingest import TurbineStore
from windpdm.timeutil import parse_rfc3339

T0 = parse_rfc3339("2015-01-01T00:00:00Z")


@pytest.fixture(autouse=True)
def no_leaked_agent_threads():
    """Fail a test that leaves an agent consumer thread running: it would go
    on polling into the tests after it."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 2.0
    leaked = []
    for thread in set(threading.enumerate()) - before:
        if thread.name.startswith("agent-"):
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                leaked.append(thread.name)
    if leaked:
        pytest.fail(f"agent threads still alive 2 s after the test: {leaked}")


@pytest.fixture
def small_manifest():
    return Manifest(
        parameters=["wind_speed", "rotor_rpm", "power_kw", "gen_temp"],
        alarms=["GOverSpMax", "WLFRTActive", "InvCH0Loss", "YawTqAsym"],
        turbines=["T1", "T2"],
        critical_alarms=["GOverSpMax", "WLFRTActive", "InvCH0Loss"],
    )


@pytest.fixture
def store(tmp_path, small_manifest):
    return TurbineStore.create(tmp_path / "store", small_manifest)


def make_planted_grid_data(n=1200, p=3, planted_depth=7, seed=11, min_rows=20, n_classes=3):
    """Labels from a planted random tree: deep conjunctions that shallow
    forests structurally cannot fit. Used by the grid-search checks."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, p))
    y = np.zeros(n, dtype=np.int64)
    counter = [0]

    def assign(rows, d):
        if d == 0 or rows.size < min_rows:
            y[rows] = counter[0] % n_classes
            counter[0] += 1
            return
        f = int(rng.integers(0, p))
        vals = X[rows, f]
        thr = float(np.quantile(vals, rng.uniform(0.35, 0.65)))
        left, right = rows[vals <= thr], rows[vals > thr]
        if left.size == 0 or right.size == 0:
            y[rows] = counter[0] % n_classes
            counter[0] += 1
            return
        assign(left, d - 1)
        assign(right, d - 1)

    assign(np.arange(n), planted_depth)
    return X, y
