"""Independent reference implementations used only to check the real ones.

Everything here is deliberately brute force: Jacobi rotations instead of a
library eigensolver, power-set enumeration instead of Apriori, exhaustive
candidate scans instead of sorted sweeps, per-second simulation instead of
interval arithmetic, double loops instead of vectorized counting. Slow and
obvious beats fast and clever for an oracle.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

from windpdm.durable import iter_lines
from windpdm.errors import DataError
from windpdm.timeutil import parse_rfc3339


def jacobi_eigh(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvectors as rows).
    """
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < tol / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order].T


def brute_force_itemsets(transactions: list[frozenset], items: list[str], min_support: float):
    """All frequent itemsets by power-set enumeration, plus the maximal ones.

    Returns (frequent: dict itemset -> count, maximal: set of itemsets).
    Support compares count/total >= min_support, matching the miner.
    """
    total = len(transactions)
    frequent = {}
    for size in range(1, len(items) + 1):
        for combo in combinations(sorted(items), size):
            itemset = frozenset(combo)
            count = sum(1 for t in transactions if itemset <= t)
            if total > 0 and count / total >= min_support:
                frequent[itemset] = count
    maximal = {
        s for s in frequent
        if not any(s < other for other in frequent)
    }
    return frequent, maximal


def brute_force_best_split(X: np.ndarray, y: np.ndarray, n_classes: int):
    """Exhaustive argmin weighted-Gini over all (feature, midpoint) pairs.

    Uses the same exact-fraction comparison contract as the trainer:
    maximize S = (nr*sum(lc^2) + nl*sum(rc^2)) / (nl*nr), ties to the lowest
    feature index then lowest threshold. Returns (feature, threshold) or
    None when no split strictly reduces impurity.
    """
    n, p = X.shape
    parent_sq = sum(int(np.sum(y == c)) ** 2 for c in range(n_classes))
    best = None  # (a, b, feature, threshold)
    for f in range(p):
        values = sorted(set(float(v) for v in X[:, f]))
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = X[:, f] <= thr
            nl = int(left.sum())
            nr = n - nl
            lc = [int(np.sum(y[left] == c)) for c in range(n_classes)]
            rc = [int(np.sum(y[~left] == c)) for c in range(n_classes)]
            a = nr * sum(v * v for v in lc) + nl * sum(v * v for v in rc)
            b = nl * nr
            if best is None or a * best[1] > best[0] * b:
                best = (a, b, f, thr)
    if best is None:
        return None
    a, b, f, thr = best
    if a * n <= parent_sq * b:
        return None
    return f, thr


def union_find_groups(corr: np.ndarray, names: list[str], threshold: float):
    """Transitive closure of |r| >= threshold via union-find."""
    parent = list(range(len(names)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if abs(corr[i, j]) >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    by_root = {}
    for i in range(len(names)):
        by_root.setdefault(find(i), []).append(names[i])
    groups = sorted((sorted(g) for g in by_root.values()), key=lambda g: g[0])
    return groups


def per_second_active_slots(events, start: int, end: int) -> dict[int, set[str]]:
    """Second-by-second sweep: which alarms are active at any instant of each
    10-minute slot. Activation at second s means active during [s, deact)."""
    active = set()
    # assume alarms active at range start if their first event is a deactivation
    first_kind = {}
    for ev in events:
        if ev.alarm_code not in first_kind:
            first_kind[ev.alarm_code] = ev.kind.value
    for code, kind in first_kind.items():
        if kind == "D":
            active.add(code)
    by_second = {}
    for ev in sorted(events, key=lambda e: e.timestamp):
        by_second.setdefault(ev.timestamp, []).append(ev)
    slots: dict[int, set[str]] = {s: set() for s in range(start, end, 600)}
    for second in range(start, end):
        for ev in by_second.get(second, []):
            if ev.kind.value == "A":
                active.add(ev.alarm_code)
            else:
                active.discard(ev.alarm_code)
        slots[second - ((second - start) % 600)].update(active)
    return slots


def recompute_metrics(pred: list[int], actual: list[int], classes: list[int]):
    """Definitional recomputation with plain loops and no shared code paths."""
    k = len(classes)
    counts = [[0] * k for _ in range(k)]
    for p, a in zip(pred, actual):
        counts[classes.index(a)][classes.index(p)] += 1
    total = len(pred)
    per_class = []
    for i in range(k):
        row = sum(counts[i])
        per_class.append(counts[i][i] / row if row else None)
    normal = classes.index(0)
    err_total = err_hit = 0
    for i in range(k):
        if i == normal:
            continue
        for j in range(k):
            err_total += counts[i][j]
            if j != normal:
                err_hit += counts[i][j]
    sensitivity = err_hit / err_total if err_total else None
    normal_row = sum(counts[normal])
    specificity = counts[normal][normal] / normal_row if normal_row else None
    global_acc = sum(counts[i][i] for i in range(k)) / total
    return {
        "counts": counts,
        "per_class": per_class,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "global": global_acc,
        "prevalence": [sum(counts[i]) / total for i in range(k)],
    }


def sink_keys_per_line(path) -> dict[str, set[int]]:
    """Per turbine, the epoch seconds of a notification sink's whole lines,
    each line parsed on its own with ``json.loads``: a line gives a key when
    it is a JSON object whose "turbine" and "t" are strings and "t" parses as
    RFC 3339. The reference for the agent's block-wise ``index_sink``."""
    keys: dict[str, set[int]] = {}
    for line in iter_lines(path):
        try:
            doc = json.loads(line)
            turbine, stamp = doc["turbine"], doc["t"]
            if isinstance(turbine, str) and isinstance(stamp, str):
                keys.setdefault(turbine, set()).add(parse_rfc3339(stamp))
        except (ValueError, KeyError, TypeError, DataError):
            continue
    return keys
