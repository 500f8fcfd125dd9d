"""Critical alarm patterns: the failure classes.

Status events become per-10-minute-slot transactions (the set of alarms
active at any point within the slot). Apriori enumeration over the critical
alarm subset yields frequent itemsets; the maximal ones, ranked by support,
become the failure classes. Class 0 is reserved for Normal.

Support is the fraction of ALL transactions in the mined range containing
the itemset (empty slots count in the denominator), so a pattern active in
10% of slots mines at support 0.10.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidValue, NoPatternsFound
from .ingest import EventKind, StatusEvent
from .timeutil import SLOT_SECONDS, slot_floor

NORMAL_CLASS = 0
HORIZONS_MINUTES = (10, 20, 30, 40, 50, 60)
DEFAULT_MIN_SUPPORT = 0.01
DEFAULT_MAX_PATTERNS = 8


@dataclass(frozen=True)
class Transaction:
    turbine_id: str
    slot: int  # epoch seconds, 10-minute aligned
    active_alarms: frozenset[str]


@dataclass(frozen=True)
class StatusPattern:
    pattern_id: int
    alarm_set: frozenset[str]
    support: float

    def describe(self) -> str:
        return f"Pattern {self.pattern_id}: {', '.join(sorted(self.alarm_set))} (support {self.support:.4f})"


@dataclass
class ClassTimeline:
    turbine_id: str
    start: int
    end: int  # half-open [start, end), both slot-aligned
    labels: list[int]  # one label per slot, NORMAL_CLASS or a pattern_id
    class_ids: list[int]  # NORMAL_CLASS first, then pattern ids

    def defines(self, ts: int) -> bool:
        return self.start <= ts < self.end and ts % SLOT_SECONDS == 0

    def label_at(self, ts: int) -> int:
        if not self.defines(ts):
            raise KeyError(f"timestamp {ts} outside timeline [{self.start}, {self.end})")
        return self.labels[(ts - self.start) // SLOT_SECONDS]


def _active_intervals(events: list[StatusEvent], start: int, end: int) -> dict[str, list[tuple[int, int]]]:
    """Per alarm, the [activation, deactivation) intervals clipped to [start, end).

    A leading deactivation means the alarm was active at range start; a
    trailing activation stays active through range end.
    """
    intervals: dict[str, list[tuple[int, int]]] = {}
    open_since: dict[str, int] = {}
    for ev in events:
        if ev.kind is EventKind.ACTIVATION:
            open_since[ev.alarm_code] = ev.timestamp
        else:
            began = open_since.pop(ev.alarm_code, start)
            intervals.setdefault(ev.alarm_code, []).append((began, ev.timestamp))
    for code, began in open_since.items():
        intervals.setdefault(code, []).append((began, end))
    return intervals


def build_transactions(events: list[StatusEvent], turbine_id: str, start: int, end: int) -> list[Transaction]:
    """One transaction per slot in [start, end); an alarm is in the slot's set
    iff its active interval intersects the slot."""
    if start % SLOT_SECONDS or end % SLOT_SECONDS:
        raise InvalidValue("range bounds must be 10-minute aligned")
    n_slots = (end - start) // SLOT_SECONDS
    sets: list[set[str]] = [set() for _ in range(n_slots)]
    for code, spans in _active_intervals(events, start, end).items():
        for began, ended in spans:
            lo = max(began, start)
            hi = min(ended, end)
            if hi <= lo:
                continue
            first = (slot_floor(lo) - start) // SLOT_SECONDS
            last = (slot_floor(hi - 1) - start) // SLOT_SECONDS
            for i in range(first, last + 1):
                sets[i].add(code)
    return [
        Transaction(turbine_id, start + i * SLOT_SECONDS, frozenset(s))
        for i, s in enumerate(sets)
    ]


def mine_patterns(
    transactions: list[Transaction],
    critical_alarms: set[str],
    min_support: float = DEFAULT_MIN_SUPPORT,
    max_patterns: int = DEFAULT_MAX_PATTERNS,
) -> list[StatusPattern]:
    """Maximal frequent critical-alarm itemsets, ranked by support.

    Apriori level-wise enumeration over the transactions' critical-alarm
    projections; itemsets with a frequent strict superset are discarded.
    Pattern ids are assigned 1..n in rank order (support descending, then
    sorted alarm names for determinism).
    """
    if not (0.0 < min_support <= 1.0):
        raise InvalidValue(f"min_support must be in (0, 1], got {min_support}")
    if not critical_alarms:
        raise InvalidValue("critical_alarms must be non-empty")
    total = len(transactions)
    if total == 0:
        raise NoPatternsFound("no transactions in range")
    critical = frozenset(critical_alarms)
    projected = [t.active_alarms & critical for t in transactions if t.active_alarms & critical]

    def support_count(itemset: frozenset[str]) -> int:
        return sum(1 for s in projected if itemset <= s)

    def frequent(count: int) -> bool:
        return count / total >= min_support

    singles = sorted({code for s in projected for code in s})
    frequent_by_level: list[dict[frozenset[str], int]] = []
    level = {}
    for code in singles:
        c = support_count(frozenset([code]))
        if frequent(c):
            level[frozenset([code])] = c
    while level:
        frequent_by_level.append(level)
        prev = set(level)
        candidates = set()
        k = len(next(iter(prev))) + 1
        for a, b in combinations(sorted(prev, key=sorted), 2):
            union = a | b
            if len(union) != k:
                continue
            if all(frozenset(sub) in prev for sub in combinations(union, k - 1)):
                candidates.add(union)
        level = {}
        for cand in candidates:
            c = support_count(cand)
            if frequent(c):
                level[cand] = c

    all_frequent: dict[frozenset[str], int] = {}
    for lvl in frequent_by_level:
        all_frequent.update(lvl)
    if not all_frequent:
        raise NoPatternsFound(
            f"no critical-alarm itemset reaches min_support {min_support} over {total} transactions")
    maximal = [
        (itemset, count)
        for itemset, count in all_frequent.items()
        if not any(itemset < other for other in all_frequent)
    ]
    maximal.sort(key=lambda ic: (-ic[1], sorted(ic[0])))
    maximal = maximal[:max_patterns]
    return [
        StatusPattern(pattern_id=i + 1, alarm_set=itemset, support=count / total)
        for i, (itemset, count) in enumerate(maximal)
    ]


def assign_class(active_alarms: frozenset[str], patterns: list[StatusPattern], critical_alarms: set[str]) -> int:
    """Label one slot: Normal when no critical alarm is active, otherwise the
    pattern with maximal Jaccard similarity to the active critical set
    (ties break to the lowest pattern id)."""
    if not patterns:
        raise ValueError("patterns must be non-empty")
    active_critical = active_alarms & frozenset(critical_alarms)
    if not active_critical:
        return NORMAL_CLASS
    best_id = None
    best_score = -1.0
    for p in sorted(patterns, key=lambda p: p.pattern_id):
        union = len(p.alarm_set | active_critical)
        score = len(p.alarm_set & active_critical) / union if union else 0.0
        if score > best_score:
            best_score = score
            best_id = p.pattern_id
    return best_id


def build_class_timeline(
    transactions: list[Transaction],
    patterns: list[StatusPattern],
    critical_alarms: set[str],
) -> ClassTimeline:
    """Total labeling of every slot covered by the transactions."""
    if not transactions:
        raise ValueError("transactions must be non-empty")
    slots = sorted(t.slot for t in transactions)
    start = slots[0]
    end = slots[-1] + SLOT_SECONDS
    expected = list(range(start, end, SLOT_SECONDS))
    if slots != expected:
        raise ValueError("transactions must cover a contiguous slot range")
    by_slot = {t.slot: t for t in transactions}
    labels = [assign_class(by_slot[s].active_alarms, patterns, critical_alarms) for s in expected]
    class_ids = [NORMAL_CLASS] + [p.pattern_id for p in sorted(patterns, key=lambda p: p.pattern_id)]
    return ClassTimeline(transactions[0].turbine_id, start, end, labels, class_ids)


def patterns_report(patterns: list[StatusPattern], turbine_id: str) -> str:
    """Text report listing each failure class with its alarm set and support."""
    lines = [f"turbine {turbine_id}: {len(patterns) + 1} classes"]
    lines.append(f"  Class {NORMAL_CLASS}: Normal")
    for p in sorted(patterns, key=lambda p: p.pattern_id):
        lines.append(f"  Class {p.pattern_id}: {', '.join(sorted(p.alarm_set))} (support {p.support:.4f})")
    return "\n".join(lines) + "\n"
