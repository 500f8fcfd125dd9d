"""Operational-parameter reduction funnel.

Two stages over a matrix of 10-minute mean values: PCA keeps the leading
components covering 99% of cumulative variance and maps each back to the
parameter with maximal absolute loading; then parameters whose pairwise
Pearson correlation reaches 0.95 (transitively) collapse to one
representative per group. Both thresholds are configurable; all steps are
pure functions of their inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstantColumn, DegenerateMatrix

DEFAULT_VARIANCE_THRESHOLD = 0.99
DEFAULT_CORRELATION_THRESHOLD = 0.95


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n, p) float64
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DegenerateMatrix(f"expected 2-D matrix, got shape {self.values.shape}")
        n, p = self.values.shape
        if p < 1 or p != len(self.names):
            raise DegenerateMatrix(f"matrix has {p} columns but {len(self.names)} names")
        if n < 2:
            raise DegenerateMatrix(f"need at least 2 observations, got {n}")
        if not np.all(np.isfinite(self.values)):
            raise DegenerateMatrix("matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass
class StandardizedMatrix:
    matrix: FeatureMatrix
    dropped_constant: list[str]


@dataclass
class PcaResult:
    components: np.ndarray  # (p, p), one component per row, descending variance
    explained_variance_ratio: np.ndarray  # (p,), non-negative, sums to 1
    names: list[str]


@dataclass
class SelectionReport:
    original_names: list[str]
    dropped_constant: list[str]
    retained_component_count: int
    pca_survivors: list[str]
    correlation_groups: list[list[str]]
    final_names: list[str]
    variance_threshold: float
    correlation_threshold: float
    explained_variance_ratio: list[float] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            "parameter selection report",
            f"  original parameters: {len(self.original_names)}",
            f"  constant (dropped): {len(self.dropped_constant)}"
            + (f" -> {', '.join(self.dropped_constant)}" if self.dropped_constant else ""),
            f"  variance threshold: {self.variance_threshold}",
            f"  retained components: {self.retained_component_count}",
            f"  parameters after variance stage: {len(self.pca_survivors)}",
            f"  correlation threshold: {self.correlation_threshold}",
            f"  correlation groups ({len(self.correlation_groups)}):",
        ]
        for group in self.correlation_groups:
            lines.append(f"    {group[0]} <- [{', '.join(group)}]")
        lines.append(f"  final parameters ({len(self.final_names)}): {', '.join(self.final_names)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "original_names": self.original_names,
                "dropped_constant": self.dropped_constant,
                "retained_component_count": self.retained_component_count,
                "pca_survivors": self.pca_survivors,
                "correlation_groups": self.correlation_groups,
                "final_names": self.final_names,
                "variance_threshold": self.variance_threshold,
                "correlation_threshold": self.correlation_threshold,
                "explained_variance_ratio": self.explained_variance_ratio,
            },
            indent=2,
        )


def standardize(m: FeatureMatrix) -> StandardizedMatrix:
    """Center and unit-scale each column (n-1 variance denominator).

    Constant columns carry no information and are dropped and reported.
    """
    std = m.values.std(axis=0, ddof=1)
    keep = std > 0.0
    dropped = [name for name, k in zip(m.names, keep) if not k]
    if not np.any(keep):
        raise DegenerateMatrix("all columns are constant")
    kept_values = m.values[:, keep]
    standardized = (kept_values - kept_values.mean(axis=0)) / kept_values.std(axis=0, ddof=1)
    names = [name for name, k in zip(m.names, keep) if k]
    return StandardizedMatrix(FeatureMatrix(standardized, names), dropped)


def pca(sm: StandardizedMatrix) -> PcaResult:
    """Eigendecompose the sample covariance of a standardized matrix."""
    x = sm.matrix.values
    n = x.shape[0]
    cov = (x.T @ x) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    components = eigvecs[:, order].T  # row i = i-th component
    eigvals = np.clip(eigvals, 0.0, None)
    total = eigvals.sum()
    if total <= 0.0:
        raise DegenerateMatrix("covariance matrix has zero trace")
    ratios = eigvals / total
    # fix the sign convention: largest-|loading| entry is positive
    for i in range(components.shape[0]):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    return PcaResult(components, ratios, list(sm.matrix.names))


def select_by_cumulative_variance(r: PcaResult, threshold: float = DEFAULT_VARIANCE_THRESHOLD) -> tuple[list[str], int]:
    """Parameters carried by the leading components covering ``threshold``.

    k = smallest count of leading components whose ratio sum reaches the
    threshold; each of those components contributes the parameter with the
    maximal absolute loading. Returns (names deduped in first-appearance
    order, k).
    """
    if not (0.0 < threshold <= 1.0):
        raise DegenerateMatrix(f"threshold must be in (0, 1], got {threshold}")
    cumulative = np.cumsum(r.explained_variance_ratio)
    reached = np.nonzero(cumulative >= threshold - 1e-12)[0]
    k = int(reached[0]) + 1 if reached.size else len(r.explained_variance_ratio)
    selected: list[str] = []
    for i in range(k):
        name = r.names[int(np.argmax(np.abs(r.components[i])))]
        if name not in selected:
            selected.append(name)
    return selected, k


def pearson_matrix(m: FeatureMatrix) -> np.ndarray:
    """Symmetric p-by-p Pearson correlation matrix with exact unit diagonal."""
    std = m.values.std(axis=0, ddof=1)
    constant = [name for name, s in zip(m.names, std) if s == 0.0]
    if constant:
        raise ConstantColumn(f"constant columns have undefined correlation: {constant}")
    centered = m.values - m.values.mean(axis=0)
    cov = (centered.T @ centered) / (m.n - 1)
    corr = cov / np.outer(std, std)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    return corr


def correlation_groups(corr: np.ndarray, names: list[str], threshold: float = DEFAULT_CORRELATION_THRESHOLD) -> tuple[list[list[str]], list[str]]:
    """Connected components of the |r| >= threshold graph.

    Returns (groups, representatives); the representative of a group is its
    lexicographically first member, and groups are ordered by representative.
    """
    p = len(names)
    adjacent = np.abs(corr) >= threshold
    visited = [False] * p
    groups: list[list[str]] = []
    for start in range(p):
        if visited[start]:
            continue
        stack = [start]
        visited[start] = True
        component = []
        while stack:
            i = stack.pop()
            component.append(i)
            for j in range(p):
                if i != j and not visited[j] and adjacent[i, j]:
                    visited[j] = True
                    stack.append(j)
        groups.append(sorted(names[i] for i in component))
    groups.sort(key=lambda g: g[0])
    representatives = [g[0] for g in groups]
    return groups, representatives


def select_parameters(
    m: FeatureMatrix,
    variance_threshold: float = DEFAULT_VARIANCE_THRESHOLD,
    correlation_threshold: float = DEFAULT_CORRELATION_THRESHOLD,
) -> SelectionReport:
    """Run the full funnel: standardize, PCA stage, Pearson grouping stage."""
    sm = standardize(m)
    result = pca(sm)
    survivors, k = select_by_cumulative_variance(result, variance_threshold)
    indices = [sm.matrix.names.index(name) for name in survivors]
    reduced = FeatureMatrix(sm.matrix.values[:, indices], survivors)
    if reduced.p == 1:
        groups, final = [list(survivors)], list(survivors)
    else:
        corr = pearson_matrix(reduced)
        groups, final = correlation_groups(corr, survivors, correlation_threshold)
    return SelectionReport(
        original_names=list(m.names),
        dropped_constant=sm.dropped_constant,
        retained_component_count=k,
        pca_survivors=survivors,
        correlation_groups=groups,
        final_names=final,
        variance_threshold=variance_threshold,
        correlation_threshold=correlation_threshold,
        explained_variance_ratio=[float(v) for v in result.explained_variance_ratio],
    )
