"""Paper-versus-measured comparison reports.

Absolute agreement with the 1984 numbers is not expected — the traces
are synthetic stand-ins — so these reports quantify *shape* agreement
instead:

* **rank correlation** (Spearman) between measured and published
  values over the shared configurations: do the same designs win?
* **direction checks**: for every pair of configurations, do measured
  and published values order the same way?
* **magnitude**: geometric mean and spread of the measured/published
  ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Sequence

import numpy as np

__all__ = ["ShapeReport", "compare_shapes"]


@dataclass(frozen=True)
class ShapeReport:
    """Agreement statistics between measured and published series.

    Attributes:
        n: Number of shared configurations compared.
        spearman: Spearman rank correlation (1.0 = identical ordering).
        pair_agreement: Fraction of configuration pairs ordered the
            same way by both series (ties ignored).
        geometric_mean_ratio: Geometric mean of measured/published.
        max_ratio / min_ratio: Extremes of that ratio.
    """

    n: int
    spearman: float
    pair_agreement: float
    geometric_mean_ratio: float
    min_ratio: float
    max_ratio: float

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"n={self.n} spearman={self.spearman:.3f} "
            f"pairs={self.pair_agreement:.1%} "
            f"gm-ratio={self.geometric_mean_ratio:.2f} "
            f"[{self.min_ratio:.2f}, {self.max_ratio:.2f}]"
        )


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie group sharing the mean of its ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # the rank of each tie group's last member
    return (last - (counts - 1) / 2.0)[inverse]


def _spearman_rho(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation: the Pearson correlation of the two
    series' average ranks.  NaN when either series holds a NaN or is
    constant."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    if np.isnan(xs).any() or np.isnan(ys).any():
        return math.nan
    rx = _average_ranks(xs) - (len(xs) + 1) / 2.0
    ry = _average_ranks(ys) - (len(ys) + 1) / 2.0
    denominator = math.sqrt(float(rx @ rx) * float(ry @ ry))
    return float(rx @ ry) / denominator if denominator else math.nan


def compare_shapes(
    measured: Dict[Hashable, float], published: Dict[Hashable, float]
) -> ShapeReport:
    """Compare two value series over their shared keys.

    Args:
        measured: Configuration -> measured value (e.g. miss ratio).
        published: Configuration -> the paper's value.

    Returns:
        A :class:`ShapeReport`; with fewer than two shared keys the
        correlation fields are reported as 1.0 (trivially ordered).
    """
    keys = sorted(set(measured) & set(published), key=repr)
    ours = [measured[key] for key in keys]
    paper = [published[key] for key in keys]
    n = len(keys)
    if n == 0:
        return ShapeReport(0, 0.0, 0.0, 0.0, 0.0, 0.0)

    ratios = [
        mine / theirs if theirs else float("inf")
        for mine, theirs in zip(ours, paper)
    ]
    finite = [r for r in ratios if 0 < r < float("inf")]
    if finite:
        gm = math.exp(sum(math.log(r) for r in finite) / len(finite))
        lo, hi = min(finite), max(finite)
    else:
        gm = lo = hi = 0.0

    if n < 2:
        return ShapeReport(n, 1.0, 1.0, gm, lo, hi)

    if len(set(ours)) < 2 or len(set(paper)) < 2:
        rho = 1.0  # a constant series is trivially order-compatible
    else:
        rho = _spearman_rho(ours, paper)
        if math.isnan(rho):
            rho = 1.0

    agree = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            d_ours = ours[i] - ours[j]
            d_paper = paper[i] - paper[j]
            if d_ours == 0 or d_paper == 0:
                continue
            total += 1
            if (d_ours > 0) == (d_paper > 0):
                agree += 1
    pair_agreement = agree / total if total else 1.0
    return ShapeReport(n, rho, pair_agreement, gm, lo, hi)
