"""Thin statistical helpers used by the experiment drivers."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "ks_statistic",
    "ks_vs_exponential",
    "spearman",
]


def ks_statistic(sample, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    if n == 0:
        raise DomainError("empty sample")
    c = np.asarray(cdf(x), dtype=float)
    hi = np.max(np.arange(1, n + 1) / n - c)
    lo = np.max(c - np.arange(0, n) / n)
    return float(max(hi, lo))


def ks_vs_exponential(sample) -> float:
    """KS statistic of a sample against the unit exponential distribution."""
    return ks_statistic(sample, lambda x: 1.0 - np.exp(-np.maximum(x, 0.0)))


def _ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``a``; tied values share the mean of their ranks."""
    s = np.sort(a)
    return 0.5 * (np.searchsorted(s, a, "left") + np.searchsorted(s, a, "right") + 1)


def spearman(x, y) -> float:
    """Spearman rank correlation coefficient, as ``scipy.stats.spearmanr``:
    NaN for fewer than two pairs, a NaN or a constant input."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    if x.size < 2 or any(np.isnan(v).any() or (v == v[0]).all() for v in (x, y)):
        return float("nan")
    return float(np.corrcoef(_ranks(x), _ranks(y))[1, 0])
