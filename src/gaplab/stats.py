"""Thin statistical helpers used by the experiment drivers."""

from __future__ import annotations

import numpy as np
from scipy import stats as sps

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


def spearman(x, y) -> float:
    """Spearman rank correlation coefficient."""
    return float(sps.spearmanr(np.asarray(x, float), np.asarray(y, float)).statistic)
