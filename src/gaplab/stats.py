"""Thin statistical helpers used by the experiment drivers."""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .randomness import _float_array

__all__ = [
    "ks_statistic",
    "ks_vs_exponential",
    "spearman",
]


def ks_statistic(sample, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    return _ks_sorted(np.sort(_sample("sample", sample)), cdf)


def _sample(name: str, values) -> np.ndarray:
    """``values`` as a 1-D float array, else a DomainError naming ``name``."""
    array = _float_array(values, float)
    if array is None or array.ndim != 1:
        raise DomainError(f"{name} must be a 1-D list of real numbers, got {values!r}")
    return array


def _ks_sorted(x: np.ndarray, cdf) -> float:
    """``ks_statistic`` of a sample x already sorted in ascending order."""
    n = x.size
    if n == 0:
        raise DomainError("empty sample")
    c = np.asarray(cdf(x), dtype=float)
    steps = np.arange(n + 1) / n
    return float(max(np.max(steps[1:] - c), np.max(c - steps[:-1])))


def _exponential_cdf(x):
    """CDF of the unit exponential distribution."""
    return 1.0 - np.exp(-np.maximum(x, 0.0))


def ks_vs_exponential(sample) -> float:
    """KS statistic of a sample against the unit exponential distribution."""
    return ks_statistic(sample, _exponential_cdf)


def _ranks(a: np.ndarray) -> np.ndarray:
    """Ranks 1..n of ``a``; tied values share the mean of their ranks."""
    s = np.sort(a)
    return 0.5 * (np.searchsorted(s, a, "left") + np.searchsorted(s, a, "right") + 1)


def spearman(x, y) -> float:
    """Spearman rank correlation coefficient, as ``scipy.stats.spearmanr``:
    NaN for fewer than two pairs, a NaN or a constant input."""
    x, y = _sample("x", x), _sample("y", y)
    if x.size < 2 or any(np.isnan(v).any() or (v == v[0]).all() for v in (x, y)):
        return float("nan")
    return float(np.corrcoef(_ranks(x), _ranks(y))[1, 0])
