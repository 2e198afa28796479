import warnings

import numpy as np
import pytest
from scipy import stats as sps

from gaplab import DomainError, RngStream
from gaplab.stats import ks_statistic, ks_vs_exponential, spearman

from _oracles import two_sample_chi2, two_sample_ks


def test_ks_statistic_on_exact_uniform_grid():
    # Midpoint grid has the minimal possible one-sample KS value 1/(2n).
    n = 100
    grid = (np.arange(n) + 0.5) / n
    assert abs(ks_statistic(grid, lambda x: x) - 1 / (2 * n)) < 1e-12


def test_ks_vs_exponential_accepts_exponential_sample():
    rng = RngStream(200).generator()
    assert ks_vs_exponential(rng.exponential(size=50_000)) < 0.01


def test_ks_vs_exponential_rejects_uniform_sample():
    rng = RngStream(201).generator()
    assert ks_vs_exponential(rng.random(10_000)) > 0.1


def test_ks_empty_sample_rejected():
    with pytest.raises(DomainError):
        ks_statistic([], lambda x: x)


def test_two_sample_ks_same_distribution():
    rng = RngStream(202).generator()
    _, p = two_sample_ks(rng.standard_normal(5000), rng.standard_normal(5000))
    assert p > 0.01


def test_two_sample_chi2_same_distribution():
    rng = RngStream(203).generator()
    _, p = two_sample_chi2(rng.exponential(size=20_000),
                           rng.exponential(size=20_000), bins=32)
    assert p > 0.01


def test_two_sample_chi2_different_distributions():
    rng = RngStream(204).generator()
    _, p = two_sample_chi2(rng.exponential(size=20_000),
                           1.2 * rng.exponential(size=20_000), bins=32)
    assert p < 1e-6


def test_spearman_monotone():
    x = np.arange(50.0)
    assert spearman(x, np.exp(x / 10)) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)


@pytest.mark.parametrize("decimals", [None, 1])
def test_spearman_equals_scipy_exactly(decimals):
    # Rounding to one decimal gives many ties, which share averaged ranks.
    rng = RngStream(205).generator()
    for n in (2, 3, 10, 57, 200, 1000):
        for _ in range(20):
            x = rng.standard_normal(n)
            y = x * rng.random() + rng.standard_normal(n)
            if decimals is not None:
                x, y = np.round(x, decimals), np.round(y, decimals)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sps.ConstantInputWarning)
                expected = sps.spearmanr(x, y).statistic
            np.testing.assert_array_equal(spearman(x, y), expected)  # NaN equals NaN


@pytest.mark.parametrize("x, y", [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                  ([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]),
                                  ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0]),
                                  ([1.0], [2.0])])
def test_spearman_is_nan_where_scipy_is(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sps.ConstantInputWarning)
        assert np.isnan(sps.spearmanr(x, y).statistic)
    assert np.isnan(spearman(x, y))
