import numpy as np
import pytest

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
