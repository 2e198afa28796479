import numpy as np
import pytest

from gaplab import (
    DensityMatrix,
    DomainError,
    RngStream,
    SingularDensityError,
    gap_sphere_density,
    haar_unitary,
    uniform_sphere,
)
from gaplab.stats import ks_vs_exponential

from _oracles import (
    covariance_estimate,
    gaussian_density,
    rejection_adjusted_gaussian,
    sample_adjusted_gaussian,
    sample_gap,
    sample_gaussian,
    two_sample_chi2,
    two_sample_ks,
)


def random_density(rng, d):
    spectrum = rng.dirichlet(np.ones(d))
    return DensityMatrix.from_spectrum(spectrum, haar_unitary(rng, d))


class TestSampleGaussian:
    def test_pure_state_support(self):
        rng = RngStream(30).generator()
        chi = np.array([0.6, 0.8j])
        rho = DensityMatrix(np.outer(chi, chi.conj()))
        draws = sample_gaussian(rng, rho, size=20_000)
        overlap = draws @ chi.conj()
        residual = draws - overlap[:, None] * chi
        assert np.max(np.abs(residual)) < 1e-12
        assert ks_vs_exponential(np.abs(overlap) ** 2) < 0.02

    def test_mean_squared_norm_is_one(self):
        rng = RngStream(31).generator()
        rho = random_density(rng, 4)
        draws = sample_gaussian(rng, rho, size=100_000)
        assert abs(np.mean(np.sum(np.abs(draws) ** 2, axis=1)) - 1.0) < 0.01

    def test_covariance(self):
        rng = RngStream(32).generator()
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        draws = sample_gaussian(rng, rho, size=100_000)
        assert np.max(np.abs(covariance_estimate(draws) - rho.matrix)) < 0.01

    def test_kernel_coordinates_exactly_zero(self):
        rng = RngStream(33).generator()
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]).astype(complex))
        draws = sample_gaussian(rng, rho, size=1000)
        assert np.all(draws[:, 2] == 0.0)


class TestGaussianDensity:
    def test_maximally_mixed_at_origin(self):
        for d in (1, 2, 3):
            rho = DensityMatrix.maximally_mixed(d)
            expected = d ** d / np.pi ** d
            assert abs(gaussian_density(rho, np.zeros(d)) - expected) < 1e-12

    def test_rank_one(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        val = gaussian_density(rho, np.array([1.0, 0.0]))
        assert abs(val - np.exp(-1.0) / np.pi) < 1e-14

    def test_off_support_is_zero(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        assert gaussian_density(rho, np.array([0.5, 0.5])) == 0.0

    def test_normalization_by_importance_ratio(self):
        # E over G(I/d) of the density ratio equals the total mass of G(rho).
        rng = RngStream(34).generator()
        d = 2
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        proposal = DensityMatrix.maximally_mixed(d)
        draws = sample_gaussian(rng, proposal, size=100_000)
        ratios = np.array([
            gaussian_density(rho, psi) / gaussian_density(proposal, psi)
            for psi in draws[:50_000]
        ])
        assert abs(ratios.mean() - 1.0) < 0.02


class TestSampleAdjustedGaussian:
    def test_one_dimensional_second_moment(self):
        # ||psi||^2 is the size-biased unit exponential with mean 2.
        rng = RngStream(35).generator()
        rho = DensityMatrix(np.array([[1.0 + 0j]]))
        draws = sample_adjusted_gaussian(rng, rho, size=100_000)
        assert abs(np.mean(np.abs(draws) ** 2) - 2.0) < 0.02

    def test_matches_rejection_oracle(self):
        rng = RngStream(36).generator()
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        mix = sample_adjusted_gaussian(rng, rho, size=100_000)
        rej = rejection_adjusted_gaussian(rng, rho, 100_000)
        _, p = two_sample_chi2(np.sum(np.abs(mix) ** 2, axis=1),
                               np.sum(np.abs(rej) ** 2, axis=1), bins=32)
        assert p > 0.01

    def test_rank_deficient_support(self):
        rng = RngStream(37).generator()
        rho = DensityMatrix(np.diag([0.6, 0.4, 0.0]).astype(complex))
        draws = sample_adjusted_gaussian(rng, rho, size=2000)
        assert np.all(draws[:, 2] == 0.0)


class TestSampleGap:
    def test_unit_norm(self):
        rng = RngStream(38).generator()
        rho = random_density(rng, 4)
        draws = sample_gap(rng, rho, size=5000)
        norms = np.linalg.norm(draws, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_pure_state(self):
        rng = RngStream(39).generator()
        chi = np.array([1.0, 0.0])
        rho = DensityMatrix(np.outer(chi, chi.conj()))
        psi = sample_gap(rng, rho)
        assert abs(abs(psi @ chi.conj()) - 1.0) < 1e-12

    def test_maximally_mixed_is_uniform(self):
        rng = RngStream(40).generator()
        d = 3
        a = np.abs(sample_gap(rng, DensityMatrix.maximally_mixed(d),
                              size=10_000)[:, 0]) ** 2
        b = np.abs(uniform_sphere(rng, d, size=10_000)[:, 0]) ** 2
        ks, _ = two_sample_ks(a, b)
        assert ks < 0.02

    def test_covariance_matches_rho(self):
        rng = RngStream(41).generator()
        rho = random_density(rng, 4)
        draws = sample_gap(rng, rho, size=100_000)
        assert np.max(np.abs(covariance_estimate(draws) - rho.matrix)) < 0.01

    def test_unitary_equivariance(self):
        rng = RngStream(42).generator()
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        u = haar_unitary(rng, 3)
        rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
        phi = uniform_sphere(rng, 3)
        a = np.abs(sample_gap(rng, rotated, size=10_000) @ phi.conj()) ** 2
        b = np.abs((sample_gap(rng, rho, size=10_000) @ u.T) @ phi.conj()) ** 2
        _, p = two_sample_ks(a, b)
        assert p > 0.01


class TestGapSphereDensity:
    def test_maximally_mixed_is_flat(self):
        rng = RngStream(43).generator()
        for d in (2, 3, 4):
            rho = DensityMatrix.maximally_mixed(d)
            pts = uniform_sphere(rng, d, size=1000)
            assert np.max(np.abs(gap_sphere_density(rho, pts) - 1.0)) < 1e-10

    def test_one_dimensional(self):
        rho = DensityMatrix(np.array([[1.0 + 0j]]))
        phase = np.exp(0.3j)
        assert abs(gap_sphere_density(rho, np.array([phase])) - 1.0) < 1e-12

    def test_monte_carlo_normalization(self):
        rng = RngStream(44).generator()
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        pts = uniform_sphere(rng, 3, size=100_000)
        assert abs(np.mean(gap_sphere_density(rho, pts)) - 1.0) < 0.02

    def test_singular_rejected(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(SingularDensityError):
            gap_sphere_density(rho, np.array([1.0, 0.0]))

    def test_normalization_convention(self):
        # Dividing out the sphere area 2 pi^d / (d-1)! recovers the raw power
        # law d! <psi|rho^{-1}|psi>^{-(d+1)} / (2 pi^d det rho).
        from math import factorial
        rng = RngStream(49).generator()
        d = 3
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        psi = uniform_sphere(rng, d)
        quad_form = float(np.real(psi.conj() @ np.linalg.inv(rho.matrix) @ psi))
        power_law = (factorial(d) / (2 * np.pi ** d * np.linalg.det(rho.matrix).real)
                     * quad_form ** (-(d + 1)))
        area = 2 * np.pi ** d / factorial(d - 1)
        assert abs(gap_sphere_density(rho, psi) - power_law * area) < 1e-10

    def test_density_sampler_consistency(self):
        # Importance-weighted uniform mean of f equals the GAP sample mean.
        rng = RngStream(45).generator()
        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        f = lambda v: (np.abs(v[:, 0]) ** 2 >= 0.5).astype(float)
        pts = uniform_sphere(rng, 2, size=50_000)
        weighted = f(pts) * gap_sphere_density(rho, pts)
        direct = f(sample_gap(rng, rho, size=50_000))
        se = np.sqrt(weighted.var() / weighted.size + direct.var() / direct.size)
        assert abs(weighted.mean() - direct.mean()) < 3 * se + 1e-12


class TestCovarianceEstimate:
    def test_single_vector(self):
        psi = np.array([0.6, 0.8j])
        assert np.allclose(covariance_estimate(psi),
                           np.outer(psi, psi.conj()), atol=1e-14)

    def test_gap_samples_recover_rho(self):
        rng = RngStream(47).generator()
        n = 50_000
        rho = random_density(rng, 3)
        est = covariance_estimate(sample_gap(rng, rho, size=n))
        assert np.max(np.abs(est - rho.matrix)) < 3.0 / np.sqrt(n)

    def test_uniform_sphere_recovers_maximally_mixed(self):
        rng = RngStream(48).generator()
        est = covariance_estimate(uniform_sphere(rng, 3, size=100_000))
        assert np.max(np.abs(est - np.eye(3) / 3)) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            covariance_estimate(np.zeros((0, 3)))

    def test_five_random_covariances(self):
        n = 100_000
        for seed in range(5):
            rng = RngStream(60 + seed).generator()
            rho = random_density(rng, 4)
            est = covariance_estimate(sample_gap(rng, rho, size=n))
            assert np.max(np.abs(est - rho.matrix)) < 0.01
