import numpy as np
import pytest

from gaplab import (
    DensityMatrix,
    DimensionError,
    DomainError,
    RngStream,
    canonical_density,
    haar_unitary,
    trace_norm,
    uniform_sphere,
)

from _oracles import (
    BipartiteState,
    hermitian_abs_eigensum,
    product_state,
    reduced_density_matrix,
)


def bell_state(chi1, chi2, b1, b2):
    m = (np.outer(chi1, b1) + np.outer(chi2, b2)) / np.sqrt(2)
    return BipartiteState.from_matrix(m)


class TestBipartiteState:
    def test_index_convention(self):
        rng = RngStream(0).generator()
        psi = BipartiteState(2, 3, uniform_sphere(rng, 6))
        m = psi.as_matrix()
        assert psi.d1 * psi.d2 == m.size == 6
        for i in range(2):
            for j in range(3):
                assert m[i, j] == psi.amplitudes[i * 3 + j]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            BipartiteState(2, 3, np.ones(5) / np.sqrt(5))

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            BipartiteState(2, 2, np.array([1.0, 1.0, 0, 0]))

    def test_nan_amplitudes_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            BipartiteState(2, 2, np.array([np.nan, 1.0, 0, 0]))


class TestReducedDensityMatrix:
    def test_pure_product(self):
        chi = np.array([0.6, 0.8])
        psi = product_state(chi, np.array([0, 1.0, 0]))
        rho = reduced_density_matrix(psi)
        assert np.allclose(rho.matrix, np.outer(chi, chi.conj()), atol=1e-12)

    def test_balanced_superposition(self):
        e, b = np.eye(2), np.eye(2)
        rho = reduced_density_matrix(bell_state(e[0], e[1], b[0], b[1]))
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_random_inputs_satisfy_invariants(self):
        rng = RngStream(12).generator()
        for _ in range(10_000):
            psi = BipartiteState(3, 5, uniform_sphere(rng, 15))
            rho = reduced_density_matrix(psi)  # constructor validates
            assert rho.min_eigenvalue >= 0.0
            assert abs(rho.spectrum().sum() - 1.0) < 1e-12


class TestReducedSpectrum:
    """The spectrum of rho1 holds the squared Schmidt coefficients of psi."""

    def test_matches_singular_value_oracle(self):
        rng = RngStream(13).generator()
        for _ in range(100):
            psi = BipartiteState(3, 7, uniform_sphere(rng, 21))
            s = np.linalg.svd(psi.as_matrix(), compute_uv=False)  # descending
            assert np.allclose(reduced_density_matrix(psi).spectrum(), s ** 2, atol=1e-10)

    def test_eigenbasis_rebuilds_matrix(self):
        rng = RngStream(14).generator()
        for _ in range(100):
            rho = reduced_density_matrix(BipartiteState(4, 5, uniform_sphere(rng, 20)))
            v, p = rho.eigenbasis(), rho.spectrum()
            assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10
            assert np.max(np.abs((v * p) @ v.conj().T - rho.matrix)) < 1e-10

    @pytest.mark.parametrize("d1, d2", [(3, 2), (2, 3), (4, 1)])
    def test_rank_is_smaller_factor(self, d1, d2):
        rng = RngStream(15).generator()
        rho = reduced_density_matrix(BipartiteState(d1, d2, uniform_sphere(rng, d1 * d2)))
        assert rho.support_rank == min(d1, d2)

    def test_factors_share_nonzero_spectrum(self):
        rng = RngStream(16).generator()
        psi = BipartiteState(2, 5, uniform_sphere(rng, 10))
        swapped = BipartiteState.from_matrix(psi.as_matrix().T)
        p1 = reduced_density_matrix(psi).spectrum()
        p2 = reduced_density_matrix(swapped).spectrum()
        assert np.allclose(p2[:2], p1, atol=1e-12)
        assert np.allclose(p2[2:], 0.0, atol=1e-12)


class TestTraceNorm:
    def test_diagonal(self):
        assert abs(trace_norm(np.diag([0.3, -0.3])) - 0.6) < 1e-14

    def test_zero(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_matches_eigenvalue_oracle_on_hermitian_differences(self):
        rng = RngStream(17).generator()
        for _ in range(50):
            a = reduced_density_matrix(
                BipartiteState(3, 4, uniform_sphere(rng, 12))).matrix
            b = reduced_density_matrix(
                BipartiteState(3, 4, uniform_sphere(rng, 12))).matrix
            assert abs(trace_norm(a - b) - hermitian_abs_eigensum(a - b)) < 1e-10

    def test_triangle_and_unitary_invariance(self):
        rng = RngStream(18).generator()
        for _ in range(25):
            m1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            m2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert trace_norm(m1 + m2) <= trace_norm(m1) + trace_norm(m2) + 1e-8
            u, v = haar_unitary(rng, 4), haar_unitary(rng, 4)
            assert abs(trace_norm(u @ m1 @ v) - trace_norm(m1)) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            trace_norm(np.ones((2, 3)))


class TestCanonicalDensity:
    def test_infinite_temperature(self):
        rho = canonical_density([0.0, 1.0], 0.0)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)

    def test_ground_state_limit(self):
        rho = canonical_density([0.0, 1.0], 700.0)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_unit_inverse_temperature(self):
        rho = canonical_density([0.0, 1.0], 1.0)
        z = 1 + np.exp(-1.0)
        assert abs(rho.matrix[0, 0].real - 1 / z) < 1e-12
        assert abs(rho.matrix[1, 1].real - np.exp(-1.0) / z) < 1e-12

    def test_no_overflow_at_large_beta(self):
        rho = canonical_density([0.0, 0.5, 1.0], 1e3)
        assert np.isfinite(rho.matrix).all()
        rho = canonical_density([0.0, 0.5, 1.0], -1e3)
        assert np.isfinite(rho.matrix).all()

    def test_empty_spectrum_rejected(self):
        with pytest.raises(DomainError):
            canonical_density([], 1.0)


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))

    def test_wrong_trace_rejected(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(2, dtype=complex))
        with pytest.raises(DomainError, match="got 1.1$") as err:
            DensityMatrix(np.diag([0.6, 0.5]).astype(complex))
        assert "np.float64" not in str(err.value)

    def test_nan_entries_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            DensityMatrix(np.full((2, 2), np.nan))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.001, -0.001]).astype(complex)
        with pytest.raises(DomainError, match="eigenvalue -0.001 ") as err:
            DensityMatrix(m).spectrum()
        assert "np.float64" not in str(err.value)

    @pytest.mark.parametrize("build", [
        lambda: DensityMatrix(np.diag([1.5, -0.5]).astype(complex)),
        lambda: DensityMatrix.from_spectrum([1.5, -0.5]),
    ], ids=["matrix", "from_spectrum"])
    def test_non_psd_rejected_at_construction(self, build):
        with pytest.raises(DomainError, match="not PSD"):
            build()

    def test_tiny_negative_eigenvalue_repaired(self):
        eps = 5e-11
        repaired = DensityMatrix(np.diag([1.0 + eps, -eps, 0.0]).astype(complex))
        p = repaired.spectrum()
        assert np.all(p >= 0.0)
        assert abs(p.sum() - 1.0) < 1e-14
        assert repaired.support_rank == 1

    def test_from_spectrum_with_basis(self):
        rng = RngStream(19).generator()
        u = haar_unitary(rng, 3)
        rho = DensityMatrix.from_spectrum([0.5, 0.3, 0.2], u)
        assert np.allclose(np.sort(np.linalg.eigvalsh(rho.matrix)),
                           [0.2, 0.3, 0.5], atol=1e-12)
