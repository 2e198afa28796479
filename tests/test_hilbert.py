import numpy as np
import pytest

from gaplab import (
    BipartiteState,
    DensityMatrix,
    DimensionError,
    DomainError,
    RngStream,
    UnsupportedShapeError,
    canonical_density,
    haar_unitary,
    partial_inner,
    random_onb,
    reduced_density_matrix,
    schmidt,
    trace_norm,
    uniform_sphere,
)

from _oracles import hermitian_abs_eigensum


def bell_state(chi1, chi2, b1, b2):
    m = (np.outer(chi1, b1) + np.outer(chi2, b2)) / np.sqrt(2)
    return BipartiteState.from_matrix(m)


class TestBipartiteState:
    def test_index_convention(self):
        rng = RngStream(0).generator()
        psi = BipartiteState(2, 3, uniform_sphere(rng, 6))
        m = psi.as_matrix()
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


class TestPartialInner:
    def test_product_state(self):
        chi = np.array([0.6, 0.8j])
        phi = np.array([0, 1.0, 0, 0])
        psi = BipartiteState.product(chi, phi)
        v = partial_inner(psi, phi)
        assert np.allclose(v, chi, atol=1e-12)

    def test_orthogonal_component(self):
        chi = np.array([1.0, 0])
        phi = np.array([1.0, 0, 0])
        perp = np.array([0, 1.0, 0])
        psi = BipartiteState.product(chi, phi)
        assert np.allclose(partial_inner(psi, perp), 0.0, atol=1e-14)

    def test_superposition_branch(self):
        e = np.eye(2)
        b = np.eye(2)
        psi = bell_state(e[0], e[1], b[0], b[1])
        v = partial_inner(psi, b[0])
        assert np.allclose(v, e[0] / np.sqrt(2), atol=1e-12)

    def test_dimension_error(self):
        psi = BipartiteState.product(np.array([1.0, 0]), np.array([1.0, 0, 0]))
        with pytest.raises(DimensionError):
            partial_inner(psi, np.array([1.0, 0]))

    def test_completeness_over_any_basis(self):
        # The squared norms of the partial inner products resolve unity.
        rng = RngStream(11).generator()
        for _ in range(50):
            psi = BipartiteState(3, 5, uniform_sphere(rng, 15))
            basis = random_onb(rng, 5)
            total = sum(
                np.sum(np.abs(partial_inner(psi, b)) ** 2) for b in basis
            )
            assert abs(total - 1.0) < 1e-12


class TestReducedDensityMatrix:
    def test_pure_product(self):
        chi = np.array([0.6, 0.8])
        psi = BipartiteState.product(chi, np.array([0, 1.0, 0]))
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


class TestSchmidt:
    def test_product_state(self):
        psi = BipartiteState.product(np.array([1.0, 0]), np.array([0, 1.0, 0]))
        dec = schmidt(psi)
        assert np.allclose(dec.coefficients, [1.0, 0.0], atol=1e-12)

    def test_balanced_superposition(self):
        e, b = np.eye(2), np.eye(2)
        dec = schmidt(bell_state(e[0], e[1], b[0], b[1]))
        assert np.allclose(dec.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_coefficients_match_eigenvalue_oracle(self):
        rng = RngStream(13).generator()
        for _ in range(100):
            psi = BipartiteState(3, 7, uniform_sphere(rng, 21))
            dec = schmidt(psi)
            m = psi.as_matrix()
            eigs = np.sort(np.linalg.eigvalsh(m @ m.conj().T))[::-1]
            assert np.allclose(dec.coefficients ** 2, eigs, atol=1e-8)
            assert abs(np.sum(dec.coefficients ** 2) - 1.0) < 1e-10

    def test_reconstruction_and_orthonormality(self):
        rng = RngStream(14).generator()
        for _ in range(100):
            psi = BipartiteState(2, 6, uniform_sphere(rng, 12))
            dec = schmidt(psi)
            rebuilt = dec.reconstruct()
            assert np.max(np.abs(rebuilt.amplitudes - psi.amplitudes)) < 1e-8
            for vecs in (dec.left_vectors, dec.right_vectors):
                gram = vecs @ vecs.conj().T
                assert np.max(np.abs(gram - np.eye(len(vecs)))) < 1e-10

    def test_descending_order(self):
        rng = RngStream(15).generator()
        psi = BipartiteState(4, 5, uniform_sphere(rng, 20))
        c = schmidt(psi).coefficients
        assert np.all(np.diff(c) <= 0)

    def test_wide_shape_rejected(self):
        rng = RngStream(16).generator()
        psi = BipartiteState(3, 2, uniform_sphere(rng, 6))
        with pytest.raises(UnsupportedShapeError):
            schmidt(psi)


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
