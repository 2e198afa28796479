import numpy as np
import pytest

from gaplab import (
    BasisError,
    DensityMatrix,
    DomainError,
    RngStream,
    cap_indicator,
    haar_unitary,
    uniform_sphere,
)

from _oracles import (
    BipartiteState,
    DiscreteMeasure,
    SingularProjectionError,
    adjust,
    conditional_measure,
    integrate,
    product_state,
    project_to_sphere,
    random_basis_measure,
    random_onb,
    random_purification,
    raw_conditional_measure,
    reduced_density_matrix,
    two_sample_ks,
)


def random_bipartite(rng, d1, d2):
    return BipartiteState(d1, d2, uniform_sphere(rng, d1 * d2))


def squared_norms(vectors):
    return np.sum(np.abs(vectors) ** 2, axis=1)


class TestDiscreteMeasure:
    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            DiscreteMeasure(np.eye(2), np.array([0.5, -0.1]))

    def test_atom_weight_mismatch_rejected(self):
        with pytest.raises(Exception):
            DiscreteMeasure(np.eye(3), np.array([0.5, 0.5]))

    def test_nan_weight_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            DiscreteMeasure(np.eye(2), np.array([np.nan, 0.5]))

    def test_normalized_flag(self):
        m = DiscreteMeasure(np.eye(2), np.array([0.5, 0.5]))
        assert m.normalized
        m = DiscreteMeasure(np.eye(2), np.array([0.5, 0.2]))
        assert not m.normalized


class TestConditionalMeasure:
    def test_product_state_all_atoms_equal(self):
        rng = RngStream(70).generator()
        chi = uniform_sphere(rng, 2)
        phi = uniform_sphere(rng, 5)
        psi = product_state(chi, phi)
        basis = random_onb(rng, 5)
        m = conditional_measure(psi, basis)
        assert abs(m.total_mass() - 1.0) < 1e-12
        # every atom is chi up to a phase
        overlaps = np.abs(m.vectors @ chi.conj())
        assert np.max(np.abs(overlaps - 1.0)) < 1e-10

    @pytest.mark.parametrize("psi, atoms, weights", [
        (BipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)),
         np.eye(2), [0.5, 0.5]),
        # Row-major amplitudes: chi (x) e_1 stores chi_i at i * d2 + 1, so its
        # one branch is j = 1 and sits at chi itself, phase included.
        (BipartiteState(2, 3, np.array([0.0, 0.6, 0.0, 0.0, 0.8j, 0.0])),
         [[0.6, 0.8j]], [1.0]),
    ], ids=["two_branch", "product"])
    def test_atoms_in_computational_basis(self, psi, atoms, weights):
        meas = conditional_measure(psi)
        assert meas.n_atoms == len(weights)
        assert np.allclose(meas.vectors, atoms, atol=1e-12)
        assert np.allclose(meas.weights, weights, atol=1e-12)

    def test_weights_are_branch_probabilities(self):
        rng = RngStream(71).generator()
        psi = random_bipartite(rng, 2, 6)
        basis = random_onb(rng, 6)
        m = conditional_measure(psi, basis)
        expected = squared_norms((psi.as_matrix() @ basis.conj().T).T)
        expected = expected[expected >= 1e-14]
        assert np.max(np.abs(np.sort(m.weights) - np.sort(expected))) < 1e-12

    def test_non_orthonormal_basis_rejected(self):
        rng = RngStream(72).generator()
        psi = random_bipartite(rng, 2, 3)
        bad = np.eye(3, dtype=complex)
        bad[1] = bad[0]
        with pytest.raises(BasisError):
            conditional_measure(psi, bad)

    def test_nan_basis_rejected(self):
        # psi meets only b_0, so the NaN row's branch would be dropped as
        # weightless and the measure would look valid without the check.
        psi = product_state(np.array([1.0, 0.0]), np.eye(3)[0])
        bad = np.eye(3, dtype=complex)
        bad[2, 2] = np.nan
        with pytest.raises(BasisError):
            conditional_measure(psi, bad)


class TestRawConditionalMeasure:
    def test_second_moment_exactly_one(self):
        rng = RngStream(73).generator()
        for _ in range(20):
            psi = random_bipartite(rng, 3, 8)
            m = raw_conditional_measure(psi, random_onb(rng, 8))
            second = integrate(m, squared_norms)
            assert abs(second - 1.0) < 1e-12

    def test_localized_product_state(self):
        d2 = 4
        chi = np.array([1.0, 0.0])
        b = np.eye(d2)
        psi = product_state(chi, b[1])
        m = raw_conditional_measure(psi)
        norms = squared_norms(m.vectors)
        assert abs(norms[1] - d2) < 1e-12
        assert np.max(np.abs(np.delete(norms, 1))) < 1e-14
        assert np.allclose(m.weights, 1.0 / d2)

    def test_product_state_branch_in_any_basis(self):
        # With phi = b_2 the branch <b_j|chi (x) phi> is chi at j = 2, phase
        # included, and zero at every basis vector orthogonal to phi.
        rng = RngStream(75).generator()
        basis = random_onb(rng, 4)
        chi = uniform_sphere(rng, 3)
        m = raw_conditional_measure(product_state(chi, basis[2]), basis)
        assert np.max(np.abs(m.vectors[2] - 2.0 * chi)) < 1e-12
        assert np.max(np.abs(np.delete(m.vectors, 2, axis=0))) < 1e-12

    def test_bell_state_branches_in_conjugate_basis(self):
        # (e0 (x) e0 + e1 (x) e1)/sqrt2 read in the basis (e0 +- e1)/sqrt2
        # has branches (e0 +- e1)/2, scaled by sqrt(d2) = sqrt2.
        psi = BipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        m = raw_conditional_measure(psi, basis)
        assert np.allclose(m.vectors, basis, atol=1e-12)

    def test_mean_atom_squared_norm_for_product(self):
        rng = RngStream(74).generator()
        psi = product_state(uniform_sphere(rng, 2), uniform_sphere(rng, 7))
        m = raw_conditional_measure(psi, random_onb(rng, 7))
        assert abs(integrate(m, squared_norms) - 1.0) < 1e-12


class TestAdjustProject:
    def test_adjust_unit_atoms_no_change(self):
        m = DiscreteMeasure(np.eye(3), np.full(3, 1 / 3))
        a = adjust(m)
        assert np.allclose(a.weights, m.weights, atol=1e-15)

    def test_adjust_preserves_mass_of_raw_measure(self):
        rng = RngStream(75).generator()
        psi = random_bipartite(rng, 2, 5)
        a = adjust(raw_conditional_measure(psi))
        assert abs(a.total_mass() - 1.0) < 1e-12

    def test_adjust_single_atom(self):
        m = DiscreteMeasure(np.array([[0.5, 0.0]]), np.array([1.0]))
        assert abs(adjust(m).weights[0] - 0.25) < 1e-15

    def test_project_identity_on_unit_atoms(self):
        m = DiscreteMeasure(np.eye(2), np.array([0.4, 0.6]))
        p = project_to_sphere(m)
        assert np.allclose(p.vectors, m.vectors)
        assert np.allclose(p.weights, m.weights)

    def test_project_scales_vector(self):
        m = DiscreteMeasure(np.array([[2.0, 0.0]]), np.array([0.5]))
        p = project_to_sphere(m)
        assert np.allclose(p.vectors[0], [1.0, 0.0])
        assert p.weights[0] == 0.5

    def test_project_zero_atom_with_mass_rejected(self):
        m = DiscreteMeasure(np.zeros((1, 2)), np.array([0.5]))
        with pytest.raises(SingularProjectionError):
            project_to_sphere(m)

    def test_adjust_project_recovers_conditional_measure(self):
        rng = RngStream(76).generator()
        for _ in range(50):
            psi = random_bipartite(rng, 2, 6)
            basis = random_onb(rng, 6)
            direct = conditional_measure(psi, basis)
            composed = project_to_sphere(adjust(raw_conditional_measure(psi, basis)))
            assert composed.n_atoms == direct.n_atoms
            assert np.max(np.abs(composed.weights - direct.weights)) < 1e-12
            assert np.max(np.abs(composed.vectors - direct.vectors)) < 1e-12


class TestRandomBasisMeasure:
    @pytest.mark.parametrize("d1, d2", [(2, 5), (3, 3), (4, 2), (1, 7)])
    def test_covariance_is_reduced_density_matrix(self, d1, d2):
        # sum_j w_j v_j v_j^dagger = R^dagger W W^dagger R = M M^dagger for
        # every draw, as for conditional_measure in any basis.
        rng = RngStream(90).generator()
        for _ in range(20):
            psi = random_bipartite(rng, d1, d2)
            m = random_basis_measure(rng, psi)
            assert m.normalized and m.n_atoms <= d2
            assert np.allclose(np.linalg.norm(m.vectors, axis=1), 1.0, atol=1e-12)
            cov = (m.vectors.T * m.weights) @ m.vectors.conj()
            assert np.max(np.abs(cov - reduced_density_matrix(psi).matrix)) < 1e-10

    def test_product_state_all_atoms_equal(self):
        rng = RngStream(91).generator()
        chi = uniform_sphere(rng, 3)
        psi = product_state(chi, uniform_sphere(rng, 6))
        m = random_basis_measure(rng, psi)
        assert np.allclose(np.abs(m.vectors @ chi.conj()), 1.0, atol=1e-10)

    def test_same_generator_state_gives_same_measure(self):
        psi = random_bipartite(RngStream(92).generator(), 2, 9)
        a = random_basis_measure(RngStream(93).generator(), psi)
        b = random_basis_measure(RngStream(93).generator(), psi)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.weights, b.weights)


class TestIntegrate:
    def test_constant(self):
        m = DiscreteMeasure(np.eye(3), np.full(3, 1 / 3))
        assert abs(integrate(m, lambda v: np.ones(len(v))) - 1.0) < 1e-14

    def test_overlap_on_two_atoms(self):
        m = DiscreteMeasure(np.eye(2), np.array([0.5, 0.5]))
        f = lambda v: np.abs(v[:, 0]) ** 2
        assert abs(integrate(m, f) - 0.5) < 1e-14

    def test_linearity(self):
        rng = RngStream(77).generator()
        m = DiscreteMeasure(uniform_sphere(rng, 3, size=5), rng.random(5))
        f = lambda v: np.abs(v[:, 0]) ** 2
        g = lambda v: np.real(v[:, 1])
        combo = integrate(m, lambda v: 2.0 * f(v) + 3.0 * g(v))
        assert abs(combo - (2 * integrate(m, f) + 3 * integrate(m, g))) < 1e-12


class TestRandomPurification:
    def test_pure_target_gives_product_state(self):
        rng = RngStream(78).generator()
        chi = np.array([0.0, 1.0])
        rho = DensityMatrix(np.outer(chi, chi.conj()))
        psi = random_purification(rng, rho, 5)
        rdm = reduced_density_matrix(psi)
        assert np.max(np.abs(rdm.matrix - rho.matrix)) < 1e-12

    def test_reduced_matrix_recovered_every_draw(self):
        rng = RngStream(79).generator()
        for _ in range(50):
            spectrum = rng.dirichlet(np.ones(3))
            rho = DensityMatrix.from_spectrum(spectrum, haar_unitary(rng, 3))
            psi = random_purification(rng, rho, 7)
            assert np.max(np.abs(reduced_density_matrix(psi).matrix
                                 - rho.matrix)) < 1e-8

    def test_undersized_environment_rejected(self):
        rho = DensityMatrix.maximally_mixed(3)
        with pytest.raises(DomainError):
            random_purification(RngStream(80).generator(), rho, 2)

    def test_eigenbasis_independence_for_degenerate_spectrum(self):
        # Two stored eigenbases of the same maximally mixed state must give
        # statistically identical conditional statistics.
        base = RngStream(81)
        setup = base.generator()
        rho_a = DensityMatrix.maximally_mixed(2)
        rho_b = DensityMatrix.from_spectrum([0.5, 0.5], haar_unitary(setup, 2))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        d2 = 16

        def statistics(rho, stream_index):
            rng = RngStream(81, stream_index).generator()
            vals = []
            for _ in range(500):
                psi = random_purification(rng, rho, d2)
                vals.append(integrate(conditional_measure(psi), f))
            return np.array(vals)

        _, p = two_sample_ks(statistics(rho_a, 1), statistics(rho_b, 2))
        assert p > 0.01



class TestExactIdentities:
    def test_identity_suite(self):
        rng = RngStream(85).generator()
        for d1, d2 in ((2, 8), (3, 8), (2, 32), (3, 32)):
            for _ in range(50):
                psi = random_bipartite(rng, d1, d2)
                basis = random_onb(rng, d2)
                raw = raw_conditional_measure(psi, basis)
                assert abs(integrate(raw, squared_norms) - 1.0) < 1e-12
                direct = conditional_measure(psi, basis)
                assert abs(direct.total_mass() - 1.0) < 1e-12
                composed = project_to_sphere(adjust(raw))
                assert np.max(np.abs(composed.weights - direct.weights)) < 1e-12
                assert np.max(np.abs(composed.vectors - direct.vectors)) < 1e-12

    def test_basis_equivariance(self):
        # Rotating the basis by the inverse of a unitary equals rotating the
        # state's second factor by that unitary.
        rng = RngStream(86).generator()
        for _ in range(50):
            psi = random_bipartite(rng, 2, 6)
            basis = random_onb(rng, 6)
            u = haar_unitary(rng, 6)
            rotated_basis = basis @ u.conj()          # rows U^{-1} b_j
            rotated_state = BipartiteState.from_matrix(psi.as_matrix() @ u.T)
            a = conditional_measure(psi, rotated_basis)
            b = conditional_measure(rotated_state, basis)
            assert np.max(np.abs(a.weights - b.weights)) < 1e-10
            assert np.max(np.abs(a.vectors - b.vectors)) < 1e-10

    def test_measure_covariance_equals_reduced_density_matrix(self):
        rng = RngStream(87).generator()
        for _ in range(50):
            psi = random_bipartite(rng, 3, 9)
            m = conditional_measure(psi, random_onb(rng, 9))
            cov = (m.vectors.T * m.weights) @ m.vectors.conj()
            assert np.max(np.abs(cov - reduced_density_matrix(psi).matrix)) < 1e-10
