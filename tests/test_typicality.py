import numpy as np
import pytest

from gaplab import (
    BipartiteState,
    DensityMatrix,
    DomainError,
    EmptyShellError,
    RngStream,
    cap_indicator,
    gap_expectation,
    haar_unitary,
    overlap_sq,
    polynomial,
    random_purification,
    real_part,
    reduced_density_matrix,
    uniform_sphere,
)
from gaplab.stats import spearman, two_sample_ks
from gaplab import typicality as T


class TestTestFunction:
    def test_bounds_by_random_probing(self):
        rng = RngStream(100).generator()
        phi = uniform_sphere(rng, 3)
        funcs = [
            overlap_sq(phi),
            real_part(phi),
            cap_indicator(phi, 0.3),
            polynomial(phi, [1.0, -3.0, 2.0]),
        ]
        pts = uniform_sphere(rng, 3, size=20_000)
        for f in funcs:
            assert np.max(np.abs(f(pts))) <= f.bound + 1e-12

    def test_polynomial_bound_uses_interior_extremum(self):
        # p(x) = x - x^2 peaks at x = 1/2 with value 1/4.
        f = polynomial(np.array([1.0, 0.0]), [0.0, 1.0, -1.0])
        assert abs(f.bound - 0.25) < 1e-12

    def test_phi_normalized(self):
        f = overlap_sq(np.array([2.0, 0.0]))
        assert abs(np.linalg.norm(f.phi) - 1.0) < 1e-12

    def test_invalid_kinds_rejected(self):
        with pytest.raises(DomainError):
            T.TestFunction("nope", np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            cap_indicator(np.array([1.0, 0.0]), 1.5)
        with pytest.raises(DomainError):
            T.TestFunction("polynomial", np.array([1.0, 0.0]))

    def test_empty_polynomial_rejected(self):
        with pytest.raises(DomainError, match="at least one coefficient"):
            polynomial(np.array([1.0, 0.0]), [])

    def test_continuity_flag(self):
        phi = np.array([1.0, 0.0])
        assert overlap_sq(phi).is_continuous
        assert not cap_indicator(phi, 0.5).is_continuous


class TestGapExpectation:
    def test_closed_form_and_monte_carlo_agree(self):
        rng = RngStream(101).generator()
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        f = overlap_sq(np.array([1.0, 0.0]))
        res = gap_expectation(rng, rho, f, 50_000)
        assert res.closed_form == pytest.approx(0.7)
        assert abs(res.estimate - res.closed_form) < 3 * res.standard_error + 1e-9

    def test_constant_function(self):
        rng = RngStream(102).generator()
        f = polynomial(np.array([1.0, 0.0]), [1.0])
        res = gap_expectation(rng, DensityMatrix.maximally_mixed(2), f, 100)
        assert res.estimate == pytest.approx(1.0)
        assert res.standard_error == pytest.approx(0.0)

    def test_maximally_mixed_overlap(self):
        rng = RngStream(103).generator()
        phi = uniform_sphere(rng, 2)
        res = gap_expectation(rng, DensityMatrix.maximally_mixed(2),
                              overlap_sq(phi), 50_000)
        assert res.closed_form == pytest.approx(0.5)
        assert abs(res.estimate - 0.5) < 4 * res.standard_error + 1e-9

    def test_twenty_random_targets(self):
        for seed in range(20):
            rng = RngStream(104, seed).generator()
            spectrum = rng.dirichlet(np.ones(3))
            rho = DensityMatrix.from_spectrum(spectrum, haar_unitary(rng, 3))
            f = overlap_sq(uniform_sphere(rng, 3))
            res = gap_expectation(rng, rho, f, 20_000)
            assert abs(res.estimate - res.closed_form) < 4 * res.standard_error + 1e-9


class TestRandomPurificationExperiment:
    def test_overlap_statistics_are_exact(self):
        # The conditional measure's covariance is pinned to rho1, so overlap
        # test functions give identically zero discrepancy on purifications.
        stream = RngStream(105)
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        out = T.random_purification_experiment(
            stream, rho, 16, overlap_sq(np.array([1.0, 0.0])), 0.1, 50)
        assert out.pass_fraction == 1.0
        assert np.max(out.discrepancies) < 1e-12

    def test_pure_target_gives_zero_discrepancy(self):
        stream = RngStream(106)
        chi = np.array([1.0, 0.0])
        rho = DensityMatrix(np.outer(chi, chi.conj()))
        out = T.random_purification_experiment(
            stream, rho, 8, cap_indicator(chi, 0.5), 0.1, 30)
        assert np.max(out.discrepancies) < 1e-12

    def test_cap_indicator_trend_in_environment_size(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        medians, fractions = [], []
        for idx, d2 in enumerate((16, 64, 256)):
            out = T.random_purification_experiment(
                RngStream(107, idx), rho, d2, f, 0.1, 200)
            medians.append(out.median_discrepancy)
            fractions.append(out.pass_fraction)
        assert medians[2] < medians[1] < medians[0]
        # pass fraction non-decreasing up to two percentage points of slack
        assert all(b >= a - 0.02 for a, b in zip(fractions, fractions[1:]))

    def test_pass_fraction_at_moderate_environment(self):
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        out = T.random_purification_experiment(RngStream(108), rho, 64, f, 0.1, 200)
        assert out.pass_fraction >= 0.9

    def test_chunk_size_does_not_change_records(self, monkeypatch):
        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        default = T.random_purification_experiment(RngStream(109), rho, 8, f, 0.1, 40)
        assert T.CHUNK_ENTRIES // (2 * 8) >= 40  # one chunk holds every trial
        for chunk in (1, 7):  # trials per chunk of the 2 x 8 states
            monkeypatch.setattr(T, "CHUNK_ENTRIES", chunk * 2 * 8)
            out = T.random_purification_experiment(RngStream(109), rho, 8, f, 0.1, 40)
            assert out.records == default.records


class TestRandomBasisExperiment:
    def test_product_state_zero_discrepancy(self):
        stream = RngStream(110)
        chi = np.array([0.0, 1.0])
        psi = BipartiteState.product(chi, np.eye(6)[0])
        out = T.random_basis_experiment(stream, psi, cap_indicator(chi, 0.5),
                                        0.1, 30)
        assert np.max(out.discrepancies) < 1e-12

    def test_pass_fraction_with_frozen_state(self):
        setup = RngStream(111).generator()
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        psi = random_purification(setup, rho, 64)
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        out = T.random_basis_experiment(RngStream(112), psi, f, 0.1, 200)
        assert out.pass_fraction >= 0.9

    def test_duality_with_random_purifications(self):
        # Random state with fixed basis and fixed state with random basis
        # give identically distributed conditional statistics.
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        d2 = 32
        ref = 0.4  # any fixed reference; only the law of mu(f) matters
        out_state = T.random_purification_experiment(
            RngStream(113), rho, d2, f, 0.1, 400, reference=ref)
        psi = random_purification(RngStream(114).generator(), rho, d2)
        out_basis = T.random_basis_experiment(
            RngStream(115), psi, f, 0.1, 400, reference=ref)
        _, p = two_sample_ks(out_state.discrepancies, out_basis.discrepancies)
        assert p > 0.01


class TestRandomSubspace:
    def test_full_space_reduces_to_maximally_mixed(self):
        rng = RngStream(116).generator()
        basis = T.random_subspace(rng, 2, 3, 6)
        target = T.reduced_of_subspace(basis, 2, 3)
        assert np.max(np.abs(target.matrix - np.eye(2) / 2)) < 1e-10

    def test_orthonormal_columns(self):
        rng = RngStream(117).generator()
        basis = T.random_subspace(rng, 2, 4, 5)
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(5))) < 1e-10

    def test_out_of_range_rejected(self):
        rng = RngStream(118).generator()
        with pytest.raises(DomainError):
            T.random_subspace(rng, 2, 3, 7)

    def test_average_reduction_is_maximally_mixed(self):
        rng = RngStream(119).generator()
        acc = np.zeros((2, 2), dtype=complex)
        n = 1000
        for _ in range(n):
            basis = T.random_subspace(rng, 2, 4, 3)
            acc += T.reduced_of_subspace(basis, 2, 4).matrix
        assert np.max(np.abs(acc / n - np.eye(2) / 2)) < 0.01


class TestCanonicalTypicality:
    def test_one_dimensional_subspace_is_deterministic(self):
        rng = RngStream(120).generator()
        basis = T.random_subspace(rng, 2, 3, 1)
        out = T.canonical_typicality_experiment(RngStream(121), basis, 2, 3, 20)
        assert np.max(out.distances) - np.min(out.distances) < 1e-10

    def test_concentration_at_moderate_dimension(self):
        rng = RngStream(122).generator()
        basis = T.random_subspace(rng, 2, 50, 100)
        out = T.canonical_typicality_experiment(RngStream(123), basis, 2, 50, 300)
        assert out.mean_distance < 0.4
        binom_se = np.sqrt(np.clip(out.bound, 0, 1) * (1 - np.clip(out.bound, 0, 1))
                           / len(out.distances))
        assert np.all(out.exceedance <= out.bound + 3 * binom_se)

    def test_mean_distance_decreases_with_subspace_dimension(self):
        # d2 is held large enough that the environment-size floor on the
        # fluctuation stays below the smallest subspace scale d1/sqrt(dim).
        means = []
        for idx, dim in enumerate((25, 100, 400)):
            rng = RngStream(124, idx).generator()
            basis = T.random_subspace(rng, 2, 800, dim)
            out = T.canonical_typicality_experiment(
                RngStream(125, idx), basis, 2, 800, 200)
            means.append(out.mean_distance)
        assert means[2] < means[1] < means[0]


class TestShellUniversality:
    def test_full_space_pass_fraction(self):
        rng = RngStream(126).generator()
        basis = T.random_subspace(rng, 2, 64, 128)
        out = T.shell_universality_experiment(
            RngStream(127), basis, 2, 64, overlap_sq(np.array([1.0, 0.0])),
            0.1, 200)
        assert out.pass_fraction >= 0.9

    def test_constant_function_zero_discrepancy(self):
        rng = RngStream(128).generator()
        basis = T.random_subspace(rng, 2, 8, 16)
        f = polynomial(np.array([1.0, 0.0]), [0.25])
        out = T.shell_universality_experiment(RngStream(129), basis, 2, 8, f,
                                              0.1, 20)
        assert np.max(out.discrepancies) < 1e-12

    def test_discontinuous_function_rejected(self):
        rng = RngStream(130).generator()
        basis = T.random_subspace(rng, 2, 8, 16)
        with pytest.raises(DomainError):
            T.shell_universality_experiment(
                RngStream(131), basis, 2, 8,
                cap_indicator(np.array([1.0, 0.0]), 0.5), 0.1, 10)

    def test_improves_with_both_dimensions(self):
        f = overlap_sq(np.array([1.0, 0.0]))
        rng_small = RngStream(132).generator()
        small = T.shell_universality_experiment(
            RngStream(133), T.random_subspace(rng_small, 2, 16, 20), 2, 16,
            f, 0.1, 200)
        rng_big = RngStream(134).generator()
        big = T.shell_universality_experiment(
            RngStream(135), T.random_subspace(rng_big, 2, 64, 120), 2, 64,
            f, 0.1, 200)
        assert big.pass_fraction >= small.pass_fraction - 0.02


class TestShellVsTarget:
    def test_exact_target_matches_universality_behavior(self):
        rng = RngStream(136).generator()
        basis = T.random_subspace(rng, 2, 64, 128)
        omega = T.reduced_of_subspace(basis, 2, 64)
        f = overlap_sq(np.array([1.0, 0.0]))
        out = T.shell_vs_target_experiment(RngStream(137), basis, 2, 64, omega,
                                           f, 0.1, 200)
        assert out.extra["target_distance"] < 1e-10
        assert out.pass_fraction >= 0.9

    def test_bounded_measurable_function_allowed(self):
        rng = RngStream(138).generator()
        basis = T.random_subspace(rng, 2, 64, 128)
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        out = T.shell_vs_target_experiment(
            RngStream(139), basis, 2, 64, DensityMatrix.maximally_mixed(2),
            f, 0.15, 200)
        assert out.pass_fraction >= 0.85

    def test_singular_target_rejected(self):
        rng = RngStream(140).generator()
        basis = T.random_subspace(rng, 2, 4, 8)
        omega = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(DomainError):
            T.shell_vs_target_experiment(
                RngStream(141), basis, 2, 4, omega,
                overlap_sq(np.array([1.0, 0.0])), 0.1, 10)


class TestMicrocanonicalShell:
    def test_counting_example(self):
        shell = T.microcanonical_shell([0.0, 1.0], [0.0, 0.5, 1.0, 1.5], 1.0, 0.5)
        assert shell.dim == 4
        assert set(shell.member_pairs) == {(0, 2), (0, 3), (1, 0), (1, 1)}
        assert np.allclose(shell.reduced_density().matrix, np.eye(2) / 2)
        assert list(shell.counts) == [2, 2]

    def test_window_below_spectrum_rejected(self):
        with pytest.raises(EmptyShellError):
            T.microcanonical_shell([0.0, 1.0], [0.0, 0.5], -5.0, 0.5)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(DomainError):
            T.microcanonical_shell([0.0, 1.0], [0.0, 0.5], 1.0, 0.0)

    def test_basis_columns_are_member_product_states(self):
        shell = T.microcanonical_shell([0.0, 1.0], [0.0, 0.5, 1.0, 1.5], 1.0, 0.5)
        b = shell.basis()
        assert b.shape == (8, 4)
        assert np.max(np.abs(b.conj().T @ b - np.eye(4))) < 1e-14
        assert T.reduced_of_subspace(b, 2, 4).matrix == pytest.approx(
            shell.reduced_density().matrix)

    def test_dense_bath_is_nearly_thermal(self):
        bath = np.linspace(0.0, 20.0, 200)
        shell = T.microcanonical_shell([0.0, 1.0], bath, 10.0, 0.5)
        fit = T.fit_beta([0.0, 1.0], shell.reduced_density())
        assert fit.residual < 0.05


class TestFitBeta:
    def test_round_trip(self):
        from gaplab import canonical_density
        target = canonical_density([0.0, 1.0], 1.0)
        fit = T.fit_beta([0.0, 1.0], target)
        assert abs(fit.beta - 1.0) < 1e-6
        assert fit.residual < 1e-10

    def test_infinite_temperature_target(self):
        target = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        fit = T.fit_beta([0.0, 1.0], target)
        assert abs(fit.beta) < 1e-6

    def test_two_level_closed_form(self):
        # A diagonal two-level target is matched exactly at
        # beta = log(p0/p1) / (E1 - E0).
        bath = np.sqrt(np.linspace(0.0, 20.0 ** 2, 300))
        shell = T.microcanonical_shell([0.0, 1.0], bath, 10.0, 0.5)
        n0, n1 = shell.counts
        assert n0 != n1
        fit = T.fit_beta([0.0, 1.0], shell.reduced_density())
        assert abs(fit.beta - np.log(n0 / n1)) < 1e-6
        assert fit.residual < 1e-10

    def test_non_diagonal_target_rejected(self):
        m = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            T.fit_beta([0.0, 1.0], DensityMatrix(m))


class TestSubmatrixDensity:
    def test_normalized_value_at_origin(self):
        assert abs(T.submatrix_density_k1(2, 0.0) - 1 / (2 * np.pi)) < 1e-14

    def test_gaussian_limit(self):
        assert abs(T.submatrix_density_k1(10 ** 6, 0.0) - 1 / np.pi) < 1e-5

    def test_indicator_cutoff(self):
        assert T.submatrix_density(1, 4, np.array([[2.5 + 0j]])) == 0.0
        assert T.submatrix_density_k1(4, 2.5) == 0.0

    def test_unnormalized_matches_k1_shape(self):
        n, x = 9, 1.3
        un = T.submatrix_density(1, n, np.array([[x + 0j]]))
        assert abs(un - (1 - x ** 2 / n) ** (n - 2)) < 1e-12

    def test_regime_violation_rejected(self):
        with pytest.raises(DomainError):
            T.submatrix_density(2, 3, np.zeros((2, 2), dtype=complex))

    def test_quadrature_normalization(self):
        from scipy.integrate import quad
        for n in (4, 16):
            total = quad(lambda r: 2 * np.pi * r * T.submatrix_density_k1(n, r),
                         0, np.sqrt(n))[0]
            assert abs(total - 1.0) < 1e-6


class TestSubmatrixConvergence:
    def test_l1_decreasing_and_ks_small(self):
        metrics = T.submatrix_convergence_experiment(
            RngStream(142), 1, [4, 16, 64, 256], 3000)
        l1 = [m.l1_distance for m in metrics]
        assert all(a > b for a, b in zip(l1, l1[1:]))
        assert metrics[-1].ks_entry < 0.04

    def test_expectation_gaps_shrink(self):
        metrics = T.submatrix_convergence_experiment(
            RngStream(143), 1, [4, 256], 4000)
        for kind in ("cap_indicator", "polynomial"):
            assert (metrics[1].expectation_gaps[kind]
                    < metrics[0].expectation_gaps[kind])

    def test_columns_exchangeable(self):
        from gaplab import random_ons
        rng = RngStream(144).generator()
        n = 32
        first, second = [], []
        for _ in range(3000):
            ons = random_ons(rng, n, 2)
            first.append(np.abs(ons[0, 0]) ** 2)
            second.append(np.abs(ons[1, 0]) ** 2)
        _, p = two_sample_ks(np.array(first), np.array(second))
        assert p > 0.01

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            T.submatrix_convergence_experiment(RngStream(145), 2, [3], 10)


class TestContinuityProbe:
    def test_identical_pair_has_zero_gap(self):
        from gaplab import gap_sphere_density
        rng = RngStream(146).generator()
        rho = T.random_floor_density(rng, 2, 0.1)
        pts = uniform_sphere(rng, 2, size=100)
        assert np.max(np.abs(gap_sphere_density(rho, pts)
                             - gap_sphere_density(rho, pts))) == 0.0

    def test_monotone_relation(self):
        out = T.continuity_probe(RngStream(147), 2, 0.1, 200, n_probe=10_000)
        assert spearman(out.trace_distances, out.density_gaps) > 0.8

    def test_blow_up_near_singularity(self):
        # Worst observed density change per unit trace distance explodes as
        # the spectrum floor approaches zero.
        tight = T.continuity_probe(RngStream(148), 2, 0.001, 50, n_probe=2000)
        loose = T.continuity_probe(RngStream(149), 2, 0.2, 50, n_probe=2000)
        ratio_tight = np.max(tight.density_gaps / np.maximum(tight.trace_distances, 1e-12))
        ratio_loose = np.max(loose.density_gaps / np.maximum(loose.trace_distances, 1e-12))
        assert ratio_tight >= 10 * ratio_loose

    def test_gamma_out_of_range(self):
        with pytest.raises(DomainError):
            T.continuity_probe(RngStream(150), 2, 0.6, 10)

    def test_expectation_gap_bounded_by_trace_distance(self):
        # |<e1|(rho - omega)|e1>| <= ||rho - omega||_tr always.
        out = T.continuity_probe(RngStream(151), 3, 0.05, 50, n_probe=500)
        assert np.all(out.expectation_gaps <= out.trace_distances + 1e-12)
