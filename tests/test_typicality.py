from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from gaplab import (
    DensityMatrix,
    DimensionError,
    DomainError,
    EmptyShellError,
    RngStream,
    cap_indicator,
    gap_sphere_density,
    canonical_density,
    ginibre,
    haar_unitary,
    overlap_sq,
    polynomial,
    random_ons,
    real_part,
    trace_norm,
    uniform_sphere,
)
from gaplab.randomness import _gram_schmidt_twice, _haar_columns
from gaplab.stats import spearman
from gaplab import typicality as T

import _oracles
from _oracles import (
    BipartiteState,
    cap_at_eigenvector_c2,
    conditional_measure,
    evaluate,
    fit_beta_by_array_residual,
    gap_expectation,
    gram_schmidt_twice_by_division,
    integrate,
    monte_carlo_reference,
    mpmath_l1_distance,
    of_overlaps,
    poly_sup_by_horner_on_floats,
    poly_sup_by_polynomial_class,
    product_state,
    quadrature_l1_distance,
    random_basis_trials,
    random_purification,
    reduced_density_matrix,
    same_state,
    sample_gap,
    scaled_haar_blocks_by_concatenation,
    shell_basis,
    submatrix_blocks_per_sample,
    submatrix_density_k1,
    submatrix_outcome_by_parts,
    two_sample_ks,
)


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
            assert np.max(np.abs(evaluate(f, pts))) <= f.bound + 1e-12

    @pytest.mark.parametrize("coefficients, bound", [
        ([0.0, 1.0, -1.0], 0.25),  # p(x) = x - x^2 peaks at x = 1/2 with value 1/4
        # A negligible leading coefficient is dropped: 0.15.0 raised numpy's
        # LinAlgError, the derivative's companion matrix dividing by 3 * 5e-324.
        ([0.0, 0.0, 1.0, 5e-324], 1.0),
    ])
    def test_polynomial_bound_uses_interior_extremum(self, coefficients, bound):
        f = polynomial(np.array([1.0, 0.0]), coefficients)
        assert abs(f.bound - bound) < 1e-12

    def test_polynomial_bound_matches_the_polynomial_class(self):
        # The list-based bound against Polynomial objects, bit for bit, on
        # random coefficients of many scales, some with a zero leading one.
        rng = RngStream(164).generator()
        for degree in range(7):
            for _ in range(40):
                c = rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-6, 6, degree + 1)
                if degree and rng.random() < 0.25:
                    c[-1] = 0.0
                assert polynomial([1.0, 0.0], c).bound == poly_sup_by_polynomial_class(c)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda degree: st.lists(
               st.tuples(st.floats(-1.0, 1.0), st.integers(-5, 5)),
               min_size=degree + 1, max_size=degree + 1)),
           st.sampled_from([None, 0.0, 1e-305]))
    @example([(0.0, 0)] * 4, None)
    @example([(1.0, -5), (1.0, 0)], 1e-305)  # just below the tolerance 1e-300 * 1e-5
    def test_polynomial_bound_equals_the_hand_copy_bit_for_bit(self, terms, leading):
        # numpy's trim, derivative, roots and polyval against the bound of
        # 0.16.1 to 0.28.0 on Python floats, on degrees 0 to 8, coefficients
        # scaled 1e-5 to 1e5, zero and 1e-305 leading terms and zero vectors.
        c = np.array([m * 10.0 ** e for m, e in terms])
        if leading is not None:
            c[-1] = leading
        assert T._poly_sup_on_unit_interval(c) == poly_sup_by_horner_on_floats(c)

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


    @pytest.mark.parametrize("make, name", [
        (lambda: T.TestFunction("overlap_sq", [np.nan, 1.0]), "phi"),
        (lambda: T.TestFunction("overlap_sq", [np.inf, 1.0]), "phi"),
        (lambda: real_part([1.0, -np.inf]), "phi"),
        (lambda: polynomial([1.0, 0.0], [0.0, np.nan]), "coefficients"),
        (lambda: polynomial([1.0, 0.0], [np.inf]), "coefficients"),
        (lambda: cap_indicator([1.0, 0.0], np.nan), "threshold"),
    ])
    def test_non_finite_arguments_rejected(self, make, name):
        with pytest.raises(DomainError, match=name):
            make()

    def test_continuity_flag(self):
        phi = np.array([1.0, 0.0])
        assert overlap_sq(phi).is_continuous
        assert not cap_indicator(phi, 0.5).is_continuous


# Each kind at a phi off every axis; the polynomial has no root on [0, 1],
# so relative errors of w p(u) stay those of its Horner steps.
WEIGHTED_KINDS = {
    "overlap_sq": overlap_sq,
    "real_part": real_part,
    "cap_indicator": lambda phi: cap_indicator(phi, 0.2),
    "polynomial": lambda phi: polynomial(phi, [0.5, -1.0, 2.0, -0.5]),
}


def _random_states(rng, d1, d2, n):
    """n unit coefficient matrices (n, d1, d2) of Ginibre draws."""
    m = np.stack([ginibre(rng, d1, d2) for _ in range(n)])
    return m / np.linalg.norm(m, axis=(1, 2), keepdims=True)


class TestWeighted:
    """``TestFunction.weighted`` against the oracle's evaluation on the
    normalized atoms, ``_oracles.of_overlaps``."""

    @pytest.mark.parametrize("d1", [2, 8])
    @pytest.mark.parametrize("kind", sorted(WEIGHTED_KINDS))
    def test_matches_normalized_atoms(self, kind, d1):
        rng = RngStream(331).generator()
        f = WEIGHTED_KINDS[kind](uniform_sphere(rng, d1))
        m = _random_states(rng, d1, 64, 20)
        w = np.sum(np.abs(m) ** 2, axis=1)
        amp = f.phi.conj() @ m
        u = np.abs(amp / np.sqrt(w)) ** 2
        expected = w * of_overlaps(f, amp / np.sqrt(w))
        got = f.weighted(amp, w)
        if f.is_continuous:
            assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected))
        else:
            assert 0 < np.count_nonzero(got) < got.size
            differ = got != expected
            assert np.all(np.abs(u[differ] - (f.threshold - 1e-12)) <= 1e-14)
        # The engine's integrals against the oracle's conditional measure:
        # branch matrix Z F = M with Z = M^T and F = I.
        values = T._conditional_integrals(np.swapaxes(m, 1, 2),
                                          np.broadcast_to(np.eye(d1), (20, d1, d1)), f)
        oracle = [integrate(conditional_measure(BipartiteState(d1, 64, state.ravel())), f)
                  for state in m]
        assert np.max(np.abs(values - oracle)) <= 1e-13 * f.bound

    @pytest.mark.parametrize("kind", sorted(WEIGHTED_KINDS))
    def test_light_branches_of_a_rank_deficient_state_weigh_their_weight(self, kind):
        # rho1 of rank 3 on C^8 and a frame that is Haar on the first 20 of
        # 32 coordinates: branches 20-31 are zero, or of weight below the
        # oracle's WEIGHT_CUTOFF but not zero.  A zero branch adds exactly 0.
        # The engine keeps the light branches, which move mu by at most their
        # total weight times sup|f|; the oracle drops them.
        d1, d2, k = 8, 32, 8
        rng = RngStream(332).generator()
        f = WEIGHTED_KINDS[kind](uniform_sphere(rng, d1))
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2, 0, 0, 0, 0, 0]).astype(complex))
        a = T._amplitude_factor(rho.matrix, k)
        zero = np.zeros((d2, k), dtype=complex)
        zero[:20] = random_ons(rng, 20, k).T
        tiny = zero.copy()
        tiny[20:] = 2e-8 * ginibre(rng, 12, k)
        w = np.sum(np.abs(a.T @ tiny.T) ** 2, axis=0)
        assert np.all((0.0 < w[20:]) & (w[20:] < _oracles.WEIGHT_CUTOFF))
        light = w[20:].sum()
        value = T._conditional_integrals(zero[None], a[None], f)[0]
        moved = T._conditional_integrals(tiny[None], a[None], f)[0]
        assert moved != value
        assert abs(moved - value) <= light * f.bound
        branches = a.T @ zero.T
        terms = f.weighted(f.phi.conj() @ branches, np.sum(np.abs(branches) ** 2, axis=0))
        assert np.all(terms[20:] == 0.0)
        oracle = integrate(conditional_measure(BipartiteState(d1, d2, branches.ravel())), f)
        assert abs(value - oracle) <= 1e-13 * f.bound
        assert abs(moved - oracle) <= light * f.bound + 1e-13 * f.bound
        assert np.all(f.weighted(np.zeros(3, dtype=complex), np.zeros(3)) == 0.0)

    def test_light_branches_count_toward_the_unit_weight(self):
        # 30 000 branches of weight 0.99e-14 beside one of 1 - 2.97e-10: the
        # weights sum to 1.  0.27.2 left the light ones out of the total and
        # raised a DomainError at 2.97e-10 from 1.
        z = np.full((1, 30_001, 1), np.sqrt(0.99e-14), dtype=complex)
        z[0, 0, 0] = np.sqrt(1.0 - 2.97e-10)
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        assert abs(T._conditional_integrals(z, np.array([[[1.0, 0.0]]]), f)[0] - 1.0) <= 1e-12

    @pytest.mark.parametrize("d1", [2, 8])
    def test_cap_at_one_admits_every_branch_along_phi(self, d1):
        # psi = phi (x) chi: every atom is phi up to a phase, and |<phi|atom>|^2
        # rounds to 1 - 1e-16 or so, which t = 1 admits.
        rng = RngStream(333).generator()
        phi = uniform_sphere(rng, d1)
        m = np.outer(phi, uniform_sphere(rng, 64))
        w = np.sum(np.abs(m) ** 2, axis=0)
        amp = phi.conj() @ m
        f = cap_indicator(phi, 1.0)
        assert np.array_equal(f.weighted(amp, w), w)
        assert np.array_equal(w * of_overlaps(f, amp / np.sqrt(w)), w)

    @pytest.mark.parametrize("t", [0.0, 5e-13, 1e-12])
    def test_cap_below_1e_12_admits_every_branch(self, t):
        rng = RngStream(334).generator()
        f = cap_indicator(uniform_sphere(rng, 8), t)
        m = _random_states(rng, 8, 64, 5)
        w = np.sum(np.abs(m) ** 2, axis=1)
        amp = f.phi.conj() @ m
        assert np.array_equal(f.weighted(amp, w), w)
        assert np.array_equal(w * of_overlaps(f, amp / np.sqrt(w)), w)


class TestGapExpectation:
    def test_closed_form_and_monte_carlo_agree(self):
        rng = RngStream(101).generator()
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        f = overlap_sq(np.array([1.0, 0.0]))
        res = gap_expectation(rng, rho, f, 50_000)
        assert T.gap_reference(rho, f) == pytest.approx(0.7)
        assert abs(res.estimate - 0.7) < 3 * res.standard_error + 1e-9

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
        assert T.gap_reference(DensityMatrix.maximally_mixed(2),
                               overlap_sq(phi)) == pytest.approx(0.5)
        assert abs(res.estimate - 0.5) < 4 * res.standard_error + 1e-9

    def test_twenty_random_targets(self):
        for seed in range(20):
            rng = RngStream(104, seed).generator()
            spectrum = rng.dirichlet(np.ones(3))
            rho = DensityMatrix.from_spectrum(spectrum, haar_unitary(rng, 3))
            f = overlap_sq(uniform_sphere(rng, 3))
            res = gap_expectation(rng, rho, f, 20_000)
            closed_form = np.real(f.phi.conj() @ rho.matrix @ f.phi)
            assert abs(res.estimate - closed_form) < 4 * res.standard_error + 1e-9


def _diag(p):
    return DensityMatrix(np.diag([p, 1.0 - p]).astype(complex))


def _z_score(values, exact):
    """(mean - exact) in standard errors of the mean of ``values``."""
    return (values.mean() - exact) / (values.std(ddof=1) / np.sqrt(values.size))


class TestExactReferences:
    """gap_reference's exact forms against routes that do not use them: the
    sphere density, the GAP samplers and the closed forms of earlier
    versions, all in tests/_oracles.py but the density."""

    E1 = np.array([1.0, 0.0])

    def _cap(self, rho, phi, t):
        return T.gap_reference(rho, cap_indicator(phi, t))

    @pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7, 0.99])
    @pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
    def test_cap_matches_quadrature_of_the_sphere_density(self, p, t):
        # u = |<e1|psi>|^2 is uniform on [0, 1] under the uniform measure of
        # the sphere of C^2, so P(u >= t) integrates the GAP density over
        # psi = (sqrt(u), sqrt(1 - u)).
        rho = _diag(p)
        value, _ = quad(lambda u: gap_sphere_density(rho, np.sqrt([u, 1.0 - u])),
                        t, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(self._cap(rho, self.E1, t) - value) < 1e-10

    @pytest.mark.parametrize("index, case", enumerate(["diagonal", "rotated", "mixed"]))
    def test_cap_matches_a_million_gap_draws(self, index, case):
        rng = RngStream(160, index).generator()
        if case == "diagonal":
            rho, phi, t = _diag(0.7), self.E1, 0.5
        elif case == "rotated":  # phi the second eigenvector of a rotated rho
            u = haar_unitary(rng, 2)
            rho = DensityMatrix.from_spectrum(np.array([0.8, 0.2]), u)
            phi, t = u[:, 1], 0.3
        else:  # every phi is an eigenvector of I/2, and P(u >= t) = 1 - t
            rho, phi, t = DensityMatrix.maximally_mixed(2), uniform_sphere(rng, 2), 0.3
        exact = self._cap(rho, phi, t)
        if case == "rotated":  # the closed form serves it, as for diag(0.2, 0.8)
            assert exact == pytest.approx(self._cap(_diag(0.2), self.E1, t), abs=1e-12)
        if case == "mixed":
            assert exact == pytest.approx(0.7, abs=1e-12)
        res = gap_expectation(rng, rho, cap_indicator(phi, t), 1_000_000)
        assert abs(res.estimate - exact) < 4 * res.standard_error

    def test_cap_edges(self):
        # p = 1: u = 1 surely; p = 0: u = 0 surely.
        e2 = np.array([0.0, 1.0])
        pure = _diag(1.0)
        for t in (0.0, 0.5, 1.0):
            assert self._cap(pure, self.E1, t) == 1.0
            assert self._cap(pure, e2, t) == (1.0 if t == 0.0 else 0.0)
        for p in (0.05, 0.5, 0.7):
            assert self._cap(_diag(p), self.E1, 0.0) == pytest.approx(1.0, abs=1e-15)
            assert self._cap(_diag(p), self.E1, 1.0) == pytest.approx(0.0, abs=1e-15)
        # A matrix eigenvalue within the 1e-10 PSD tolerance below 0 puts p
        # above 1; p is clipped to [0, 1], as the sampled spectrum is.
        nearly_pure = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]).astype(complex))
        for t in (0.5, 1.0):
            assert self._cap(nearly_pure, self.E1, t) == 1.0

    # At a rotated pure rho and t = 1 the C^2 eigenvector form rounds
    # <chi|rho|chi> below 1 and returns 0; the cap form admits chi, as
    # test_cap_at_threshold_one_admits_phi_up_to_a_phase checks.
    @pytest.mark.parametrize("p, t", [(p, t) for p in (0.0, 0.05, 0.3, 0.5, 0.7, 1.0)
                                      for t in (0.0, 0.1, 0.5, 0.9, 1.0)
                                      if not (p in (0.0, 1.0) and t == 1.0)])
    def test_cap_contains_the_c2_eigenvector_form(self, p, t):
        # The closed form 0.19.0 used at an eigenvector of rho on C^2, which
        # the general cap form replaced, rotated into a random basis.  Near
        # t = 1 a rounding of |<phi|psi>|^2 by 2e-16 moves either form by up
        # to 2e-16 times the density of u there, 36 at p = 0.05.
        u = haar_unitary(RngStream(161, int(100 * p)).generator(), 2)
        rho = DensityMatrix.from_spectrum(np.array([p, 1.0 - p]), u)
        for phi in u.T:
            assert self._cap(rho, phi, t) == pytest.approx(
                cap_at_eigenvector_c2(rho, phi, t), abs=1e-13)

    def test_drivers_judge_against_the_exact_reference(self):
        rng = RngStream(161).generator()
        rho3 = DensityMatrix.from_spectrum(np.array([0.5, 0.3, 0.2]), haar_unitary(rng, 3))
        assert T.gap_reference(rho3, real_part(uniform_sphere(rng, 3))) == 0.0
        assert self._cap(_diag(0.7), self.E1, 0.5) == pytest.approx(0.784, abs=1e-15)
        out = T.random_purification_experiment(RngStream(162), _diag(0.7), 16,
                                               cap_indicator(self.E1, 0.5), 0.1, 20)
        assert out.reference == self._cap(_diag(0.7), self.E1, 0.5)

    def test_cap_at_threshold_one_admits_phi_up_to_a_phase(self):
        # Every GAP(|chi><chi|) draw is chi up to a phase, so the cap of
        # threshold 1 at chi has GAP probability 1, though |<chi|psi>|^2 may
        # round below 1 (the Monte Carlo route returned 0.689 in 0.14.0).
        chi = haar_unitary(RngStream(3).generator(), 3)[:, 0]
        rho = DensityMatrix(np.outer(chi, chi.conj()))
        assert T.gap_reference(rho, cap_indicator(chi, 1.0)) == 1.0

    @pytest.mark.parametrize("rho, f, expected", [
        # phi not an eigenvector of rho; d1 = 3; a polynomial.
        (_diag(0.7), cap_indicator([1.0, 1.0], 0.5), 0.502),
        (DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex)),
         cap_indicator([1.0, 0.0, 0.0], 0.5), 0.528),
        (_diag(0.7), polynomial([1.0, 0.0], [0.0, 0.0, 1.0]), 0.5527376573347459),
    ])
    def test_exact_forms_serve_the_former_monte_carlo_cases(self, rho, f, expected):
        # The cases 0.19.0 sent to its Monte Carlo route, which returned
        # ``expected``: max(10 n_trials, 2000) draws on substream n_trials.
        # The oracle keeps those values, and the exact form lies within 4
        # of its standard errors.
        stream = RngStream(19)
        mc = monte_carlo_reference(stream, rho, f, 50)
        assert mc.estimate == pytest.approx(expected, rel=1e-12)
        assert abs(T.gap_reference(rho, f) - mc.estimate) <= 4.0 * mc.standard_error

    @pytest.mark.parametrize("index, d", enumerate([2, 3, 5, 8]))
    def test_exact_forms_match_gap_draws_at_a_random_phi(self, index, d):
        # phi is a random unit vector, not an eigenvector of rho, whose
        # spectrum is proportional to 0.8^i in a random basis.
        rng = RngStream(163, index).generator()
        rho = DensityMatrix.from_spectrum(0.8 ** np.arange(d) / np.sum(0.8 ** np.arange(d)),
                                          haar_unitary(rng, d))
        phi = uniform_sphere(rng, d)
        fs = [cap_indicator(phi, t) for t in (0.2, 0.5, 0.8)]
        fs += [polynomial(phi, rng.uniform(-1.0, 1.0, m + 1)) for m in (2, 3, 5)]
        draws = sample_gap(rng, rho, size=200_000)
        for f in fs:
            z = _z_score(evaluate(f, draws), T.gap_reference(rho, f))
            assert abs(z) <= 4.0, (f.kind, f.threshold, f.coefficients)

    @pytest.mark.parametrize("spectrum", [[0.5, 0.3, 0.2], [0.999, 0.001],
                                          [0.9, 0.09, 0.009, 0.001]])
    @pytest.mark.parametrize("degree", [2, 3, 5, 8])
    def test_polynomial_moments_match_a_30_digit_quadrature(self, spectrum, degree):
        mpmath = pytest.importorskip("mpmath")
        d = len(spectrum)
        rng = RngStream(164, degree).generator()
        rho = DensityMatrix.from_spectrum(np.array(spectrum), haar_unitary(rng, d))
        for phi in (np.ones(d) / np.sqrt(d), uniform_sphere(rng, d)):
            a = np.abs(phi @ rho.eigenbasis().conj()) ** 2
            with mpmath.workdps(30):
                p = [mpmath.mpf(float(x)) for x in rho.spectrum()]
                w = [mpmath.mpf(float(x)) for x in a]

                def integrand(lam):
                    sigma = sum(wi * pi / (1 + lam * pi) for wi, pi in zip(w, p))
                    weight = mpmath.fprod(1 / (1 + lam * pi) for pi in p)
                    return lam ** (degree - 2) * weight * sigma ** degree

                nodes = [0] + sorted(1 / pi for pi in p) + [mpmath.inf]
                exact = float(degree * (degree - 1) * mpmath.quad(integrand, nodes))
            coefficients = np.eye(degree + 1)[degree]
            assert abs(T.gap_reference(rho, polynomial(phi, coefficients)) - exact) <= 1e-12

    def test_singular_rho_and_phi_in_its_kernel(self):
        rng = RngStream(165).generator()
        u = haar_unitary(rng, 3)
        rho = DensityMatrix.from_spectrum(np.array([0.6, 0.4, 0.0]), u)
        kernel = u[:, 2]
        for t in (0.0, 1e-12, 2e-12, 0.5, 1.0):
            # u = |<kernel|psi>|^2 is 0 for every GAP draw, and the cap
            # admits u >= t - 1e-12.
            assert self._cap(rho, kernel, t) == (1.0 if t <= 1e-12 else 0.0)
        assert T.gap_reference(rho, polynomial(kernel, [0.25, 1.0, 1.0])) == pytest.approx(
            0.25, abs=1e-15)
        phi = uniform_sphere(rng, 3)
        draws = sample_gap(rng, rho, size=200_000)
        for f in (cap_indicator(phi, 0.4), polynomial(phi, [0.0, 0.0, 0.0, 1.0])):
            assert abs(_z_score(evaluate(f, draws), T.gap_reference(rho, f))) <= 4.0, f.kind


class TestPhiDimension:
    @pytest.mark.parametrize("call", ["purification", "shell", "target", "thermal",
                                      "expectation", "reference"])
    def test_phi_of_another_dimension_rejected_before_drawing(self, monkeypatch, call):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking phi")

        rho = DensityMatrix.maximally_mixed(2)
        subspace = T.random_subspace(RngStream(1).generator(), 2, 4, 8)
        rng, f = RngStream(2).generator(), overlap_sq(np.array([1.0, 0.0, 0.0]))
        shell = T.microcanonical_shell([0.0, 1.0], np.linspace(0.0, 20.0, 40), 10.0, 1.0)
        calls = {
            "purification": lambda: T.random_purification_experiment(
                RngStream(4), rho, 4, f, 0.1, 5),
            "shell": lambda: T.shell_universality_experiment(
                RngStream(4), subspace, f, 0.1, 5),
            "target": lambda: T.shell_vs_target_experiment(
                RngStream(4), subspace, rho, f, 0.1, 5),
            "thermal": lambda: T.thermal_experiment(
                RngStream(4), [0.0, 1.0], shell, f, 0.1, 5),
            "expectation": lambda: gap_expectation(rng, rho, f, 5),
            "reference": lambda: T.gap_reference(rho, f),
        }
        monkeypatch.setattr(RngStream, "generator", no_draws)
        monkeypatch.setattr(_oracles, "sample_gap", no_draws)
        with pytest.raises(DimensionError, match=r"phi has shape \(3,\), the system "
                                                 r"dimension is 2"):
            calls[call]()


# 0.27.1 ran each of these: NaN and a negative failed every trial, inf
# passed every trial of theorems 1, 3 and 4, and a string ended in a bare
# TypeError.
@pytest.mark.parametrize("tolerance", [np.nan, np.inf, -0.1, 0.0, True, "0.1"])
@pytest.mark.parametrize("call", ["purification", "shell", "submatrix", "continuity"])
def test_bad_tolerance_rejected_before_drawing(monkeypatch, call, tolerance):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew before checking the tolerance")

    rho, f = DensityMatrix.maximally_mixed(2), overlap_sq(np.array([1.0, 0.0]))
    subspace = T.random_subspace(RngStream(1).generator(), 2, 4, 8)
    calls = {
        "purification": lambda: T.random_purification_experiment(
            RngStream(4), rho, 4, f, tolerance, 5),
        "shell": lambda: T.shell_universality_experiment(RngStream(4), subspace, f, tolerance, 5),
        "submatrix": lambda: T.submatrix_convergence_experiment(RngStream(4), 1, 4, 5, tolerance),
        "continuity": lambda: T.continuity_probe(RngStream(4), 2, 0.1, 3, tolerance),
    }
    name = "threshold" if call == "continuity" else "epsilon"
    monkeypatch.setattr(RngStream, "generator", no_draws)
    with pytest.raises(DomainError, match=f"{name} must be a positive finite real number"):
        calls[call]()


class TestExperimentOutcome:
    """The point statistics are fields, set once at construction."""

    @staticmethod
    def _statistics(out):
        return [out.pass_fraction, out.median_discrepancy, out.q10, out.q90]

    def test_statistics_equal_the_scalar_numpy_calls_bit_for_bit(self):
        rng = RngStream(170).generator()
        for n in [*range(1, 40), 99, 100, 1000, 5000]:
            d = rng.exponential(size=n) * rng.choice([1e-12, 1.0, 1e6])
            d[::4] = d[0]  # ties
            passed = rng.random(n) < 0.8
            out = T.ExperimentOutcome(d, passed, np.full(n, np.nan), 0.0, 1.0)
            expected = [float(np.mean(passed)), float(np.median(d)),
                        float(np.quantile(d, 0.1)), float(np.quantile(d, 0.9))]
            got = self._statistics(out)
            assert all(type(v) is float for v in got)
            assert [v.hex() for v in got] == [v.hex() for v in expected], n

    def test_replace_recomputes_the_statistics(self):
        out = T.ExperimentOutcome(np.array([0.4, 0.1, 0.3, 0.2]),
                                  np.array([False, True, False, True]),
                                  np.full(4, np.nan), 0.0, 0.25)
        assert out.pass_fraction == 0.5 and out.median_discrepancy == 0.25
        new = replace(out, discrepancies=np.array([2.0, 4.0, 9.0]),
                      passed=np.array([True, True, True]), auxiliary=np.zeros(3))
        assert self._statistics(new) == [1.0, 4.0, 2.4, 8.0]
        # thermal_experiment adds to extra through replace; the statistics
        # still describe the columns.
        system = [0.0, 1.0]
        shell = T.microcanonical_shell(system, np.linspace(0.0, 20.0, 40), 10.0, 1.0)
        thermal = T.thermal_experiment(RngStream(171), system, shell,
                                       polynomial(np.ones(2), [0.0, 0.0, 1.0]), 0.15, 20)
        assert "beta" in thermal.extra
        assert self._statistics(thermal) == self._statistics(T.ExperimentOutcome(
            thermal.discrepancies, thermal.passed, thermal.auxiliary, 0.0, 1.0))


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
            for column in ("discrepancies", "passed", "auxiliary"):
                np.testing.assert_array_equal(getattr(out, column), getattr(default, column))

    @pytest.mark.parametrize("driver", ["purification", "shell", "target", "thermal",
                                        "canonical"])
    def test_one_generator_per_driver_call(self, monkeypatch, driver):
        # With the reference pinned, the trials are the driver's only draws:
        # one generator serves all 6 chunks of the 40 trials.
        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        cap = cap_indicator(np.array([1.0, 0.0]), 0.5)
        subspace = T.random_subspace(RngStream(1).generator(), 2, 8, 12)
        shell = T.microcanonical_shell([0.0, 1.0], np.linspace(0.0, 20.0, 40), 10.0, 1.0)
        calls = {
            "purification": lambda s: T.random_purification_experiment(
                s, rho, 8, cap, 0.1, 40),
            "shell": lambda s: T.shell_universality_experiment(
                s, subspace, overlap_sq(np.array([1.0, 0.0])), 0.1, 40),
            "target": lambda s: T.shell_vs_target_experiment(
                s, subspace, rho, cap, 0.1, 40),
            "thermal": lambda s: T.thermal_experiment(s, [0.0, 1.0], shell, cap, 0.1, 40),
            "canonical": lambda s: T.canonical_typicality_experiment(s, subspace, 40),
        }
        reference = 0.5 if driver == "shell" else 0.3
        monkeypatch.setattr(T, "gap_reference", lambda *args: reference)
        made, generator = [], RngStream.generator
        monkeypatch.setattr(RngStream, "generator",
                            lambda s: made.append(s) or generator(s))
        monkeypatch.setattr(T, "CHUNK_ENTRIES", 7 * 2 * 8)  # 7 trials per chunk
        stream = RngStream(109)
        assert len(calls[driver](stream).discrepancies) == 40
        assert made == [stream]


class TestTrialCountLimit:
    """At most 2**32 trials, whose (2, n_trials) output columns already
    take 64 GiB; the guard runs before that array is allocated."""

    class Allocated(Exception):
        pass

    def _run(self, monkeypatch, n_trials):
        def refuse(*args, **kwargs):
            raise self.Allocated

        monkeypatch.setattr(T.np, "empty", refuse)
        T._run_trials(RngStream(1), n_trials, 1, [(1, 1)], lambda z: (z, z))

    def test_more_than_two_to_the_32_trials_rejected(self, monkeypatch):
        with pytest.raises(DomainError):
            self._run(monkeypatch, 2**32 + 1)

    def test_two_to_the_32_trials_accepted(self, monkeypatch):
        with pytest.raises(self.Allocated):
            self._run(monkeypatch, 2**32)

    @pytest.mark.parametrize("driver", ["purification", "shell", "target", "thermal",
                                        "canonical"])
    def test_drivers_reject_more_than_two_to_the_32_trials(self, driver):
        rho = DensityMatrix.maximally_mixed(2)
        cap = cap_indicator(np.array([1.0, 0.0]), 0.5)
        subspace = T.random_subspace(RngStream(1).generator(), 2, 2, 4)
        shell = T.microcanonical_shell([0.0, 1.0], np.linspace(0.0, 20.0, 40), 10.0, 1.0)
        stream, n = RngStream(2), 2**32 + 1
        calls = {
            "purification": lambda: T.random_purification_experiment(
                stream, rho, 2, cap, 0.1, n),
            "shell": lambda: T.shell_universality_experiment(
                stream, subspace, polynomial(np.array([1.0, 0.0]), [0.0, 1.0, 1.0]),
                0.1, n),
            "target": lambda: T.shell_vs_target_experiment(
                stream, subspace, rho, cap, 0.1, n),
            "thermal": lambda: T.thermal_experiment(stream, [0.0, 1.0], shell, cap, 0.1, n),
            "canonical": lambda: T.canonical_typicality_experiment(stream, subspace, n),
        }
        with pytest.raises(DomainError, match="2\\*\\*32 trials"):
            calls[driver]()


class TestRandomBasisExperiment:
    """A frozen state psi in random bases, which the theorem2 experiment runs
    as theorem 1's trials at rho1 = tr_2 |psi><psi|."""

    def test_product_state_zero_discrepancy(self):
        stream = RngStream(110)
        chi = np.array([0.0, 1.0])
        rho1 = reduced_density_matrix(product_state(chi, np.eye(6)[0]))
        out = T.random_purification_experiment(stream, rho1, 6, cap_indicator(chi, 0.5),
                                               0.1, 30)
        assert np.max(out.discrepancies) < 1e-12

    def test_pass_fraction_with_frozen_state(self):
        setup = RngStream(111).generator()
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        rho1 = reduced_density_matrix(random_purification(setup, rho, 64))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        out = T.random_purification_experiment(RngStream(112), rho1, 64, f, 0.1, 200)
        assert out.pass_fraction >= 0.9

    def test_duality_with_random_purifications(self, monkeypatch):
        # Random state with fixed basis (the engine) and fixed state with
        # random basis (the per-trial oracle) give identically distributed
        # conditional statistics.
        rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        d2, reference = 32, 0.4
        # Any fixed reference; only the law of mu(f) matters.
        monkeypatch.setattr(T, "gap_reference", lambda *args: reference)
        out_state = T.random_purification_experiment(
            RngStream(113), rho, d2, f, 0.1, 400)
        psi = random_purification(RngStream(114).generator(), rho, d2)
        out_basis = random_basis_trials(RngStream(115), psi, f, reference, 400)[:, 0]
        _, p = two_sample_ks(out_state.discrepancies, out_basis)
        assert p > 0.01


class TestRandomSubspace:
    def test_full_space_reduces_to_maximally_mixed(self):
        rng = RngStream(116).generator()
        target = T.random_subspace(rng, 2, 3, 6).reduced_density()
        assert np.max(np.abs(target.matrix - np.eye(2) / 2)) < 1e-10

    def test_orthonormal_columns(self):
        rng = RngStream(117).generator()
        subspace = T.random_subspace(rng, 2, 4, 5)
        assert (subspace.d1, subspace.d2, subspace.dim) == (2, 4, 5)
        gram = subspace.basis.conj().T @ subspace.basis
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
            acc += T.random_subspace(rng, 2, 4, 3).reduced_density().matrix
        assert np.max(np.abs(acc / n - np.eye(2) / 2)) < 0.01


class TestCanonicalTypicality:
    def test_one_dimensional_subspace_is_deterministic(self):
        rng = RngStream(120).generator()
        subspace = T.random_subspace(rng, 2, 3, 1)
        out = T.canonical_typicality_experiment(RngStream(121), subspace, 20)
        assert np.max(out.discrepancies) - np.min(out.discrepancies) < 1e-10

    def test_concentration_at_moderate_dimension(self):
        rng = RngStream(122).generator()
        subspace = T.random_subspace(rng, 2, 50, 100)
        out = T.canonical_typicality_experiment(RngStream(123), subspace, 300)
        assert out.extra["mean_distance"] < 0.4
        bound = np.asarray(out.extra["bound"])
        binom_se = np.sqrt(np.clip(bound, 0, 1) * (1 - np.clip(bound, 0, 1))
                           / len(out.discrepancies))
        assert np.all(np.asarray(out.extra["exceedance"]) <= bound + 3 * binom_se)

    def test_mean_squared_distance_on_the_full_space(self):
        # A uniform state of C^2 (x) C^{d2} has E tr rho^2 = (d2 + 2) / (2 d2 + 1)
        # (Lubkin), and for d1 = 2, ||rho - I/2||_tr^2 = 2 (tr rho^2 - 1/2), so
        # E ||rho - I/2||_tr^2 = 3 / (2 d2 + 1): d2 sets the scale, not
        # d1 / sqrt(dim).  The mean of 400 trials must lie within 4 of its
        # standard errors of the law, and at least 8 from the law at 2 d2
        # (the control, about half the value).
        for idx, d2 in enumerate((25, 100, 400)):
            subspace = T.Subspace(np.eye(2 * d2), 2, d2)
            out = T.canonical_typicality_experiment(RngStream(125, idx), subspace, 400)
            squared = out.discrepancies ** 2
            se = squared.std(ddof=1) / np.sqrt(squared.size)
            assert abs(squared.mean() - 3.0 / (2 * d2 + 1)) <= 4.0 * se
            assert abs(squared.mean() - 3.0 / (4 * d2 + 1)) >= 8.0 * se


class TestShellUniversality:
    def test_full_space_pass_fraction(self):
        rng = RngStream(126).generator()
        subspace = T.random_subspace(rng, 2, 64, 128)
        out = T.shell_universality_experiment(
            RngStream(127), subspace, overlap_sq(np.array([1.0, 0.0])), 0.1, 200)
        assert out.pass_fraction >= 0.9

    def test_constant_function_zero_discrepancy(self):
        rng = RngStream(128).generator()
        subspace = T.random_subspace(rng, 2, 8, 16)
        f = polynomial(np.array([1.0, 0.0]), [0.25])
        out = T.shell_universality_experiment(RngStream(129), subspace, f, 0.1, 20)
        assert np.max(out.discrepancies) < 1e-12

    def test_discontinuous_function_rejected(self):
        rng = RngStream(130).generator()
        subspace = T.random_subspace(rng, 2, 8, 16)
        with pytest.raises(DomainError):
            T.shell_universality_experiment(
                RngStream(131), subspace,
                cap_indicator(np.array([1.0, 0.0]), 0.5), 0.1, 10)

    def test_is_theorem4_at_the_subspace_average(self):
        # Theorem 3 runs theorem 4's trials at Omega = tr_2 rho_R and judges
        # them alike, within epsilon ||f||_inf; 0.27.2 judged them within
        # epsilon, here 0.1 against 1.0.
        subspace = T.random_subspace(RngStream(142).generator(), 2, 16, 20)
        f = polynomial(np.array([1.0, 0.0]), [0.0, 0.0, 10.0])
        shell = T.shell_universality_experiment(RngStream(143), subspace, f, 0.1, 200)
        target = T.shell_vs_target_experiment(RngStream(143), subspace,
                                              subspace.reduced_density(), f, 0.1, 200)
        for column in ("discrepancies", "passed", "auxiliary"):
            assert np.array_equal(getattr(shell, column), getattr(target, column))
        assert (shell.reference, shell.threshold) == (target.reference, target.threshold)
        assert shell.threshold == 1.0
        assert shell.extra == {} and set(target.extra) == {"target_distance"}

    def test_singular_average_accepted(self):
        # psi = e1 (x) chi: tr_2 rho_R = |e1><e1|, which theorem 4 rejects as
        # a target, and every trial's mu(u) is 1, the reference.
        subspace = T.Subspace(np.eye(16)[:, :8], 2, 8)
        f = overlap_sq(np.array([1.0, 0.0]))
        out = T.shell_universality_experiment(RngStream(144), subspace, f, 0.1, 20)
        assert out.reference == 1.0 and out.extra == {}
        assert np.max(out.discrepancies) < 1e-12
        with pytest.raises(DomainError, match="strictly positive"):
            T.shell_vs_target_experiment(RngStream(144), subspace,
                                         subspace.reduced_density(), f, 0.1, 20)

    def test_improves_with_both_dimensions(self):
        f = overlap_sq(np.array([1.0, 0.0]))
        rng_small = RngStream(132).generator()
        small = T.shell_universality_experiment(
            RngStream(133), T.random_subspace(rng_small, 2, 16, 20), f, 0.1, 200)
        rng_big = RngStream(134).generator()
        big = T.shell_universality_experiment(
            RngStream(135), T.random_subspace(rng_big, 2, 64, 120), f, 0.1, 200)
        assert big.pass_fraction >= small.pass_fraction - 0.02


class TestShellVsTarget:
    def test_exact_target_matches_universality_behavior(self):
        rng = RngStream(136).generator()
        subspace = T.random_subspace(rng, 2, 64, 128)
        omega = subspace.reduced_density()
        f = overlap_sq(np.array([1.0, 0.0]))
        out = T.shell_vs_target_experiment(RngStream(137), subspace, omega, f, 0.1, 200)
        assert out.extra["target_distance"] < 1e-10
        assert out.pass_fraction >= 0.9

    def test_bounded_measurable_function_allowed(self):
        rng = RngStream(138).generator()
        subspace = T.random_subspace(rng, 2, 64, 128)
        f = cap_indicator(np.array([1.0, 0.0]), 0.5)
        out = T.shell_vs_target_experiment(
            RngStream(139), subspace, DensityMatrix.maximally_mixed(2),
            f, 0.15, 200)
        assert out.pass_fraction >= 0.85

    def test_singular_target_rejected(self):
        rng = RngStream(140).generator()
        subspace = T.random_subspace(rng, 2, 4, 8)
        omega = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))
        with pytest.raises(DomainError):
            T.shell_vs_target_experiment(
                RngStream(141), subspace, omega,
                overlap_sq(np.array([1.0, 0.0])), 0.1, 10)


class TestEnergyShell:
    def test_counting_example(self):
        shell = T.microcanonical_shell([0.0, 1.0], [0.0, 0.5, 1.0, 1.5], 1.0, 0.5)
        assert shell.dim == 4
        assert set(map(tuple, shell.member_pairs.tolist())) == {(0, 2), (0, 3), (1, 0), (1, 1)}
        assert np.allclose(shell.reduced_density().matrix, np.eye(2) / 2)
        assert list(shell.counts) == [2, 2]

    def test_members_match_brute_force(self):
        rng = np.random.default_rng(12)
        system, bath = rng.uniform(0, 3, 5), rng.uniform(0, 10, 60)
        energy, width = system[1] + bath[7], 2.0
        bath[11] = energy + width - system[3]  # a pair exactly on each edge
        shell = T.microcanonical_shell(system, bath, energy, width)
        tol = 1e-9 * (abs(energy) + width)
        expected = [(i, j) for i in range(5) for j in range(60)
                    if energy - tol <= system[i] + bath[j] <= energy + width + tol]
        assert (1, 7) in expected and (3, 11) in expected
        assert shell.member_pairs.tolist() == [list(p) for p in expected]
        assert shell.counts.tolist() == [sum(i == k for i, _ in expected) for k in range(5)]
        b = shell_basis(shell)
        assert b.shape == (300, len(expected))
        assert [tuple(divmod(int(r), 60)) for r in np.argmax(np.abs(b), axis=0)] == expected
        assert np.count_nonzero(b) == len(expected)

    def test_window_below_spectrum_rejected(self):
        with pytest.raises(EmptyShellError):
            T.microcanonical_shell([0.0, 1.0], [0.0, 0.5], -5.0, 0.5)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(DomainError):
            T.microcanonical_shell([0.0, 1.0], [0.0, 0.5], 1.0, 0.0)

    @pytest.mark.parametrize("system, bath, energy, width, name", [
        ([0.0, np.inf], [0.0, 0.5], 0.0, 0.5, "system_levels"),
        ([0.0, np.nan], [0.0, 0.5], 0.0, 0.5, "system_levels"),
        ([0.0, 1.0], [0.0, -np.inf], 0.0, 0.5, "bath_levels"),
        ([0.0, 1.0], [0.0, 0.5], np.nan, 0.5, "energy"),
        ([0.0, 1.0], [0.0, 0.5], 0.0, np.nan, "width"),
        ([0.0, 1.0], [0.0, 0.5], 0.0, np.inf, "width"),
    ])
    def test_non_finite_arguments_rejected(self, system, bath, energy, width, name):
        with pytest.raises(DomainError, match=name):
            T.microcanonical_shell(system, bath, energy, width)

    def test_shell_keeps_only_its_sizes_and_pairs(self):
        # List levels are accepted; the shell is the coordinate subspace of
        # its member pairs, in row-major order.
        shell = T.microcanonical_shell([0.0, 1.0], [0.0, 0.5, 1.0, 1.5], 1.0, 0.5)
        assert isinstance(shell, T.CoordinateSubspace)
        assert [f.name for f in fields(shell)] == ["d1", "d2", "member_pairs"]
        assert (shell.d1, shell.d2) == (2, 4)
        assert shell.member_pairs.tolist() == [[0, 2], [0, 3], [1, 0], [1, 1]]

    @pytest.mark.parametrize("system, bath, name", [
        ([0.0, np.nan], [0.0, 0.5], "system_levels"),
        ([0.0, 1.0], [[0.0, 0.5]], "bath_levels"),
    ])
    def test_shell_rejects_bad_levels(self, system, bath, name):
        with pytest.raises(DomainError, match=name):
            T.microcanonical_shell(system, bath, 0.0, 0.5)

    def test_basis_columns_are_member_product_states(self):
        shell = T.microcanonical_shell([0.0, 1.0], [0.0, 0.5, 1.0, 1.5], 1.0, 0.5)
        b = shell_basis(shell)
        assert b.shape == (8, 4)
        assert np.max(np.abs(b.conj().T @ b - np.eye(4))) < 1e-14
        assert T.Subspace(b, 2, 4).reduced_density().matrix == pytest.approx(
            shell.reduced_density().matrix)

    def test_dense_bath_is_nearly_thermal(self):
        bath = np.linspace(0.0, 20.0, 200)
        shell = T.microcanonical_shell([0.0, 1.0], bath, 10.0, 0.5)
        target = shell.reduced_density()
        beta = T.fit_beta([0.0, 1.0], target)
        assert trace_norm(canonical_density([0.0, 1.0], beta).matrix - target.matrix) < 0.05


class TestFitBeta:
    def test_round_trip(self):
        target = canonical_density([0.0, 1.0], 1.0)
        beta = T.fit_beta([0.0, 1.0], target)
        assert abs(beta - 1.0) < 1e-6
        assert trace_norm(canonical_density([0.0, 1.0], beta).matrix - target.matrix) < 1e-10

    def test_infinite_temperature_target(self):
        target = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert abs(T.fit_beta([0.0, 1.0], target)) < 1e-6

    def test_two_level_closed_form(self):
        # A diagonal two-level target is matched exactly at
        # beta = log(p0/p1) / (E1 - E0).
        bath = np.sqrt(np.linspace(0.0, 20.0 ** 2, 300))
        shell = T.microcanonical_shell([0.0, 1.0], bath, 10.0, 0.5)
        n0, n1 = shell.counts
        assert n0 != n1
        target = shell.reduced_density()
        beta = T.fit_beta([0.0, 1.0], target)
        assert abs(beta - np.log(n0 / n1)) < 1e-6
        assert trace_norm(canonical_density([0.0, 1.0], beta).matrix - target.matrix) < 1e-10

    @pytest.mark.parametrize("levels, target", [
        ([0.0, 1.0], np.diag([0.8, 0.2])),
        ([0.0, 0.4, 1.3], np.diag([0.5, 0.3, 0.2])),  # not a Gibbs state
        ([0.0, 1.0], canonical_density([0.0, 1.0], 49.5).matrix),
        ([0.0, 1.0, 2.5], canonical_density([0.0, 1.0, 2.5], -49.0).matrix),
    ])
    def test_float_residual_matches_array_residual(self, levels, target):
        target = DensityMatrix(np.asarray(target, dtype=complex))
        beta = T.fit_beta(levels, target)
        assert abs(beta - fit_beta_by_array_residual(levels, target)) <= 1e-12

    def test_float_residual_keeps_the_thermal_twolevel_bits(self):
        shell = T.microcanonical_shell([0.0, 1.0], np.linspace(0.0, 20.0, 200), 10.0, 0.5)
        target = shell.reduced_density()
        assert T.fit_beta([0.0, 1.0], target) == fit_beta_by_array_residual([0.0, 1.0], target)

    def test_non_diagonal_target_rejected(self):
        m = np.array([[0.5, 0.1], [0.1, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            T.fit_beta([0.0, 1.0], DensityMatrix(m))


class TestSubmatrixDensity:
    def test_normalized_value_at_origin(self):
        assert abs(submatrix_density_k1(2, 0.0) - 1 / (2 * np.pi)) < 1e-14

    def test_gaussian_limit(self):
        assert abs(submatrix_density_k1(10 ** 6, 0.0) - 1 / np.pi) < 1e-5

    def test_indicator_cutoff(self):
        assert submatrix_density_k1(4, 2.5) == 0.0

    def test_l1_closed_form_matches_quadrature(self):
        for n in (2, 3, 4, 16, 64, 256):
            assert abs(T.submatrix_l1_distance(n) - quadrature_l1_distance(n)) < 1e-9

    @pytest.mark.parametrize("n", [3, 4, 16, 64, 256, 1024, 4096])
    def test_l1_closed_form_relative_error(self, n):
        # exp(-u) - (1 - u/n)^(n-1) loses about log10(n) digits to
        # cancellation (2.7e-12 at n = 256, 1.3e-9 at n = 4096); the expm1
        # form stays below 1e-12 up to n = 4096.
        exact = mpmath_l1_distance(n)
        assert abs(T.submatrix_l1_distance(n) - exact) <= 1e-12 * exact

    def test_quadrature_normalization(self):
        from scipy.integrate import quad
        for n in (4, 16):
            total = quad(lambda r: 2 * np.pi * r * submatrix_density_k1(n, r),
                         0, np.sqrt(n))[0]
            assert abs(total - 1.0) < 1e-6


def _submatrix_sweep(stream, k, n_values, n_samples, epsilon=0.02):
    """Point p of a sweep over n draws from ``stream.substream(p)``."""
    return [T.submatrix_convergence_experiment(stream.substream(p), k, n, n_samples, epsilon)
            for p, n in enumerate(n_values)]


def _same_outcome(a, b):
    return (a.discrepancies.tobytes() == b.discrepancies.tobytes()
            and a.passed.tobytes() == b.passed.tobytes()
            and a.auxiliary.tobytes() == b.auxiliary.tobytes()
            and a.extra == b.extra and (a.reference, a.threshold)
            == (b.reference, b.threshold))


class TestSubmatrixConvergence:
    def test_l1_decreasing_and_ks_small(self):
        outs = _submatrix_sweep(RngStream(142), 1, [4, 16, 64, 256], 3000)
        l1 = [out.discrepancies[0] for out in outs]
        assert all(a > b for a, b in zip(l1, l1[1:]))
        assert outs[-1].extra["ks_entry"] < 0.04

    def test_expectation_gaps_shrink(self):
        outs = _submatrix_sweep(RngStream(143), 1, [4, 256], 4000)
        for kind in ("cap_indicator", "polynomial"):
            assert (outs[1].extra["expectation_gaps"][kind]
                    < outs[0].extra["expectation_gaps"][kind])

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
            T.submatrix_convergence_experiment(RngStream(145), 2, 3, 10, 0.02)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", ["2k", 16])
    def test_blocks_match_per_sample_law(self, k, n):
        # The Bartlett draw against the independent n x k QR route, sample by
        # sample from another substream: same law, checked on the corner
        # entries and on a phase-sensitive statistic.
        n = 2 * k if n == "2k" else n
        stream = RngStream(152, k)
        blocks = T._scaled_haar_blocks(stream.substream(0).generator(), n, k, 2000)
        oracle = submatrix_blocks_per_sample(stream.substream(1).generator(), n, k, 2000)
        for stat in (lambda x: np.abs(x[:, 0, 0]) ** 2, lambda x: np.abs(x[:, -1, -1]) ** 2,
                     lambda x: x[:, 0, 0].real):
            _, p = two_sample_ks(stat(blocks), stat(oracle))
            assert p > 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", ["2k", "2k+1", 64, 256])
    def test_gram_schmidt_matches_qr_on_the_same_stacks(self, monkeypatch, k, n):
        # The Bartlett stacks the draw orthonormalizes, against the
        # phase-fixed LAPACK QR of the same stacks.
        n = {"2k": 2 * k, "2k+1": 2 * k + 1}.get(n, n)
        stacks = []
        monkeypatch.setattr(T, "_gram_schmidt_twice",
                            lambda a: stacks.append(a) or _gram_schmidt_twice(a))
        T._scaled_haar_blocks(RngStream(153, k).generator(), n, k, 2000)
        (a,) = stacks
        q = _gram_schmidt_twice(a)
        assert np.max(np.abs(q - _haar_columns(a))) < 1e-13
        # Negative control: without the phase fix the QR is another Q.
        assert np.max(np.abs(q - np.linalg.qr(a)[0])) > 0.1

    @pytest.mark.parametrize("k, n", [(1, n) for n in (2, 4, 16, 64, 256)]
                             + [(k, n) for k in (2, 3) for n in (2 * k, 16, 256)])
    def test_blocks_match_the_concatenated_stack(self, k, n):
        # The in-place stack against the route of 0.16.0 on the same
        # generator state: bit-identical at k = 1, within 1e-13 otherwise.
        # Both leave the generator in the same state, so skipping the empty
        # above-diagonal draw at k = 1 takes nothing from it.
        rng, oracle_rng = RngStream(165, n).generator(), RngStream(165, n).generator()
        blocks = T._scaled_haar_blocks(rng, n, k, 3000)
        oracle = scaled_haar_blocks_by_concatenation(oracle_rng, n, k, 3000)
        if k == 1:
            assert blocks.tobytes() == oracle.tobytes()
        assert np.max(np.abs(blocks - oracle)) < 1e-13
        assert same_state(rng.bit_generator.state, oracle_rng.bit_generator.state)

    @pytest.mark.parametrize("m, k", [(1, 1), (2, 1), (7, 1), (4, 2), (6, 3), (7, 3)])
    def test_gram_schmidt_bit_identical_to_division_below_eight_rows(self, m, k):
        rng = RngStream(167, m).generator()
        a = rng.standard_normal((500, m, k)) + 1j * rng.standard_normal((500, m, k))
        assert _gram_schmidt_twice(a).tobytes() == gram_schmidt_twice_by_division(a).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", ["2k", 64])
    def test_outcome_matches_the_composition_by_parts(self, k, n):
        # One sort and one overlap array per sample against a sort per KS
        # distance and a matrix-vector product per test function.
        n = 2 * k if n == "2k" else n
        out = T.submatrix_convergence_experiment(RngStream(168, k), k, n, 3000, 0.03)
        oracle = submatrix_outcome_by_parts(RngStream(168, k), k, n, 3000, 0.03)
        gaps, oracle_gaps = (o.extra.pop("expectation_gaps") for o in (out, oracle))
        if k == 1:
            assert _same_outcome(out, oracle)
        assert out.passed.tolist() == oracle.passed.tolist()
        for column in ("discrepancies", "auxiliary"):
            assert np.allclose(getattr(out, column), getattr(oracle, column),
                               rtol=0.0, atol=1e-12)
        for key in ("ks_entry", "ks_exact", "ks_entry_max"):
            assert abs(out.extra[key] - oracle.extra[key]) < 1e-12
        # The oracle judges the same blocks against the mean of a Gaussian
        # comparison sample, the driver against its exact value, so the two
        # gaps differ by at most that mean's error: here within 5 of its
        # standard errors sd g(Z) / sqrt(3000), with |Z|^2 ~ Exp(1),
        # Var Re Z = 1/2 and Var |Z|^4 = 4! - 2!^2.
        cap = np.exp(-0.5)
        sd = {"overlap_sq": 1.0, "real_part": np.sqrt(0.5),
              "cap_indicator": np.sqrt(cap * (1.0 - cap)), "polynomial": np.sqrt(20.0)}
        assert gaps.keys() == oracle_gaps.keys() == sd.keys()
        assert all(abs(gaps[g] - oracle_gaps[g]) <= 5.0 * sd[g] / np.sqrt(3000) for g in gaps)

    @pytest.mark.parametrize("n", [4, 8])
    def test_gaps_match_their_exact_finite_n_values(self, monkeypatch, n):
        # For x = |X_11|^2 ~ n Beta(1, n - 1), E x^2 = 2n/(n+1) against
        # E |Z|^4 = 2, and P(x >= t) = (1 - t/n)^(n-1) against exp(-t), while
        # E x = 1 and E Re X_11 = 0 exactly.  Each gap lies within 4 standard
        # errors of the block sample (the same draws) of its exact value; a
        # wrong limit moment, E |Z|^4 = 1 or exp(-2t), must fail that check.
        stream, t, size = RngStream(169, n), 0.5, 20_000
        x11 = T._scaled_haar_blocks(stream.generator(), n, 1, size)[:, 0, 0]
        x = np.abs(x11) ** 2
        exact = {"overlap_sq": 0.0, "real_part": 0.0, "polynomial": 2.0 / (n + 1),
                 "cap_indicator": abs((1.0 - t / n) ** (n - 1) - np.exp(-t))}
        error = {kind: np.std(sample) / np.sqrt(size) for kind, sample in (
            ("overlap_sq", x), ("real_part", x11.real), ("polynomial", x ** 2),
            ("cap_indicator", x >= t))}

        def within():
            gaps = T.submatrix_convergence_experiment(stream, 1, n, size, 0.02).extra[
                "expectation_gaps"]
            return {g: abs(gaps[g] - exact[g]) <= 4.0 * error[g] for g in exact}

        assert all(within().values())
        wrong, right = {"polynomial": 1.0, "cap_indicator": np.exp(-2.0 * t)}, T._gaussian_mean
        monkeypatch.setattr(T, "_gaussian_mean", lambda f: wrong.get(f.kind, right(f)))
        assert within() == {"overlap_sq": True, "real_part": True,
                            "polynomial": False, "cap_indicator": False}

    @pytest.mark.parametrize("k, n, n_samples, name", [
        (0, 4, 10, "k"),
        (-1, 4, 10, "k"),
        (1.5, 4, 10, "k"),
        (True, 4, 10, "k"),
        (1, 4, 0, "n_samples"),
        (1, 4, -3, "n_samples"),
        (1, 4, 2.5, "n_samples"),
        (1, 4, True, "n_samples"),
        (1, 4.5, 10, "n"),
        (1, True, 10, "n"),
        (1, 1, 10, "n"),
        (2, 3, 10, "n"),
    ])
    def test_bad_arguments_rejected_before_drawing(self, monkeypatch, k, n,
                                                   n_samples, name):
        def no_draws(stream):
            raise AssertionError("drew before validating")

        monkeypatch.setattr(RngStream, "generator", no_draws)
        with pytest.raises(DomainError, match=f"^{name} must"):
            T.submatrix_convergence_experiment(RngStream(154), k, n, n_samples, 0.02)

    def test_one_point_runs_alone(self):
        # CLI sweep point p is the driver on RngStream(seed, p).
        from gaplab.cli import ExperimentConfig, run
        cfg = ExperimentConfig.from_dict({
            "experiment": "submatrix", "d1": 1, "sweep": {"d2": [4, 16]},
            "n_samples": 200, "epsilon": 0.02, "seed": 157})
        points = run(cfg).points
        for p, n in enumerate((4, 16)):
            assert _same_outcome(points[p].outcome, T.submatrix_convergence_experiment(
                RngStream(157, p), 1, n, 200, 0.02))
            # Negative control: the layout of 0.14, RngStream(seed, 0).substream(p).
            assert not _same_outcome(points[p].outcome, T.submatrix_convergence_experiment(
                RngStream(157, 0).substream(p), 1, n, 200, 0.02))

    def test_numpy_integer_arguments_accepted(self):
        out = T.submatrix_convergence_experiment(
            RngStream(155), np.int64(1), np.int64(16), np.int32(20), 0.02)
        assert _same_outcome(
            out, T.submatrix_convergence_experiment(RngStream(155), 1, 16, 20, 0.02))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_entry_follows_exact_finite_n_law(self, k):
        # Every entry of a Haar unitary has the same marginal:
        # n |U_ij|^2 ~ n Beta(1, n - 1), CDF 1 - (1 - x/n)^(n-1) on [0, n]
        # (Zyczkowski & Sommers), for every block size k <= n/2.  A misplaced
        # Bartlett factor shows in X_kk first.
        samples = {}
        for n in (2 * k, 16):
            blocks = T._scaled_haar_blocks(RngStream(156, k).generator(), n, k, 5000)
            exact = lambda t, n=n: 1.0 - (1.0 - np.clip(t, 0.0, n) / n) ** (n - 1)
            for i in range(k):
                for j in range(k):
                    assert stats.kstest(np.abs(blocks[:, i, j]) ** 2, exact).pvalue > 1e-3
            samples[n] = np.abs(blocks[:, -1, -1]) ** 2
        # Negative control: at n = 2k the same sample is far from the Exp(1) limit.
        assert stats.kstest(samples[2 * k], stats.expon.cdf).pvalue < 1e-3

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pass_flag_judges_the_finite_n_law(self, monkeypatch, k):
        # At n = 2k the exact law is far from the n = infinity limit, yet
        # correct blocks pass; blocks drawn with every Bartlett Gamma shape
        # raised by 1 (the law of a size n + 1 unitary, scaled by sqrt(n))
        # must fail.
        n = 2 * k
        out = T.submatrix_convergence_experiment(RngStream(158, k), k, n, 4000, 0.03)
        assert out.passed.tolist() == [True]

        class ShiftedGamma:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_gamma(self, shape, size=None):
                return self.rng.standard_gamma(np.asarray(shape) + 1, size)

        generator = RngStream.generator
        monkeypatch.setattr(RngStream, "generator", lambda s: ShiftedGamma(generator(s)))
        out = T.submatrix_convergence_experiment(RngStream(158, k), k, n, 4000, 0.03)
        assert out.passed.tolist() == [False]


class TestContinuityProbe:
    def test_identical_pair_has_zero_gap(self):
        from gaplab import gap_sphere_density
        rng = RngStream(146).generator()
        rho = T.random_floor_density(rng, 2, 0.1)
        pts = uniform_sphere(rng, 2, size=100)
        assert np.max(np.abs(gap_sphere_density(rho, pts)
                             - gap_sphere_density(rho, pts))) == 0.0

    def test_monotone_relation(self):
        out = T.continuity_probe(RngStream(147), 2, 0.1, 200, 0.5, n_probe=10_000)
        assert spearman(out.auxiliary, out.discrepancies) > 0.8

    def test_blow_up_near_singularity(self):
        # Worst observed density change per unit trace distance explodes as
        # the spectrum floor approaches zero.
        tight = T.continuity_probe(RngStream(148), 2, 0.001, 50, 0.5, n_probe=2000)
        loose = T.continuity_probe(RngStream(149), 2, 0.2, 50, 0.5, n_probe=2000)
        ratio_tight = np.max(tight.discrepancies / np.maximum(tight.auxiliary, 1e-12))
        ratio_loose = np.max(loose.discrepancies / np.maximum(loose.auxiliary, 1e-12))
        assert ratio_tight >= 10 * ratio_loose

    def test_gamma_out_of_range(self):
        with pytest.raises(DomainError):
            T.continuity_probe(RngStream(150), 2, 0.6, 10, 0.5)

    def test_expectation_gap_bounded_by_trace_distance(self):
        # |<e1|(rho - omega)|e1>| <= ||rho - omega||_tr always.
        out = T.continuity_probe(RngStream(151), 3, 0.05, 50, 0.5, n_probe=500)
        assert out.passed.all()


@pytest.mark.parametrize("call, name", [
    (lambda: T.random_purification_experiment(RngStream(158), DensityMatrix.maximally_mixed(2),
                                              4, overlap_sq([1.0, 0.0]), 0.1, 0), "n_trials"),
    (lambda: T.continuity_probe(RngStream(159), 2, 0.1, 0, 0.5), "n_pairs"),
    (lambda: T.continuity_probe(RngStream(159), 2, 0.1, 5, 0.5, n_probe=0), "n_probe"),
    (lambda: gap_expectation(RngStream(160).generator(), DensityMatrix.maximally_mixed(2),
                             overlap_sq([1.0, 0.0]), 2.5), "n_samples"),
    (lambda: gap_expectation(RngStream(160).generator(), DensityMatrix.maximally_mixed(2),
                             overlap_sq([1.0, 0.0]), 0), "n_samples"),
])
def test_count_arguments_raise_domain_error(call, name):
    with pytest.raises(DomainError, match=f"^{name} must"):
        call()
