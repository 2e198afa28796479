import importlib
from pathlib import Path

import numpy as np
import pytest

import gaplab
from gaplab import (
    BasisError,
    DensityMatrix,
    DimensionError,
    DomainError,
    EmptyShellError,
    RngStream,
    canonical_density,
    cap_indicator,
    gap_cap_probability,
    gap_polynomial_mean,
    gap_sphere_density,
    ginibre,
    haar_unitary,
    overlap_sq,
    polynomial,
    random_ons,
    trace_norm,
    uniform_sphere,
)
from gaplab.stats import ks_statistic, ks_vs_exponential, spearman
from gaplab import typicality as T

from _oracles import (
    BipartiteState,
    DiscreteMeasure,
    SingularProjectionError,
    conditional_measure,
    covariance_estimate,
    gap_expectation,
    gaussian_density,
    project_to_sphere,
    random_purification,
    sample_complex_gaussian,
    sample_gap,
)

MODULES = ("hilbert", "randomness", "gap", "typicality", "stats")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"gaplab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"gaplab.{module}.__all__ names missing objects: {missing}"


# Names that left the library with the Monte Carlo reference (0.20.0) and
# with the frozen-state route of theorem 2 (0.25.0); the GAP samplers, the
# estimate and the state layer live on in tests/_oracles.py.
REMOVED = ("sample_gap", "sample_adjusted_gaussian", "sample_complex_gaussian",
           "gap_expectation", "GapExpectation", "REFERENCE_BUDGET_FACTOR",
           "REFERENCE_BUDGET_FLOOR", "BipartiteState", "reduced_density_matrix",
           "random_purification", "random_basis_experiment")


@pytest.mark.parametrize("module", ["gaplab", "gaplab.cli"] + [f"gaplab.{m}" for m in MODULES])
def test_no_module_keeps_a_gap_sampler_or_the_monte_carlo_reference(module):
    mod = importlib.import_module(module)
    names = set(dir(mod)) | set(getattr(mod, "__all__", ()))
    assert not names & set(REMOVED)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == gaplab.__version__


MIXED2 = DensityMatrix.maximally_mixed(2)
PRODUCT = BipartiteState(2, 2, np.array([1.0, 0.0, 0.0, 0.0]))
E0 = np.array([1.0, 0.0])
RHO73 = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))


def rng():
    return RngStream(1).generator()


@pytest.mark.parametrize("call, error, message", [
    (lambda: T.random_purification_experiment(
        RngStream(1), DensityMatrix.maximally_mixed(3), 2, overlap_sq(np.eye(3)[0]), 0.1, 5),
     DomainError, "purification requires d2 >= d1"),
    (lambda: T.fit_beta([0.0, 1.0], DensityMatrix(np.diag([1.0, 0.0]))),
     DomainError, "target must be strictly positive"),
    (lambda: T.fit_beta([0.0, 1.0, 2.0], MIXED2),
     DimensionError, "one level per target entry"),
    (lambda: T.Subspace(np.zeros((5, 2)), 2, 2),
     DimensionError, r"basis must be \(4, dim\)"),
    # 2.0 * 2 rows match the basis, but states() cannot reshape to (2.0, 2).
    (lambda: T.Subspace(np.eye(4)[:, :2], 2.0, 2), DomainError,
     "d1 must be an integer >= 1"),
    (lambda: T.Subspace(np.eye(4)[:, :2], 4, 1.0), DomainError,
     "d2 must be an integer >= 1"),
    (lambda: T.Subspace(np.zeros((0, 1)), 0, 3), DomainError,
     "d1 must be an integer >= 1"),
    (lambda: canonical_density([0.0, 1.0], np.nan), DomainError, "beta must be finite"),
    (lambda: DensityMatrix(np.eye(2, 3)), DimensionError, "must be square"),
    (lambda: DensityMatrix(np.zeros((0, 0))), DimensionError, "positive dimension"),
    (lambda: BipartiteState(0, 2, np.zeros(0)), DomainError,
     "d1 must be an integer >= 1, got 0"),
    (lambda: gaussian_density(MIXED2, np.zeros(3)), DimensionError, "psi has shape"),
    (lambda: gap_sphere_density(MIXED2, np.ones(3)), DimensionError, "psi dimension 3 != 2"),
    (lambda: ginibre(RngStream(1).generator(), 0), DomainError,
     "n must be an integer >= 1, got 0"),
    (lambda: DiscreteMeasure(np.eye(2), np.array([0.5, 0.4]), normalized=True),
     DomainError, "not 1"),
    (lambda: conditional_measure(PRODUCT, np.eye(3)), DimensionError,
     r"basis must be \(2, 2\)"),
    (lambda: conditional_measure(PRODUCT, 2 * np.eye(2)), BasisError,
     "not orthonormal"),
    (lambda: DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]])), DomainError,
     "not Hermitian"),
    (lambda: BipartiteState(2, 3, np.ones(5) / np.sqrt(5)), DimensionError,
     r"amplitudes must have shape \(6,\)"),
    (lambda: canonical_density([], 1.0), DomainError, "eigenvalue list must be nonempty"),
    (lambda: trace_norm(np.ones((2, 3))), DimensionError, "trace norm needs a square matrix"),
    (lambda: uniform_sphere(rng(), 0), DomainError, "d must be an integer >= 1, got 0"),
    (lambda: haar_unitary(rng(), 0), DomainError, "n must be an integer >= 1, got 0"),
    (lambda: random_ons(rng(), 3, 4), DomainError, "need 1 <= k <= n"),
    (lambda: sample_complex_gaussian(rng(), -1.0), DomainError,
     "variance must be nonnegative"),
    # 0.17.0 returned nan+nanj and +-inf for these, and a bare TypeError
    # for the list, although the docstring allows per-entry variances.
    (lambda: sample_complex_gaussian(rng(), np.nan), DomainError,
     "variance must be nonnegative and finite, got nan"),
    (lambda: sample_complex_gaussian(rng(), np.inf, 2), DomainError,
     "variance must be nonnegative and finite, got inf"),
    (lambda: sample_complex_gaussian(rng(), [0.5, np.nan], 2), DomainError,
     r"variance must be nonnegative and finite, got \[0.5, nan\]"),
    (lambda: sample_complex_gaussian(rng(), [0.5, -1.0], 2), DomainError,
     "variance must be nonnegative and finite"),
    (lambda: sample_complex_gaussian(rng(), "one"), DomainError,
     "variance must be nonnegative and finite"),
    # float() parses these, and 0.18.0 took each as variance 1.0.
    (lambda: sample_complex_gaussian(rng(), "1.0"), DomainError,
     "variance must be nonnegative and finite, got '1.0'"),
    (lambda: sample_complex_gaussian(rng(), True), DomainError,
     "variance must be nonnegative and finite, got True"),
    (lambda: sample_complex_gaussian(rng(), [True, True], 2), DomainError,
     "variance must be nonnegative and finite"),
    # numpy reads [True, 1.0] as [1.0, 1.0]; 0.19.0 drew with variance 1.0.
    (lambda: sample_complex_gaussian(rng(), [True, 1.0], 2), DomainError,
     r"variance must be nonnegative and finite, got \[True, 1.0\]"),
    (lambda: sample_complex_gaussian(rng(), 1.0 + 0.0j), DomainError,
     "variance must be nonnegative and finite"),
    (lambda: covariance_estimate(np.zeros((0, 2))), DomainError, "nonempty batch"),
    (lambda: DiscreteMeasure(np.eye(2), np.array([1.0])), DimensionError,
     "one weight per atom"),
    (lambda: DiscreteMeasure(np.eye(2), np.array([1.5, -0.5])), DomainError,
     "weights must be nonnegative"),
    (lambda: project_to_sphere(DiscreteMeasure(np.zeros((1, 2)), np.array([1.0]))),
     SingularProjectionError, "weighted zero atom"),
    (lambda: cap_indicator(E0, 1.5), DomainError, r"threshold in \[0, 1\]"),
    (lambda: polynomial(E0, []), DomainError, "at least one coefficient"),
    # Arithmetic on these overflows: 0.15.0 gave [1e308, 1e308] the bound inf,
    # so every trial passed, and raised numpy's LinAlgError for the second.
    (lambda: polynomial(E0, [1e308, 1e308]), DomainError, r"sum of \|c_i\| at most 1e150"),
    (lambda: polynomial(E0, [0.0, 1e308, 1e308, 1e308]), DomainError, "at most 1e150"),
    (lambda: polynomial(E0, [0.0, np.nan]), DomainError, "coefficients must be finite"),
    # Bound 0: threshold 0 failed every trial in 0.16.0.
    (lambda: polynomial(E0, [0.0]), DomainError, "coefficients must not all vanish"),
    # Bound 1e-323: epsilon * bound underflowed to a threshold of 0 in 0.16.1.
    (lambda: T.random_purification_experiment(RngStream(1), MIXED2, 8,
                                              polynomial(E0, [1e-323]), 0.1, 5),
     DomainError, "underflows to 0: no trial could pass"),
    (lambda: T.shell_vs_target_experiment(RngStream(1), T.random_subspace(rng(), 2, 4, 8),
                                          MIXED2, polynomial(E0, [1e-323]), 0.1, 5),
     DomainError, "underflows to 0: no trial could pass"),
    (lambda: T.TestFunction("cubic", E0), DomainError, "unknown test function kind"),
    # A field that the kind ignores: 0.18.0 stored it and went on.
    (lambda: T.TestFunction("overlap_sq", E0, threshold=0.5, coefficients=[3.0]),
     DomainError, "overlap_sq takes no threshold, got 0.5"),
    (lambda: T.TestFunction("real_part", E0, coefficients=[3.0]),
     DomainError, r"real_part takes no coefficients, got \[3.0\]"),
    (lambda: T.TestFunction("cap_indicator", E0, threshold=0.5, coefficients=[3.0]),
     DomainError, "cap_indicator takes no coefficients"),
    (lambda: T.TestFunction("polynomial", E0, threshold=0.5, coefficients=[3.0]),
     DomainError, "polynomial takes no threshold"),
    # phi outside C^2: 0.18.0 ended in numpy's bare "matmul: Input operand 1
    # has a mismatch in its core dimension 0".
    (lambda: T.random_purification_experiment(RngStream(1), MIXED2, 4,
                                              overlap_sq([1.0, 0.0, 0.0]), 0.1, 5),
     DimensionError, r"phi has shape \(3,\), the system dimension is 2"),
    (lambda: T.shell_vs_target_experiment(RngStream(1), T.random_subspace(rng(), 2, 4, 8),
                                          MIXED2, overlap_sq([1.0, 0.0, 0.0]), 0.1, 5),
     DimensionError, r"phi has shape \(3,\), the system dimension is 2"),
    (lambda: gap_expectation(rng(), MIXED2, overlap_sq([1.0, 0.0, 0.0]), 5),
     DimensionError, r"phi has shape \(3,\), the system dimension is 2"),
    (lambda: T.gap_reference(MIXED2, overlap_sq([1.0, 0.0, 0.0])),
     DimensionError, r"phi has shape \(3,\), the system dimension is 2"),
    (lambda: gap_cap_probability(MIXED2, np.ones(3), 0.5),
     DimensionError, r"phi has shape \(3,\), the system dimension is 2"),
    (lambda: gap_polynomial_mean(MIXED2, np.ones(3), [0.0, 1.0]),
     DimensionError, r"phi has shape \(3,\), the system dimension is 2"),
    # phi must be a unit vector: 0.21.0 gave a cap probability of 0.964 at
    # 2 e1 against 0.784 at e1 for rho = diag(0.7, 0.3), E u^2 = 8.88 against
    # 0.555, and 0.0 or NaN for a NaN, infinite or zero phi, without an error.
    *[(lambda phi=phi, call=call: call(RHO73, phi), DomainError,
       "phi must be a finite unit vector within 1e-10, got norm")
      for phi in (2.0 * E0, np.array([np.nan, 0.0]), np.array([np.inf, 0.0]), np.zeros(2),
                  np.array([1.0, 1e-4]))
      for call in (lambda rho, phi: gap_cap_probability(rho, phi, 0.5),
                   lambda rho, phi: gap_polynomial_mean(rho, phi, [0.0, 0.0, 1.0]))],
    (lambda: gap_cap_probability(MIXED2, E0, 1.5), DomainError,
     r"cap threshold must lie in \[0, 1\], got 1.5"),
    (lambda: gap_cap_probability(MIXED2, E0, np.nan), DomainError,
     "cap threshold must lie in"),
    (lambda: gap_polynomial_mean(MIXED2, E0, [0.0, np.inf]), DomainError,
     "coefficients must be a nonempty 1-D list of finite numbers"),
    (lambda: gap_polynomial_mean(MIXED2, E0, []), DomainError,
     "coefficients must be a nonempty 1-D list of finite numbers"),
    (lambda: ks_statistic([], lambda x: x), DomainError, "empty sample"),
    (lambda: T.random_subspace(rng(), 2, 2, 5), DomainError,
     r"subspace dimension must lie in \[1, 4\]"),
    (lambda: T.microcanonical_shell([0.0], [0.0], 5.0, 1.0), EmptyShellError,
     "no eigenvalue pair"),
    (lambda: T.random_floor_density(rng(), 2, 0.5), DomainError, "need 0 < gamma < 1/d"),
    (lambda: T.submatrix_l1_distance(1), DomainError, "n must be an integer >= 2, got 1"),
    # Two copies of e1 span a line, not the plane of dimension 2 they claim.
    (lambda: T.Subspace(np.eye(4)[:, [0, 0]], 2, 2), BasisError, "rows are not orthonormal"),
    (lambda: T.Subspace(np.full((4, 2), np.nan), 2, 2), BasisError, "orthonormal within 1e-8"),
    # Sizes that are not integers >= 1 (bools and NaN included) name the argument.
    (lambda: ginibre(rng(), 2.5), DomainError, "n must be an integer >= 1, got 2.5"),
    (lambda: ginibre(rng(), True), DomainError, "n must be an integer >= 1, got True"),
    (lambda: ginibre(rng(), 2, 0.5), DomainError, "m must be an integer >= 1, got 0.5"),
    (lambda: haar_unitary(rng(), np.nan), DomainError, "n must be an integer >= 1, got nan"),
    (lambda: haar_unitary(rng(), 2.0), DomainError, "n must be an integer >= 1, got 2.0"),
    (lambda: random_ons(rng(), 4, 2.0), DomainError, "k must be an integer >= 1, got 2.0"),
    (lambda: uniform_sphere(rng(), 2.0), DomainError, "d must be an integer >= 1, got 2.0"),
    (lambda: uniform_sphere(rng(), True), DomainError, "d must be an integer >= 1, got True"),
    (lambda: uniform_sphere(rng(), 2, size=1.5), DomainError,
     "size must be an integer >= 1, got 1.5"),
    (lambda: T.random_subspace(rng(), 2.0, 2, 2), DomainError,
     "d1 must be an integer >= 1, got 2.0"),
    (lambda: T.random_subspace(rng(), 2, 2, 1.0), DomainError,
     "dim must be an integer >= 1, got 1.0"),
    (lambda: random_purification(rng(), MIXED2, 4.0), DomainError,
     "d2 must be an integer >= 1, got 4.0"),
    (lambda: T.random_purification_experiment(RngStream(1), MIXED2, 4.0, overlap_sq(E0),
                                              0.1, 5),
     DomainError, "d2 must be an integer >= 1, got 4.0"),
    (lambda: T.random_floor_density(rng(), 2.0, 0.1), DomainError,
     "d must be an integer >= 1, got 2.0"),
    (lambda: T.continuity_probe(RngStream(1), 2.0, 0.1, 2, 0.5, n_probe=10), DomainError,
     "d must be an integer >= 1, got 2.0"),
    (lambda: T.random_floor_density(rng(), 0, 0.1), DomainError,
     "d must be an integer >= 1, got 0"),
    (lambda: BipartiteState(2.0, 2, np.array([1.0, 0.0, 0.0, 0.0])), DomainError,
     "d1 must be an integer >= 1, got 2.0"),
    (lambda: T.submatrix_l1_distance(2.5), DomainError, "n must be an integer >= 2, got 2.5"),
    (lambda: sample_gap(rng(), MIXED2, size=2.5), DomainError,
     "size must be an integer >= 1, got 2.5"),
    (lambda: DensityMatrix.maximally_mixed(2.5), DomainError,
     "d must be an integer >= 1, got 2.5"),
    (lambda: T.random_purification_experiment(RngStream(1), MIXED2, 4, overlap_sq(E0),
                                              0.1, 2.5),
     DomainError, "n_trials must be an integer >= 1, got 2.5"),
    (lambda: T.fit_beta([0.0, np.nan], MIXED2), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: T.fit_beta([0.0, np.inf], MIXED2), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: T.fit_beta([[0.0, 1.0]], MIXED2), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: sample_complex_gaussian(rng(), 1.0, 2.5), DomainError,
     "size must be an integer >= 0, got 2.5"),
    (lambda: sample_complex_gaussian(rng(), 1.0, (2, 2.5)), DomainError,
     "size must be an integer >= 0, got 2.5"),
    (lambda: sample_complex_gaussian(rng(), 1.0, True), DomainError,
     "size must be an integer >= 0, got True"),
    (lambda: sample_complex_gaussian(rng(), 1.0, -1), DomainError,
     "size must be an integer >= 0, got -1"),
    # 0.25.0 normalized a matrix phi as one vector, took True as threshold
    # 1.0, and raised a bare TypeError or ValueError for the others.
    (lambda: overlap_sq(np.eye(2)), DomainError, "phi must be a finite nonzero 1-D vector"),
    (lambda: overlap_sq("ab"), DomainError, "phi must be a finite nonzero 1-D vector, got 'ab'"),
    (lambda: cap_indicator(E0, True), DomainError,
     r"needs a real threshold in \[0, 1\], got True"),
    (lambda: cap_indicator(E0, "0.5"), DomainError, "real threshold in .*, got '0.5'"),
    (lambda: cap_indicator(E0, 0.5 + 0j), DomainError, r"real threshold in .*, got \(0.5\+0j\)"),
    (lambda: polynomial(E0, ["a"]), DomainError,
     r"coefficients must be a 1-D list of real numbers, got \['a'\]"),
    (lambda: polynomial(E0, [[1, 2]]), DomainError,
     r"coefficients must be a 1-D list of real numbers, got \[\[1, 2\]\]"),
    (lambda: T.microcanonical_shell([0, 1], [0, 1], "a", 1.0), DomainError,
     "energy must be a finite real number, got 'a'"),
    (lambda: T.microcanonical_shell([0, 1], [0, 1], 0.0, "a"), DomainError,
     "window width must be positive and finite, got 'a'"),
    (lambda: T.fit_beta(["a", "b"], MIXED2), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: T.concentration_bound("a", [0.1]), DomainError,
     "dim must be an integer >= 1, got 'a'"),
    (lambda: T.concentration_bound(100, ["a"]), DomainError, "eta must be real numbers"),
    # 0.26.0 read these bools as the numbers 0 and 1.
    (lambda: polynomial([1, 0], [True, False]), DomainError,
     r"coefficients must be a 1-D list of real numbers, got \[True, False\]"),
    (lambda: polynomial([1, 0], [0.5, True]), DomainError,
     r"coefficients must be a 1-D list of real numbers, got \[0.5, True\]"),
    (lambda: cap_indicator([True, False], 0.5), DomainError,
     r"phi must be a finite nonzero 1-D vector, got \[True, False\]"),
    (lambda: overlap_sq(np.array([True, False])), DomainError,
     "phi must be a finite nonzero 1-D vector"),
    (lambda: polynomial([1, 0], np.array([0.5, True], dtype=object)), DomainError,
     "coefficients must be a 1-D list of real numbers"),
    (lambda: T.microcanonical_shell([False, True], [0.0, 1.0], 0.5, 1.0), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: T.microcanonical_shell([0.0, 1.0], [0.0, np.bool_(True)], 0.5, 1.0),
     DomainError, "bath_levels must be a 1-D array of finite levels"),
    (lambda: T.fit_beta([0.0, True], MIXED2), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: T.concentration_bound(10, [True]), DomainError, "eta must be real numbers"),
    (lambda: T.concentration_bound(10, True), DomainError, "eta must be real numbers"),
    # 0.28.0 converted these with a bare np.asarray, or compared them bare,
    # and ended in numpy's or Python's ValueError, TypeError or OverflowError.
    (lambda: DensityMatrix("abc"), DomainError,
     "density matrix must be an array of numbers, got 'abc'"),
    (lambda: DensityMatrix([[0.5, 0.0], [0.0]]), DomainError,
     "density matrix must be an array of numbers"),
    (lambda: DensityMatrix([[10 ** 400, 0], [0, 0]]), DomainError,
     "density matrix must be an array of numbers"),
    (lambda: DensityMatrix.from_spectrum("ab"), DomainError,
     "spectrum must be a 1-D list of real numbers, got 'ab'"),
    (lambda: DensityMatrix.from_spectrum([0.5, 0.5], "ab"), DimensionError,
     r"basis must be a \(2, 2\) matrix, got 'ab'"),
    (lambda: DensityMatrix.from_spectrum([0.5, 0.5], np.eye(3)), DimensionError,
     r"basis must be a \(2, 2\) matrix"),
    (lambda: canonical_density([0.0, 1.0], "x"), DomainError,
     "beta must be finite and real, got 'x'"),
    (lambda: canonical_density("ab", 1.0), DomainError,
     "h1_eigenvalues must be a 1-D array of finite levels"),
    (lambda: canonical_density([0.0, 10 ** 400], 1.0), DomainError,
     "h1_eigenvalues must be a 1-D array of finite levels"),
    (lambda: gap_cap_probability(MIXED2, [1, 0], "0.5"), DomainError,
     r"cap threshold must lie in \[0, 1\], got '0.5'"),
    (lambda: gap_cap_probability(MIXED2, "ab", 0.5), DomainError,
     "phi must be a vector of numbers, got 'ab'"),
    (lambda: gap_polynomial_mean(MIXED2, [[1.0], [0.0, 1.0]], [0.0, 1.0]), DomainError,
     "phi must be a vector of numbers"),
    (lambda: gap_polynomial_mean(MIXED2, E0, "ab"), DomainError,
     "coefficients must be a nonempty 1-D list of finite numbers, got 'ab'"),
    (lambda: gap_polynomial_mean(MIXED2, E0, [0, 10 ** 400]), DomainError,
     "coefficients must be a nonempty 1-D list of finite numbers"),
    (lambda: gap_sphere_density(MIXED2, "ab"), DomainError,
     "psi must be a finite vector or"),
    (lambda: T.Subspace("abcd", 2, 2), DimensionError,
     r"basis must be \(4, dim\) with orthonormal columns, got 'abcd'"),
    (lambda: T.random_floor_density(rng(), 2, "0.1"), DomainError,
     "need 0 < gamma < 1/d, got gamma='0.1'"),
    (lambda: ks_statistic("ab", lambda x: x), DomainError,
     "sample must be a 1-D list of real numbers, got 'ab'"),
    (lambda: ks_vs_exponential([[1], [1, 2]]), DomainError,
     "sample must be a 1-D list of real numbers"),
    (lambda: ks_vs_exponential([10 ** 400, 1]), DomainError,
     "sample must be a 1-D list of real numbers"),
    (lambda: spearman("ab", [1, 2]), DomainError,
     "x must be a 1-D list of real numbers, got 'ab'"),
    (lambda: spearman([1, 2], [[1], [1, 2]]), DomainError,
     "y must be a 1-D list of real numbers"),
    (lambda: trace_norm([[1, 0], [0]]), DimensionError,
     "trace norm needs a square matrix of numbers"),
    (lambda: T.CoordinateSubspace(2, 2, [[0, 1], [0]]), DimensionError,
     "member pairs must be distinct integer pairs"),
    # An int beyond the float range: OverflowError in 0.28.0.
    (lambda: overlap_sq([10 ** 400, 0]), DomainError, "phi must be a finite nonzero 1-D vector"),
    (lambda: polynomial(E0, [0, 10 ** 400]), DomainError,
     "coefficients must be a 1-D list of real numbers"),
    (lambda: T.concentration_bound(10, [10 ** 400]), DomainError, "eta must be real numbers"),
    (lambda: T.microcanonical_shell([0, 10 ** 400], [0, 1], 0.5, 1.0), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    (lambda: T.fit_beta([0, 10 ** 400], MIXED2), DomainError,
     "system_levels must be a 1-D array of finite levels"),
    # NaN that 0.28.0 let through: both calls returned NaN.
    (lambda: gap_sphere_density(MIXED2, [np.nan, 1.0]), DomainError,
     "psi must be a finite vector"),
    (lambda: T.concentration_bound(10, np.nan), DomainError, "eta must be real numbers and finite"),
    # Complex ndarrays where real numbers belong: 0.28.0 cut them to their
    # real parts, with numpy's ComplexWarning.
    (lambda: polynomial(E0, np.array([0.0, 1.0 + 1.0j])), DomainError,
     "coefficients must be a 1-D list of real numbers"),
    (lambda: T.microcanonical_shell(np.array([0.0, 1.0j]), [0.0, 1.0], 0.5, 1.0),
     DomainError, "system_levels must be a 1-D array of finite levels"),
    (lambda: canonical_density(np.array([0.0, 1.0 + 0.0j]), 1.0), DomainError,
     "h1_eigenvalues must be a 1-D array of finite levels"),
    (lambda: gap_polynomial_mean(MIXED2, E0, np.array([0.0, 1.0j])), DomainError,
     "coefficients must be a nonempty 1-D list of finite numbers"),
    (lambda: DensityMatrix.from_spectrum(np.array([0.5, 0.5 + 0.0j])), DomainError,
     "spectrum must be a 1-D list of real numbers"),
    # Values that 0.28.0 read as numbers: bools, a 2-D spectrum (its
    # diagonal) and 2-D levels (np.diag of them).
    (lambda: DensityMatrix(np.array([[True, False], [False, False]])), DomainError,
     "density matrix must be an array of numbers"),
    (lambda: DensityMatrix.from_spectrum(np.diag([0.5, 0.5])), DomainError,
     "spectrum must be a 1-D list of real numbers"),
    (lambda: canonical_density([[0.0, 1.0]], 1.0), DomainError,
     "h1_eigenvalues must be a 1-D array of finite levels"),
    (lambda: canonical_density([0.0, 1.0], True), DomainError,
     "beta must be finite and real, got True"),
    (lambda: gap_cap_probability(MIXED2, E0, True), DomainError,
     r"cap threshold must lie in \[0, 1\], got True"),
    (lambda: T.Subspace(np.eye(4, dtype=bool)[:, :2], 2, 2), DimensionError,
     r"basis must be \(4, dim\)"),
    # A bool inside a list is still scanned for: only a numeric ndarray
    # skips the scan.
    (lambda: DensityMatrix([[True, 0.0], [0.0, 0.0]]), DomainError,
     "density matrix must be an array of numbers"),
    (lambda: canonical_density([0.0, True], 1.0), DomainError,
     "h1_eigenvalues must be a 1-D array of finite levels"),
    (lambda: gap_polynomial_mean(MIXED2, E0, [0.0, True]), DomainError,
     "coefficients must be a nonempty 1-D list of finite numbers"),
    (lambda: gap_sphere_density(MIXED2, [True, 0.0]), DomainError,
     "psi must be a finite vector"),
    (lambda: ks_vs_exponential([True, 1.0]), DomainError,
     "sample must be a 1-D list of real numbers"),
    (lambda: spearman([1.0, 2.0, 3.0], [1.0, False, 3.0]), DomainError,
     "y must be a 1-D list of real numbers"),
])
def test_bad_arguments_raise_named_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
