"""Independent reference implementations and statistics used only by the
tests.

The reference routes deliberately avoid the library's fast paths so each
check compares two genuinely different routes to the same quantity.  The
two-sample tests compare the laws of two such routes.

The first part holds the per-trial routes the batched engine of
``gaplab.typicality`` reproduces: bipartite states (``BipartiteState``,
``reduced_density_matrix`` and ``random_purification``, which left the
library in 0.25.0, when the theorem-2 experiment became theorem 1's trials
at rho1), the conditional measure of the paper as a weighted point measure,
built one state and one basis at a time, and the adjust-and-project
calculus on such measures.  Given a bipartite state psi and an orthonormal
basis {b_j} of the second factor, the conditional wave function of system
1 is the normalized partial inner product <b_J|psi> / ||<b_J|psi>|| with
the index J drawn with probability ||<b_j|psi>||^2.  Its distribution
``conditional_measure`` is a weighted sum of point masses on the unit
sphere of the first factor.  The companion
``raw_conditional_measure`` places equal weights 1/d2 on the unnormalized,
sqrt(d2)-scaled partial inner products; adjusting it by the squared norm and
projecting to the sphere reproduces ``conditional_measure`` atom by atom,
which the test suite checks as an exact identity.

``random_basis_measure`` draws the conditional measure in a Haar-random
basis without forming that basis.  Only the k = min(d1, d2) directions of
the second factor that psi occupies meet the basis, and by Haar invariance
their overlaps with it form a uniformly random orthonormal k-system (see
Mezzadri, Notices AMS 2007, and Zyczkowski & Sommers, J. Phys. A 2000).
It takes its amplitude factor from a QR of M^dagger, as the trial engine did
up to 0.21.0; ``reduced_state_basis_measure``, the per-trial twin of the
engine since 0.22.0, reads it off the reduced density matrix.

``pcg64_generator`` is a stream's generator up to 0.26.0, PCG64 on the
same seed sequence as the library's SFC64; ``same_state`` compares bit
generator states of any kind.

The GAP samplers (``sample_complex_gaussian``, ``sample_adjusted_gaussian``,
``sample_gap``) and the Monte Carlo estimate ``gap_expectation`` are the
independent route to the exact GAP functionals of ``gaplab.gap``;
``monte_carlo_reference`` and ``cap_at_eigenvector_c2`` keep the two routes
``gap_reference`` took before every reference had an exact form.

``of_overlaps`` evaluates a test function on the normalized atoms, as the
engine did up to 0.25.0; ``fit_beta_by_array_residual`` is ``fit_beta``
with its residual on numpy arrays.

``haar_system_by_gram_schmidt`` is the trial engine's orthonormalizer before
the engine folded its Haar frames into the amplitude factors by one Cholesky
factorization; the tests compare the folded branches with it.

``gram_schmidt_twice_by_division``, ``scaled_haar_blocks_by_concatenation``,
``submatrix_outcome_by_parts``, ``poly_sup_by_polynomial_class`` and
``poly_sup_by_horner_on_floats`` keep the plain forms of the submatrix draw,
its statistics and the polynomial bound (through polynomial objects, and by
hand on Python floats) that the library computes otherwise; the tests
compare the two bit for bit where the arithmetic is the same, and the
submatrix expectation gaps, which the library takes against exact Gaussian
means, within the Monte Carlo comparison sample's standard error.
"""

from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy import stats as sps
from scipy.integrate import quad

from gaplab import (
    DensityMatrix,
    ginibre,
    haar_unitary,
    random_ons,
    trace_norm,
)
from gaplab.errors import DimensionError, DomainError, GaplabError
from gaplab.hilbert import NORM_ATOL, _canonical_weights
from gaplab.randomness import _integer
from gaplab.stats import ks_statistic, ks_vs_exponential
from gaplab.typicality import (
    ExperimentOutcome,
    TestFunction,
    _check_orthonormal_rows,
    cap_indicator,
    overlap_sq,
    polynomial,
    real_part,
    submatrix_l1_distance,
)


# Atoms below this weight carry no mass and are dropped where normalization
# would otherwise divide by ~0.  The engine keeps them: its terms
# w f(b / sqrt(w)) need no normalization.
WEIGHT_CUTOFF = 1e-14


def pcg64_generator(stream):
    """The generator ``stream.generator()`` returned up to 0.26.0: PCG64 from
    the same ``SeedSequence`` that seeds the library's SFC64."""
    return np.random.Generator(np.random.PCG64(stream.generator().bit_generator.seed_seq))


def same_state(a, b) -> bool:
    """Whether two bit generator states (``bit_generator.state`` dicts) are
    equal, for any bit generator: dicts key by key, arrays (SFC64 keeps its
    state in one) element by element and with their dtype, other values by
    ``==``."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys()
                and all(same_state(a[key], b[key]) for key in a))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    return a == b


class SingularProjectionError(GaplabError):
    """A zero vector with positive weight cannot be projected to the sphere."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported weighted point measure on vectors.

    ``vectors`` is an (n_atoms, dim) array of finite atom locations and
    ``weights`` the matching finite nonnegative masses.  ``normalized``
    records whether the weights sum to 1 (within 1e-10), which is checked at
    construction.
    """

    vectors: np.ndarray
    weights: np.ndarray
    normalized: bool = field(default=False)

    def __post_init__(self):
        vecs = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or vecs.shape[0] != w.shape[0]:
            raise DimensionError("one weight per atom is required")
        total = float(w.sum())  # NaN or inf if any weight is
        if not (np.isfinite(total) and np.isfinite(vecs).all()):
            raise DomainError("weights and atom vectors must be finite")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        normalized = abs(total - 1.0) <= 1e-10
        if self.normalized and not normalized:
            raise DomainError(f"weights sum to {total!r}, not 1")
        vecs.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "normalized", normalized)

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def total_mass(self) -> float:
        return float(self.weights.sum())


@dataclass(frozen=True)
class BipartiteState:
    """Normalized state on C^{d1} (x) C^{d2} with row-major amplitudes."""

    d1: int
    d2: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("d1", "d2"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.d1 * self.d2,):
            raise DimensionError(
                f"amplitudes must have shape ({self.d1 * self.d2},), got {amps.shape}"
            )
        # Written so that a NaN or inf amplitude, whose norm is NaN or inf, fails.
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_ATOL:
            raise DomainError("bipartite state must be finite and normalized within 1e-10")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def as_matrix(self) -> np.ndarray:
        """(d1, d2) coefficient matrix M with M[i, j] = amplitude(i, j)."""
        return self.amplitudes.reshape(self.d1, self.d2)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "BipartiteState":
        m = np.asarray(m, dtype=complex)
        return cls(m.shape[0], m.shape[1], m.reshape(-1))


def reduced_density_matrix(psi: BipartiteState) -> DensityMatrix:
    """Partial trace over the second factor, as a validated DensityMatrix."""
    m = psi.as_matrix()
    return DensityMatrix(m @ m.conj().T)


def random_purification(rng: np.random.Generator, rho1: DensityMatrix, d2: int) -> BipartiteState:
    """Uniformly random normalized state with reduced density matrix rho1.

    Built as sum_i sqrt(p_i) chi_i (x) phi_i from the fixed eigensystem
    (p_i, chi_i) of rho1 and a uniformly random orthonormal system {phi_i}
    in C^{d2}.  The resulting law does not depend on the stored eigenbasis,
    which the test suite checks statistically for degenerate spectra.
    Requires d2 >= d1.
    """
    d1, d2 = rho1.dim, _integer("d2", d2, 1)
    if d2 < d1:
        raise DomainError(f"purification requires d2 >= d1, got d1={d1}, d2={d2}")
    p, v = rho1.spectrum(), rho1.eigenbasis()
    phis = random_ons(rng, d2, d1)
    m = (v * np.sqrt(p)) @ phis
    return BipartiteState.from_matrix(m)


def _check_basis(basis: np.ndarray, d2: int) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (d2, d2):
        raise DimensionError(f"basis must be ({d2}, {d2}) with vectors as rows")
    _check_orthonormal_rows(basis)
    return basis


def _branch_vectors(psi: BipartiteState, basis: np.ndarray | None) -> np.ndarray:
    """(d2, d1) array whose row j is the partial inner product <b_j|psi>."""
    m = psi.as_matrix()
    if basis is None:
        return m.T
    basis = _check_basis(basis, psi.d2)
    return (m @ basis.conj().T).T


def _measure_from_branches(branches: np.ndarray) -> DiscreteMeasure:
    """Atoms at the normalized rows of ``branches``, weighted by their squared
    norms; rows with weight below 1e-14 carry no mass and are dropped."""
    w = np.sum(np.abs(branches) ** 2, axis=1)
    keep = w >= WEIGHT_CUTOFF
    vecs = branches[keep] / np.sqrt(w[keep])[:, None]
    return DiscreteMeasure(vecs, w[keep], normalized=True)


def conditional_measure(psi: BipartiteState, basis: np.ndarray | None = None) -> DiscreteMeasure:
    """Distribution of the conditional wave function of system 1.

    Atom j sits at <b_j|psi> / ||<b_j|psi>|| with weight ||<b_j|psi>||^2.
    ``basis`` is a (d2, d2) array with orthonormal rows; None means the
    computational basis.  Branches with weight below 1e-14 carry no mass and
    are dropped.  Atoms are kept unmerged even when vectors coincide up to
    phase.
    """
    return _measure_from_branches(_branch_vectors(psi, basis))


def random_basis_measure(rng: np.random.Generator, psi: BipartiteState) -> DiscreteMeasure:
    """Conditional measure of psi in a uniformly random basis of the second
    factor.

    Same law as ``conditional_measure(psi, random_onb(rng, psi.d2))``, drawn
    without the d2 x d2 basis.  Let M be the (d1, d2) coefficient matrix,
    k = min(d1, d2), and M^dagger = V R a reduced QR, so M = R^dagger V^dagger.
    For a Haar basis B the branch matrix M B^dagger equals R^dagger
    (V^dagger B^dagger), and V^dagger B^dagger is a uniformly random
    orthonormal k-system of C^{d2}.  The branches are therefore drawn as
    R^dagger W with W = random_ons(rng, d2, k), at O(d1 k d2) cost instead of
    O(d2^3).  As in ``conditional_measure``, branches with weight below
    1e-14 carry no mass and are dropped.
    """
    r = np.linalg.qr(psi.as_matrix().conj().T, mode="r")
    w = random_ons(rng, psi.d2, r.shape[0])
    _check_orthonormal_rows(w)
    return _measure_from_branches((r.conj().T @ w).T)


def reduced_state_basis_measure(rng: np.random.Generator, psi: BipartiteState) -> DiscreteMeasure:
    """``random_basis_measure`` with the amplitude factor of the trial engine:
    A = (V sqrt(P))^T from the k = min(d1, d2) largest eigenpairs (P, V) of
    the reduced density matrix, in descending order with ties in ``eigh``
    order, P clipped at 0.  Since M = V sqrt(P) U^dagger, the branch matrix
    M B^dagger is V sqrt(P) (U^dagger B^dagger), and the branches are W^T A
    with W = random_ons(rng, d2, k), drawn as ``random_basis_measure`` draws
    it.  ``eigh`` reads the symmetrized matrix of ``DensityMatrix``, as the
    engine does: a near-diagonal rho fixes its eigenvectors only up to
    phases, which rounding-level off-diagonal entries set."""
    k = min(psi.d1, psi.d2)
    p, v = np.linalg.eigh(reduced_density_matrix(psi).matrix)
    order = np.argsort(-p, kind="stable")[:k]
    a = (v[:, order] * np.sqrt(np.maximum(p[order], 0.0))).T
    w = random_ons(rng, psi.d2, k)
    _check_orthonormal_rows(w)
    return _measure_from_branches(w.T @ a)


def raw_conditional_measure(psi: BipartiteState, basis: np.ndarray | None = None) -> DiscreteMeasure:
    """Equal-weight measure on the scaled partial inner products.

    All d2 atoms are kept, each with weight 1/d2, located at the generally
    unnormalized vectors sqrt(d2) * <b_j|psi>.  Its second moment
    sum_j (1/d2) ||sqrt(d2)<b_j|psi>||^2 equals ||psi||^2 = 1 exactly.
    """
    branches = _branch_vectors(psi, basis)
    d2 = psi.d2
    vecs = np.sqrt(d2) * branches
    return DiscreteMeasure(vecs, np.full(d2, 1.0 / d2), normalized=True)


def adjust(m: DiscreteMeasure) -> DiscreteMeasure:
    """Reweight every atom by its squared norm: w_j -> w_j * ||v_j||^2.

    Does not renormalize; the total mass is preserved exactly when the input
    has unit second moment.
    """
    w = m.weights * np.sum(np.abs(m.vectors) ** 2, axis=1)
    return DiscreteMeasure(m.vectors, w)


def project_to_sphere(m: DiscreteMeasure) -> DiscreteMeasure:
    """Normalize every atom vector, keeping weights.

    Atoms with weight below 1e-14 are dropped (projection of a zero vector
    carrying no mass is immaterial); a zero vector with larger weight
    raises SingularProjectionError.
    """
    keep = m.weights >= WEIGHT_CUTOFF
    vecs, w = m.vectors[keep], m.weights[keep]
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms == 0.0):
        raise SingularProjectionError("cannot project a weighted zero atom")
    return DiscreteMeasure(vecs / norms[:, None], w)


def of_overlaps(f: TestFunction, amp) -> np.ndarray:
    """f(psi) from the overlaps amp = <phi|psi> of unit vectors psi: the
    normalized-atom evaluation the engine used up to 0.25.0, before
    ``TestFunction.weighted`` took w f(b / sqrt(w)) straight from <phi|b>."""
    if f.kind == "real_part":
        return np.real(amp)
    x = np.abs(amp) ** 2
    if f.kind == "overlap_sq":
        return x
    if f.kind == "cap_indicator":
        return (x >= f.threshold - 1e-12).astype(float)
    return np.polynomial.polynomial.polyval(x, f.coefficients)


def evaluate(f: TestFunction, vectors) -> np.ndarray:
    """f at a single vector (d,) or a stack of vectors (..., d), from their
    overlaps with f's phi."""
    return of_overlaps(f, np.asarray(vectors, dtype=complex) @ f.phi.conj())


def integrate(m: DiscreteMeasure, f) -> float:
    """sum_j w_j f(v_j) for a TestFunction f, or for a callable f that maps
    an (n_atoms, dim) array to (n_atoms,) values.
    """
    values = evaluate(f, m.vectors) if isinstance(f, TestFunction) else f(m.vectors)
    return float(np.dot(m.weights, np.asarray(values, dtype=float)))


def random_onb(rng, n):
    """Uniformly random orthonormal basis of C^n as the ROWS of an (n, n)
    array: the columns of a Haar unitary."""
    return haar_unitary(rng, n).T


def uniform_subspace_state(rng, basis):
    """Uniform point on the unit sphere of the subspace spanned by the
    orthonormal columns of ``basis``, embedded in the full space: Gaussian
    coordinates in the subspace basis, normalized."""
    dim = basis.shape[1]
    z = ginibre(rng, dim, 1)[:, 0]
    psi = basis @ z
    return psi / np.linalg.norm(psi)


def shell_basis(shell):
    """(d1*d2, dim) array of a coordinate subspace's basis vectors, the
    member product vectors: the dense route its scattered states are
    checked against."""
    out = np.zeros((shell.d1 * shell.d2, shell.dim), dtype=complex)
    out[shell.flat_indices, np.arange(shell.dim)] = 1.0
    return out


# Squared-norm component below this counts as lying outside the support.
SUPPORT_ATOL = 1e-8


def sample_complex_gaussian(rng: np.random.Generator, variance, size=None):
    """Mean-zero complex Gaussian with E|z|^2 = variance.

    Real and imaginary parts are independent real Gaussians with variance
    ``variance / 2`` each.  ``variance`` may be an array of per-entry
    variances that broadcasts against ``size``, which is None, an integer
    >= 0 or a tuple or list of them.  A variance must be an integer or a
    float: bools and strings are rejected, alone or inside a list, though
    ``float`` parses them.
    """
    try:
        values = np.asarray(variance)
        entries = np.asarray(variance, dtype=object)
    except (TypeError, ValueError):  # a ragged list, say
        values = entries = np.asarray(None)
    # Written so that NaN, which fails both comparisons, is rejected.
    if (values.dtype.kind not in "iuf"
            or any(isinstance(v, (bool, np.bool_)) for v in entries.flat)
            or not np.all((values >= 0.0) & (values < np.inf))):
        raise DomainError(f"variance must be nonnegative and finite, got {variance!r}")
    if size is not None:
        shape = size if isinstance(size, (tuple, list)) else (size,)
        size = tuple(_integer("size", n) for n in shape)
    scale = np.sqrt(values / 2.0)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return scale * z


def sample_adjusted_gaussian(rng: np.random.Generator, rho: DensityMatrix,
                             size: int | None = None):
    """Draw from the size-biased Gaussian GA(rho) = ||psi||^2 G(rho)(dpsi).

    An exact size-biased mixture: pick an eigendirection i with probability
    p_i, draw coordinate i from the norm-square-biased complex Gaussian of
    variance p_i (squared radius ~ Gamma(shape 2, scale p_i), uniform phase),
    and draw every other coordinate unbiased.  O(d) per draw with no
    rejection step; ``rejection_adjusted_gaussian`` is the rejection route."""
    n = 1 if size is None else _integer("size", size, 1)
    p, v = rho.spectrum(), rho.eigenbasis()
    z = sample_complex_gaussian(rng, p, (n, p.size))

    on = np.flatnonzero(p > 0.0)
    biased = on[rng.choice(on.size, size=n, p=p[on] / p[on].sum())]
    # Gamma(shape 2, scale p) as a sum of two exponentials: exact, and the
    # draw count per sample stays fixed.
    u = rng.random((n, 2))
    radius_sq = -np.log(u[:, 0] * u[:, 1]) * p[biased]
    phase = rng.random(n) * (2.0 * np.pi)
    z[np.arange(n), biased] = np.sqrt(radius_sq) * np.exp(1j * phase)

    psi = z @ v.T
    return psi[0] if size is None else psi


def sample_gap(rng: np.random.Generator, rho: DensityMatrix, size: int | None = None):
    """Draw unit vectors distributed according to GAP(rho)."""
    psi = sample_adjusted_gaussian(rng, rho, size=size)
    return psi / np.linalg.norm(psi, axis=-1, keepdims=size is not None)


@dataclass(frozen=True)
class GapExpectation:
    """Monte Carlo estimate of a GAP expectation, with its standard error."""

    estimate: float
    standard_error: float


def gap_expectation(rng: np.random.Generator, rho: DensityMatrix,
                    f, n_samples: int) -> GapExpectation:
    """Estimate the expectation of f under GAP(rho) from ``n_samples`` draws;
    a phi outside C^d raises a DimensionError before any draw."""
    if f.phi.shape != (rho.dim,):
        raise DimensionError(f"phi has shape {f.phi.shape}, the system dimension is {rho.dim}")
    n_samples = _integer("n_samples", n_samples, 1)
    vals = np.asarray(evaluate(f, sample_gap(rng, rho, size=n_samples)), dtype=float)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return GapExpectation(est, se)


# The Monte Carlo reference drew max(10 n_trials, 2000) GAP samples.
REFERENCE_BUDGET_FACTOR = 10
REFERENCE_BUDGET_FLOOR = 2000


def monte_carlo_reference(stream, rho: DensityMatrix, f, n_trials: int) -> GapExpectation:
    """The Monte Carlo route of ``gap_reference`` up to 0.19.0: the mean of
    max(10 n_trials, 2000) GAP draws on substream ``n_trials`` of the
    point's stream, with its standard error, drawn from the PCG64 generator
    that streams had then (``pcg64_generator``)."""
    n_samples = max(REFERENCE_BUDGET_FACTOR * n_trials, REFERENCE_BUDGET_FLOOR)
    return gap_expectation(pcg64_generator(stream.substream(n_trials)), rho, f, n_samples)


def cap_at_eigenvector_c2(rho: DensityMatrix, phi, t: float) -> float:
    """P(u >= t), u = |<phi|psi>|^2 under GAP(rho), for rho on C^2 and phi an
    eigenvector of rho: the closed form ``gap_reference`` used up to 0.19.0.

    With p = <phi|rho|phi> (clipped to [0, 1]) and q = 1 - p, in rho's
    eigenbasis u = pB / (pB + q(1 - B)), where B has density 2(pB + q(1 - B))
    on [0, 1] (the size-biased pair of Exp(1) variables), so
    P(u >= t) = 2[q(1 - b) + (p - q)(1 - b^2)/2] with
    b = tq / (p(1 - t) + tq); the two 0/0 cases (p, t) = (0, 0), (1, 1)
    give 1."""
    rho_phi = rho.matrix @ phi
    p = float(np.real(np.conj(phi) @ rho_phi))
    if rho.dim != 2 or np.linalg.norm(rho_phi - p * phi) > 1e-12:
        raise DomainError("phi must be an eigenvector of a density matrix on C^2")
    p = min(max(p, 0.0), 1.0)
    q = 1.0 - p
    denominator = p * (1.0 - t) + t * q
    if denominator == 0.0:
        return 1.0
    b = t * q / denominator
    return 2.0 * (q * (1.0 - b) + (p - q) * (1.0 - b * b) / 2.0)


def sample_gaussian(rng: np.random.Generator, rho: DensityMatrix, size: int | None = None):
    """Draw from the complex Gaussian G(rho) with mean 0 and covariance rho.

    Returns shape (d,) for size=None, else (size, d).  Draws are generally
    unnormalized; E||psi||^2 = 1.
    """
    n = 1 if size is None else int(size)
    p, v = rho.spectrum(), rho.eigenbasis()
    psi = sample_complex_gaussian(rng, p, (n, p.size)) @ v.T
    return psi[0] if size is None else psi


def gaussian_density(rho: DensityMatrix, psi: np.ndarray) -> float:
    """Lebesgue density of G(rho) on its support subspace, evaluated at psi.

    With d' the rank and rho+ the restriction of rho to its support, the
    value is exp(-<psi|rho+^{-1}|psi>) / (pi^{d'} det rho+).  Points with a
    component of squared norm above 1e-8 outside the support have density 0.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rho.dim,):
        raise DimensionError(f"psi has shape {psi.shape}, expected ({rho.dim},)")
    p, v = rho.spectrum(), rho.eigenbasis()
    coeff = v.conj().T @ psi
    on = p > 0.0
    off_mass = float(np.sum(np.abs(coeff[~on]) ** 2))
    if off_mass > SUPPORT_ATOL:
        return 0.0
    quad = float(np.sum(np.abs(coeff[on]) ** 2 / p[on]))
    log_norm = rho.support_rank * np.log(np.pi) + np.sum(np.log(p[on]))
    return float(np.exp(-quad - log_norm))


def covariance_estimate(samples) -> np.ndarray:
    """Empirical covariance (1/N) sum |psi><psi| of a batch of vectors.

    ``samples`` is an (N, d) array or a sequence of length-d vectors.  The
    result is Hermitian by construction; it has trace 1 when the samples are
    normalized.
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise DomainError("need a nonempty batch of equal-length vectors")
    return arr.T @ arr.conj() / arr.shape[0]


def product_state(chi, phi):
    """The product state chi (x) phi."""
    return BipartiteState.from_matrix(np.outer(chi, phi))


def two_sample_ks(a, b):
    """Two-sample KS statistic and p-value."""
    res = sps.ks_2samp(np.asarray(a, float), np.asarray(b, float))
    return float(res.statistic), float(res.pvalue)


def two_sample_chi2(a, b, bins=32):
    """Chi-square homogeneity test of two samples on quantile bins.

    Bin edges are the pooled-sample quantiles, so expected counts are
    balanced; empty bin pairs are merged away by construction.
    """
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    pooled = np.concatenate([a, b])
    edges = np.quantile(pooled, np.linspace(0.0, 1.0, bins + 1))
    edges[0], edges[-1] = -np.inf, np.inf
    edges = np.unique(edges)
    ca, _ = np.histogram(a, bins=edges)
    cb, _ = np.histogram(b, bins=edges)
    keep = (ca + cb) > 0
    table = np.vstack([ca[keep], cb[keep]])
    res = sps.chi2_contingency(table)
    return float(res.statistic), float(res.pvalue)


def rejection_adjusted_gaussian(rng, rho, n_accept, batch=20_000):
    """Draw from the norm-square-reweighted Gaussian by rejection.

    Proposes from the plain Gaussian and accepts a draw psi with probability
    ||psi||^2 / C, where C is kept at least the largest squared norm seen in
    the current batch.
    """
    out = []
    while len(out) < n_accept:
        psi = sample_gaussian(rng, rho, size=batch)
        norm_sq = np.sum(np.abs(psi) ** 2, axis=1)
        c = max(norm_sq.max(), 1.0)
        accept = rng.random(batch) < norm_sq / c
        out.extend(psi[accept])
    return np.array(out[:n_accept])


def full_haar_basis_measure(rng, psi):
    """Conditional measure of psi in a full d2 x d2 Haar basis of the second
    factor, drawn by QR and passed through the validating public API: the
    O(d2^3) route that ``random_basis_measure`` replaces."""
    return conditional_measure(psi, random_onb(rng, psi.d2))


# Per-trial routes of the Monte Carlo drivers, one trial at a time through the
# validating public functions, the trials drawing in sequence from
# stream.generator() as the batched engine does.  Each returns (discrepancy,
# auxiliary) per trial, with NaN where a driver records no auxiliary value.

def purification_trials(stream, rho1, d2, f, reference, n_trials):
    """theorem1: random purification, computational environment basis."""
    out, rng = [], stream.generator()
    for _ in range(n_trials):
        psi = random_purification(rng, rho1, d2)
        out.append((abs(integrate(conditional_measure(psi), f) - reference), np.nan))
    return np.array(out)


def random_basis_trials(stream, psi, f, reference, n_trials):
    """theorem2 as the paper states it: a fixed state in a Haar-random
    environment basis, which the library runs as theorem 1's trials at
    rho1 = tr_2 |psi><psi|."""
    out, rng = [], stream.generator()
    for _ in range(n_trials):
        measure = reduced_state_basis_measure(rng, psi)
        out.append((abs(integrate(measure, f) - reference), np.nan))
    return np.array(out)


def shell_trials(stream, basis, d1, d2, f, reference, target, n_trials):
    """theorem3, theorem4 and thermal: uniform subspace state, Haar-random
    basis, and the trace distance of the reduced state to ``target``."""
    out, rng = [], stream.generator()
    for _ in range(n_trials):
        psi = BipartiteState(d1, d2, uniform_subspace_state(rng, basis))
        value = integrate(reduced_state_basis_measure(rng, psi), f)
        aux = trace_norm(reduced_density_matrix(psi).matrix - target.matrix)
        out.append((abs(value - reference), aux))
    return np.array(out)


def canonical_trials(stream, basis, d1, d2, target, n_trials):
    """canonical_typicality: trace distance of a uniform subspace state's
    reduced density matrix to ``target``."""
    out, rng = [], stream.generator()
    for _ in range(n_trials):
        psi = uniform_subspace_state(rng, basis)
        rho1 = reduced_density_matrix(BipartiteState(d1, d2, psi))
        out.append((trace_norm(rho1.matrix - target.matrix), np.nan))
    return np.array(out)


def submatrix_blocks_per_sample(rng, n, k, n_samples):
    """sqrt(n)-scaled top-left k x k blocks of Haar unitaries, one
    ``random_ons`` call (an n x k Ginibre matrix and its phase-fixed QR) per
    sample: the independent O(n k^2) route that the Bartlett draw of
    ``submatrix_convergence_experiment`` replaces.  The rows of ``random_ons``
    are the first k columns of a Haar unitary, so the transpose restores
    matrix orientation X_ij = sqrt(n) U_ij."""
    blocks = np.empty((n_samples, k, k), dtype=complex)
    for s in range(n_samples):
        blocks[s] = np.sqrt(n) * random_ons(rng, n, k)[:, :k].T
    return blocks


def haar_system_by_gram_schmidt(z):
    """The trial engine's Haar k-systems as of 0.20.0 (``randomness._haar_system``):
    the Q factor ``_haar_columns`` returns, for a stack of complex Gaussian
    matrices z (B, m, k), m >= k, by classical Gram-Schmidt done twice,
    vectorized over the batch.  A column's projection coefficients onto the
    earlier columns and its norm are each one batched dot over the m rows,
    and the projections are subtracted one earlier column at a time, so a
    stack costs O(k^2) numpy calls.  Each column is normalized by a positive
    real norm, so R has a positive diagonal; done twice, classical
    Gram-Schmidt keeps Q orthonormal to working precision for numerically
    full-rank input (Giraud, Langou & Rozloznik 2005)."""
    q = np.empty_like(z)
    for j in range(z.shape[-1]):
        v, basis = z[..., j], q[..., :j]
        for _ in range(2 if j else 0):
            c = np.vecdot(basis, v[..., None], axis=-2)
            for i in range(j):
                v = v - basis[..., i] * c[..., i, None]
        scale = 1.0 / np.sqrt(np.vecdot(v, v).real)
        np.multiply(v, scale[..., None], out=q[..., j])
    return q


def gram_schmidt_twice_by_division(a):
    """``_gram_schmidt_twice`` as of 0.16.0: each column divided by its norm,
    the squared norm summed by ``np.sum`` over the row axis."""
    q = np.empty_like(a)
    for j in range(a.shape[-1]):
        v, basis = a[..., j], q[..., :j]
        for _ in range(2 if j else 0):
            v = v - np.einsum("...ij,...j->...i", basis,
                              np.einsum("...ij,...i->...j", basis.conj(), v))
        q[..., j] = v / np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=-1, keepdims=True))
    return q


def _interleaved_gaussians(pairs):
    """Unit-variance complex Gaussians (...) from real normals (..., 2), the
    last axis an entry's real and imaginary part, by complex arithmetic."""
    return (pairs[..., 0] + 1j * pairs[..., 1]) * np.sqrt(0.5)


def scaled_haar_blocks_by_concatenation(rng, n, k, n_samples):
    """``_scaled_haar_blocks`` as of 0.16.0, with the same draws in the same
    order (in the interleaved layout of 0.27.0): G_top and T built as
    separate arrays, T from ``zeros_like`` and fancy indexing (with an empty
    above-diagonal draw when k = 1), the two concatenated and orthonormalized
    by ``gram_schmidt_twice_by_division``."""
    top = _interleaved_gaussians(rng.standard_normal((n_samples, k, k, 2)))
    rows, cols = np.triu_indices(k, 1)
    t = np.zeros_like(top)
    t[:, rows, cols] = _interleaved_gaussians(rng.standard_normal((n_samples, rows.size, 2)))
    t[:, range(k), range(k)] = np.sqrt(rng.standard_gamma(n - k - np.arange(k), (n_samples, k)))
    return np.sqrt(n) * gram_schmidt_twice_by_division(np.concatenate([top, t], axis=1))[:, :k, :]


def submatrix_outcome_by_parts(stream, k, n, n_samples, epsilon):
    """``submatrix_convergence_experiment`` as of 0.16.0: the blocks of
    ``scaled_haar_blocks_by_concatenation``, one ``ks_vs_exponential`` per
    entry, ``ks_statistic`` sorting |X_11|^2 again for the exact law, and
    each test function applied to the vectors themselves, so every probe
    forms its own overlaps.  Each expectation gap compares the blocks with
    a Gaussian comparison sample drawn after them, the Monte Carlo route
    that the driver's exact Gaussian means replaced in 0.24.0."""
    e1 = np.eye(k)[0]
    probes = (overlap_sq(e1), real_part(e1), cap_indicator(e1, 0.5),
              polynomial(e1, [0.0, 0.0, 1.0]))
    rng = stream.generator()
    blocks = scaled_haar_blocks_by_concatenation(rng, n, k, n_samples)
    gauss = ginibre(rng, n_samples, k)
    ks = np.array([[ks_vs_exponential(np.abs(blocks[:, i, j]) ** 2) for j in range(k)]
                   for i in range(k)])
    ks_entry = float(ks[0, 0])
    ks_exact = ks_statistic(np.abs(blocks[:, 0, 0]) ** 2,
                            lambda x: 1.0 - (1.0 - np.clip(x, 0.0, n) / n) ** (n - 1))
    gaps = {g.kind: float(abs(np.mean(evaluate(g, blocks[:, :, 0]))
                              - np.mean(evaluate(g, gauss))))
            for g in probes}
    distance = submatrix_l1_distance(n) if k == 1 else ks_entry
    return ExperimentOutcome(
        np.array([distance]), np.array([ks_exact < epsilon]), np.array([ks_entry]),
        0.0, float(epsilon),
        {"ks_entry": ks_entry, "ks_exact": ks_exact, "ks_entry_max": float(ks.max()),
         "expectation_gaps": gaps},
    )


def fit_beta_by_array_residual(system_levels, rho_target: DensityMatrix) -> float:
    """``fit_beta``'s golden-section search on [-50, 50] down to 1e-10, with
    the residual ||rho_beta - rho_target||_1 of the diagonals taken on numpy
    arrays through ``hilbert._canonical_weights``, as up to 0.25.0."""
    energies = np.asarray(system_levels, dtype=float)
    t = np.real(np.diagonal(rho_target.matrix))

    def residual(beta):
        return float(np.sum(np.abs(_canonical_weights(energies, beta) - t)))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = -50.0, 50.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = residual(c), residual(d)
    while b - a > 1e-10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = residual(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = residual(d)
    return float((a + b) / 2.0)


def poly_sup_by_polynomial_class(coeffs):
    """max |p(x)| over [0, 1] as 0.16.0 computed the polynomial bound, through
    ``np.polynomial.Polynomial`` objects."""
    p = np.polynomial.Polynomial(coeffs).trim(1e-300 * np.max(np.abs(coeffs)))
    candidates = [0.0, 1.0]
    if p.degree() >= 2:
        roots = p.deriv().roots()
        real = roots[np.abs(roots.imag) < 1e-12].real
        candidates.extend(r for r in real if 0.0 <= r <= 1.0)
    return float(np.max(np.abs(p(np.asarray(candidates)))))


def poly_sup_by_horner_on_floats(coeffs):
    """max |p(x)| over [0, 1] as 0.16.1 to 0.28.0 computed the polynomial
    bound, on a list of Python floats: trimming, the derivative's
    coefficients i c_i, its roots, and Horner's rule c_i + x (...)."""
    c = np.asarray(coeffs, dtype=float).tolist()
    # Leading coefficients below 1e-300 max |c_i| would overflow polyroots().
    tol = 1e-300 * max(map(abs, c))
    while len(c) > 1 and abs(c[-1]) <= tol:
        c.pop()
    candidates = [0.0, 1.0]
    if len(c) >= 3:
        roots = np.polynomial.polynomial.polyroots([i * c[i] for i in range(1, len(c))])
        real = roots[np.abs(roots.imag) < 1e-12].real
        candidates.extend(r for r in real.tolist() if 0.0 <= r <= 1.0)

    def horner(x):
        value = c[-1]
        for c_i in reversed(c[:-1]):
            value = c_i + value * x
        return value

    return max(abs(horner(x)) for x in candidates)


def submatrix_density_k1(n, x):
    """Exact normalized density (on C) of sqrt(n) times a single entry of a
    Haar unitary of size n >= 2: ((n-1)/(pi n)) (1 - |x|^2/n)^(n-2) for
    |x| < sqrt(n), else 0."""
    r2 = abs(x) ** 2
    if r2 >= n:
        return 0.0
    return float((n - 1) / (np.pi * n) * (1.0 - r2 / n) ** (n - 2))


def _gaussian_density_c1(r):
    return float(np.exp(-r * r) / np.pi)


def quadrature_l1_distance(n):
    """L1 distance between the exact density of sqrt(n) times a single Haar
    entry and the unit complex Gaussian, by radial quadrature over C: the
    route that the closed form ``submatrix_l1_distance`` replaces."""
    root_n = np.sqrt(n)
    inner = quad(
        lambda r: 2 * np.pi * r * abs(submatrix_density_k1(n, r) - _gaussian_density_c1(r)),
        0.0, root_n, limit=200,
    )[0]
    tail = quad(lambda r: 2 * np.pi * r * _gaussian_density_c1(r), root_n, np.inf)[0]
    return float(inner + tail)


def mpmath_l1_distance(n, dps=50):
    """The L1 distance of ``submatrix_l1_distance`` at ``dps`` digits, for
    n >= 3: the two crossings of the exact and limit densities by mpmath's
    bracketing root finder, and the CDFs F(u) = 1 - (1 - u/n)^(n-1) and
    G(u) = 1 - exp(-u) in their textbook form, whose cancellation costs
    about log10(n) of the ``dps`` digits."""
    with mpmath.workdps(dps):
        n = mpmath.mpf(n)
        log_ratio = lambda u: mpmath.log(1 - 1 / n) + (n - 2) * mpmath.log(1 - u / n) + u
        excess = lambda u: mpmath.exp(-u) - (1 - u / n) ** (n - 1)
        tol = mpmath.mpf(10) ** (10 - dps)
        u1 = mpmath.findroot(log_ratio, (0, 1), solver="anderson", tol=tol)
        u2 = mpmath.findroot(log_ratio, (2, n * (1 - tol)), solver="anderson", tol=tol)
        return float(2 * (excess(u2) - excess(u1)))


def hermitian_abs_eigensum(m):
    """Sum of |eigenvalues| of a Hermitian matrix (trace-norm oracle)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))

