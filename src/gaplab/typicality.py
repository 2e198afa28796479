"""Monte Carlo experiment drivers.

Each driver verifies, at desk scale, one universality statement about the
conditional wave function: its distribution approaches GAP(rho) when the
second factor (the environment) is large, whether the randomness sits in
the entangled state, in the measured basis, or in both plus the choice of a
high-dimensional subspace.  The asymptotic statements involve existence
constants with no usable closed form, so the drivers sweep dimensions and
check monotone convergence plus the explicit concentration bound that is
available for subspace states.

Every driver takes an :class:`~gaplab.randomness.RngStream`, runs one sweep
point and returns its trials as one :class:`ExperimentOutcome`.  The Monte
Carlo drivers derive one substream per trial and run their trials through one
batched engine: it draws each trial's Gaussians from that trial's substream,
in the order the per-trial routes in ``tests/_oracles.py`` draw them, and
does the linear algebra once per chunk of trials on stacked arrays.  It
derives the trials' seed words once per block of at least SEED_BLOCK
trials.  Results are bit-reproducible and depend neither on the chunk length
nor on the block length.

The universality drivers (theorems 1-4, thermal) form every branch matrix as
W^T A, with W a trial's Haar k-system and a (k, d1) amplitude factor A:
(v sqrt(p))^T from rho1 for theorem 1, conj(R) of the fixed state's
M^dagger = V R for theorem 2, conj(R) of each trial's state for the subspace
drivers.  The engine lays each product out as A^T W, a (d1, d2) matrix whose
column j is <b_j|psi>, and evaluates f on <phi|b_j> / sqrt(w_j) without
forming the normalized atoms.  A subspace H_R is a :class:`Subspace`
(dense orthonormal basis) or a :class:`CoordinateSubspace` (spanned by
product vectors |i>|j>, such as a microcanonical shell, with states
scattered into its flat indices), and each forms its own states.  The
engine checks each invariant once, where it is strictest:
unit total conditional weight (which a non-orthonormal or NaN W fails) and
unit-trace Hermitian reduced matrices.  The per-trial routes keep every
check and are the tests' oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BasisError, DimensionError, DomainError, EmptyShellError
from .gap import gap_sphere_density, sample_gap
from .hilbert import (
    HERMITIAN_ATOL,
    NORM_ATOL,
    BipartiteState,
    DensityMatrix,
    _canonical_weights,
    canonical_density,
    reduced_density_matrix,
    trace_norm,
)
from .randomness import (
    MAX_TRIALS,
    RngStream,
    _complex_gaussians,
    _gram_schmidt_twice,
    _haar_columns,
    _integer,
    _seeded_generator,
    ginibre,
    haar_unitary,
    random_ons,
    uniform_sphere,
)
from .stats import _exponential_cdf, _ks_sorted, ks_vs_exponential, spearman

__all__ = [
    "TestFunction",
    "overlap_sq",
    "real_part",
    "cap_indicator",
    "polynomial",
    "GapExpectation",
    "gap_expectation",
    "ExperimentOutcome",
    "random_purification_experiment",
    "random_basis_experiment",
    "Subspace",
    "CoordinateSubspace",
    "random_subspace",
    "random_purification",
    "concentration_bound",
    "canonical_typicality_experiment",
    "shell_universality_experiment",
    "shell_vs_target_experiment",
    "thermal_experiment",
    "microcanonical_shell",
    "fit_beta",
    "submatrix_l1_distance",
    "submatrix_convergence_experiment",
    "continuity_probe",
    "random_floor_density",
]


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    """Bounded real test function on the unit sphere.

    Four kinds, all probing the overlap with a fixed unit vector phi:

    * ``overlap_sq``      f(psi) = |<phi|psi>|^2
    * ``real_part``       f(psi) = Re <phi|psi>
    * ``cap_indicator``   f(psi) = 1 if |<phi|psi>|^2 >= threshold - 1e-12
    * ``polynomial``      f(psi) = p(|<phi|psi>|^2), coefficients ascending

    ``bound`` is the sup norm over the unit sphere, and must be positive.
    Instances are callable on a single vector (d,) or a stack of vectors
    (..., d).
    """

    kind: str
    phi: np.ndarray
    threshold: float | None = None
    coefficients: np.ndarray | None = None
    bound: float = field(init=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=complex)
        n = np.linalg.norm(phi)
        if not 0 < n < np.inf:  # NaN fails too
            raise DomainError("phi must be a finite nonzero vector")
        phi = phi / n
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        bound = 1.0
        if self.kind == "cap_indicator":
            if self.threshold is None or not 0.0 <= self.threshold <= 1.0:
                raise DomainError("cap_indicator needs a threshold in [0, 1]")
        elif self.kind == "polynomial":
            if self.coefficients is None:
                raise DomainError("polynomial needs coefficients")
            coeffs = np.asarray(self.coefficients, dtype=float)
            if coeffs.size == 0:
                raise DomainError("polynomial needs at least one coefficient")
            # sum |c_i| bounds p and Horner's steps on [0, 1]; 1e8 squares sum to a float.
            if not sum(map(abs, coeffs.tolist())) <= 1e150:  # NaN fails too
                raise DomainError("polynomial coefficients must be finite, "
                                  "with sum of |c_i| at most 1e150")
            coeffs.setflags(write=False)
            object.__setattr__(self, "coefficients", coeffs)
            bound = _poly_sup_on_unit_interval(coeffs)
            # Pass thresholds scale with the bound: at 0 no trial could pass.
            if bound == 0.0:
                raise DomainError("polynomial coefficients must not all vanish: "
                                  "sup of |p| on [0, 1] is 0")
        elif self.kind not in ("overlap_sq", "real_part"):
            raise DomainError(f"unknown test function kind {self.kind!r}")
        object.__setattr__(self, "bound", bound)

    @property
    def is_continuous(self) -> bool:
        return self.kind != "cap_indicator"

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        return self.of_overlaps(np.asarray(vectors, dtype=complex) @ self.phi.conj())

    def of_overlaps(self, amp: np.ndarray) -> np.ndarray:
        """f(psi) from the overlaps amp = <phi|psi> of unit vectors psi."""
        if self.kind == "real_part":
            return np.real(amp)
        x = np.abs(amp) ** 2
        if self.kind == "overlap_sq":
            return x
        if self.kind == "cap_indicator":
            # |<phi|psi>|^2 of a psi equal to phi up to a phase rounds to
            # 1 - 1e-16 or so, which a threshold of 1 must still admit.
            return (x >= self.threshold - 1e-12).astype(float)
        return np.polynomial.polynomial.polyval(x, self.coefficients)


def _poly_sup_on_unit_interval(coeffs: np.ndarray) -> float:
    """max |p(x)| over x in [0, 1]: endpoints plus interior critical points.

    The steps are those of ``np.polynomial.Polynomial`` on its default
    domain, done on a list of floats: trimming, the derivative's
    coefficients i c_i, its roots, and Horner's rule c_i + x (...) as in
    ``polyval``, so the bound is the same bit for bit without building
    polynomial objects."""
    c = coeffs.tolist()
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


def overlap_sq(phi) -> TestFunction:
    return TestFunction("overlap_sq", phi)


def real_part(phi) -> TestFunction:
    return TestFunction("real_part", phi)


def cap_indicator(phi, threshold: float) -> TestFunction:
    return TestFunction("cap_indicator", phi, threshold=threshold)


def polynomial(phi, coefficients) -> TestFunction:
    return TestFunction("polynomial", phi, coefficients=coefficients)


# ---------------------------------------------------------------------------
# GAP expectations and references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapExpectation:
    """Monte Carlo estimate of a GAP expectation, with its standard error."""

    estimate: float
    standard_error: float


def gap_expectation(rng: np.random.Generator, rho: DensityMatrix,
                    f: TestFunction, n_samples: int) -> GapExpectation:
    """Estimate the expectation of f under GAP(rho) from ``n_samples`` draws."""
    n_samples = _integer("n_samples", n_samples, 1)
    vals = np.asarray(f(sample_gap(rng, rho, size=n_samples)), dtype=float)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return GapExpectation(est, se)


# A Monte Carlo reference draws max(10 n_trials, 2000) GAP samples.  For a
# cap indicator with GAP probability P its standard error is
# sqrt(P (1 - P) / n_samples): about 0.004 at 10 000 draws for P = 0.784 and
# up to 0.011 at 2000, not negligible against pass tolerances of 0.1, so the
# references that have a closed form use it instead.
REFERENCE_BUDGET_FACTOR = 10
REFERENCE_BUDGET_FLOOR = 2000


def gap_reference(reference, stream: RngStream, rho: DensityMatrix, f: TestFunction,
                  n_trials: int) -> float:
    """``reference`` when given, else GAP(rho)(f), exact where a closed form
    exists:

    * overlap_sq: <phi|rho|phi>, the GAP covariance in direction phi;
    * real_part: 0, since GAP is invariant under a global phase;
    * cap_indicator on C^2 with phi an eigenvector of rho (||rho phi - p phi||
      <= 1e-12, p = <phi|rho|phi>, q = 1 - p): P(u >= t) for u = |<phi|psi>|^2.
      In rho's eigenbasis u = pB / (pB + q(1 - B)), where B has density
      2(pB + q(1 - B)) on [0, 1] (the size-biased pair of Exp(1) variables),
      so P(u >= t) = 2[q(1 - b) + (p - q)(1 - b^2)/2] with
      b = tq / (p(1 - t) + tq); the two 0/0 cases (p, t) = (0, 0), (1, 1)
      give 1.

    Every other case is the Monte Carlo mean of max(10 n_trials, 2000) draws
    on substream ``n_trials`` of ``stream`` (past every trial's substream).
    The drivers call it after their trials, so that a trial count the engine
    rejects is rejected before the reference draws."""
    if reference is not None:
        return reference
    if f.kind == "overlap_sq":
        return float(np.real(f.phi.conj() @ rho.matrix @ f.phi))
    if f.kind == "real_part":
        return 0.0
    if f.kind == "cap_indicator" and rho.dim == 2:
        rho_phi = rho.matrix @ f.phi
        p = float(np.real(f.phi.conj() @ rho_phi))
        if np.linalg.norm(rho_phi - p * f.phi) <= 1e-12:
            p = min(max(p, 0.0), 1.0)
            q, t = 1.0 - p, f.threshold
            denominator = p * (1.0 - t) + t * q
            if denominator == 0.0:
                return 1.0
            b = t * q / denominator
            return 2.0 * (q * (1.0 - b) + (p - q) * (1.0 - b * b) / 2.0)
    n_samples = max(REFERENCE_BUDGET_FACTOR * n_trials, REFERENCE_BUDGET_FLOOR)
    return gap_expectation(stream.substream(n_trials).generator(), rho, f,
                           n_samples).estimate


# ---------------------------------------------------------------------------
# Trial results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentOutcome:
    """The trials of one sweep point as (n_trials,) columns, row i for trial
    i: each trial's discrepancy, pass flag and auxiliary value (NaN where the
    driver records none), with the reference and pass threshold they were
    judged against, and the driver's further statistics in ``extra``."""

    discrepancies: np.ndarray
    passed: np.ndarray
    auxiliary: np.ndarray
    reference: float
    threshold: float
    extra: dict = field(default_factory=dict)

    @property
    def pass_fraction(self) -> float:
        return float(np.mean(self.passed))

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.discrepancies, q))

    @property
    def median_discrepancy(self) -> float:
        return float(np.median(self.discrepancies))


# ---------------------------------------------------------------------------
# Batched trial engine
# ---------------------------------------------------------------------------

# Budget, in complex entries, for the largest per-trial array (the d1 x d2
# state or branch matrix) stacked over one chunk of trials: each stacked
# array stays at a few hundred kilobytes.  On a 2-core VM with one BLAS
# thread, 2^12 ran theorem1 at d2 <= 256 and the thermal driver about 9 %
# slower; 2^16 ran theorem1 4 % slower and the thermal driver 28 % slower,
# with 10 % more peak memory; 2^13 and 2^15 were no faster on either.
CHUNK_ENTRIES = 2 ** 14

# Trials whose seed words one pass of the vectorized SeedSequence hash
# derives.  A pass costs about as much for 40 trials as for 4096 (about
# 0.6 ms on a 2-core VM), so the engine hashes once per block of whole
# chunks holding at least this many trials.  A block's words take 32 bytes
# per trial but a generator about 800, so generators are made per chunk.
SEED_BLOCK = 2 ** 12

# Atoms below this weight carry no mass and are dropped where normalization
# would otherwise divide by ~0.
WEIGHT_CUTOFF = 1e-14


def _run_trials(stream: RngStream, n_trials: int, entries: int, shapes, evaluate):
    """Run ``n_trials`` independent trials in chunks of stacked arrays.

    Trial i draws from its own generator, bit-identical to
    ``stream.substream(i).generator()`` (the seed words of a block of
    trials are derived at once by ``stream._trial_words``), one
    complex Gaussian array per shape in ``shapes``, in order, with the same
    values ``ginibre(rng, *shape)`` would return.  ``evaluate`` maps a
    chunk's draws, one (B, *shape) array per shape, to a pair of (B,)
    arrays (value, auxiliary).  A chunk holds CHUNK_ENTRIES // entries
    trials, where ``entries`` is the size of the largest per-trial array.
    Every batched operation acts on each trial's slice alone, so the outputs
    depend neither on the chunk length nor on SEED_BLOCK.
    """
    n_trials = _integer("n_trials", n_trials, 1)
    if n_trials > MAX_TRIALS:
        raise DomainError(f"need between 1 and 2**32 trials, got {n_trials}")
    size = max(1, CHUNK_ENTRIES // entries)
    block = size * -(-SEED_BLOCK // size)  # whole chunks
    out = np.empty((2, n_trials))
    for first in range(0, n_trials, block):
        last = min(first + block, n_trials)
        words = stream._trial_words(first, last)
        for start in range(first, last, size):
            stop = min(start + size, last)
            draws = [np.empty((stop - start, 2) + s) for s in shapes]
            for b, w in enumerate(words[start - first:stop - first]):
                rng = _seeded_generator(w)
                for d in draws:
                    rng.standard_normal(out=d[b])
            gaussians = [_complex_gaussians(d) for d in draws]
            out[0, start:stop], out[1, start:stop] = evaluate(*gaussians)
    return out[0], out[1]


def _conditional_integrals(q: np.ndarray, a: np.ndarray, f: TestFunction) -> np.ndarray:
    """mu(f) for the conditional measure of each branch matrix W^T A, given
    q = W^T (B, d2, k) and the amplitude factor a ((B,) k, d1): the sum over
    branches j of w_j f(<b_j|psi> / sqrt(w_j)), with branches of weight below
    WEIGHT_CUTOFF masked out instead of dropped.  The branches are laid out
    as A^T W (B, d1, d2), column j being <b_j|psi>, so the weights w_j and
    the overlaps <phi|b_j> reduce over d1 contiguous rows; f is evaluated on
    <phi|b_j> / sqrt(w_j), the normalized atom's overlap."""
    branches = np.swapaxes(a, -1, -2) @ np.swapaxes(q, -1, -2)
    w = np.sum(branches.real ** 2 + branches.imag ** 2, axis=-2)
    keep = w >= WEIGHT_CUTOFF
    mass = np.where(keep, w, 0.0)
    # NaN fails both comparisons and inf the second.
    if not (np.all(w >= 0.0) and np.all(np.abs(mass.sum(axis=-1) - 1.0) <= 1e-10)):
        raise DomainError("conditional weights must be finite, nonnegative and sum to 1")
    overlaps = f.phi.conj() @ branches / np.sqrt(np.where(keep, w, 1.0))
    return np.sum(mass * f.of_overlaps(overlaps), axis=-1)


def _amplitude_factor(m: np.ndarray) -> np.ndarray:
    """The (B or 1, k, d1) factor A = conj(R) of coefficient matrices m
    (B or 1, d1, d2), k = min(d1, d2), with M^dagger = V R a reduced QR.
    For a Haar basis B the branch matrix M B^dagger is R^dagger (V^dagger
    B^dagger), and by Haar invariance V^dagger B^dagger is a Haar k-system W
    of C^{d2}, so the branch rows are (R^dagger W)^T = W^T A."""
    return np.linalg.qr(np.swapaxes(m.conj(), -1, -2), mode="r").conj()


def _reduced_distances(m: np.ndarray, target: DensityMatrix) -> np.ndarray:
    """||tr_2 |psi><psi| - target||_tr for coefficient matrices m (B, d1, d2),
    as the sum of |eigenvalues| of the Hermitian difference.  The reduced
    matrices pass the DensityMatrix checks first: Hermitian and of unit trace
    within tolerance (NaN and inf fail both comparisons)."""
    rho = m @ np.swapaxes(m.conj(), -1, -2)
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if not (np.all(np.abs(rho - adjoint) <= HERMITIAN_ATOL)
            and np.all(np.abs(trace - 1.0) <= NORM_ATOL)):
        raise DomainError("reduced density matrices must be finite, Hermitian "
                          "and of unit trace within 1e-10")
    diff = (rho + adjoint) / 2.0 - target.matrix
    return np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def _collect(values, reference, threshold, auxiliary, extra=None) -> ExperimentOutcome:
    """Outcome of trials with values mu(f): discrepancies |mu(f) - reference|
    pass below ``threshold``."""
    discrepancies = np.abs(values - reference)
    return ExperimentOutcome(discrepancies, discrepancies < threshold, auxiliary,
                             float(reference), float(threshold), extra or {})


# ---------------------------------------------------------------------------
# Universality for random states / random bases
# ---------------------------------------------------------------------------

def random_purification_experiment(stream: RngStream, rho1: DensityMatrix,
                                   d2: int, f: TestFunction, epsilon: float,
                                   n_trials: int, *,
                                   reference: float | None = None) -> ExperimentOutcome:
    """Random state with prescribed reduced density matrix, fixed basis.

    Per trial: draw psi uniformly among states with reduced density matrix
    rho1 (as ``random_purification``), form the conditional measure in the
    computational environment basis, and record |mu(f) - GAP(rho1)(f)|.  A
    trial passes when the discrepancy is below epsilon * ||f||_inf.
    """
    d1, d2 = rho1.dim, _integer("d2", d2, 1)
    if d2 < d1:
        raise DomainError(f"purification requires d2 >= d1, got d1={d1}, d2={d2}")
    # psi = (v sqrt(p)) Phi with Phi the (d1, d2) random system, so the
    # branch rows <j|psi> are the rows of Phi^T (v sqrt(p))^T.
    amplitudes = (rho1.eigenbasis() * np.sqrt(rho1.spectrum())).T
    return _haar_system_trials(stream, amplitudes, d2, rho1, f, epsilon, n_trials,
                               reference)


def random_basis_experiment(stream: RngStream, psi: BipartiteState,
                            f: TestFunction, epsilon: float, n_trials: int, *,
                            reference: float | None = None) -> ExperimentOutcome:
    """Fixed state, uniformly random environment basis.

    Per trial: draw the conditional measure mu of psi in a Haar-random
    orthonormal basis of the second factor (see ``_amplitude_factor``) and
    record |mu(f) - GAP(rho1)(f)| with rho1 the reduced density matrix of psi.
    """
    rho1 = reduced_density_matrix(psi)
    amplitudes = _amplitude_factor(psi.as_matrix()[None])
    return _haar_system_trials(stream, amplitudes, psi.d2, rho1, f, epsilon, n_trials,
                               reference)


def _haar_system_trials(stream, amplitudes, d2, rho1, f, epsilon, n_trials, reference):
    """Trials of theorems 1 and 2: mu(f) for the branch matrix W^T A of a
    Haar k-system W of C^{d2} and the fixed (k, d1) amplitude factor A (or
    a (1, k, d1) stack), judged against GAP(rho1)(f) below
    epsilon * ||f||_inf."""
    k, d1 = amplitudes.shape[-2:]

    def evaluate(z):
        return _conditional_integrals(_haar_columns(z), amplitudes, f), np.nan

    values, aux = _run_trials(stream, n_trials, d1 * d2, [(d2, k)], evaluate)
    reference = gap_reference(reference, stream, rho1, f, n_trials)
    return _collect(values, reference, epsilon * f.bound, aux)


# ---------------------------------------------------------------------------
# Random subspaces and canonical typicality
# ---------------------------------------------------------------------------

BASIS_GRAM_ATOL = 1e-8


def _check_orthonormal_rows(vectors: np.ndarray) -> None:
    """Raise BasisError unless the k rows are finite and orthonormal; O(k^2 n)
    for (k, n).  Leading axes are a batch, checked matrix by matrix."""
    gram = vectors @ np.swapaxes(vectors.conj(), -1, -2)
    # Written so that a NaN entry, whose Gram deviation is NaN, fails.
    if not np.max(np.abs(gram - np.eye(vectors.shape[-2]))) <= BASIS_GRAM_ATOL:
        raise BasisError("basis rows are not orthonormal within 1e-8")


@dataclass(frozen=True)
class Subspace:
    """Subspace H_R of C^{d1} (x) C^{d2} spanned by the orthonormal columns
    of ``basis`` (d1*d2, dim), amplitude (i, j) at row i*d2 + j."""

    basis: np.ndarray
    d1: int
    d2: int

    def __post_init__(self):
        for name in ("d1", "d2"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.d1 * self.d2:
            raise DimensionError(f"basis must be ({self.d1 * self.d2}, dim) with "
                                 f"orthonormal columns, got {basis.shape}")
        _check_orthonormal_rows(basis.T)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def states(self, z: np.ndarray) -> np.ndarray:
        """Uniform points on the unit sphere of the subspace for Gaussian
        coordinates z (B, dim, 1) in its basis, as (B, d1, d2) coefficient
        matrices."""
        psi = (self.basis @ z)[..., 0]
        psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
        return psi.reshape(-1, self.d1, self.d2)

    def reduced_density(self) -> DensityMatrix:
        """tr_2 P_R / dim, the partial trace of the normalized projection."""
        blocks = self.basis.T.reshape(self.dim, self.d1, self.d2)
        return DensityMatrix(np.einsum("kil,kjl->ij", blocks, blocks.conj()) / self.dim)


def random_subspace(rng: np.random.Generator, d1: int, d2: int, dim: int) -> Subspace:
    """Uniformly random ``dim``-dimensional subspace of C^{d1*d2}, spanned by
    the first ``dim`` columns of a Haar unitary."""
    total = _integer("d1", d1, 1) * _integer("d2", d2, 1)
    dim = _integer("dim", dim, 1)
    if dim > total:
        raise DomainError(f"subspace dimension must lie in [1, {total}], got {dim}")
    return Subspace(random_ons(rng, total, dim).T, d1, d2)


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


# Constant in the concentration bound 4 exp(-dim * eta^2 / (18 pi^3)) for the
# trace distance between a random subspace state's reduced density matrix and
# the subspace average.
CONCENTRATION_DENOMINATOR = 18.0 * np.pi ** 3


def concentration_bound(dim: int, eta: np.ndarray) -> np.ndarray:
    """Upper bound on the probability that the trace distance exceeds
    eta + d1/sqrt(dim)."""
    return 4.0 * np.exp(-dim * np.asarray(eta, dtype=float) ** 2
                        / CONCENTRATION_DENOMINATOR)


def canonical_typicality_experiment(stream: RngStream, subspace: Subspace,
                                    n_trials: int) -> ExperimentOutcome:
    """Concentration of the reduced density matrix over a subspace.

    Per trial: draw psi uniformly on the subspace sphere and record the
    trace distance between its reduced density matrix and the subspace
    average tr_2 rho_R as the discrepancy (reference 0).  ``extra`` reports
    the mean distance and, on a grid of ten eta in [0.05, 2], the empirical
    exceedance fractions of eta + d1/sqrt(dim) (``offset``) against the
    explicit bound 4 exp(-dim eta^2 / 18 pi^3), with ``bound_violated``.

    A trial passes below twice the offset, a reporting heuristic; the
    scientific check is the bound.
    """
    target = subspace.reduced_density()
    d1, d2, dim = subspace.d1, subspace.d2, subspace.dim
    offset = float(d1 / np.sqrt(dim))

    def evaluate(z):
        return _reduced_distances(subspace.states(z), target), np.nan

    distances, aux = _run_trials(stream, n_trials, d1 * d2, [(dim, 1)], evaluate)
    eta_grid = np.linspace(0.05, 2.0, 10)
    exceed = np.array([(distances >= eta + offset).mean() for eta in eta_grid])
    bound = concentration_bound(dim, eta_grid)
    extra = {
        "mean_distance": float(distances.mean()), "offset": offset,
        "eta_grid": eta_grid.tolist(), "exceedance": exceed.tolist(),
        "bound": bound.tolist(), "bound_violated": bool(np.any(exceed > bound)),
    }
    return ExperimentOutcome(distances, distances < 2.0 * offset, aux, 0.0,
                             2.0 * offset, extra)


def shell_universality_experiment(stream: RngStream, subspace: Subspace,
                                  f: TestFunction, epsilon: float, n_trials: int, *,
                                  reference: float | None = None) -> ExperimentOutcome:
    """Random subspace state and random basis versus GAP(tr_2 rho_R).

    Per trial: draw (psi, b) from the product of the uniform measure on the
    subspace sphere and the uniform basis measure, and record
    |mu(f) - GAP(tr_2 rho_R)(f)|.  The pass threshold is epsilon itself
    (the test function must be continuous for the limit statement to hold).
    Each record's auxiliary field is ||rho1(psi) - tr_2 rho_R||_tr.
    """
    if not f.is_continuous:
        raise DomainError("this experiment requires a continuous test function")
    target = subspace.reduced_density()
    values, aux = _shell_trials(stream, subspace, f, target, n_trials)
    reference = gap_reference(reference, stream, target, f, n_trials)
    return _collect(values, reference, epsilon, aux)


def _shell_trials(stream: RngStream, subspace: Subspace | CoordinateSubspace,
                  f: TestFunction, target: DensityMatrix, n_trials: int):
    """Per trial: psi uniform on the subspace sphere, then mu(f) for the
    conditional measure of psi in a Haar-random basis and the auxiliary
    ||tr_2 |psi><psi| - target||_tr.  Trial i draws its two Ginibre arrays
    in that order: the state's coordinates, then the basis's k-system."""
    def evaluate(z, w):
        m = subspace.states(z)
        return (_conditional_integrals(_haar_columns(w), _amplitude_factor(m), f),
                _reduced_distances(m, target))

    d1, d2 = subspace.d1, subspace.d2
    shapes = [(subspace.dim, 1), (d2, min(d1, d2))]
    return _run_trials(stream, n_trials, d1 * d2, shapes, evaluate)


def shell_vs_target_experiment(stream: RngStream,
                               subspace: Subspace | CoordinateSubspace,
                               omega: DensityMatrix, f: TestFunction,
                               epsilon: float, n_trials: int, *,
                               reference: float | None = None) -> ExperimentOutcome:
    """Random subspace state and random basis versus GAP(Omega) for a fixed,
    strictly positive target Omega.

    Like :func:`shell_universality_experiment` but the reference is
    GAP(Omega)(f), the pass threshold is epsilon * ||f||_inf, and f may be
    any bounded measurable kind (including cap_indicator).  The outcome's
    ``extra['target_distance']`` reports ||tr_2 rho_R - Omega||_tr, which the
    caller is responsible for keeping small.  ``subspace`` may also be a
    :class:`CoordinateSubspace`, such as a microcanonical shell, whose states
    are scattered, not multiplied out.
    """
    if omega.min_eigenvalue <= 0.0:
        raise DomainError("target density matrix must be strictly positive")
    target_distance = trace_norm(subspace.reduced_density().matrix - omega.matrix)
    threshold = epsilon * f.bound
    values, aux = _shell_trials(stream, subspace, f, omega, n_trials)
    reference = gap_reference(reference, stream, omega, f, n_trials)
    return _collect(values, reference, threshold, aux,
                    extra={"target_distance": target_distance})


# ---------------------------------------------------------------------------
# Coordinate subspaces, microcanonical shells and the thermal scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateSubspace:
    """Subspace H_R of C^{d1} (x) C^{d2} spanned by the product vectors
    |i>|j> of its ``member_pairs``, a nonempty (dim, 2) integer array of
    distinct (i, j) in [0, d1) x [0, d2).  A microcanonical shell is one
    (see :func:`microcanonical_shell`).  Its average tr_2 rho_R is exactly
    diagonal with entries n_i / dim, where n_i counts the member pairs of
    system index i.
    """

    d1: int
    d2: int
    member_pairs: np.ndarray

    def __post_init__(self):
        for name in ("d1", "d2"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))
        pairs = np.asarray(self.member_pairs)
        object.__setattr__(self, "member_pairs", pairs)
        if not (pairs.dtype.kind in "iu" and pairs.ndim == 2 and pairs.shape[1] == 2
                and len(pairs) and np.all((0 <= pairs) & (pairs < (self.d1, self.d2)))
                and np.unique(self.flat_indices).size == len(pairs)):
            raise DimensionError(f"member pairs must be distinct integer pairs in "
                                 f"[0, {self.d1}) x [0, {self.d2})")

    @property
    def dim(self) -> int:
        return len(self.member_pairs)

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.member_pairs[:, 0], minlength=self.d1)

    @property
    def flat_indices(self) -> np.ndarray:
        """(dim,) flat product indices i*d2 + j of the member pairs."""
        return self.member_pairs[:, 0] * self.d2 + self.member_pairs[:, 1]

    def states(self, z: np.ndarray) -> np.ndarray:
        """``Subspace.states`` on the basis of member product vectors at
        O(dim) per trial: z normalized and scattered into the flat indices,
        equal up to rounding."""
        z = z[..., 0]
        psi = np.zeros((len(z), self.d1 * self.d2), dtype=complex)
        psi[:, self.flat_indices] = z / np.linalg.norm(z, axis=-1, keepdims=True)
        return psi.reshape(-1, self.d1, self.d2)

    def reduced_density(self) -> DensityMatrix:
        """tr_2 rho_R = diag(n_i / dim) in the product basis, divided as
        ``Subspace.reduced_density`` divides, so both forms agree bit for bit."""
        return DensityMatrix(np.diag(self.counts).astype(complex) / self.dim)


def _levels(name: str, levels) -> np.ndarray:
    """``levels`` as a float array, which must be 1-D and finite."""
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or not np.all(np.isfinite(levels)):
        raise DomainError(f"{name} must be a 1-D array of finite levels")
    return levels


def microcanonical_shell(system_levels, bath_levels, energy: float,
                         width: float) -> CoordinateSubspace:
    """Energy shell of a non-interacting pair Hamiltonian, given the system
    levels E1_i and bath levels E2_j as finite 1-D lists.

    The shell is spanned by the product eigenvectors |i>|j> with
    energy <= E1_i + E2_j <= energy + width (closed window, with a 1e-9
    relative tolerance at the edges); their (i, j) are its member pairs, in
    row-major order.
    """
    system_levels = _levels("system_levels", system_levels)
    bath_levels = _levels("bath_levels", bath_levels)
    if not np.isfinite(energy):
        raise DomainError("energy must be finite")
    if not 0 < width < np.inf:  # NaN fails too
        raise DomainError(f"window width must be positive and finite, got {width}")
    tol = 1e-9 * max(1.0, abs(energy) + abs(width))
    total = system_levels[:, None] + bath_levels[None, :]
    pairs = np.argwhere((energy - tol <= total) & (total <= energy + width + tol))
    if not len(pairs):
        raise EmptyShellError(
            f"no eigenvalue pair falls in [{energy}, {energy + width}]"
        )
    return CoordinateSubspace(system_levels.size, bath_levels.size, pairs)


def fit_beta(system_levels, rho_target: DensityMatrix) -> float:
    """Inverse temperature whose thermal state best matches a diagonal target.

    Minimizes ||rho_beta - rho_target||_tr over beta in [-50, 50] by
    golden-section search down to an interval of 1e-10.  The target must be diagonal in the system
    eigenbasis and strictly positive.
    """
    m = rho_target.matrix
    if np.max(np.abs(m - np.diag(np.diagonal(m)))) > 1e-10:
        raise DomainError("target must be diagonal in the system eigenbasis")
    t = np.real(np.diagonal(m))
    if np.any(t <= 0):
        raise DomainError("target must be strictly positive")
    energies = _levels("system_levels", system_levels)
    if energies.size != t.size:
        raise DimensionError("one level per target entry is required")

    def residual(beta: float) -> float:
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


def thermal_experiment(stream: RngStream, system_levels,
                       shell: CoordinateSubspace, f: TestFunction, epsilon: float,
                       n_trials: int) -> ExperimentOutcome:
    """The weak-coupling thermal scenario on a microcanonical shell.

    Fits the inverse temperature beta whose canonical state rho_beta on the
    system levels best matches the shell average tr_2 rho_R, then runs
    :func:`shell_vs_target_experiment` on the shell against rho_beta.
    ``extra`` adds beta and the shell's member count per system level.
    """
    beta = fit_beta(system_levels, shell.reduced_density())
    omega = canonical_density(system_levels, beta)
    out = shell_vs_target_experiment(stream, shell, omega, f, epsilon, n_trials)
    return replace(out, extra={**out.extra, "beta": beta,
                               "counts": shell.counts.tolist()})


# ---------------------------------------------------------------------------
# Truncated Haar submatrices
# ---------------------------------------------------------------------------

def submatrix_l1_distance(n: int) -> float:
    """L1 distance between the exact law of sqrt(n) times a single Haar entry
    on C and its unit complex Gaussian limit, in closed form.

    In u = |x|^2 the exact CDF is F(u) = 1 - (1 - u/n)^(n-1) on [0, n] and
    the limit's is G(u) = 1 - exp(-u).  The log density ratio
    ln(1 - 1/n) + (n - 2) ln(1 - u/n) + u is concave with its maximum at
    u = 2 and positive at u = 1, so the exact density exceeds the limit
    exactly on (u1, u2), with u1 in (0, 1) and u2 in (2, n) (u2 = n when
    n = 2), and the distance is 2 [(F - G)(u2) - (F - G)(u1)].

    Both crossings are found by bisection until the midpoint stops moving;
    the distance is stationary in them, so a root error of size e moves it
    by O(e^2).  The excess (F - G)(u) is evaluated as
    -exp(-u) expm1((n - 1) ln(1 - u/n) + u), which keeps its relative
    accuracy where (1 - u/n)^(n-1) and exp(-u) nearly cancel (large n), and
    as exp(-2) at u2 = n = 2.
    """
    n = _integer("n", n, 2)

    def log_ratio(u):
        return math.log1p(-1.0 / n) + (n - 2) * math.log1p(-u / n) + u

    def crossing(below, above):
        # log_ratio < 0 at `below` and > 0 at `above`; neither end is evaluated.
        while True:
            mid = 0.5 * (below + above)
            if mid in (below, above):
                return mid
            if log_ratio(mid) < 0.0:
                below = mid
            else:
                above = mid

    def excess(u):
        return -math.exp(-u) * math.expm1((n - 1) * math.log1p(-u / n) + u)

    upper = math.exp(-2.0) if n == 2 else excess(crossing(float(n), 2.0))
    return 2.0 * (upper - excess(crossing(0.0, 1.0)))


def _scaled_haar_blocks(rng: np.random.Generator, n: int, k: int,
                        n_samples: int) -> np.ndarray:
    """(n_samples, k, k) blocks X_ij = sqrt(n) U_ij of Haar unitaries U of
    size n >= 2k, at O(k^3) per sample.

    The phase-fixed QR of an n x k Ginibre matrix [G_top; G_bot] has
    U[:k, :k] = G_top R^-1 with R^H R = G_top^H G_top + G_bot^H G_bot, and
    by Bartlett's decomposition G_bot^H G_bot equals T^H T in law: T upper
    triangular, independent of G_top, T_jj^2 ~ Gamma(n - k - j, 1) and
    T_ij ~ CN(0, 1) for i < j.  So the top k rows of the phase-fixed QR of
    [G_top; T] have the law of U[:k, :k].  Draws: G_top's normals (real
    block, then imaginary), the above-diagonal normals (none when k = 1),
    the Gamma draws.

    Each draw is scaled once, straight into its place in one zeroed
    (n_samples, 2k, k) stack [G_top; T].  Every entry is the same product
    of the same draw as when G_top and T are built apart and concatenated,
    so the stack is bit-identical to that route (the tests keep it as an
    oracle) at a fraction of its passes.  The stack is orthonormalized by
    ``_gram_schmidt_twice``, which is the phase-fixed QR of
    ``_haar_columns`` in exact arithmetic and agrees with it to rounding
    (the tests compare the two on the same stacks); it avoids one LAPACK
    call per sample.
    """
    stack = np.zeros((n_samples, 2 * k, k), dtype=complex)
    _complex_gaussians(rng.standard_normal((n_samples, 2, k, k)), out=stack[:, :k])
    above = list(itertools.combinations(range(k), 2))  # (i, j), i < j, row by row
    if above:
        upper = rng.standard_normal((n_samples, 2, len(above)))
        for p, (i, j) in enumerate(above):
            _complex_gaussians(upper[..., p], out=stack[:, k + i, j])
    gammas = rng.standard_gamma(n - k - np.arange(k), (n_samples, k))
    for j in range(k):
        np.sqrt(gammas[:, j], out=stack.real[:, k + j, j])
    return np.sqrt(n) * _gram_schmidt_twice(stack)[:, :k, :]


def submatrix_convergence_experiment(stream: RngStream, k: int, n: int,
                                     n_samples: int, epsilon: float) -> ExperimentOutcome:
    """Convergence of sqrt(n)-scaled Haar blocks of size n to i.i.d. complex
    Gaussians, as one trial.

    Draws from ``stream.generator()``: ``n_samples`` scaled top-left k x k
    blocks from their exact law at O(k^3) each (``_scaled_haar_blocks``),
    then the Gaussian comparison sample.  The trial passes when ``ks_exact``,
    the KS distance of |X_11|^2 to its exact finite-n CDF
    1 - (1 - x/n)^(n-1) on [0, n] (Zyczkowski & Sommers), is below
    ``epsilon``.  Its auxiliary value ``ks_entry`` is the KS distance of
    |X_11|^2 to the n = infinity limit Exp(1); its discrepancy is the
    closed-form L1 distance of the k=1 density to its Gaussian limit
    (``ks_entry`` when k > 1).  ``extra`` adds both KS distances, the max of
    the Exp(1) KS over all k^2 entries and the gaps |E g(scaled first
    column) - E g(Gaussian column)| for the standard test function kinds g
    (probing the first coordinate direction).  ``k`` and ``n_samples`` must
    be integers >= 1 and n an integer >= 2k; all are checked before anything
    is drawn.

    Both KS distances of |X_11|^2 read one sorted copy of it, and each
    sample's overlaps with e1, its first coordinates, are formed once for
    all four test functions.
    """
    k = _integer("k", k, 1)
    n = _integer("n", n, 2 * k)
    n_samples = _integer("n_samples", n_samples, 1)
    e1 = np.eye(k)[0]
    probes = (overlap_sq(e1), real_part(e1), cap_indicator(e1, 0.5),
              polynomial(e1, [0.0, 0.0, 1.0]))
    rng = stream.generator()
    blocks = _scaled_haar_blocks(rng, n, k, n_samples)
    gauss = ginibre(rng, n_samples, k)

    entry = np.sort(np.abs(blocks[:, 0, 0]) ** 2)
    ks_entry = _ks_sorted(entry, _exponential_cdf)
    ks_exact = _ks_sorted(entry, lambda x: 1.0 - (1.0 - np.clip(x, 0.0, n) / n) ** (n - 1))
    ks_entry_max = max([ks_entry] + [ks_vs_exponential(np.abs(blocks[:, i, j]) ** 2)
                                     for i in range(k) for j in range(k) if i or j])
    block_amp, gauss_amp = blocks[:, 0, 0], gauss[:, 0]
    gaps = {g.kind: float(abs(np.mean(g.of_overlaps(block_amp))
                              - np.mean(g.of_overlaps(gauss_amp))))
            for g in probes}
    distance = submatrix_l1_distance(n) if k == 1 else ks_entry
    return ExperimentOutcome(
        np.array([distance]), np.array([ks_exact < epsilon]), np.array([ks_entry]),
        0.0, float(epsilon),
        {"ks_entry": ks_entry, "ks_exact": ks_exact, "ks_entry_max": ks_entry_max,
         "expectation_gaps": gaps},
    )


# ---------------------------------------------------------------------------
# Continuity of GAP in the density matrix
# ---------------------------------------------------------------------------

def random_floor_density(rng: np.random.Generator, d: int, gamma: float) -> DensityMatrix:
    """Random density matrix with all eigenvalues >= gamma: a uniform simplex
    spectrum compressed onto the floor set and a Haar-random eigenbasis."""
    d = _integer("d", d, 1)
    if not 0.0 < gamma < 1.0 / d:
        raise DomainError(f"need 0 < gamma < 1/d, got gamma={gamma}, d={d}")
    spectrum = gamma + (1.0 - d * gamma) * rng.dirichlet(np.ones(d))
    v = haar_unitary(rng, d)
    return DensityMatrix(v @ np.diag(spectrum).astype(complex) @ v.conj().T)


def continuity_probe(stream: RngStream, d: int, gamma: float, n_pairs: int,
                     threshold: float, *, n_probe: int = 10_000) -> ExperimentOutcome:
    """Modulus-of-continuity scatter for rho -> GAP(rho) on the set of
    density matrices with spectrum >= gamma, one trial per pair.

    Pairs are built by convex interpolation between two independent draws,
    so their trace distances span a range.  A pair's discrepancy is the sup
    of the sphere-density difference over a shared set of ``n_probe``
    uniform probe points and its auxiliary value the trace distance; it
    passes when the exact expectation gap for f = overlap_sq(e1) is within
    the trace distance (up to 1e-12).  ``threshold`` is recorded as given.
    ``extra`` has the Spearman rank correlation of the two columns and
    gamma.  Smaller gamma exhibits the blow-up of the density modulus.
    """
    n_pairs = _integer("n_pairs", n_pairs, 1)
    n_probe = _integer("n_probe", n_probe, 1)
    rng = stream.generator()
    probes = uniform_sphere(rng, d, size=n_probe)
    e1 = np.eye(d)[0]

    trace_d = np.empty(n_pairs)
    dens_gap = np.empty(n_pairs)
    expe_gap = np.empty(n_pairs)
    for m in range(n_pairs):
        omega = random_floor_density(rng, d, gamma)
        other = random_floor_density(rng, d, gamma)
        t = rng.random()
        # Convex combinations keep the spectrum floor.
        rho = DensityMatrix((1 - t) * omega.matrix + t * other.matrix)
        diff = rho.matrix - omega.matrix
        trace_d[m] = trace_norm(diff)
        dens_gap[m] = float(np.max(np.abs(
            gap_sphere_density(rho, probes) - gap_sphere_density(omega, probes)
        )))
        expe_gap[m] = abs(float(np.real(e1 @ diff @ e1)))
    return ExperimentOutcome(
        dens_gap, expe_gap <= trace_d + 1e-12, trace_d, 0.0, float(threshold),
        {"spearman": spearman(trace_d, dens_gap), "gamma": float(gamma)},
    )
