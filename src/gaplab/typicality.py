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
in the order the per-trial public functions (``random_purification``,
``random_basis_measure``, ``uniform_subspace_state``) draw them, and does the
linear algebra once per chunk of trials on stacked arrays.  Results are
bit-reproducible and do not depend on the chunk length.

The universality drivers (theorems 1-4, thermal) form every branch matrix as
W^T A, with W a trial's Haar k-system and a (k, d1) amplitude factor A:
(v sqrt(p))^T from rho1 for theorem 1, conj(R) of the fixed state's
M^dagger = V R for theorem 2, conj(R) of each trial's state for the subspace
drivers.  The engine checks each invariant once, where it is strictest:
unit total conditional weight (which a non-orthonormal or NaN W fails) and
unit-trace Hermitian reduced matrices.  The per-trial public routes keep
every check and are the tests' oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .conditional import WEIGHT_CUTOFF
from .errors import DimensionError, DomainError, EmptyShellError
from .gap import covariance_estimate, gap_sphere_density, sample_gap
from .hilbert import (
    HERMITIAN_ATOL,
    NORM_ATOL,
    BipartiteState,
    DensityMatrix,
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
    ginibre,
    haar_unitary,
    random_ons,
    uniform_sphere,
)
from .stats import ks_statistic, ks_vs_exponential, spearman

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
    "random_subspace",
    "reduced_of_subspace",
    "uniform_subspace_state",
    "concentration_bound",
    "canonical_typicality_experiment",
    "shell_universality_experiment",
    "shell_vs_target_experiment",
    "thermal_experiment",
    "MicrocanonicalShell",
    "microcanonical_shell",
    "BetaFit",
    "fit_beta",
    "submatrix_l1_distance",
    "submatrix_convergence_experiment",
    "continuity_probe",
    "random_floor_density",
    "gap_selftest_experiment",
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
    * ``cap_indicator``   f(psi) = 1 if |<phi|psi>|^2 >= threshold
    * ``polynomial``      f(psi) = p(|<phi|psi>|^2), coefficients ascending

    ``bound`` is the sup norm over the unit sphere.  Instances are callable
    on a single vector (d,) or a stack of vectors (..., d).
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
        if self.kind == "overlap_sq":
            bound = 1.0
        elif self.kind == "real_part":
            bound = 1.0
        elif self.kind == "cap_indicator":
            if self.threshold is None or not 0.0 <= self.threshold <= 1.0:
                raise DomainError("cap_indicator needs a threshold in [0, 1]")
            bound = 1.0
        elif self.kind == "polynomial":
            if self.coefficients is None:
                raise DomainError("polynomial needs coefficients")
            coeffs = np.asarray(self.coefficients, dtype=float)
            if coeffs.size == 0:
                raise DomainError("polynomial needs at least one coefficient")
            if not np.all(np.isfinite(coeffs)):
                raise DomainError("polynomial coefficients must be finite")
            coeffs.setflags(write=False)
            object.__setattr__(self, "coefficients", coeffs)
            bound = _poly_sup_on_unit_interval(coeffs)
        else:
            raise DomainError(f"unknown test function kind {self.kind!r}")
        object.__setattr__(self, "bound", bound)

    @property
    def is_continuous(self) -> bool:
        return self.kind != "cap_indicator"

    def __call__(self, vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors, dtype=complex)
        amp = vectors @ self.phi.conj()
        if self.kind == "real_part":
            return np.real(amp)
        x = np.abs(amp) ** 2
        if self.kind == "overlap_sq":
            return x
        if self.kind == "cap_indicator":
            return (x >= self.threshold).astype(float)
        return np.polynomial.polynomial.polyval(x, self.coefficients)


def _poly_sup_on_unit_interval(coeffs: np.ndarray) -> float:
    """max |p(x)| over x in [0, 1]: endpoints plus interior critical points."""
    p = np.polynomial.Polynomial(coeffs)
    candidates = [0.0, 1.0]
    if p.degree() >= 2:
        roots = p.deriv().roots()
        real = roots[np.abs(roots.imag) < 1e-12].real
        candidates.extend(r for r in real if 0.0 <= r <= 1.0)
    return float(np.max(np.abs(p(np.asarray(candidates)))))


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
    """Monte Carlo estimate of a GAP expectation, with its standard error and,
    for overlap_sq, the exact closed form <phi|rho|phi>."""

    estimate: float
    standard_error: float
    closed_form: float | None = None


def gap_expectation(rng: np.random.Generator, rho: DensityMatrix,
                    f: TestFunction, n_samples: int) -> GapExpectation:
    """Estimate the expectation of f under GAP(rho).

    For ``overlap_sq`` the closed form <phi|rho|phi> (the GAP covariance in
    direction phi) is attached for cross-checking.
    """
    n_samples = _integer("n_samples", n_samples, 1)
    vals = np.asarray(f(sample_gap(rng, rho, size=n_samples)), dtype=float)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    closed = None
    if f.kind == "overlap_sq":
        closed = float(np.real(f.phi.conj() @ rho.matrix @ f.phi))
    return GapExpectation(est, se, closed)


# Reference expectations use 10x the trial budget so that their Monte Carlo
# error is negligible against the acceptance tolerances.
REFERENCE_BUDGET_FACTOR = 10
REFERENCE_BUDGET_FLOOR = 2000


def gap_reference(reference, stream: RngStream, rho: DensityMatrix, f: TestFunction,
                  n_trials: int) -> float:
    """``reference`` when given, else GAP(rho)(f): the closed form when one
    exists, otherwise the Monte Carlo mean of max(10 n_trials, 2000) draws
    on substream ``n_trials`` of ``stream`` (past every trial's substream).
    The drivers call it after their trials, so that a trial count the engine
    rejects is rejected before the reference draws."""
    if reference is not None:
        return reference
    if f.kind == "overlap_sq":
        return float(np.real(f.phi.conj() @ rho.matrix @ f.phi))
    n_samples = max(REFERENCE_BUDGET_FACTOR * n_trials, REFERENCE_BUDGET_FLOOR)
    return gap_expectation(stream.substream(n_trials).generator(), rho, f,
                           n_samples).estimate


# ---------------------------------------------------------------------------
# Trial results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentOutcome:
    """The trials of one sweep point as (n_trials,) columns: each trial's
    discrepancy, pass flag and auxiliary value (NaN where the driver records
    none), with the reference and pass threshold they were judged against.
    Row i is trial ``first_trial + i``."""

    discrepancies: np.ndarray
    passed: np.ndarray
    auxiliary: np.ndarray
    reference: float
    threshold: float
    extra: dict = field(default_factory=dict)
    first_trial: int = 0

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
# thread, 2^12 ran theorem1 at d2 <= 256 about 22 % slower; 2^16 ran it 6 %
# faster but the thermal driver 16 % slower, with 4 % more peak memory.
CHUNK_ENTRIES = 2 ** 14


def _run_trials(stream: RngStream, n_trials: int, entries: int, shapes, evaluate):
    """Run ``n_trials`` independent trials in chunks of stacked arrays.

    Trial i draws from its own generator, bit-identical to
    ``stream.substream(i).generator()`` (``stream.trial_generators`` derives
    a chunk's generators at once), one complex Gaussian array per shape in
    ``shapes``, in order, with the same values ``ginibre(rng, *shape)``
    would return.  ``evaluate`` maps a chunk's draws, one (B, *shape) array
    per shape, to a pair of (B,) arrays (value, auxiliary).  A chunk holds
    CHUNK_ENTRIES // entries trials, where ``entries`` is the size of the
    largest per-trial array.  Every batched operation acts on each trial's
    slice alone, so the outputs do not depend on the chunk length.
    """
    if not 1 <= n_trials <= MAX_TRIALS:
        raise DomainError(f"need between 1 and 2**32 trials, got {n_trials}")
    size = max(1, CHUNK_ENTRIES // entries)
    out = np.empty((2, n_trials))
    for start in range(0, n_trials, size):
        stop = min(start + size, n_trials)
        draws = [np.empty((stop - start, 2) + s) for s in shapes]
        for b, rng in enumerate(stream.trial_generators(start, stop)):
            for d in draws:
                rng.standard_normal(out=d[b])
        gaussians = [_complex_gaussians(d) for d in draws]
        out[0, start:stop], out[1, start:stop] = evaluate(*gaussians)
    return out[0], out[1]


def _conditional_integrals(branches: np.ndarray, f: TestFunction) -> np.ndarray:
    """mu(f) for the conditional measure of each branch matrix (B, d2, d1),
    whose row j is <b_j|psi>: as ``integrate(conditional_measure(...), f)``,
    with rows of weight below WEIGHT_CUTOFF masked out instead of dropped."""
    w = np.sum(branches.real ** 2 + branches.imag ** 2, axis=-1)
    keep = w >= WEIGHT_CUTOFF
    mass = np.where(keep, w, 0.0)
    # NaN fails both comparisons and inf the second, as in DiscreteMeasure.
    if not (np.all(w >= 0.0) and np.all(np.abs(mass.sum(axis=-1) - 1.0) <= 1e-10)):
        raise DomainError("conditional weights must be finite, nonnegative and sum to 1")
    atoms = branches / np.sqrt(np.where(keep, w, 1.0))[..., None]
    return np.sum(mass * f(atoms), axis=-1)


def _amplitude_factor(m: np.ndarray) -> np.ndarray:
    """The (B or 1, k, d1) factor A = conj(R) of coefficient matrices m
    (B or 1, d1, d2), k = min(d1, d2), with M^dagger = V R a reduced QR.
    For a Haar basis the branch matrix is (R^dagger W)^T = W^T A with W a
    Haar k-system (see ``random_basis_measure``)."""
    return np.linalg.qr(np.swapaxes(m.conj(), -1, -2), mode="r").conj()


def _subspace_states(basis: np.ndarray, z: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """``uniform_subspace_state`` for Gaussian coordinates z (B, dim, 1), as
    (B, d1, d2) coefficient matrices."""
    psi = (basis @ z)[..., 0]
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    return psi.reshape(-1, d1, d2)


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
    d1 = rho1.dim
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
    orthonormal basis of the second factor (as ``random_basis_measure``) and
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
        return _conditional_integrals(_haar_columns(z) @ amplitudes, f), np.nan

    values, aux = _run_trials(stream, n_trials, d1 * d2, [(d2, k)], evaluate)
    reference = gap_reference(reference, stream, rho1, f, n_trials)
    return _collect(values, reference, epsilon * f.bound, aux)


# ---------------------------------------------------------------------------
# Random subspaces and canonical typicality
# ---------------------------------------------------------------------------

def random_subspace(rng: np.random.Generator, d1: int, d2: int, dim: int) -> np.ndarray:
    """Uniformly random ``dim``-dimensional subspace of C^{d1*d2}.

    Returns a (d1*d2, dim) array with orthonormal columns (the first ``dim``
    columns of a Haar unitary), to be read as the subspace basis.
    """
    total = d1 * d2
    if not 1 <= dim <= total:
        raise DomainError(f"subspace dimension must lie in [1, {total}], got {dim}")
    return random_ons(rng, total, dim).T


def reduced_of_subspace(basis: np.ndarray, d1: int, d2: int) -> DensityMatrix:
    """Partial trace over the second factor of the normalized projection onto
    the subspace spanned by the given orthonormal columns."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != d1 * d2:
        raise DimensionError(
            f"basis must be ({d1 * d2}, dim) with orthonormal columns, got {basis.shape}"
        )
    dim = basis.shape[1]
    blocks = basis.T.reshape(dim, d1, d2)
    rho1 = np.einsum("kil,kjl->ij", blocks, blocks.conj()) / dim
    return DensityMatrix(rho1)


def uniform_subspace_state(rng: np.random.Generator, basis: np.ndarray) -> np.ndarray:
    """Uniform point on the unit sphere of the subspace, embedded in the full
    space: Gaussian coordinates in the subspace basis, normalized."""
    dim = basis.shape[1]
    z = ginibre(rng, dim, 1)[:, 0]
    psi = basis @ z
    return psi / np.linalg.norm(psi)


# Constant in the concentration bound 4 exp(-dim * eta^2 / (18 pi^3)) for the
# trace distance between a random subspace state's reduced density matrix and
# the subspace average.
CONCENTRATION_DENOMINATOR = 18.0 * np.pi ** 3


def concentration_bound(dim: int, eta: np.ndarray) -> np.ndarray:
    """Upper bound on the probability that the trace distance exceeds
    eta + d1/sqrt(dim)."""
    return 4.0 * np.exp(-dim * np.asarray(eta, dtype=float) ** 2
                        / CONCENTRATION_DENOMINATOR)


def canonical_typicality_experiment(stream: RngStream, basis: np.ndarray,
                                    d1: int, d2: int, n_trials: int) -> ExperimentOutcome:
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
    target = reduced_of_subspace(basis, d1, d2)
    dim = basis.shape[1]
    offset = float(d1 / np.sqrt(dim))

    def evaluate(z):
        return _reduced_distances(_subspace_states(basis, z, d1, d2), target), np.nan

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


def shell_universality_experiment(stream: RngStream, basis: np.ndarray,
                                  d1: int, d2: int, f: TestFunction,
                                  epsilon: float, n_trials: int, *,
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
    target = reduced_of_subspace(basis, d1, d2)
    values, aux = _shell_trials(stream, basis, d1, d2, f, target, n_trials)
    reference = gap_reference(reference, stream, target, f, n_trials)
    return _collect(values, reference, epsilon, aux)


def _shell_trials(stream: RngStream, basis: np.ndarray, d1: int, d2: int,
                  f: TestFunction, target: DensityMatrix, n_trials: int):
    """Per trial: psi uniform on the subspace sphere, then mu(f) for the
    conditional measure of psi in a Haar-random basis and the auxiliary
    ||tr_2 |psi><psi| - target||_tr.  Trial i draws its two Ginibre arrays
    in the order ``uniform_subspace_state`` and ``random_basis_measure`` do."""
    def evaluate(z, w):
        m = _subspace_states(basis, z, d1, d2)
        return (_conditional_integrals(_haar_columns(w) @ _amplitude_factor(m), f),
                _reduced_distances(m, target))

    shapes = [(basis.shape[1], 1), (d2, min(d1, d2))]
    return _run_trials(stream, n_trials, d1 * d2, shapes, evaluate)


def shell_vs_target_experiment(stream: RngStream, basis: np.ndarray,
                               d1: int, d2: int, omega: DensityMatrix,
                               f: TestFunction, epsilon: float, n_trials: int, *,
                               reference: float | None = None) -> ExperimentOutcome:
    """Random subspace state and random basis versus GAP(Omega) for a fixed,
    strictly positive target Omega.

    Like :func:`shell_universality_experiment` but the reference is
    GAP(Omega)(f), the pass threshold is epsilon * ||f||_inf, and f may be
    any bounded measurable kind (including cap_indicator).  The outcome's
    ``extra['target_distance']`` reports ||tr_2 rho_R - Omega||_tr, which the
    caller is responsible for keeping small.
    """
    if omega.min_eigenvalue <= 0.0:
        raise DomainError("target density matrix must be strictly positive")
    reduced = reduced_of_subspace(basis, d1, d2)
    target_distance = trace_norm(reduced.matrix - omega.matrix)
    threshold = epsilon * f.bound
    values, aux = _shell_trials(stream, basis, d1, d2, f, omega, n_trials)
    reference = gap_reference(reference, stream, omega, f, n_trials)
    return _collect(values, reference, threshold, aux,
                    extra={"target_distance": target_distance})


# ---------------------------------------------------------------------------
# Microcanonical shells and the thermal scenario
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MicrocanonicalShell:
    """Energy shell of a non-interacting pair Hamiltonian.

    For system levels E1_i and bath levels E2_j, the shell collects all
    product eigenvectors with E <= E1_i + E2_j <= E + width (closed window,
    with a 1e-9 relative tolerance at the edges).  ``member_pairs`` is the
    (dim, 2) integer array of their (i, j), in row-major order.  In the
    product eigenbasis the shell average tr_2 rho_R is exactly diagonal with
    entries n_i / dim, where n_i counts the member pairs of system level i.
    """

    system_levels: np.ndarray
    bath_levels: np.ndarray
    energy: float
    width: float
    member_pairs: np.ndarray

    @property
    def d1(self) -> int:
        return self.system_levels.size

    @property
    def d2(self) -> int:
        return self.bath_levels.size

    @property
    def dim(self) -> int:
        return len(self.member_pairs)

    @property
    def counts(self) -> np.ndarray:
        return np.bincount(self.member_pairs[:, 0], minlength=self.d1)

    def basis(self) -> np.ndarray:
        """(d1*d2, dim) array of shell basis vectors (product eigenvectors)."""
        out = np.zeros((self.d1 * self.d2, self.dim), dtype=complex)
        i, j = self.member_pairs.T
        out[i * self.d2 + j, np.arange(self.dim)] = 1.0
        return out

    def reduced_density(self) -> DensityMatrix:
        """tr_2 rho_R = diag(n_i / dim) in the system eigenbasis, exact."""
        return DensityMatrix(np.diag(self.counts / self.dim).astype(complex))


def microcanonical_shell(system_levels, bath_levels, energy: float,
                         width: float) -> MicrocanonicalShell:
    """Enumerate the energy shell [energy, energy + width] of a separable
    two-component Hamiltonian given both eigenvalue lists."""
    system_levels = np.asarray(system_levels, dtype=float)
    bath_levels = np.asarray(bath_levels, dtype=float)
    for name, value in (("system_levels", system_levels), ("bath_levels", bath_levels),
                        ("energy", energy)):
        if not np.all(np.isfinite(value)):
            raise DomainError(f"{name} must be finite")
    if not 0 < width < np.inf:  # NaN fails too
        raise DomainError(f"window width must be positive and finite, got {width}")
    tol = 1e-9 * max(1.0, abs(energy) + abs(width))
    total = system_levels[:, None] + bath_levels[None, :]
    pairs = np.argwhere((energy - tol <= total) & (total <= energy + width + tol))
    if not len(pairs):
        raise EmptyShellError(
            f"no eigenvalue pair falls in [{energy}, {energy + width}]"
        )
    return MicrocanonicalShell(system_levels, bath_levels, float(energy),
                               float(width), pairs)


@dataclass(frozen=True)
class BetaFit:
    beta: float
    residual: float


def fit_beta(system_levels, rho_target: DensityMatrix) -> BetaFit:
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
    energies = np.asarray(system_levels, dtype=float)
    if energies.size != t.size:
        raise DimensionError("one level per target entry is required")

    def residual(beta: float) -> float:
        # the diagonal of canonical_density(energies, beta), without the matrix
        logw = -beta * energies
        w = np.exp(logw - logw.max())
        return float(np.sum(np.abs(w / w.sum() - t)))

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
    beta = (a + b) / 2.0
    return BetaFit(beta=float(beta), residual=residual(beta))


def thermal_experiment(stream: RngStream, shell: MicrocanonicalShell,
                       f: TestFunction, epsilon: float,
                       n_trials: int) -> ExperimentOutcome:
    """The weak-coupling thermal scenario on a microcanonical shell.

    Fits the inverse temperature beta whose canonical state rho_beta best
    matches the shell average tr_2 rho_R, then runs
    :func:`shell_vs_target_experiment` on the shell against rho_beta.
    ``extra`` adds the fit, ||tr_2 rho_R - rho_beta||_tr (the target
    distance again), the shell dimension and the shell's member count per
    system level.
    """
    fit = fit_beta(shell.system_levels, shell.reduced_density())
    omega = canonical_density(shell.system_levels, fit.beta)
    out = shell_vs_target_experiment(stream, shell.basis(), shell.d1, shell.d2,
                                     omega, f, epsilon, n_trials)
    return replace(out, extra={
        **out.extra, "beta": fit.beta, "fit_residual": fit.residual,
        "thermal_target_distance": out.extra["target_distance"],
        "shell_dim": shell.dim, "counts": shell.counts.tolist(),
    })


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
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")

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
    block, then imaginary), the above-diagonal normals, the Gamma draws.

    The 2k x k stack is orthonormalized by ``_gram_schmidt_twice``, which
    is the phase-fixed QR of ``_haar_columns`` in exact arithmetic and
    agrees with it to rounding (the tests compare the two on the same
    stacks); it avoids one LAPACK call per sample.
    """
    top = _complex_gaussians(rng.standard_normal((n_samples, 2, k, k)))
    rows, cols = np.triu_indices(k, 1)
    t = np.zeros_like(top)
    t[:, rows, cols] = _complex_gaussians(rng.standard_normal((n_samples, 2, rows.size)))
    t[:, range(k), range(k)] = np.sqrt(rng.standard_gamma(n - k - np.arange(k), (n_samples, k)))
    return np.sqrt(n) * _gram_schmidt_twice(np.concatenate([top, t], axis=1))[:, :k, :]


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

    ks = np.array([
        [ks_vs_exponential(np.abs(blocks[:, i, j]) ** 2) for j in range(k)]
        for i in range(k)
    ])
    ks_entry = float(ks[0, 0])
    ks_exact = ks_statistic(np.abs(blocks[:, 0, 0]) ** 2,
                            lambda x: 1.0 - (1.0 - np.clip(x, 0.0, n) / n) ** (n - 1))
    gaps = {g.kind: float(abs(np.mean(g(blocks[:, :, 0])) - np.mean(g(gauss))))
            for g in probes}
    distance = submatrix_l1_distance(n) if k == 1 else ks_entry
    return ExperimentOutcome(
        np.array([distance]), np.array([ks_exact < epsilon]), np.array([ks_entry]),
        0.0, float(epsilon),
        {"ks_entry": ks_entry, "ks_exact": ks_exact, "ks_entry_max": float(ks.max()),
         "expectation_gaps": gaps},
    )


# ---------------------------------------------------------------------------
# Continuity of GAP in the density matrix
# ---------------------------------------------------------------------------

def random_floor_density(rng: np.random.Generator, d: int, gamma: float) -> DensityMatrix:
    """Random density matrix with all eigenvalues >= gamma: a uniform simplex
    spectrum compressed onto the floor set and a Haar-random eigenbasis."""
    if not 0.0 < gamma < 1.0 / d:
        raise DomainError(f"need 0 < gamma < 1/d, got gamma={gamma}, d={d}")
    spectrum = gamma + (1.0 - d * gamma) * rng.dirichlet(np.ones(d))
    return DensityMatrix.from_spectrum(spectrum, haar_unitary(rng, d))


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


# ---------------------------------------------------------------------------
# GAP sampler self-test
# ---------------------------------------------------------------------------

def gap_selftest_experiment(stream: RngStream, d: int, gamma: float,
                            epsilon: float, n_trials: int,
                            n_samples: int) -> ExperimentOutcome:
    """Self-test of the GAP sampler and sphere density.

    Trial i draws from ``stream.substream(i).generator()``: a random density
    matrix rho with spectrum floor min(gamma, 0.5/d), ``n_samples`` GAP(rho)
    draws and min(n_samples, 20 000) uniform sphere points.  The discrepancy
    is the largest entry of |covariance estimate - rho|, passing below
    epsilon; the auxiliary value is |mean sphere density - 1|.
    """
    n_trials = _integer("n_trials", n_trials, 1)
    n_samples = _integer("n_samples", n_samples, 1)
    cov_err = np.empty(n_trials)
    norm_err = np.empty(n_trials)
    for i in range(n_trials):
        rng = stream.substream(i).generator()
        rho = random_floor_density(rng, d, min(gamma, 0.5 / d))
        draws = sample_gap(rng, rho, size=n_samples)
        cov_err[i] = np.max(np.abs(covariance_estimate(draws) - rho.matrix))
        sphere = uniform_sphere(rng, d, size=min(n_samples, 20_000))
        norm_err[i] = abs(np.mean(gap_sphere_density(rho, sphere)) - 1.0)
    return _collect(cov_err, 0.0, epsilon, norm_err)
