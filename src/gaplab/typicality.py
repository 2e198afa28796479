"""Monte Carlo experiment drivers.

Each driver verifies, at desk scale, one universality statement about the
conditional wave function: its distribution approaches GAP(rho) when the
second factor (the environment) is large, whether the randomness sits in
the entangled state, in the measured basis, or in both plus the choice of a
high-dimensional subspace.  The asymptotic statements involve existence
constants with no usable closed form, so the drivers sweep dimensions and
check monotone convergence plus the explicit concentration bound that is
available for subspace states.

Every driver takes an :class:`~gaplab.randomness.RngStream` and derives one
substream per trial.  The Monte Carlo drivers run their trials through one
batched engine: it draws each trial's Gaussians from that trial's substream,
in the order the per-trial public functions (``random_purification``,
``random_basis_measure``, ``uniform_subspace_state``) draw them, and does the
linear algebra once per chunk of trials on stacked arrays.  Results are
bit-reproducible and do not depend on the chunk length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .conditional import WEIGHT_CUTOFF, _check_orthonormal_rows
from .errors import DimensionError, DomainError, EmptyShellError
from .gap import gap_sphere_density, sample_gap
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
    RngStream,
    _haar_columns,
    ginibre,
    haar_unitary,
    random_ons,
    uniform_sphere,
)
from .stats import ks_vs_exponential

__all__ = [
    "TestFunction",
    "overlap_sq",
    "real_part",
    "cap_indicator",
    "polynomial",
    "GapExpectation",
    "gap_expectation",
    "TrialRecord",
    "ExperimentOutcome",
    "random_purification_experiment",
    "random_basis_experiment",
    "random_subspace",
    "reduced_of_subspace",
    "uniform_subspace_state",
    "concentration_bound",
    "CanonicalTypicalityOutcome",
    "canonical_typicality_experiment",
    "shell_universality_experiment",
    "shell_vs_target_experiment",
    "MicrocanonicalShell",
    "microcanonical_shell",
    "BetaFit",
    "fit_beta",
    "submatrix_density",
    "submatrix_density_k1",
    "submatrix_l1_distance",
    "SubmatrixMetrics",
    "submatrix_convergence_experiment",
    "ContinuityProbeOutcome",
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
        if n == 0:
            raise DomainError("phi must be a nonzero vector")
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
    if n_samples < 1:
        raise DomainError("need at least one sample")
    vals = np.asarray(f(sample_gap(rng, rho, size=n_samples)), dtype=float)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    closed = None
    if f.kind == "overlap_sq":
        closed = float(np.real(f.phi.conj() @ rho.matrix @ f.phi))
    return GapExpectation(est, se, closed)


def gap_reference(stream: RngStream, rho: DensityMatrix, f: TestFunction,
                  n_samples: int) -> float:
    """Reference value of GAP(rho)(f): the closed form when one exists,
    otherwise a Monte Carlo mean with its own dedicated substream."""
    if f.kind == "overlap_sq":
        return float(np.real(f.phi.conj() @ rho.matrix @ f.phi))
    return gap_expectation(stream.generator(), rho, f, n_samples).estimate


# ---------------------------------------------------------------------------
# Trial bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    discrepancy: float
    passed: bool
    auxiliary: float = float("nan")


@dataclass(frozen=True)
class ExperimentOutcome:
    records: tuple[TrialRecord, ...]
    pass_fraction: float
    reference: float
    threshold: float
    extra: dict = field(default_factory=dict)

    @property
    def discrepancies(self) -> np.ndarray:
        return np.array([r.discrepancy for r in self.records])

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.discrepancies, q))

    @property
    def median_discrepancy(self) -> float:
        return self.quantile(0.5)


# ---------------------------------------------------------------------------
# Batched trial engine
# ---------------------------------------------------------------------------

# Budget, in complex entries, for the largest per-trial array (the d1 x d2
# state or branch matrix) stacked over one chunk of trials: each stacked
# array stays at a few hundred kilobytes, so a chunk adds little to a run's
# peak memory, and larger chunks gain little speed once the per-trial
# generator is the main cost.
CHUNK_ENTRIES = 2 ** 14


def _run_trials(stream: RngStream, n_trials: int, entries: int, shapes, evaluate):
    """Run ``n_trials`` independent trials in chunks of stacked arrays.

    Trial i draws from its own generator ``stream.substream(i).generator()``
    one complex Gaussian array per shape in ``shapes``, in order, with the
    same values ``ginibre(rng, *shape)`` would return.  ``evaluate`` maps a
    chunk's draws, one (B, *shape) array per shape, to a pair of (B,) arrays
    (value, auxiliary).  A chunk holds CHUNK_ENTRIES // entries trials, where
    ``entries`` is the size of the largest per-trial array.  Every batched
    operation acts on each trial's slice alone, so the outputs do not depend
    on the chunk length.
    """
    if n_trials < 1:
        raise DomainError("need at least one trial")
    size = max(1, CHUNK_ENTRIES // entries)
    out = np.empty((2, n_trials))
    for start in range(0, n_trials, size):
        stop = min(start + size, n_trials)
        draws = [np.empty((stop - start, 2) + s) for s in shapes]
        for b, i in enumerate(range(start, stop)):
            rng = stream.substream(i).generator()
            for d in draws:
                rng.standard_normal(out=d[b])
        gaussians = [(d[:, 0] + 1j * d[:, 1]) / np.sqrt(2.0) for d in draws]
        out[0, start:stop], out[1, start:stop] = evaluate(*gaussians)
    return out[0], out[1]


def _check_states(amplitudes: np.ndarray) -> None:
    """The BipartiteState check on a stack of states (B, ...): each must be
    finite and of unit norm within NORM_ATOL (NaN fails the comparison)."""
    norms = np.linalg.norm(amplitudes.reshape(len(amplitudes), -1), axis=-1)
    if not np.all(np.abs(norms - 1.0) <= NORM_ATOL):
        raise DomainError("bipartite state must be finite and normalized within 1e-10")


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


def _random_basis_branches(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Branch matrices (B, d2, d1) of ``random_basis_measure`` for coefficient
    matrices m (B or 1, d1, d2) and Ginibre draws z (B, d2, k): with
    M^dagger = V R and W^T the phase-fixed Q factor of z, the rows of
    (R^dagger W)^T = W^T conj(R)."""
    r = np.linalg.qr(np.swapaxes(m.conj(), -1, -2), mode="r")
    wt = _haar_columns(z)
    _check_orthonormal_rows(np.swapaxes(wt, -1, -2))
    return wt @ r.conj()


def _subspace_states(basis: np.ndarray, z: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """``uniform_subspace_state`` for Gaussian coordinates z (B, dim, 1), as
    checked (B, d1, d2) coefficient matrices."""
    psi = (basis @ z)[..., 0]
    psi = psi / np.linalg.norm(psi, axis=-1, keepdims=True)
    _check_states(psi)
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


def _records(values: np.ndarray, threshold: float, auxiliary=None) -> tuple:
    if auxiliary is None:
        return tuple(TrialRecord(i, float(v), bool(v < threshold))
                     for i, v in enumerate(values))
    return tuple(TrialRecord(i, float(v), bool(v < threshold), float(a))
                 for i, (v, a) in enumerate(zip(values, auxiliary)))


def _collect(values, reference, threshold, auxiliary=None,
             extra=None) -> ExperimentOutcome:
    """Outcome of trials with values mu(f): discrepancies |mu(f) - reference|
    pass below ``threshold``."""
    records = _records(np.abs(values - reference), threshold, auxiliary)
    frac = float(np.mean([r.passed for r in records]))
    return ExperimentOutcome(records, frac, float(reference), float(threshold),
                             extra or {})


# Reference expectations use 10x the trial budget so that their Monte Carlo
# error is negligible against the acceptance tolerances.
REFERENCE_BUDGET_FACTOR = 10
REFERENCE_BUDGET_FLOOR = 2000


def _reference_budget(n_trials: int) -> int:
    return max(REFERENCE_BUDGET_FACTOR * n_trials, REFERENCE_BUDGET_FLOOR)


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
    if reference is None:
        reference = gap_reference(stream.substream(n_trials), rho1, f,
                                  _reference_budget(n_trials))
    threshold = epsilon * f.bound
    # psi = (v sqrt(p)) Phi with Phi the (d1, d2) random system, so the
    # branch rows <j|psi> are the rows of Phi^T (v sqrt(p))^T.
    amplitudes_t = (rho1.eigenbasis() * np.sqrt(rho1.spectrum())).T

    def evaluate(z):
        branches = _haar_columns(z) @ amplitudes_t
        _check_states(branches)
        return _conditional_integrals(branches, f), np.nan

    values, _ = _run_trials(stream, n_trials, d1 * d2, [(d2, d1)], evaluate)
    return _collect(values, reference, threshold)


def random_basis_experiment(stream: RngStream, psi: BipartiteState,
                            f: TestFunction, epsilon: float, n_trials: int, *,
                            reference: float | None = None) -> ExperimentOutcome:
    """Fixed state, uniformly random environment basis.

    Per trial: draw the conditional measure mu of psi in a Haar-random
    orthonormal basis of the second factor (as ``random_basis_measure``) and
    record |mu(f) - GAP(rho1)(f)| with rho1 the reduced density matrix of psi.
    """
    rho1 = reduced_density_matrix(psi)
    if reference is None:
        reference = gap_reference(stream.substream(n_trials), rho1, f,
                                  _reference_budget(n_trials))
    threshold = epsilon * f.bound
    m = psi.as_matrix()[None]

    def evaluate(z):
        return _conditional_integrals(_random_basis_branches(m, z), f), np.nan

    k = min(psi.d1, psi.d2)
    values, _ = _run_trials(stream, n_trials, psi.dim, [(psi.d2, k)], evaluate)
    return _collect(values, reference, threshold)


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


@dataclass(frozen=True)
class CanonicalTypicalityOutcome:
    """Distances ||rho1(psi) - tr_2 rho_R||_tr for uniform subspace states,
    with the explicit tail bound evaluated on a grid of eta values."""

    records: tuple[TrialRecord, ...]
    distances: np.ndarray
    eta_grid: np.ndarray
    exceedance: np.ndarray       # empirical fraction above eta + d1/sqrt(dim)
    bound: np.ndarray            # 4 exp(-dim eta^2 / 18 pi^3)
    offset: float                # d1 / sqrt(dim)
    subspace_dim: int
    target: DensityMatrix

    @property
    def mean_distance(self) -> float:
        return float(self.distances.mean())

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.distances, q))


def canonical_typicality_experiment(stream: RngStream, basis: np.ndarray,
                                    d1: int, d2: int, n_trials: int, *,
                                    eta_grid=None,
                                    pass_threshold: float | None = None
                                    ) -> CanonicalTypicalityOutcome:
    """Concentration of the reduced density matrix over a subspace.

    Per trial: draw psi uniformly on the subspace sphere and record the
    trace distance between its reduced density matrix and the subspace
    average tr_2 rho_R.  The outcome reports empirical exceedance fractions
    of the thresholds eta + d1/sqrt(dim) against the explicit bound
    4 exp(-dim eta^2 / 18 pi^3).

    The per-record pass flag uses ``pass_threshold`` (default twice
    d1/sqrt(dim), a reporting heuristic; the scientific check is the bound).
    """
    target = reduced_of_subspace(basis, d1, d2)
    dim = basis.shape[1]
    offset = d1 / np.sqrt(dim)
    threshold = 2.0 * offset if pass_threshold is None else pass_threshold

    def evaluate(z):
        return _reduced_distances(_subspace_states(basis, z, d1, d2), target), np.nan

    distances, _ = _run_trials(stream, n_trials, d1 * d2, [(dim, 1)], evaluate)
    records = _records(distances, threshold)
    eta_grid = (np.linspace(0.05, 2.0, 10) if eta_grid is None
                else np.asarray(eta_grid, dtype=float))
    exceed = np.array([(distances >= eta + offset).mean() for eta in eta_grid])
    return CanonicalTypicalityOutcome(
        records=records, distances=distances, eta_grid=eta_grid,
        exceedance=exceed, bound=concentration_bound(dim, eta_grid),
        offset=float(offset), subspace_dim=dim, target=target,
    )


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
    if reference is None:
        reference = gap_reference(stream.substream(n_trials), target, f,
                                  _reference_budget(n_trials))

    values, aux = _shell_trials(stream, basis, d1, d2, f, target, n_trials)
    return _collect(values, reference, epsilon, aux)


def _shell_trials(stream: RngStream, basis: np.ndarray, d1: int, d2: int,
                  f: TestFunction, target: DensityMatrix, n_trials: int):
    """Per trial: psi uniform on the subspace sphere, then mu(f) for the
    conditional measure of psi in a Haar-random basis and the auxiliary
    ||tr_2 |psi><psi| - target||_tr.  Trial i draws its two Ginibre arrays
    in the order ``uniform_subspace_state`` and ``random_basis_measure`` do."""
    def evaluate(z, w):
        m = _subspace_states(basis, z, d1, d2)
        return (_conditional_integrals(_random_basis_branches(m, w), f),
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
    if reference is None:
        reference = gap_reference(stream.substream(n_trials), omega, f,
                                  _reference_budget(n_trials))
    threshold = epsilon * f.bound

    values, aux = _shell_trials(stream, basis, d1, d2, f, omega, n_trials)
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
    with a 1e-9 relative tolerance at the edges).  In the product eigenbasis
    the shell average tr_2 rho_R is exactly diagonal with entries n_i / dim,
    where n_i counts the member pairs of system level i.
    """

    system_levels: np.ndarray
    bath_levels: np.ndarray
    energy: float
    width: float
    member_pairs: tuple[tuple[int, int], ...]

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
        n = np.zeros(self.d1, dtype=int)
        for i, _ in self.member_pairs:
            n[i] += 1
        return n

    def basis(self) -> np.ndarray:
        """(d1*d2, dim) array of shell basis vectors (product eigenvectors)."""
        out = np.zeros((self.d1 * self.d2, self.dim), dtype=complex)
        for col, (i, j) in enumerate(self.member_pairs):
            out[i * self.d2 + j, col] = 1.0
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
    if width <= 0:
        raise DomainError(f"window width must be positive, got {width}")
    tol = 1e-9 * max(1.0, abs(energy) + abs(width))
    pairs = [
        (i, j)
        for i in range(system_levels.size)
        for j in range(bath_levels.size)
        if energy - tol <= system_levels[i] + bath_levels[j] <= energy + width + tol
    ]
    if not pairs:
        raise EmptyShellError(
            f"no eigenvalue pair falls in [{energy}, {energy + width}]"
        )
    return MicrocanonicalShell(system_levels, bath_levels, float(energy),
                               float(width), tuple(pairs))


@dataclass(frozen=True)
class BetaFit:
    beta: float
    residual: float


def fit_beta(system_levels, rho_target: DensityMatrix, *,
             beta_max: float = 50.0, tol: float = 1e-10) -> BetaFit:
    """Inverse temperature whose thermal state best matches a diagonal target.

    Minimizes ||rho_beta - rho_target||_tr over beta in [-beta_max, beta_max]
    by golden-section search.  The target must be diagonal in the system
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
        p = np.real(np.diagonal(canonical_density(energies, beta).matrix))
        return float(np.sum(np.abs(p - t)))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = -beta_max, beta_max
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = residual(c), residual(d)
    while b - a > tol:
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


# ---------------------------------------------------------------------------
# Truncated Haar submatrices
# ---------------------------------------------------------------------------

def submatrix_density(k: int, n: int, x: np.ndarray) -> float:
    """Unnormalized density of the sqrt(n)-scaled top-left k x k block of a
    Haar unitary of size n, valid for n >= 2k:

        1_{||X||_op < sqrt(n)} * det(I - X X* / n)^(n - 2k).
    """
    if n < 2 * k:
        raise DomainError(f"density formula requires n >= 2k, got n={n}, k={k}")
    x = np.asarray(x, dtype=complex)
    if x.shape != (k, k):
        raise DimensionError(f"X must be ({k}, {k}), got {x.shape}")
    opnorm = np.linalg.norm(x, ord=2)
    if opnorm >= np.sqrt(n):
        return 0.0
    eig = np.linalg.eigvalsh(np.eye(k) - x @ x.conj().T / n)
    return float(np.exp((n - 2 * k) * np.sum(np.log(eig))))


def submatrix_density_k1(n: int, x: complex) -> float:
    """Exact normalized density (on C) of sqrt(n) times a single Haar entry:
    ((n-1)/(pi n)) (1 - |x|^2/n)^(n-2) for |x| < sqrt(n)."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    r2 = abs(x) ** 2
    if r2 >= n:
        return 0.0
    return float((n - 1) / (np.pi * n) * (1.0 - r2 / n) ** (n - 2))


def _gaussian_density_c1(r: float) -> float:
    return float(np.exp(-r * r) / np.pi)


def submatrix_l1_distance(n: int) -> float:
    """L1 distance (by radial quadrature over C) between the exact scaled
    single-entry density and its unit complex Gaussian limit."""
    root_n = np.sqrt(n)
    inner = quad(
        lambda r: 2 * np.pi * r * abs(submatrix_density_k1(n, r) - _gaussian_density_c1(r)),
        0.0, root_n, limit=200,
    )[0]
    tail = quad(lambda r: 2 * np.pi * r * _gaussian_density_c1(r), root_n, np.inf)[0]
    return float(inner + tail)


@dataclass(frozen=True)
class SubmatrixMetrics:
    """Convergence diagnostics of scaled Haar blocks at one matrix size."""

    n: int
    ks_entry: float                  # KS of |X_11|^2 against Exp(1)
    ks_entry_max: float              # max of the same KS over all k^2 entries
    l1_distance: float | None        # quadrature L1 to the Gaussian (k=1 only)
    expectation_gaps: dict


def submatrix_convergence_experiment(stream: RngStream, k: int, n_values,
                                     n_samples: int) -> list[SubmatrixMetrics]:
    """Convergence of sqrt(n)-scaled Haar blocks to i.i.d. complex Gaussians.

    For each n: samples the scaled top-left k x k block, reports the KS
    distance of each entry's squared modulus to Exp(1), the quadrature L1
    distance of the k=1 density to its Gaussian limit, and the gaps
    |E g(scaled first column) - E g(Gaussian column)| for the standard test
    function kinds g (probing the first coordinate direction).
    """
    metrics = []
    probes = {
        "overlap_sq": overlap_sq(np.eye(k)[0]),
        "real_part": real_part(np.eye(k)[0]),
        "cap_indicator": cap_indicator(np.eye(k)[0], 0.5),
        "polynomial": polynomial(np.eye(k)[0], [0.0, 0.0, 1.0]),
    }
    for point, n in enumerate(n_values):
        if n < 2 * k:
            raise DomainError(f"need n >= 2k for every n, got n={n}, k={k}")
        rng = stream.substream(point).generator()
        blocks = np.empty((n_samples, k, k), dtype=complex)
        for s in range(n_samples):
            # rows of random_ons are the first k columns of a Haar unitary,
            # so transposing restores matrix orientation X_ij = sqrt(n) U_ij.
            blocks[s] = np.sqrt(n) * random_ons(rng, n, k)[:, :k].T
        gauss = ginibre(rng, n_samples, k)

        ks = np.array([
            [ks_vs_exponential(np.abs(blocks[:, i, j]) ** 2) for j in range(k)]
            for i in range(k)
        ])
        gaps = {}
        first_col = blocks[:, :, 0]
        for name, g in probes.items():
            gaps[name] = float(abs(np.mean(g(first_col)) - np.mean(g(gauss))))
        metrics.append(SubmatrixMetrics(
            n=int(n),
            ks_entry=float(ks[0, 0]),
            ks_entry_max=float(ks.max()),
            l1_distance=submatrix_l1_distance(n) if k == 1 else None,
            expectation_gaps=gaps,
        ))
    return metrics


# ---------------------------------------------------------------------------
# Continuity of GAP in the density matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuityProbeOutcome:
    """Per-pair records relating trace distance to GAP density distance."""

    trace_distances: np.ndarray
    density_gaps: np.ndarray        # sup over probe points of |density difference|
    expectation_gaps: np.ndarray    # exact |GAP(rho)(f) - GAP(omega)(f)|, f = overlap_sq(e1)
    gamma: float


def random_floor_density(rng: np.random.Generator, d: int, gamma: float) -> DensityMatrix:
    """Random density matrix with all eigenvalues >= gamma: a uniform simplex
    spectrum compressed onto the floor set and a Haar-random eigenbasis."""
    if not 0.0 < gamma < 1.0 / d:
        raise DomainError(f"need 0 < gamma < 1/d, got gamma={gamma}, d={d}")
    spectrum = gamma + (1.0 - d * gamma) * rng.dirichlet(np.ones(d))
    return DensityMatrix.from_spectrum(spectrum, haar_unitary(rng, d))


def continuity_probe(stream: RngStream, d: int, gamma: float, n_pairs: int, *,
                     n_probe: int = 10_000) -> ContinuityProbeOutcome:
    """Modulus-of-continuity scatter for rho -> GAP(rho) on the set of
    density matrices with spectrum >= gamma.

    Pairs are built by convex interpolation between two independent draws,
    so their trace distances span a range; for each pair the sup of the
    sphere-density difference over a shared set of uniform probe points is
    recorded, together with the exact expectation gap for f = overlap_sq(e1).
    Smaller gamma exhibits the blow-up of the density modulus.
    """
    if n_pairs < 1:
        raise DomainError("need at least one pair")
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
    return ContinuityProbeOutcome(trace_d, dens_gap, expe_gap, float(gamma))
