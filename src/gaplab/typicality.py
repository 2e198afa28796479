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
Carlo drivers run their trials through one batched engine: the trials draw
their Gaussians in sequence from the point's one generator,
``stream.generator()``, in the order the per-trial routes in
``tests/_oracles.py`` draw them, and the engine does the linear algebra once
per chunk of trials on stacked arrays, on the calling thread: it draws
each chunk into one buffer just before reading it as complex views,
unscaled.  Results are bit-reproducible and do not depend on the chunk
length.

The universality drivers (theorems 1-4, thermal) form every branch matrix as
W^T A, with W a trial's Haar k-system and A = (V sqrt(P))^T read off a
reduced state rho1 (``_amplitude_factor``): in a Haar basis the law depends
on psi only through rho1, which is given for theorems 1 and 2 and is each
trial's, formed once per chunk, for the subspace drivers.  W^T = Z R^-1,
the phase-fixed Q of the trial's Gaussian draw Z, is folded into
Z (R^-1 A) (``randomness._haar_frame_factor``), laid out as a (d1, d2)
matrix whose column j is <b_j|psi>, and each branch's term
w_j f(b_j / sqrt(w_j)) is taken straight from <phi|b_j> and w_j
(``TestFunction.weighted``), without normalizing the atoms, so no branch
is dropped, however light.  Theorems 3, 4 and thermal run one shell driver
against GAP(Omega), Omega = tr_2 rho_R for theorem 3.  A subspace
H_R is a :class:`Subspace` (dense orthonormal basis) or a
:class:`CoordinateSubspace` (spanned by product vectors |i>|j>, such as a
microcanonical shell, with states on the bath columns its pairs use), and
each forms its own states.  The engine checks each invariant once, where it
is strictest: unit total conditional weight (which a non-orthonormal frame
or NaN fails) and unit-trace Hermitian reduced matrices.  The per-trial
routes keep every check and are the tests' oracles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BasisError, DimensionError, DomainError, EmptyShellError
from .gap import gap_cap_probability, gap_polynomial_mean, gap_sphere_density
from .hilbert import (
    HERMITIAN_ATOL,
    NORM_ATOL,
    DensityMatrix,
    _levels,
    canonical_density,
    trace_norm,
)
from .randomness import (
    RngStream,
    _gram_schmidt_twice,
    _float_array,
    _haar_frame_factor,
    _integer,
    _real,
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
    "gap_reference",
    "ExperimentOutcome",
    "random_purification_experiment",
    "Subspace",
    "CoordinateSubspace",
    "random_subspace",
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

    ``threshold`` belongs to ``cap_indicator`` and ``coefficients`` to
    ``polynomial``; any other kind rejects them.  ``bound`` is the sup norm
    over the unit sphere, and must be positive.  ``weighted`` evaluates
    w f(b / sqrt(w)) from the overlap <phi|b> and the weight w = ||b||^2.
    """

    kind: str
    phi: np.ndarray
    threshold: float | None = None
    coefficients: np.ndarray | None = None
    bound: float = field(init=False)

    def __post_init__(self):
        phi = _float_array(self.phi, complex)
        n = np.linalg.norm(phi) if phi is not None and phi.ndim == 1 else np.nan
        if not 0 < n < np.inf:  # NaN fails too
            raise DomainError(f"phi must be a finite nonzero 1-D vector, got {self.phi!r}")
        phi = phi / n
        phi.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        bound = 1.0
        if self.kind == "cap_indicator":
            t = _real(self.threshold)
            if t is None or not 0.0 <= t <= 1.0:  # NaN fails too
                raise DomainError(f"cap_indicator needs a real threshold in [0, 1], "
                                  f"got {self.threshold!r}")
        elif self.kind == "polynomial":
            if self.coefficients is None:
                raise DomainError("polynomial needs coefficients")
            coeffs = _float_array(self.coefficients, float)
            if coeffs is None or coeffs.ndim != 1:
                raise DomainError(f"polynomial coefficients must be a 1-D list of real "
                                  f"numbers, got {self.coefficients!r}")
            if coeffs.size == 0:
                raise DomainError("polynomial needs at least one coefficient")
            # sum |c_i| bounds p and Horner's steps on [0, 1]; 1e8 squares sum to a float.
            if not sum(map(abs, coeffs.tolist())) <= 1e150:  # NaN fails too
                raise DomainError("polynomial coefficients must be finite, "
                                  "with sum of |c_i| at most 1e150")
            coeffs = coeffs.copy()  # freeze a copy: the caller's array stays writable
            coeffs.setflags(write=False)
            object.__setattr__(self, "coefficients", coeffs)
            bound = _poly_sup_on_unit_interval(coeffs)
            # Pass thresholds scale with the bound: at 0 no trial could pass.
            if bound == 0.0:
                raise DomainError("polynomial coefficients must not all vanish: "
                                  "sup of |p| on [0, 1] is 0")
        elif self.kind not in ("overlap_sq", "real_part"):
            raise DomainError(f"unknown test function kind {self.kind!r}")
        for name, kind in (("threshold", "cap_indicator"), ("coefficients", "polynomial")):
            if getattr(self, name) is not None and self.kind != kind:
                raise DomainError(f"{self.kind} takes no {name}, got {getattr(self, name)!r}")
        object.__setattr__(self, "bound", bound)

    @property
    def is_continuous(self) -> bool:
        return self.kind != "cap_indicator"

    @property
    def is_affine(self) -> bool:
        """Whether f is affine in u = |<phi|psi>|^2 (a cap of threshold at most
        1e-12 is 1 everywhere), so that mu(f) = GAP(rho1)(f) exactly."""
        if self.kind == "polynomial":
            return not np.any(self.coefficients[2:])
        if self.kind == "cap_indicator":
            return self.threshold <= 1e-12
        return self.kind == "overlap_sq"

    def pass_threshold(self, epsilon: float) -> float:
        """epsilon * ||f||_inf, the pass threshold of the experiments judged
        relative to the bound, for a positive finite epsilon.  A product that
        underflows to 0 (a polynomial of bound 1e-323, say) would fail every
        trial, so it is rejected."""
        threshold = _tolerance("epsilon", epsilon) * self.bound
        if not threshold > 0.0:
            raise DomainError(f"pass threshold epsilon * sup|f| = {epsilon!r} * "
                              f"{self.bound!r} underflows to 0: no trial could pass")
        return threshold

    def weighted(self, amp: np.ndarray, w) -> np.ndarray:
        """w f(b / sqrt(w)) from the overlaps amp = <phi|b> of vectors b of
        squared norm w, elementwise, without normalizing b; 0 where w = 0
        and amp = 0, a zero branch."""
        if self.kind == "real_part":
            return np.sqrt(w) * amp.real
        x = amp.real ** 2 + amp.imag ** 2
        if self.kind == "overlap_sq":
            return x
        if self.kind == "cap_indicator":
            # |<phi|psi>|^2 of a psi equal to phi up to a phase rounds to
            # 1 - 1e-16 or so, which a threshold of 1 must still admit.
            return np.where(x >= (self.threshold - 1e-12) * w, w, 0.0)
        # Horner's rule in place, as polyval does it, at x = |amp|^2 / w.
        np.divide(x, w, out=x, where=w > 0.0)
        c = self.coefficients.tolist()
        value = np.full_like(x, c[-1])
        for c_i in reversed(c[:-1]):
            value *= x
            value += c_i
        value *= w
        return value


def _tolerance(name: str, value) -> float:
    """``value`` as a float if it is a positive, finite real number other
    than a bool, else a DomainError naming ``name``."""
    tolerance = _real(value)
    if tolerance is None or not 0.0 < tolerance < math.inf:  # NaN fails too
        raise DomainError(f"{name} must be a positive finite real number, got {value!r}")
    return tolerance


def _poly_sup_on_unit_interval(coeffs: np.ndarray) -> float:
    """max |p(x)| over x in [0, 1]: at the endpoints and at the real roots of
    p' inside, with p trimmed of leading terms of at most 1e-300 max |c_i|,
    which would overflow ``polyroots``, and evaluated by ``np.polyval``."""
    poly = np.polynomial.polynomial
    c = poly.polytrim(coeffs, 1e-300 * np.max(np.abs(coeffs)))
    roots = poly.polyroots(poly.polyder(c))
    x = roots[np.abs(roots.imag) < 1e-12].real
    x = np.concatenate(([0.0, 1.0], x[(0.0 <= x) & (x <= 1.0)]))
    return float(np.max(np.abs(np.polyval(c[::-1], x))))


def overlap_sq(phi) -> TestFunction:
    return TestFunction("overlap_sq", phi)


def real_part(phi) -> TestFunction:
    return TestFunction("real_part", phi)


def cap_indicator(phi, threshold: float) -> TestFunction:
    return TestFunction("cap_indicator", phi, threshold=threshold)


def polynomial(phi, coefficients) -> TestFunction:
    return TestFunction("polynomial", phi, coefficients=coefficients)


# ---------------------------------------------------------------------------
# GAP references
# ---------------------------------------------------------------------------

def gap_reference(rho: DensityMatrix, f: TestFunction) -> float:
    """GAP(rho)(f), the reference every driver judges its trials against,
    exact for every kind:

    * overlap_sq: the polynomial u, whose mean is <phi|rho|phi>, the GAP
      covariance in direction phi (``gap_polynomial_mean``);
    * real_part: 0, since GAP is invariant under a global phase;
    * cap_indicator: ``gap_cap_probability`` at the threshold;
    * polynomial: ``gap_polynomial_mean`` of its coefficients.

    A phi outside C^d, d the dimension of rho, raises a DimensionError; the
    drivers compute the reference before they draw."""
    if f.phi.shape != (rho.dim,):
        raise DimensionError(f"phi has shape {f.phi.shape}, the system dimension is {rho.dim}")
    if f.kind == "real_part":
        return 0.0
    if f.kind == "cap_indicator":
        return gap_cap_probability(rho, f.phi, f.threshold)
    return gap_polynomial_mean(rho, f.phi,
                               [0.0, 1.0] if f.kind == "overlap_sq" else f.coefficients)


# ---------------------------------------------------------------------------
# Trial results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentOutcome:
    """The trials of one sweep point as (n_trials,) columns, row i for trial
    i: each trial's discrepancy, pass flag and auxiliary value (NaN where the
    driver records none), with the reference and pass threshold they were
    judged against, and the driver's further statistics in ``extra``.

    The point's statistics are set once, at construction (``replace``
    recomputes them): ``pass_fraction``, the mean of ``passed``;
    ``median_discrepancy``, the median of the discrepancies; ``q10`` and
    ``q90``, their 10 % and 90 % quantiles."""

    discrepancies: np.ndarray
    passed: np.ndarray
    auxiliary: np.ndarray
    reference: float
    threshold: float
    extra: dict = field(default_factory=dict)
    pass_fraction: float = field(init=False)
    median_discrepancy: float = field(init=False)
    q10: float = field(init=False)
    q90: float = field(init=False)

    def __post_init__(self):
        q10, q90 = np.quantile(self.discrepancies, [0.1, 0.9]).tolist()
        for name, value in (("pass_fraction", float(np.mean(self.passed))),
                            ("median_discrepancy", float(np.median(self.discrepancies))),
                            ("q10", q10), ("q90", q90)):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# Batched trial engine
# ---------------------------------------------------------------------------

# Budget, in complex entries, for the largest per-trial array (the d1 x d2
# state or branch matrix) stacked over one chunk, each stacked array staying
# at a few hundred kilobytes.  On a 2-core VM with one BLAS thread, in
# 0.27.0, 2^13, 2^14 and 2^15 ran purification-sweep at 97 000-114 000,
# 106 000-135 000 and 107 000-139 000 trials/s and thermal-shell at
# 28 500-37 700, 33 400-47 900 and 34 400-47 100 (in-process medians of 5
# rounds, two processes).  Across fresh benchmark processes 2^15 read
# within noise of 2^14 in 0.26.0, and 2^16 took 5 MB more memory.
CHUNK_ENTRIES = 2 ** 14

# At most this many trials per sweep point.  The engine's (2, n_trials)
# float output already takes 64 GiB at 2**32 trials, so a larger count is
# rejected by name before that allocation, not by numpy's MemoryError.
MAX_TRIALS = 2 ** 32


def _run_trials(stream: RngStream, n_trials: int, entries: int, shapes, evaluate):
    """Run ``n_trials`` independent trials in chunks of stacked arrays.

    Trial i takes the i-th run of S standard normals from the point's one
    generator, ``stream.generator()``, S = sum of 2 prod(shape) over
    ``shapes``, and reads it as one complex array per shape, in order, as
    ``ginibre(rng, *shape)`` draws for each trial and shape in turn but
    unscaled: sqrt(2) times its values, up to rounding.  Every use in the
    engine is invariant under a positive scale (Q = Z R^-1 in
    ``_haar_frame_factor``, and both ``states`` methods, which normalize).
    ``evaluate`` maps a chunk's draws, one (B, *shape) array per shape, to
    a pair of (B,) arrays (value, auxiliary).  A chunk holds
    CHUNK_ENTRIES // entries trials, ``entries`` being the size of the
    largest per-trial array.  Every batched operation, ``_haar_frame_factor``
    included, acts on each trial's slice alone, so the outputs do not depend
    on the chunk length.

    The caller draws each chunk's normals into one (B, S) buffer just
    before ``evaluate`` reads complex views of it; ``evaluate`` must not
    keep them, as the next chunk overwrites the buffer.
    """
    n_trials = _integer("n_trials", n_trials, 1)
    if n_trials > MAX_TRIALS:
        raise DomainError(f"need between 1 and 2**32 trials, got {n_trials}")
    bounds = np.cumsum([0] + [2 * math.prod(shape) for shape in shapes])
    size = min(n_trials, max(1, CHUNK_ENTRIES // entries))
    rng, buffer, out = stream.generator(), np.empty((size, bounds[-1])), np.empty((2, n_trials))
    for start in range(0, n_trials, size):
        stop = min(start + size, n_trials)
        normals = rng.standard_normal(out=buffer[:stop - start])
        gaussians = [normals[:, a:b].view(complex).reshape((stop - start,) + shape)
                     for a, b, shape in zip(bounds[:-1], bounds[1:], shapes)]
        out[0, start:stop], out[1, start:stop] = evaluate(*gaussians)
    return out[0], out[1]


def _conditional_integrals(z: np.ndarray, factor: np.ndarray, f: TestFunction) -> np.ndarray:
    """mu(f) for the conditional measure of each branch matrix Z F = W^T A,
    given the pair (z (B, d2, k), F ((B,) k, d1)) of ``_haar_frame_factor``:
    the sum over branches j of w_j f(<b_j|psi> / sqrt(w_j)), every branch
    included.  The branches are laid out as F^T Z^T (B, d1, d2), column j
    being <b_j|psi>, so the weights w_j and the overlaps <phi|b_j> reduce
    over d1 contiguous rows; ``TestFunction.weighted`` takes
    w_j f(b_j / sqrt(w_j)) straight from <phi|b_j> and w_j, and a zero
    branch adds exactly 0."""
    branches = np.swapaxes(factor, -1, -2) @ np.swapaxes(z, -1, -2)
    w = np.sum(branches.real ** 2 + branches.imag ** 2, axis=-2)
    # NaN fails both comparisons and inf the second.
    if not (np.all(w >= 0.0) and np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-10)):
        raise DomainError("conditional weights must be finite, nonnegative and sum to 1")
    return np.sum(f.weighted(f.phi.conj() @ branches, w), axis=-1)


def _amplitude_factor(rho: np.ndarray, k: int) -> np.ndarray:
    """The ((B,) k, d1) factor A = (V sqrt(P))^T of reduced matrices rho, with
    (P, V) the k largest eigenpairs, P clipped at 0, read from the end of
    ``eigh``'s ascending output, ties in reverse ``eigh`` order.  A state with
    M M^dagger = rho has M = V sqrt(P) U^dagger; in a Haar basis B, U^dagger
    B^dagger is a Haar k-system W of C^{d2}, right-invariant in law (so the
    order within a tie does not matter), and the branch rows M B^dagger are W^T A."""
    p, v = np.linalg.eigh(rho)
    root = np.sqrt(np.maximum(p[..., :-k - 1:-1], 0.0))
    return np.swapaxes(v[..., :-k - 1:-1] * root[..., None, :], -1, -2)


def _reduced_matrices(m: np.ndarray) -> np.ndarray:
    """tr_2 |psi><psi| = M M^dagger of coefficient matrices m (B, d1, n) as
    (rho + rho^dagger) / 2, once each is Hermitian and of unit trace within
    tolerance (NaN and inf fail both comparisons).  A trace distance to a
    target is the sum of |eigenvalues| of the difference."""
    rho = m @ np.swapaxes(m.conj(), -1, -2)
    adjoint = np.swapaxes(rho.conj(), -1, -2)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    if not (np.all(np.abs(rho - adjoint) <= HERMITIAN_ATOL)
            and np.all(np.abs(trace - 1.0) <= NORM_ATOL)):
        raise DomainError("reduced density matrices must be finite, Hermitian "
                          "and of unit trace within 1e-10")
    return (rho + adjoint) / 2.0


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
                                   n_trials: int) -> ExperimentOutcome:
    """Random state with prescribed reduced density matrix, fixed basis.

    Per trial: draw psi uniformly among states with reduced density matrix
    rho1, form the conditional measure in the computational environment
    basis, and record |mu(f) - GAP(rho1)(f)|.  A trial passes when the
    discrepancy is below epsilon * ||f||_inf.  The branches are W^T A, W a
    Haar d1-system of C^{d2} and A the amplitude factor of rho1; by Haar
    invariance they are also those of a fixed state with reduced density
    matrix rho1 in a Haar-random basis (theorem 2).  For an f affine in
    u = |<phi|psi>|^2 (``TestFunction.is_affine``), mu(f) = GAP(rho1)(f) in
    every basis, so the discrepancies are rounding, not sampling: ``extra``
    marks such a point ``identity_check``.
    """
    d1, d2 = rho1.dim, _integer("d2", d2, 1)
    if d2 < d1:
        raise DomainError(f"purification requires d2 >= d1, got d1={d1}, d2={d2}")
    reference = gap_reference(rho1, f)
    threshold = f.pass_threshold(epsilon)
    amplitudes = _amplitude_factor(rho1.matrix, d1)

    def evaluate(z):
        return _conditional_integrals(*_haar_frame_factor(z, amplitudes), f), np.nan

    values, aux = _run_trials(stream, n_trials, d1 * d2, [(d2, d1)], evaluate)
    return _collect(values, reference, threshold, aux,
                    {"identity_check": True} if f.is_affine else None)


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
        basis = _float_array(self.basis, complex)
        if basis is None or basis.ndim != 2 or basis.shape[0] != self.d1 * self.d2:
            got = self.basis if basis is None else basis.shape
            raise DimensionError(f"basis must be ({self.d1 * self.d2}, dim) with "
                                 f"orthonormal columns, got {got!r}")
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


# Constant in the concentration bound 4 exp(-dim * eta^2 / (18 pi^3)) for the
# trace distance between a random subspace state's reduced density matrix and
# the subspace average.
CONCENTRATION_DENOMINATOR = 18.0 * np.pi ** 3


def concentration_bound(dim: int, eta: np.ndarray) -> np.ndarray:
    """Upper bound on the probability that the trace distance exceeds
    eta + d1/sqrt(dim), for an integer dim >= 1 and real eta."""
    dim = _integer("dim", dim, 1)
    eta = _float_array(eta, float)
    if eta is None or not np.all(np.isfinite(eta)):
        raise DomainError("eta must be real numbers and finite")
    return 4.0 * np.exp(-dim * eta ** 2 / CONCENTRATION_DENOMINATOR)


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
        rho = _reduced_matrices(subspace.states(z))
        return np.sum(np.abs(np.linalg.eigvalsh(rho - target.matrix)), axis=-1), np.nan

    distances, aux = _run_trials(stream, n_trials, d1 * d2, [(dim, 1)], evaluate)
    eta_grid = np.linspace(0.05, 2.0, 10)
    exceed = np.array([(distances >= eta + offset).mean() for eta in eta_grid])
    bound = concentration_bound(dim, eta_grid)
    extra = {
        "mean_distance": float(distances.mean()), "offset": offset,
        "eta_grid": eta_grid.tolist(), "exceedance": exceed.tolist(),
        "bound": bound.tolist(), "bound_violated": bool(np.any(exceed > bound)),
    }
    return _collect(distances, 0.0, 2.0 * offset, aux, extra)


def shell_universality_experiment(stream: RngStream, subspace: Subspace,
                                  f: TestFunction, epsilon: float,
                                  n_trials: int) -> ExperimentOutcome:
    """Random subspace state and random basis versus GAP(tr_2 rho_R).

    Per trial: draw (psi, b) from the product of the uniform measure on the
    subspace sphere and the uniform basis measure, and record
    |mu(f) - GAP(tr_2 rho_R)(f)|, for a continuous f (as the limit statement
    needs).  These are the trials of :func:`shell_vs_target_experiment` at
    Omega = tr_2 rho_R, judged alike, but Omega may be singular and
    ``extra`` stays empty.  The auxiliary is ||rho1(psi) - tr_2 rho_R||_tr.
    """
    if not f.is_continuous:
        raise DomainError("this experiment requires a continuous test function")
    return _shell_vs_target(stream, subspace, subspace.reduced_density(), f, epsilon, n_trials)


def shell_vs_target_experiment(stream: RngStream,
                               subspace: Subspace | CoordinateSubspace,
                               omega: DensityMatrix, f: TestFunction,
                               epsilon: float, n_trials: int) -> ExperimentOutcome:
    """Random subspace state and random basis versus GAP(Omega) for a fixed,
    strictly positive target Omega.

    Like :func:`shell_universality_experiment`, a trial passing within
    epsilon * ||f||_inf, but the reference is GAP(Omega)(f), and f may be
    any bounded measurable kind (including cap_indicator).  The outcome's
    ``extra['target_distance']`` reports ||tr_2 rho_R - Omega||_tr, which
    the caller is responsible for keeping small.  ``subspace`` may also be
    a :class:`CoordinateSubspace`, such as a microcanonical shell, whose
    states are formed on the bath columns it uses, not multiplied out.
    """
    return _shell_vs_target(stream, subspace, omega, f, epsilon, n_trials,
                            average=subspace.reduced_density())


def _shell_vs_target(stream, subspace, omega, f, epsilon, n_trials, average=None, **extra):
    """The shell drivers' trials against GAP(omega), passing below
    epsilon * ||f||_inf.  Given the average tr_2 rho_R, omega must be
    strictly positive and ``extra`` adds target_distance.

    Per trial: psi uniform on the subspace sphere and rho1 = tr_2 |psi><psi|,
    then mu(f) in a Haar-random basis and the auxiliary ||rho1 - omega||_tr.
    Trial i draws the state's coordinates, then the basis's k-system, which
    ``_haar_frame_factor`` folds into the amplitude factor of rho1."""
    if average is not None:
        if omega.min_eigenvalue <= 0.0:
            raise DomainError("target density matrix must be strictly positive")
        extra["target_distance"] = trace_norm(average.matrix - omega.matrix)
    reference = gap_reference(omega, f)
    threshold = f.pass_threshold(epsilon)
    d1, d2 = subspace.d1, subspace.d2
    k = min(d1, d2)

    def evaluate(z, w):
        rho = _reduced_matrices(subspace.states(z))
        return (_conditional_integrals(*_haar_frame_factor(w, _amplitude_factor(rho, k)), f),
                np.sum(np.abs(np.linalg.eigvalsh(rho - omega.matrix)), axis=-1))

    values, aux = _run_trials(stream, n_trials, d1 * d2, [(subspace.dim, 1), (d2, k)],
                              evaluate)
    return _collect(values, reference, threshold, aux, extra)


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
        try:
            pairs = np.asarray(self.member_pairs)
        except ValueError:  # a ragged list, which the check below rejects
            pairs = np.zeros(0)
        object.__setattr__(self, "member_pairs", pairs)
        if not (pairs.dtype.kind in "iu" and pairs.ndim == 2 and pairs.shape[1] == 2
                and len(pairs) and np.all((0 <= pairs) & (pairs < (self.d1, self.d2)))
                and np.unique(self.flat_indices).size == len(pairs)):
            raise DimensionError(f"member pairs must be distinct integer pairs in "
                                 f"[0, {self.d1}) x [0, {self.d2})")
        # Not fields: each pair's index i n + c in (d1, n) on the n bath columns used.
        columns, column = np.unique(pairs[:, 1], return_inverse=True)
        object.__setattr__(self, "_width", columns.size)
        object.__setattr__(self, "_compact_indices", pairs[:, 0] * columns.size + column)

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
        """``Subspace.states`` on the basis of member product vectors, as
        (B, d1, n) coefficient matrices on the n <= min(dim, d2) bath columns
        the member pairs use, ascending, at O(d1 n) per trial: the columns
        left out are zero, so tr_2 is the same up to rounding."""
        z = z[..., 0]
        psi = np.zeros((len(z), self.d1 * self._width), dtype=complex)
        psi[:, self._compact_indices] = z / np.linalg.norm(z, axis=-1, keepdims=True)
        return psi.reshape(-1, self.d1, self._width)

    def reduced_density(self) -> DensityMatrix:
        """tr_2 rho_R = diag(n_i / dim) in the product basis, divided as
        ``Subspace.reduced_density`` divides, so both forms agree bit for bit."""
        return DensityMatrix(np.diag(self.counts).astype(complex) / self.dim)


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
    if _real(energy) is None or not np.isfinite(energy):
        raise DomainError(f"energy must be a finite real number, got {energy!r}")
    if _real(width) is None or not 0 < width < np.inf:  # NaN fails too
        raise DomainError(f"window width must be positive and finite, got {width!r}")
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
    energies, t = energies.tolist(), t.tolist()

    def residual(beta: float) -> float:
        # hilbert._canonical_weights on Python floats: on a few levels, each
        # of the search's ~60 calls costs less than one numpy call would.
        logw = [-beta * e for e in energies]
        top = max(logw)
        w = [math.exp(x - top) for x in logw]
        total = sum(w)
        return sum(abs(x / total - y) for x, y in zip(w, t))

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
    average = shell.reduced_density()
    beta = fit_beta(system_levels, average)
    return _shell_vs_target(stream, shell, canonical_density(system_levels, beta), f,
                            epsilon, n_trials, average=average, beta=beta,
                            counts=shell.counts.tolist())


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
    [G_top; T] have the law of U[:k, :k].  Draws, as ``ginibre`` lays them
    out: G_top's normals, the above-diagonal normals (none when k = 1), then
    the Gamma draws.

    Each draw is scaled to unit variance straight into its place in one
    zeroed (n_samples, 2k, k) stack [G_top; T].  Every entry is the same
    product of the same draw as when G_top and T are built apart and
    concatenated, so the stack is bit-identical to that route (the tests
    keep it as an oracle) at a fraction of its passes.  The stack is
    orthonormalized by ``_gram_schmidt_twice``, which is the phase-fixed QR
    of ``_haar_columns`` in exact arithmetic and agrees with it to rounding
    (the tests compare the two on the same stacks); it avoids one LAPACK
    call per sample.
    """
    scale, stack = np.sqrt(0.5), np.zeros((n_samples, 2 * k, k), dtype=complex)
    np.multiply(rng.standard_normal((n_samples, k, k, 2)).view(complex)[..., 0], scale,
                out=stack[:, :k])
    above = list(itertools.combinations(range(k), 2))  # (i, j), i < j, row by row
    if above:
        upper = rng.standard_normal((n_samples, len(above), 2)).view(complex)[..., 0]
        for p, (i, j) in enumerate(above):
            np.multiply(upper[:, p], scale, out=stack[:, k + i, j])
    gammas = rng.standard_gamma(n - k - np.arange(k), (n_samples, k))
    for j in range(k):
        np.sqrt(gammas[:, j], out=stack.real[:, k + j, j])
    return np.sqrt(n) * _gram_schmidt_twice(stack)[:, :k, :]


def _gaussian_mean(f: TestFunction) -> float:
    """E f(Z) for the overlap Z ~ CN(0, 1) of a unit complex Gaussian, in
    closed form: |Z|^2 ~ Exp(1), so E |Z|^2 = 1, E Re Z = 0,
    P(|Z|^2 >= t - 1e-12) = exp(-(t - 1e-12)) (1 when t - 1e-12 <= 0) and
    E p(|Z|^2) = sum_m c_m m!."""
    if f.kind == "overlap_sq":
        return 1.0
    if f.kind == "real_part":
        return 0.0
    if f.kind == "cap_indicator":
        return math.exp(-max(f.threshold - 1e-12, 0.0))
    return math.fsum(c * math.factorial(m) for m, c in enumerate(f.coefficients.tolist()))


def submatrix_convergence_experiment(stream: RngStream, k: int, n: int,
                                     n_samples: int, epsilon: float) -> ExperimentOutcome:
    """Convergence of sqrt(n)-scaled Haar blocks of size n to i.i.d. complex
    Gaussians, as one trial.

    Draws ``n_samples`` scaled top-left k x k blocks from their exact law at
    O(k^3) each (``_scaled_haar_blocks``) from ``stream.generator()``, and
    nothing else.  The trial passes when ``ks_exact``, the KS distance of
    |X_11|^2 to its exact finite-n CDF 1 - (1 - x/n)^(n-1) on [0, n]
    (Zyczkowski & Sommers), is below ``epsilon``.  Its auxiliary value
    ``ks_entry`` is the KS distance of |X_11|^2 to the n = infinity limit
    Exp(1); its discrepancy is the closed-form L1 distance of the k=1
    density to its Gaussian limit (``ks_entry`` when k > 1).  ``extra`` adds
    both KS distances, the max of the Exp(1) KS over all k^2 entries and the
    gaps |E g(X_11) - E g(Z)| for the standard test function kinds g
    (probing the first coordinate direction), the block side a sample mean
    and the Gaussian side, Z ~ CN(0, 1), exact (``_gaussian_mean``).  Since
    E |X_11|^2 = 1 and E Re X_11 = 0 hold exactly at every n, the
    ``overlap_sq`` and ``real_part`` gaps are sampling noise at every n; the
    ``cap_indicator`` gap estimates |(1 - t/n)^(n-1) - exp(-t)| and the
    ``polynomial`` one (u^2) 2/(n+1), as E |X_11|^4 = 2n/(n+1).  ``k`` and
    ``n_samples`` must be integers >= 1, n an integer >= 2k and ``epsilon``
    positive and finite; all are checked before anything is drawn.

    Both KS distances of |X_11|^2 read one sorted copy of it, and each
    sample's overlap with e1, its first coordinate, is formed once for all
    four test functions.
    """
    k = _integer("k", k, 1)
    n = _integer("n", n, 2 * k)
    n_samples = _integer("n_samples", n_samples, 1)
    epsilon = _tolerance("epsilon", epsilon)
    e1 = np.eye(k)[0]
    probes = (overlap_sq(e1), real_part(e1), cap_indicator(e1, 0.5),
              polynomial(e1, [0.0, 0.0, 1.0]))
    blocks = _scaled_haar_blocks(stream.generator(), n, k, n_samples)

    entry = np.sort(np.abs(blocks[:, 0, 0]) ** 2)
    ks_entry = _ks_sorted(entry, _exponential_cdf)
    ks_exact = _ks_sorted(entry, lambda x: 1.0 - (1.0 - np.clip(x, 0.0, n) / n) ** (n - 1))
    ks_entry_max = max([ks_entry] + [ks_vs_exponential(np.abs(blocks[:, i, j]) ** 2)
                                     for i in range(k) for j in range(k) if i or j])
    gaps = {g.kind: abs(float(np.mean(g.weighted(blocks[:, 0, 0], 1.0))) - _gaussian_mean(g))
            for g in probes}
    distance = submatrix_l1_distance(n) if k == 1 else ks_entry
    return ExperimentOutcome(
        np.array([distance]), np.array([ks_exact < epsilon]), np.array([ks_entry]),
        0.0, epsilon,
        {"ks_entry": ks_entry, "ks_exact": ks_exact, "ks_entry_max": ks_entry_max,
         "expectation_gaps": gaps},
    )


# ---------------------------------------------------------------------------
# Continuity of GAP in the density matrix
# ---------------------------------------------------------------------------

def random_floor_density(rng: np.random.Generator, d: int, gamma: float) -> DensityMatrix:
    """Random density matrix with all eigenvalues >= gamma: a uniform simplex
    spectrum compressed onto the floor set and a Haar-random eigenbasis."""
    d, floor = _integer("d", d, 1), _real(gamma)
    if floor is None or not 0.0 < floor < 1.0 / d:  # NaN fails too
        raise DomainError(f"need 0 < gamma < 1/d, got gamma={gamma!r}, d={d}")
    spectrum = floor + (1.0 - d * floor) * rng.dirichlet(np.ones(d))
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
    the trace distance (up to 1e-12), which holds for every pair, so
    ``extra`` marks the point ``identity_check``.  ``threshold``, positive
    and finite, is recorded as given, not judged.
    ``extra`` has the Spearman rank correlation of the two columns and
    gamma.  Smaller gamma exhibits the blow-up of the density modulus.
    """
    n_pairs = _integer("n_pairs", n_pairs, 1)
    n_probe = _integer("n_probe", n_probe, 1)
    threshold = _tolerance("threshold", threshold)
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
        dens_gap, expe_gap <= trace_d + 1e-12, trace_d, 0.0, threshold,
        {"spearman": spearman(trace_d, dens_gap), "gamma": float(gamma),
         "identity_check": True},
    )
