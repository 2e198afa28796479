"""Independent reference implementations and statistics used only by the
tests.

The reference routes deliberately avoid the library's fast paths so each
check compares two genuinely different routes to the same quantity.  The
two-sample tests compare the laws of two such routes.

The first part holds the per-trial routes the batched engine of
``gaplab.typicality`` reproduces: the conditional measure of the paper as a
weighted point measure, built one state and one basis at a time, and the
adjust-and-project calculus on such measures.  Given a bipartite state psi
and an orthonormal basis {b_j} of the second factor, the conditional wave
function of system 1 is the normalized partial inner product
<b_J|psi> / ||<b_J|psi>|| with the index J drawn with probability
||<b_j|psi>||^2.  Its distribution ``conditional_measure`` is a weighted sum
of point masses on the unit sphere of the first factor.  The companion
``raw_conditional_measure`` places equal weights 1/d2 on the unnormalized,
sqrt(d2)-scaled partial inner products; adjusting it by the squared norm and
projecting to the sphere reproduces ``conditional_measure`` atom by atom,
which the test suite checks as an exact identity.

``random_basis_measure`` draws the conditional measure in a Haar-random
basis without forming that basis.  Only the k = min(d1, d2) directions of
the second factor that psi occupies meet the basis, and by Haar invariance
their overlaps with it form a uniformly random orthonormal k-system (see
Mezzadri, Notices AMS 2007, and Zyczkowski & Sommers, J. Phys. A 2000).

``gram_schmidt_twice_by_division``, ``scaled_haar_blocks_by_concatenation``,
``submatrix_outcome_by_parts`` and ``poly_sup_by_polynomial_class`` keep the
plain forms of the submatrix draw, its statistics and the polynomial bound
that the library computes in fewer passes; the tests compare the two bit for
bit where the arithmetic is the same.
"""

from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy import stats as sps
from scipy.integrate import quad

from gaplab import (
    BipartiteState,
    DensityMatrix,
    ginibre,
    haar_unitary,
    random_ons,
    random_purification,
    reduced_density_matrix,
    sample_complex_gaussian,
    trace_norm,
)
from gaplab.errors import DimensionError, DomainError, GaplabError
from gaplab.randomness import _complex_gaussians
from gaplab.stats import ks_statistic, ks_vs_exponential
from gaplab.typicality import (
    WEIGHT_CUTOFF,
    ExperimentOutcome,
    _check_orthonormal_rows,
    cap_indicator,
    overlap_sq,
    polynomial,
    real_part,
    submatrix_l1_distance,
)


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


def integrate(m: DiscreteMeasure, f) -> float:
    """sum_j w_j f(v_j) for a test function f.

    ``f`` must accept an (n_atoms, dim) array and return (n_atoms,) values,
    as the TestFunction kinds and any numpy-vectorized callable do.
    """
    return float(np.dot(m.weights, np.asarray(f(m.vectors), dtype=float)))


def complex_gaussians(pairs):
    """The unit-variance complex Gaussians (B, ...) that
    ``randomness._complex_gaussians`` builds in one pass, from the same stack
    of real normals (B, 2, ...), by the complex arithmetic it replaced."""
    return (pairs[:, 0] + 1j * pairs[:, 1]) / np.sqrt(2.0)


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
# validating public functions, with trial i drawing from stream.substream(i)
# as the batched engine does.  Each returns (discrepancy, auxiliary) per trial,
# with NaN where a driver records no auxiliary value.

def purification_trials(stream, rho1, d2, f, reference, n_trials):
    """theorem1: random purification, computational environment basis."""
    out = []
    for i in range(n_trials):
        psi = random_purification(stream.substream(i).generator(), rho1, d2)
        out.append((abs(integrate(conditional_measure(psi), f) - reference), np.nan))
    return np.array(out)


def random_basis_trials(stream, psi, f, reference, n_trials):
    """theorem2: fixed state, Haar-random environment basis."""
    out = []
    for i in range(n_trials):
        measure = random_basis_measure(stream.substream(i).generator(), psi)
        out.append((abs(integrate(measure, f) - reference), np.nan))
    return np.array(out)


def shell_trials(stream, basis, d1, d2, f, reference, target, n_trials):
    """theorem3, theorem4 and thermal: uniform subspace state, Haar-random
    basis, and the trace distance of the reduced state to ``target``."""
    out = []
    for i in range(n_trials):
        rng = stream.substream(i).generator()
        psi = BipartiteState(d1, d2, uniform_subspace_state(rng, basis))
        value = integrate(random_basis_measure(rng, psi), f)
        aux = trace_norm(reduced_density_matrix(psi).matrix - target.matrix)
        out.append((abs(value - reference), aux))
    return np.array(out)


def canonical_trials(stream, basis, d1, d2, target, n_trials):
    """canonical_typicality: trace distance of a uniform subspace state's
    reduced density matrix to ``target``."""
    out = []
    for i in range(n_trials):
        psi = uniform_subspace_state(stream.substream(i).generator(), basis)
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


def scaled_haar_blocks_by_concatenation(rng, n, k, n_samples):
    """``_scaled_haar_blocks`` as of 0.16.0, with the same draws in the same
    order: G_top and T built as separate arrays, T from ``zeros_like`` and
    fancy indexing (with an empty above-diagonal draw when k = 1), the two
    concatenated and orthonormalized by ``gram_schmidt_twice_by_division``."""
    top = _complex_gaussians(rng.standard_normal((n_samples, 2, k, k)))
    rows, cols = np.triu_indices(k, 1)
    t = np.zeros_like(top)
    t[:, rows, cols] = _complex_gaussians(rng.standard_normal((n_samples, 2, rows.size)))
    t[:, range(k), range(k)] = np.sqrt(rng.standard_gamma(n - k - np.arange(k), (n_samples, k)))
    return np.sqrt(n) * gram_schmidt_twice_by_division(np.concatenate([top, t], axis=1))[:, :k, :]


def submatrix_outcome_by_parts(stream, k, n, n_samples, epsilon):
    """``submatrix_convergence_experiment`` as of 0.16.0: the blocks of
    ``scaled_haar_blocks_by_concatenation``, one ``ks_vs_exponential`` per
    entry, ``ks_statistic`` sorting |X_11|^2 again for the exact law, and
    each test function applied to the vectors themselves, so every probe
    forms its own overlaps."""
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
    gaps = {g.kind: float(abs(np.mean(g(blocks[:, :, 0])) - np.mean(g(gauss))))
            for g in probes}
    distance = submatrix_l1_distance(n) if k == 1 else ks_entry
    return ExperimentOutcome(
        np.array([distance]), np.array([ks_exact < epsilon]), np.array([ks_entry]),
        0.0, float(epsilon),
        {"ks_entry": ks_entry, "ks_exact": ks_exact, "ks_entry_max": float(ks.max()),
         "expectation_gaps": gaps},
    )


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

