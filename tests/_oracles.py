"""Independent reference implementations and statistics used only by the
tests.

The reference routes deliberately avoid the library's fast paths so each
check compares two genuinely different routes to the same quantity.  The
two-sample tests compare the laws of two such routes.
"""

import mpmath
import numpy as np
from scipy import stats as sps
from scipy.integrate import quad

from gaplab import (
    BipartiteState,
    conditional_measure,
    integrate,
    random_basis_measure,
    random_onb,
    random_ons,
    random_purification,
    reduced_density_matrix,
    sample_gaussian,
    trace_norm,
)
from gaplab.typicality import uniform_subspace_state


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

