"""Independent reference implementations used only by the tests.

These deliberately avoid the library's fast paths so each check compares two
genuinely different routes to the same quantity.
"""

import numpy as np

from gaplab import (
    BipartiteState,
    conditional_measure,
    integrate,
    random_basis_measure,
    random_onb,
    random_purification,
    reduced_density_matrix,
    sample_gaussian,
    trace_norm,
)
from gaplab.typicality import uniform_subspace_state


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


def hermitian_abs_eigensum(m):
    """Sum of |eigenvalues| of a Hermitian matrix (trace-norm oracle)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def quadrature_sphere_area_check(d):
    """Surface area of the unit sphere of C^d: 2 pi^d / (d-1)!."""
    from math import factorial, pi
    return 2 * pi ** d / factorial(d - 1)
