"""Independent reference implementations used only by the tests.

These deliberately avoid the library's fast paths so each check compares two
genuinely different routes to the same quantity.
"""

import numpy as np

from gaplab import conditional_measure, random_onb, sample_gaussian


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


def hermitian_abs_eigensum(m):
    """Sum of |eigenvalues| of a Hermitian matrix (trace-norm oracle)."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(m))))


def quadrature_sphere_area_check(d):
    """Surface area of the unit sphere of C^d: 2 pi^d / (d-1)!."""
    from math import factorial, pi
    return 2 * pi ** d / factorial(d - 1)
