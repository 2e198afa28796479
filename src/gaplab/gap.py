"""The GAP measure family on a finite-dimensional Hilbert space, and exact
functionals of it.

For a density matrix rho, three measures are built on top of each other:

* ``G(rho)`` -- the mean-zero complex Gaussian measure with covariance rho.
* ``GA(rho)`` -- the adjusted Gaussian, G(rho) reweighted by the squared
  norm: GA(dpsi) = ||psi||^2 G(dpsi).  Because the Gaussian's expected
  squared norm equals tr(rho) = 1, GA is again a probability measure.
* ``GAP(rho)`` -- the law of a GA sample projected to the unit sphere.
  Its covariance matrix is again rho.

So E_GAP f(psi) = E ||z||^2 f(z / ||z||) for z = rho^{1/2} g, g a standard
complex Gaussian vector.  The functions here evaluate that expectation in
closed form, or by a quadrature exact to rounding: the sphere density of
GAP(rho), the GAP probability of a cap |<phi|psi>|^2 >= t and the GAP mean
of a polynomial in |<phi|psi>|^2.  The test suite keeps GAP samplers as an
independent route to each.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError, SingularDensityError
from .hilbert import NORM_ATOL, DensityMatrix
from .randomness import _float_array, _real

__all__ = [
    "gap_sphere_density",
    "gap_cap_probability",
    "gap_polynomial_mean",
]


def gap_sphere_density(rho: DensityMatrix, psi: np.ndarray):
    """Density of GAP(rho) at unit vector(s) psi, relative to the NORMALIZED
    uniform measure on the sphere.

    The value is d * <psi|rho^{-1}|psi>^{-(d+1)} / det(rho); it is constant 1
    when rho = I/d.  The same power law divided by the sphere surface area
    2 pi^d / (d-1)! is the density with respect to the unnormalized surface
    measure.  Requires all eigenvalues of rho strictly positive.

    Accepts a single vector (d,) or a batch (n, d); returns float or (n,).
    """
    p, v = rho.spectrum(), rho.eigenbasis()
    if rho.support_rank < rho.dim:
        raise SingularDensityError(
            "GAP sphere density requires a strictly positive spectrum"
        )
    psi = _float_array(psi, complex)
    if psi is None or psi.ndim not in (1, 2) or not np.isfinite(psi).all():
        raise DomainError("psi must be a finite vector or (n, d) batch of vectors")
    single = psi.ndim == 1
    batch = psi[None, :] if single else psi
    if batch.shape[-1] != rho.dim:
        raise DimensionError(f"psi dimension {batch.shape[-1]} != {rho.dim}")
    coeff = batch @ v.conj()
    quad = np.sum(np.abs(coeff) ** 2 / p, axis=-1)
    d = rho.dim
    log_val = np.log(d) - np.sum(np.log(p)) - (d + 1) * np.log(quad)
    out = np.exp(log_val)
    return float(out[0]) if single else out


def _support_coordinates(rho: DensityMatrix, phi) -> tuple[np.ndarray, ...]:
    """phi as a complex array, the positive eigenvalues p_i of rho and the
    coordinates <v_i|phi> of phi in their eigenvectors v_i; phi must be a
    unit vector of C^d, d the dimension of rho, within 1e-10."""
    phi, given = _float_array(phi, complex), phi
    if phi is None:
        raise DomainError(f"phi must be a vector of numbers, got {given!r}")
    if phi.shape != (rho.dim,):
        raise DimensionError(f"phi has shape {phi.shape}, the system dimension is {rho.dim}")
    norm = float(np.linalg.norm(phi))
    if not abs(norm - 1.0) <= NORM_ATOL:  # NaN and inf fail too
        raise DomainError(f"phi must be a finite unit vector within 1e-10, got norm {norm!r}")
    r = rho.support_rank
    return phi, rho.spectrum()[:r], phi @ rho.eigenbasis()[:, :r].conj()


def gap_cap_probability(rho: DensityMatrix, phi, t: float) -> float:
    """P(|<phi|psi>|^2 >= t) for psi ~ GAP(rho), phi a unit vector, t in [0, 1].

    The probability is E[g^dagger rho g 1{g^dagger M g >= 0}] with
    M = rho^{1/2}(|phi><phi| - t I)rho^{1/2}.  In M's eigenbasis (lambda_i,
    u_i) the cross terms of g^dagger rho g vanish by phase symmetry, leaving
    c_i = <u_i|rho|u_i> times exponential moments.  By Sylvester's law of
    inertia M has at most one positive eigenvalue lambda_1; without one the
    cap has measure 0.  With s_j = max(-lambda_j, 0) / lambda_1 for j >= 2
    and L = prod_j 1 / (1 + s_j),

        P = L [c_1 (1 + sum_j s_j / (1 + s_j)) + sum_j c_j / (1 + s_j)].

    M is formed on the support of rho, in its eigenbasis.  Two cases are
    decided as ``TestFunction`` decides them, admitting |<phi|psi>|^2 down
    to t - 1e-12: a t of at most 1e-12 admits every psi, and a pure
    rho = |chi><chi|, whose draws are chi up to a phase, is admitted when
    |<phi|chi>|^2 >= t - 1e-12.
    """
    threshold = _real(t)
    if threshold is None or not 0.0 <= threshold <= 1.0:  # NaN fails too
        raise DomainError(f"cap threshold must lie in [0, 1], got {t!r}")
    _, p, a = _support_coordinates(rho, phi)
    if threshold <= 1e-12:
        return 1.0
    b = np.sqrt(p) * a  # rho^{1/2} phi
    if p.size == 1:
        return float(abs(b[0]) ** 2 >= threshold - 1e-12)
    lam, u = np.linalg.eigh(np.outer(b, b.conj()) - threshold * np.diag(p))
    if not lam[-1] > 0.0:
        return 0.0
    c = p @ np.abs(u) ** 2
    q = lam[-1] / (lam[-1] + np.maximum(-lam[:-1], 0.0))  # 1 / (1 + s_j)
    return float(np.prod(q) * (c[-1] * (1.0 + np.sum(1.0 - q)) + np.sum(c[:-1] * q)))


# Nodes lambda = e^x, x in [-40, 40] in steps of 0.2, of the trapezoidal
# rule in x that takes the moment integral of ``gap_polynomial_mean``.  In x
# the integrand is analytic in the strip |Im x| < pi/2, so the rule's error
# falls geometrically as the step shrinks.  It is at most e^x max|p''| on the
# left and d e^{-2x} max|p''| on the right (max p_i >= 1/d), for every
# spectrum, so the cut tails weigh below 1e-17 of max|p''|.  Against a
# 30-digit quadrature the rule agrees to 2e-16 from degree 2 to 200, on
# spectra with eigenvalues down to 1e-11.
_LOG_STEP = 0.2
_LAMBDA = np.exp(_LOG_STEP * np.arange(-200, 201))


def gap_polynomial_mean(rho: DensityMatrix, phi, coefficients) -> float:
    """E p(u) for u = |<phi|psi>|^2, psi ~ GAP(rho), phi a unit vector and p
    the polynomial with the ascending ``coefficients``.

    E u^0 = 1 and E u = <phi|rho|phi>.  For m >= 2, writing ||z||^{-2(m-1)}
    as a Laplace integral and taking the Gaussian moment of <phi|z> under the
    tilted covariance rho (1 + lambda rho)^{-1},

        E u^m = m (m - 1) int_0^inf w^m prod_i (1 + lambda p_i)^{-1} dlambda / lambda^2,

    with (p_i, v_i) the eigenpairs of rho and
    w(lambda) = sum_i |<v_i|phi>|^2 lambda p_i / (1 + lambda p_i) in [0, 1].
    Summed over the terms of p that is the integral of w^2 p''(w), taken by
    the trapezoidal rule of ``_LAMBDA``.
    """
    c = _float_array(coefficients, float)
    if c is None or c.ndim != 1 or not c.size or not np.all(np.isfinite(c)):
        raise DomainError(f"coefficients must be a nonempty 1-D list of finite numbers, "
                          f"got {coefficients!r}")
    phi, p, a = _support_coordinates(rho, phi)
    c0, c1 = np.append(c, 0.0)[:2]
    linear = c0 + c1 * float(np.real(phi.conj() @ rho.matrix @ phi))
    lp = _LAMBDA[:, None] * p
    w = (lp / (1.0 + lp)) @ (np.abs(a) ** 2)
    weight = np.prod(1.0 / (1.0 + lp), axis=1) / _LAMBDA
    curvature = np.polynomial.polynomial.polyval(w, np.polynomial.polynomial.polyder(c, 2))
    return float(linear + _LOG_STEP * np.sum(w ** 2 * curvature * weight))
