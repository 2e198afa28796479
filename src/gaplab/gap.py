"""The GAP measure family on a finite-dimensional Hilbert space.

For a density matrix rho, three measures are built on top of each other:

* ``G(rho)`` -- the mean-zero complex Gaussian measure with covariance rho.
  In an eigenbasis of rho the coefficients are independent complex
  Gaussians with variances given by the eigenvalues; coefficients along
  the kernel vanish identically.
* ``GA(rho)`` -- the adjusted Gaussian, G(rho) reweighted by the squared
  norm: GA(dpsi) = ||psi||^2 G(dpsi).  Because the Gaussian's expected
  squared norm equals tr(rho) = 1, GA is again a probability measure.
* ``GAP(rho)`` -- the law of a GA sample projected to the unit sphere.
  Its covariance matrix is again rho.

GA is sampled exactly by a size-biased mixture: pick an eigendirection i
with probability p_i, draw coordinate i from the norm-square-biased complex
Gaussian of variance p_i (squared radius ~ Gamma(shape 2, scale p_i),
uniform phase), and draw every other coordinate unbiased.  This is O(d) per
draw with no rejection step; a rejection sampler is kept in the test suite
as an independent oracle, with the plain G(rho) sampler it proposes from.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularDensityError
from .hilbert import DensityMatrix
from .randomness import _integer, sample_complex_gaussian

__all__ = [
    "sample_adjusted_gaussian",
    "sample_gap",
    "gap_sphere_density",
]

def sample_adjusted_gaussian(rng: np.random.Generator, rho: DensityMatrix,
                             size: int | None = None):
    """Draw from the size-biased Gaussian GA(rho) = ||psi||^2 G(rho)(dpsi)."""
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
    psi = np.asarray(psi, dtype=complex)
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
