"""Reproducible random sources: complex Gaussians, Ginibre matrices, Haar
unitaries, random orthonormal systems, and uniform sphere points.

Streams are identified by a pair (master_seed, stream_index).  The same pair
always yields the same sample sequence, independent of thread scheduling,
because every stream owns its own PCG64 generator keyed through
``numpy.random.SeedSequence``.  PCG64 is a documented, stable algorithm, so
persisted outputs are reproducible bit-exactly for a fixed numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "RngStream",
    "sample_complex_gaussian",
    "ginibre",
    "haar_unitary",
    "random_onb",
    "random_ons",
    "uniform_sphere",
]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (master_seed, stream_index) plus an optional
    derivation path for nested substreams (e.g. one per Monte Carlo trial)."""

    master_seed: int
    stream_index: int = 0
    _path: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.stream_index,) + self._path
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; children with distinct indices never overlap."""
        return RngStream(self.master_seed, self.stream_index, self._path + (int(index),))


def sample_complex_gaussian(rng: np.random.Generator, variance: float, size=None):
    """Mean-zero complex Gaussian with E|z|^2 = variance.

    Real and imaginary parts are independent real Gaussians with variance
    ``variance / 2`` each.
    """
    if variance < 0:
        raise DomainError(f"variance must be nonnegative, got {variance}")
    scale = np.sqrt(variance / 2.0)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return scale * z


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """n x m matrix of i.i.d. complex Gaussians with unit variance per entry."""
    if n < 1:
        raise DomainError(f"matrix dimension must be >= 1, got {n}")
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR decomposition of a Ginibre matrix with the diagonal of R rotated to
    positive reals.  The phase correction is essential: without it the QR
    output is not Haar (its first column has a deterministic phase bias).
    """
    if n < 1:
        raise DomainError(f"unitary dimension must be >= 1, got {n}")
    return _haar_columns(ginibre(rng, n))


def _haar_columns(g: np.ndarray) -> np.ndarray:
    """Q factor of the reduced QR of each Ginibre matrix g (..., n, k), with
    column j multiplied by the phase of R_jj (Mezzadri's correction).  The
    result is distributed as the first k columns of a Haar unitary.  Leading
    axes are a batch: every matrix is factorized on its own."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def random_onb(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniformly random orthonormal basis of C^n.

    Returns an (n, n) array whose ROWS are the basis vectors (the columns of
    a Haar unitary).
    """
    return haar_unitary(rng, n).T


def random_ons(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Uniformly random orthonormal system of k vectors in C^n, as (k, n) rows.

    The rows are distributed as the first k columns of a Haar unitary (the
    Haar marginal on orthonormal k-systems).  They are produced by reduced
    QR of an n x k Ginibre matrix with the same phase correction as
    ``haar_unitary``; since QR orthonormalizes column by column, this is the
    identical construction restricted to the first k columns, at O(n k^2)
    cost instead of O(n^3).
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _haar_columns(ginibre(rng, n, k)).T


def uniform_sphere(rng: np.random.Generator, d: int, size: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere of C^d.

    A normalized standard complex Gaussian vector; its law is the normalized
    surface measure.  Returns shape (d,) or (size, d).
    """
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    shape = (d,) if size is None else (size, d)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)
