"""Reproducible random sources: Ginibre matrices, Haar unitaries, random
orthonormal systems, and uniform sphere points.

Streams are identified by a pair (master_seed, stream_index) plus a
derivation path.  The same address always yields the same sample sequence,
whatever else the program draws before or after it, because every stream
owns its own SFC64 generator keyed through ``numpy.random.SeedSequence``.
SFC64 is a documented, stable algorithm, so persisted outputs are
reproducible bit-exactly for a fixed numpy version.  A complex Gaussian is
two consecutive normals, its real and imaginary part.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "RngStream",
    "ginibre",
    "haar_unitary",
    "random_ons",
    "uniform_sphere",
]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (master_seed, stream_index) plus an optional
    derivation path for nested substreams.  A sweep point's trials draw in
    sequence from its ``generator()``; its random subspace, if it has one,
    comes from substream n_trials + 1, and substream n_trials is unused.
    Every component is a nonnegative integer (bool excluded).  Each
    stream's SFC64 generator has a period of at least 2^64 draws."""

    master_seed: int
    stream_index: int = 0
    _path: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "_path",
                           tuple(_integer("path entry", i) for i in self._path))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.stream_index,) + self._path
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        return np.random.Generator(np.random.SFC64(seq))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; children with distinct indices never overlap."""
        return RngStream(self.master_seed, self.stream_index, self._path + (index,))


def _integer(name: str, value, minimum: int = 0) -> int:
    """value as a Python int of at least ``minimum``; bools and non-integers
    are rejected with a DomainError naming ``name``."""
    message = f"{name} must be an integer >= {minimum}, got {value!r}"
    if isinstance(value, (bool, np.bool_)):
        raise DomainError(message)
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(message) from None
    if value < minimum:
        raise DomainError(message)
    return value


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """n x m matrix of i.i.d. complex Gaussians with unit variance per entry:
    2 n m standard normals in C order, paired into entries, times sqrt(1/2)."""
    n = _integer("n", n, 1)
    m = n if m is None else _integer("m", m, 1)
    return rng.standard_normal((n, m, 2)).view(complex)[..., 0] * np.sqrt(0.5)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR decomposition of a Ginibre matrix with the diagonal of R rotated to
    positive reals.  The phase correction is essential: without it the QR
    output is not Haar (its first column has a deterministic phase bias).
    """
    return _haar_columns(ginibre(rng, n))


def _haar_columns(g: np.ndarray) -> np.ndarray:
    """Q factor of the reduced QR of each Ginibre matrix g (..., n, k), with
    column j multiplied by the phase of R_jj (Mezzadri's correction).  The
    result is distributed as the first k columns of a Haar unitary.  Leading
    axes are a batch: every matrix is factorized on its own, by one LAPACK
    call.  It serves the per-call public routes ``haar_unitary`` and
    ``random_ons``; the trial engine folds it into its amplitude factors
    (``_haar_frame_factor``)."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


def _haar_frame_factor(z: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z', F) with z' F = Q A, for complex Gaussian matrices z (B, m, k),
    m >= k, amplitude factors a ((B,) k, d1) and Q the phase-fixed Q factor
    of ``_haar_columns``, without forming Q: Q = Z R^-1, with R the upper
    Cholesky factor of Z^H Z, whose diagonal is positive.  Each batched call
    acts on every matrix alone.  One pass misses unit weight by about
    eps kappa(Z)^2, far below the engine's 1e-10 check for m >= 2k; a stack
    with m < 2k, whose kappa is heavy-tailed, is replaced by Z R^-1 and
    factored again (CholeskyQR2; Yamamoto, Nakatsukasa, Yanagisawa & Fukaya
    2015).  A singular Gram matrix raises a DomainError; a NaN comes through
    for the weight check."""
    try:
        r = _gram_cholesky(z)
        if z.shape[-2] < 2 * z.shape[-1]:
            z = z @ np.linalg.inv(r)
            r = _gram_cholesky(z)
        return z, np.linalg.solve(r, a)
    except np.linalg.LinAlgError:
        raise DomainError("conditional weights need Gaussian draws of full rank: "
                          "a Gram matrix is not positive definite") from None


def _gram_cholesky(z: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor R, R^H R = Z^H Z, of each matrix of a stack z."""
    return np.linalg.cholesky(np.swapaxes(z.conj(), -1, -2) @ z, upper=True)


def _gram_schmidt_twice(a: np.ndarray) -> np.ndarray:
    """The Q factor ``_haar_columns`` returns, for a stack of short, well
    conditioned matrices a (..., m, k), by classical Gram-Schmidt done twice.

    Each column is normalized by a positive real norm, so R has a positive
    diagonal and Q is, in exact arithmetic, the phase-fixed Q of Householder
    QR plus Mezzadri's correction.  Done twice, classical Gram-Schmidt keeps
    Q orthonormal to working precision for well conditioned input (Giraud,
    Langou & Rozloznik 2005).  It loops in Python over the k columns and m
    rows only, so a stack of many tiny matrices costs a few numpy calls
    instead of one LAPACK call per matrix.

    Every step runs row by row over the whole stack: on a short last axis
    numpy's inner loops are only m elements long.  A column's squared norm is
    summed as |v_0|^2 + |v_1|^2 + ..., each term as re^2 + im^2: for m < 8
    that is the order in which ``np.sum(..., axis=-1)`` adds.  Each row is
    then multiplied, real and imaginary part, by the reciprocal of the
    norm, which is how numpy divides a complex array by a real one.  So for
    m < 8 the result is bit-identical to dividing v by
    ``np.sqrt(np.sum(v.real ** 2 + v.imag ** 2, axis=-1))``.
    """
    q = np.empty_like(a)
    for j in range(a.shape[-1]):
        v, basis = a[..., j], q[..., :j]
        for _ in range(2 if j else 0):
            v = v - np.einsum("...ij,...j->...i", basis,
                              np.einsum("...ij,...i->...j", basis.conj(), v))
        norm_sq = v.real[..., 0] ** 2
        norm_sq += v.imag[..., 0] ** 2
        for i in range(1, v.shape[-1]):
            norm_sq += v.real[..., i] ** 2 + v.imag[..., i] ** 2
        scale = np.divide(1.0, np.sqrt(norm_sq, out=norm_sq), out=norm_sq)
        for i in range(v.shape[-1]):
            np.multiply(v.real[..., i], scale, out=q.real[..., i, j])
            np.multiply(v.imag[..., i], scale, out=q.imag[..., i, j])
    return q


def random_ons(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Uniformly random orthonormal system of k vectors in C^n, as (k, n) rows.

    The rows are distributed as the first k columns of a Haar unitary (the
    Haar marginal on orthonormal k-systems).  They are produced by reduced
    QR of an n x k Ginibre matrix with the same phase correction as
    ``haar_unitary``; since QR orthonormalizes column by column, this is the
    identical construction restricted to the first k columns, at O(n k^2)
    cost instead of O(n^3).
    """
    n, k = _integer("n", n, 1), _integer("k", k, 1)
    if k > n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    return _haar_columns(ginibre(rng, n, k)).T


def uniform_sphere(rng: np.random.Generator, d: int, size: int | None = None) -> np.ndarray:
    """Uniform point(s) on the unit sphere of C^d.

    A normalized complex Gaussian vector, drawn as ``ginibre`` draws; its
    law is the normalized surface measure.  Returns shape (d,) or (size, d).
    """
    d = _integer("d", d, 1)
    shape = (d,) if size is None else (_integer("size", size, 1), d)
    z = rng.standard_normal(shape + (2,)).view(complex)[..., 0]
    return z / np.linalg.norm(z, axis=-1, keepdims=True)
