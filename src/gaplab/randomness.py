"""Reproducible random sources: complex Gaussians, Ginibre matrices, Haar
unitaries, random orthonormal systems, and uniform sphere points.

Streams are identified by a pair (master_seed, stream_index) plus a
derivation path.  The same address always yields the same sample sequence,
whatever else the program draws before or after it, because every stream
owns its own PCG64 generator keyed through ``numpy.random.SeedSequence``.
PCG64 is a documented, stable algorithm, so persisted outputs are
reproducible bit-exactly for a fixed numpy version.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError

__all__ = [
    "MAX_TRIALS",
    "RngStream",
    "sample_complex_gaussian",
    "ginibre",
    "haar_unitary",
    "random_ons",
    "uniform_sphere",
]


# Trial indices whose seed words ``RngStream._trial_words`` derives in bulk:
# each must fit the one 32-bit entropy word the vectorized hash assumes.
MAX_TRIALS = 2 ** 32


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: (master_seed, stream_index) plus an optional
    derivation path for nested substreams (e.g. one per Monte Carlo trial).
    Every component is a nonnegative integer (bool excluded)."""

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
        return np.random.Generator(np.random.PCG64(seq))

    def substream(self, index: int) -> "RngStream":
        """Independent child stream; children with distinct indices never overlap."""
        return RngStream(self.master_seed, self.stream_index, self._path + (index,))

    def _trial_words(self, start: int, stop: int) -> np.ndarray:
        """(stop - start, 4) uint64 array whose row i - start equals
        ``SeedSequence(master_seed, spawn_key=(stream_index, *path, i))
        .generate_state(4, np.uint64)``, for 0 <= start <= stop <= MAX_TRIALS.
        ``_seeded_generator`` of row i - start is bit-identical to
        ``self.substream(i).generator()``.

        The SeedSequence pool of the words every child shares comes from
        numpy, once per stream; the child index word and the PCG64 seed
        words are then hashed for the whole range at once."""
        if not 0 <= start <= stop <= MAX_TRIALS:
            raise DomainError(f"trial range must satisfy 0 <= start <= stop <= 2**32, "
                              f"got [{start}, {stop})")
        pool, hash_const = self._spawn_pool
        index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
        mixed = []
        for word in pool:
            hashed, hash_const = _hashmix(index, hash_const, _MULT_A)
            mixed.append(_mix(word, hashed))
        state, hash_const = [], _INIT_B
        for j in range(8):
            word, hash_const = _hashmix(mixed[j % 4], hash_const, _MULT_B)
            state.append(word.astype(np.uint64))
        return np.stack([state[j] | state[j + 1] << np.uint64(32) for j in (0, 2, 4, 6)],
                        axis=-1)

    @cached_property
    def _spawn_pool(self) -> tuple[list[int], int]:
        """SeedSequence's entropy pool and running hash constant after mixing
        every word a child ``substream(i)`` shares: the seed words, padded
        with zeros to the pool size, then stream_index and the path.  numpy
        computes the pool; mixing L words runs 4 L hashes, which fixes the
        constant.  The child index word is always mixed after these."""
        key = (self.stream_index,) + self._path
        pool = np.random.SeedSequence(self.master_seed, spawn_key=key).pool.tolist()
        words = [max(1, -(-k.bit_length() // 32)) for k in (self.master_seed,) + key]
        n_words = max(_POOL_SIZE, words[0]) + sum(words[1:])
        return pool, (_INIT_A * pow(_MULT_A, 4 * n_words, 2 ** 32)) & _MASK32


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


def _seeded_generator(words: np.ndarray) -> np.random.Generator:
    """The generator whose PCG64 is seeded with one row of ``_trial_words``."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 its four precomputed uint64 state words
    (PCG64 asks for exactly ``generate_state(4, np.uint64)``)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).  numpy
# mixes the shared pool itself; these remain for the steps done in bulk:
# the pool size and the first hash give the word count's padding and the
# running constant, the first hash and the mixer fold in each child's index
# word, and the second hash draws the PCG64 seed words.  The helpers below
# work on Python ints and on uint32 arrays alike.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hashmix(value, hash_const: int, mult: int):
    """SeedSequence's hash of one word: returns (hashed, next hash_const)."""
    value = value ^ hash_const
    hash_const = (hash_const * mult) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mixer of a pool word x with a hashed word y."""
    result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return result ^ (result >> 16)


def sample_complex_gaussian(rng: np.random.Generator, variance, size=None):
    """Mean-zero complex Gaussian with E|z|^2 = variance.

    Real and imaginary parts are independent real Gaussians with variance
    ``variance / 2`` each.  ``variance`` may be an array of per-entry
    variances that broadcasts against ``size``, which is None, an integer
    >= 0 or a tuple or list of them.
    """
    if np.any(np.asarray(variance) < 0):
        raise DomainError(f"variance must be nonnegative, got {variance}")
    if size is not None:
        shape = size if isinstance(size, (tuple, list)) else (size,)
        size = tuple(_integer("size", n) for n in shape)
    scale = np.sqrt(variance / 2.0)
    z = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return scale * z


def ginibre(rng: np.random.Generator, n: int, m: int | None = None) -> np.ndarray:
    """n x m matrix of i.i.d. complex Gaussians with unit variance per entry:
    the real parts are drawn first, then the imaginary parts."""
    n = _integer("n", n, 1)
    m = n if m is None else _integer("m", m, 1)
    return _complex_gaussians(rng.standard_normal((1, 2, n, m)))[0]


def _complex_gaussians(pairs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-variance complex Gaussians (B, ...) from a stack of real standard
    normals (B, 2, ...): real parts pairs[:, 0], imaginary parts pairs[:, 1].
    ``ginibre`` is this map on one (1, 2, n, m) draw, so if one generator
    filled pairs[b] in C order, entry b holds exactly the values ``ginibre``
    returns from the same draws.

    Each part is scaled into one complex array, ``out`` (any strides) when
    given, else a new one; numpy divides a complex array by a real scalar as
    a multiplication by its reciprocal, so this equals (re + 1j im) / sqrt(2)
    bit for bit without its temporaries."""
    if out is None:
        out = np.empty(pairs.shape[:1] + pairs.shape[2:], dtype=complex)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(pairs[:, 0], scale, out=out.real)
    np.multiply(pairs[:, 1], scale, out=out.imag)
    return out


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
    axes are a batch: every matrix is factorized on its own."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d))[..., None, :]
    return q


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

    A normalized standard complex Gaussian vector; its law is the normalized
    surface measure.  Returns shape (d,) or (size, d).
    """
    d = _integer("d", d, 1)
    shape = (d,) if size is None else (_integer("size", size, 1), d)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return z / np.linalg.norm(z, axis=-1, keepdims=True)
