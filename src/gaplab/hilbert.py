"""Finite-dimensional complex linear algebra: density matrices, the trace
norm and canonical (thermal) states.

Conventions
-----------
State vectors are plain 1-D complex numpy arrays.  A bipartite state on
C^{d1} (x) C^{d2} stores its amplitudes row-major: ``amplitude(i, j) =
amplitudes[i * d2 + j]`` with ``i`` indexing system 1 and ``j`` system 2,
i.e. ``amplitudes.reshape(d1, d2)`` has system-1 rows.  Collections of
vectors (bases, orthonormal systems, sample batches) are 2-D arrays whose
ROWS are the vectors.

All operations are pure; returned objects are never mutated afterwards and
may be shared freely across threads.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DomainError
from .randomness import _float_array, _integer, _real

__all__ = [
    "NORM_ATOL",
    "HERMITIAN_ATOL",
    "EIGENVALUE_FLOOR",
    "DensityMatrix",
    "trace_norm",
    "canonical_density",
]

NORM_ATOL = 1e-10
HERMITIAN_ATOL = 1e-10
# Eigenvalues in [-EIGENVALUE_FLOOR, 0) are treated as roundoff and clipped
# to zero; anything more negative is a hard error.
EIGENVALUE_FLOOR = 1e-10
# Below this an eigenvalue counts as an exact zero (kernel direction).
KERNEL_CUTOFF = 1e-12


class DensityMatrix:
    """Hermitian positive-semidefinite trace-one complex matrix.

    Validation, all at construction: finite entries, Hermiticity and unit
    trace within 1e-10 are required, and the eigendecomposition is computed
    once, so a matrix that is not PSD raises before any use; eigenvalues in
    [-1e-10, 0) are clipped to zero and the spectrum is renormalized.
    Repeated sampling against the same matrix always uses one fixed
    eigenbasis.
    """

    def __init__(self, matrix: np.ndarray):
        m = _float_array(matrix, complex)
        if m is None:
            raise DomainError(f"density matrix must be an array of numbers, got {matrix!r}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"density matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionError("density matrix must have positive dimension")
        if not np.isfinite(m).all():
            raise DomainError("density matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > HERMITIAN_ATOL:
            raise DomainError("matrix is not Hermitian within 1e-10")
        tr = np.trace(m).real
        if abs(tr - 1.0) > NORM_ATOL:
            raise DomainError(f"trace must be 1 within 1e-10, got {float(tr)!r}")
        self._matrix = (m + m.conj().T) / 2.0
        self._matrix.setflags(write=False)
        p, v = np.linalg.eigh(self._matrix)
        if p[0] < -EIGENVALUE_FLOOR:
            raise DomainError(f"eigenvalue {float(p[0])!r} below -1e-10; matrix is not PSD")
        p = np.where(p < KERNEL_CUTOFF, 0.0, p)
        p = p / p.sum()
        order = np.argsort(-p, kind="stable")  # descending, ties keep eigh order
        self._spectrum, self._eigenbasis = p[order], v[:, order]

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending, clipped to [0, 1] and summing to 1."""
        return self._spectrum

    def eigenbasis(self) -> np.ndarray:
        """Unitary whose COLUMNS are eigenvectors matching ``spectrum()``."""
        return self._eigenbasis

    @property
    def support_rank(self) -> int:
        return int(np.count_nonzero(self.spectrum() > 0.0))

    @property
    def min_eigenvalue(self) -> float:
        return float(self.spectrum()[-1])

    @classmethod
    def from_spectrum(cls, spectrum, basis: np.ndarray | None = None) -> "DensityMatrix":
        """Density matrix with the given eigenvalues; ``basis`` columns are the
        eigenvectors (computational basis if omitted)."""
        p = _float_array(spectrum, float)
        if p is None or p.ndim != 1:
            raise DomainError(f"spectrum must be a 1-D list of real numbers, got {spectrum!r}")
        if basis is None:
            return cls(np.diag(p).astype(complex))
        v = _float_array(basis, complex)
        if v is None or v.shape != (p.size, p.size):
            raise DimensionError(f"basis must be a ({p.size}, {p.size}) matrix, got {basis!r}")
        return cls(v @ np.diag(p).astype(complex) @ v.conj().T)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        d = _integer("d", d, 1)
        return cls(np.eye(d, dtype=complex) / d)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a finite square complex matrix."""
    a = _float_array(m, complex)
    if a is None or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"trace norm needs a square matrix of numbers, got {m!r}")
    if not np.isfinite(a).all():
        raise DomainError("trace norm needs a finite matrix, got NaN or inf entries")
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def canonical_density(h1_eigenvalues, beta: float) -> DensityMatrix:
    """Thermal density matrix diag(exp(-beta*E_i) / Z) in the given eigenbasis."""
    energies = _levels("h1_eigenvalues", h1_eigenvalues)
    if energies.size == 0:
        raise DomainError("eigenvalue list must be nonempty")
    b = _real(beta)
    if b is None or not np.isfinite(b):
        raise DomainError(f"beta must be finite and real, got {beta!r}")
    return DensityMatrix(np.diag(_canonical_weights(energies, b)).astype(complex))


def _levels(name: str, levels) -> np.ndarray:
    """``levels`` as a float array, which must be 1-D and finite."""
    levels = _float_array(levels, float)
    if levels is None or levels.ndim != 1 or not np.all(np.isfinite(levels)):
        raise DomainError(f"{name} must be a 1-D array of finite levels")
    return levels


def _canonical_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """The Gibbs weights exp(-beta*E_i) / Z of 1-D float levels.  Exponentials
    are max-shifted so that inverse temperatures up to ~1e3 do not overflow."""
    logw = -beta * energies
    w = np.exp(logw - logw.max())
    return w / w.sum()
