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
from .randomness import _integer

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
        m = np.asarray(matrix, dtype=complex)
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
        p = np.asarray(spectrum, dtype=float)
        if basis is None:
            return cls(np.diag(p).astype(complex))
        return cls(basis @ np.diag(p).astype(complex) @ basis.conj().T)

    @classmethod
    def maximally_mixed(cls, d: int) -> "DensityMatrix":
        d = _integer("d", d, 1)
        return cls(np.eye(d, dtype=complex) / d)


def trace_norm(m: np.ndarray) -> float:
    """Sum of singular values of a square complex matrix."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"trace norm needs a square matrix, got shape {m.shape}")
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def canonical_density(h1_eigenvalues, beta: float) -> DensityMatrix:
    """Thermal density matrix diag(exp(-beta*E_i) / Z) in the given eigenbasis."""
    energies = np.asarray(h1_eigenvalues, dtype=float)
    if energies.size == 0:
        raise DomainError("eigenvalue list must be nonempty")
    if not np.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    return DensityMatrix(np.diag(_canonical_weights(energies, beta)).astype(complex))


def _canonical_weights(energies: np.ndarray, beta: float) -> np.ndarray:
    """The Gibbs weights exp(-beta*E_i) / Z of 1-D float levels.  Exponentials
    are max-shifted so that inverse temperatures up to ~1e3 do not overflow."""
    logw = -beta * energies
    w = np.exp(logw - logw.max())
    return w / w.sum()
