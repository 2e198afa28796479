"""Conditional wave functions and the adjust-and-project calculus on
finitely supported measures.

Given a bipartite state psi and an orthonormal basis {b_j} of the second
factor, the conditional wave function of system 1 is the normalized partial
inner product <b_J|psi> / ||<b_J|psi>|| with the index J drawn with
probability ||<b_j|psi>||^2.  Its distribution ``conditional_measure`` is a
weighted sum of point masses on the unit sphere of the first factor.  The
companion ``raw_conditional_measure`` places equal weights 1/d2 on the
unnormalized, sqrt(d2)-scaled partial inner products; adjusting it by the
squared norm and projecting to the sphere reproduces ``conditional_measure``
atom by atom, which the test suite checks as an exact identity.

``random_basis_measure`` draws the conditional measure in a Haar-random
basis without forming that basis.  Only the k = min(d1, d2) directions of
the second factor that psi occupies meet the basis, and by Haar invariance
their overlaps with it form a uniformly random orthonormal k-system (see
Mezzadri, Notices AMS 2007, and Zyczkowski & Sommers, J. Phys. A 2000).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BasisError,
    DimensionError,
    DomainError,
    SingularProjectionError,
)
from .hilbert import BipartiteState, DensityMatrix
from .randomness import random_ons

__all__ = [
    "WEIGHT_CUTOFF",
    "DiscreteMeasure",
    "conditional_measure",
    "random_basis_measure",
    "raw_conditional_measure",
    "adjust",
    "project_to_sphere",
    "integrate",
    "random_purification",
]

# Atoms below this weight carry no mass and are dropped where normalization
# would otherwise divide by ~0.
WEIGHT_CUTOFF = 1e-14

BASIS_GRAM_ATOL = 1e-8


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported weighted point measure on vectors.

    ``vectors`` is an (n_atoms, dim) array of finite atom locations and
    ``weights`` the matching finite nonnegative masses.  ``normalized``
    records whether the weights sum to 1 (within 1e-10), which is checked at
    construction.
    """

    vectors: np.ndarray
    weights: np.ndarray
    normalized: bool = field(default=False)

    def __post_init__(self):
        vecs = np.atleast_2d(np.asarray(self.vectors, dtype=complex))
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or vecs.shape[0] != w.shape[0]:
            raise DimensionError("one weight per atom is required")
        total = float(w.sum())  # NaN or inf if any weight is
        if not (np.isfinite(total) and np.isfinite(vecs).all()):
            raise DomainError("weights and atom vectors must be finite")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        normalized = abs(total - 1.0) <= 1e-10
        if self.normalized and not normalized:
            raise DomainError(f"weights sum to {total!r}, not 1")
        vecs.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "normalized", normalized)

    @property
    def n_atoms(self) -> int:
        return self.weights.shape[0]

    def total_mass(self) -> float:
        return float(self.weights.sum())


def _check_orthonormal_rows(vectors: np.ndarray) -> None:
    """Raise BasisError unless the k rows are finite and orthonormal; O(k^2 n)
    for (k, n).  Leading axes are a batch, checked matrix by matrix."""
    gram = vectors @ np.swapaxes(vectors.conj(), -1, -2)
    # Written so that a NaN entry, whose Gram deviation is NaN, fails.
    if not np.max(np.abs(gram - np.eye(vectors.shape[-2]))) <= BASIS_GRAM_ATOL:
        raise BasisError("basis rows are not orthonormal within 1e-8")


def _check_basis(basis: np.ndarray, d2: int) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (d2, d2):
        raise DimensionError(f"basis must be ({d2}, {d2}) with vectors as rows")
    _check_orthonormal_rows(basis)
    return basis


def _branch_vectors(psi: BipartiteState, basis: np.ndarray | None) -> np.ndarray:
    """(d2, d1) array whose row j is the partial inner product <b_j|psi>."""
    m = psi.as_matrix()
    if basis is None:
        return m.T
    basis = _check_basis(basis, psi.d2)
    return (m @ basis.conj().T).T


def _measure_from_branches(branches: np.ndarray) -> DiscreteMeasure:
    """Atoms at the normalized rows of ``branches``, weighted by their squared
    norms; rows with weight below 1e-14 carry no mass and are dropped."""
    w = np.sum(np.abs(branches) ** 2, axis=1)
    keep = w >= WEIGHT_CUTOFF
    vecs = branches[keep] / np.sqrt(w[keep])[:, None]
    return DiscreteMeasure(vecs, w[keep], normalized=True)


def conditional_measure(psi: BipartiteState, basis: np.ndarray | None = None) -> DiscreteMeasure:
    """Distribution of the conditional wave function of system 1.

    Atom j sits at <b_j|psi> / ||<b_j|psi>|| with weight ||<b_j|psi>||^2.
    ``basis`` is a (d2, d2) array with orthonormal rows; None means the
    computational basis.  Branches with weight below 1e-14 carry no mass and
    are dropped.  Atoms are kept unmerged even when vectors coincide up to
    phase.
    """
    return _measure_from_branches(_branch_vectors(psi, basis))


def random_basis_measure(rng: np.random.Generator, psi: BipartiteState) -> DiscreteMeasure:
    """Conditional measure of psi in a uniformly random basis of the second
    factor.

    Same law as ``conditional_measure(psi, random_onb(rng, psi.d2))``, drawn
    without the d2 x d2 basis.  Let M be the (d1, d2) coefficient matrix,
    k = min(d1, d2), and M^dagger = V R a reduced QR, so M = R^dagger V^dagger.
    For a Haar basis B the branch matrix M B^dagger equals R^dagger
    (V^dagger B^dagger), and V^dagger B^dagger is a uniformly random
    orthonormal k-system of C^{d2}.  The branches are therefore drawn as
    R^dagger W with W = random_ons(rng, d2, k), at O(d1 k d2) cost instead of
    O(d2^3).  As in ``conditional_measure``, branches with weight below
    1e-14 carry no mass and are dropped.
    """
    r = np.linalg.qr(psi.as_matrix().conj().T, mode="r")
    w = random_ons(rng, psi.d2, r.shape[0])
    _check_orthonormal_rows(w)
    return _measure_from_branches((r.conj().T @ w).T)


def raw_conditional_measure(psi: BipartiteState, basis: np.ndarray | None = None) -> DiscreteMeasure:
    """Equal-weight measure on the scaled partial inner products.

    All d2 atoms are kept, each with weight 1/d2, located at the generally
    unnormalized vectors sqrt(d2) * <b_j|psi>.  Its second moment
    sum_j (1/d2) ||sqrt(d2)<b_j|psi>||^2 equals ||psi||^2 = 1 exactly.
    """
    branches = _branch_vectors(psi, basis)
    d2 = psi.d2
    vecs = np.sqrt(d2) * branches
    return DiscreteMeasure(vecs, np.full(d2, 1.0 / d2), normalized=True)


def adjust(m: DiscreteMeasure) -> DiscreteMeasure:
    """Reweight every atom by its squared norm: w_j -> w_j * ||v_j||^2.

    Does not renormalize; the total mass is preserved exactly when the input
    has unit second moment.
    """
    w = m.weights * np.sum(np.abs(m.vectors) ** 2, axis=1)
    return DiscreteMeasure(m.vectors, w)


def project_to_sphere(m: DiscreteMeasure) -> DiscreteMeasure:
    """Normalize every atom vector, keeping weights.

    Atoms with weight below 1e-14 are dropped (projection of a zero vector
    carrying no mass is immaterial); a zero vector with larger weight
    raises SingularProjectionError.
    """
    keep = m.weights >= WEIGHT_CUTOFF
    vecs, w = m.vectors[keep], m.weights[keep]
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms == 0.0):
        raise SingularProjectionError("cannot project a weighted zero atom")
    return DiscreteMeasure(vecs / norms[:, None], w)


def integrate(m: DiscreteMeasure, f) -> float:
    """sum_j w_j f(v_j) for a test function f.

    ``f`` must accept an (n_atoms, dim) array and return (n_atoms,) values,
    as the TestFunction kinds and any numpy-vectorized callable do.
    """
    return float(np.dot(m.weights, np.asarray(f(m.vectors), dtype=float)))


def random_purification(rng: np.random.Generator, rho1: DensityMatrix, d2: int) -> BipartiteState:
    """Uniformly random normalized state with reduced density matrix rho1.

    Built as sum_i sqrt(p_i) chi_i (x) phi_i from the fixed eigensystem
    (p_i, chi_i) of rho1 and a uniformly random orthonormal system {phi_i}
    in C^{d2}.  The resulting law does not depend on the stored eigenbasis,
    which the test suite checks statistically for degenerate spectra.
    Requires d2 >= d1.
    """
    d1 = rho1.dim
    if d2 < d1:
        raise DomainError(f"purification requires d2 >= d1, got d1={d1}, d2={d2}")
    p, v = rho1.spectrum(), rho1.eigenbasis()
    phis = random_ons(rng, d2, d1)
    m = (v * np.sqrt(p)) @ phis
    return BipartiteState.from_matrix(m)
