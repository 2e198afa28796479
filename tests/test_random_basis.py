"""The Haar-invariance sampler against the full-basis oracle.

The engine draws the branches of a Haar-random basis as W^T A from a d2 x k
orthonormal system W instead of a d2 x d2 basis, with the amplitude factor A
read off the reduced state; for a frozen state psi these are theorem 1's
trials at rho1 = tr_2 |psi><psi|, which the theorem2 experiment runs.  Its
law must match the full-basis route kept in ``_oracles``; the statistic is
the integrated test function mu(f) per trial, as the drivers record it.  A variant that drops A must be told apart, which
shows the comparison can fail.
"""

import numpy as np
import pytest

from gaplab import (
    DensityMatrix,
    RngStream,
    canonical_density,
    cap_indicator,
    polynomial,
    random_ons,
)
from gaplab import typicality as T
from _oracles import (
    BipartiteState,
    conditional_measure,
    full_haar_basis_measure,
    integrate,
    random_purification,
    reduced_density_matrix,
    shell_basis,
    two_sample_ks,
    uniform_subspace_state,
)

N_TRIALS = 1000
# Both test functions are nonnegative, so with reference 0 each recorded
# discrepancy is mu(f) itself.
REFERENCE = 0.0


@pytest.fixture(autouse=True)
def pinned_reference(monkeypatch):
    """The drivers judge their trials against REFERENCE."""
    monkeypatch.setattr(T, "gap_reference", lambda *args: REFERENCE)


def sampled_discrepancies(stream, draw_state, sampler, f):
    """Per trial: a state from ``draw_state(rng)``, then a conditional
    measure from ``sampler(rng, psi)`` on the same trial generator."""
    out = []
    for i in range(N_TRIALS):
        rng = stream.substream(i).generator()
        psi = draw_state(rng)
        out.append(abs(integrate(sampler(rng, psi), f) - REFERENCE))
    return np.array(out)


def theorem2_setting():
    """A frozen purification of diag(0.7, 0.3) in C^2 (x) C^32 and a cap."""
    rho = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    psi = random_purification(RngStream(2002, 0).generator(), rho, 32)
    return psi, cap_indicator(np.array([1.0, 0.0]), 0.5)


def without_r_factor(rng, psi):
    """Broken sampler: branches of W alone, scaled to unit mass, without the
    amplitude factor.  This is the law for a maximally entangled psi, not for
    psi."""
    w = random_ons(rng, psi.d2, min(psi.d1, psi.d2))
    return conditional_measure(BipartiteState.from_matrix(w / np.sqrt(w.shape[0])))


def theorem2_engine(psi, f):
    """The engine's trials for psi in random bases: theorem 1's at rho1."""
    return T.random_purification_experiment(RngStream(2002, 1), reduced_density_matrix(psi),
                                            psi.d2, f, 0.1, N_TRIALS).discrepancies


def test_theorem2_matches_full_basis_oracle():
    psi, f = theorem2_setting()
    new = theorem2_engine(psi, f)
    old = sampled_discrepancies(RngStream(2002, 2), lambda rng: psi,
                                full_haar_basis_measure, f)
    stat, p = two_sample_ks(new, old)
    assert p > 0.01, f"KS statistic {stat:.4f}, p = {p:.4g}"


def test_ks_rejects_sampler_without_r_factor():
    # Negative control on the theorem2 setting.  On the thermal shell below
    # rho_1 is close to I/2, where dropping the factor barely changes the law;
    # the unbalanced shell further down has a control of its own.
    psi, f = theorem2_setting()
    new = theorem2_engine(psi, f)
    broken = sampled_discrepancies(RngStream(2002, 3), lambda rng: psi,
                                   without_r_factor, f)
    stat, p = two_sample_ks(new, broken)
    assert p < 1e-3, f"KS statistic {stat:.4f}, p = {p:.4g}"


def test_thermal_shell_matches_full_basis_oracle():
    # The shell, thermal fit and test function of acceptance criterion 09.
    system = np.array([0.0, 1.0])
    shell = T.microcanonical_shell(system, np.linspace(0.0, 20.0, 200), 10.0, 0.5)
    omega = canonical_density(system, T.fit_beta(system, shell.reduced_density()))
    f = polynomial(np.ones(2) / np.sqrt(2), [0.0, 0.0, 1.0])
    basis = shell_basis(shell)
    new = T.shell_vs_target_experiment(
        RngStream(2009, 0), T.Subspace(basis, shell.d1, shell.d2), omega, f, 0.15,
        N_TRIALS).discrepancies

    def shell_state(rng):
        return BipartiteState(shell.d1, shell.d2, uniform_subspace_state(rng, basis))

    old = sampled_discrepancies(RngStream(2009, 1), shell_state,
                                full_haar_basis_measure, f)
    stat, p = two_sample_ks(new, old)
    assert p > 0.01, f"KS statistic {stat:.4f}, p = {p:.4g}"


def unbalanced_shell():
    """A coordinate subspace of C^2 (x) C^16 with member counts (12, 4), so
    that tr_2 rho_R = diag(0.75, 0.25), far from the I/2 a missing factor
    gives, and a cap at e1."""
    pairs = np.array([(0, j) for j in range(12)] + [(1, j) for j in range(4)])
    shell = T.CoordinateSubspace(2, 16, pairs)
    basis = shell_basis(shell)

    def shell_state(rng):
        return BipartiteState(2, 16, uniform_subspace_state(rng, basis))

    engine = T.shell_vs_target_experiment(
        RngStream(2010, 0), shell, shell.reduced_density(),
        cap_indicator(np.array([1.0, 0.0]), 0.5), 0.15, N_TRIALS).discrepancies
    return engine, shell_state, cap_indicator(np.array([1.0, 0.0]), 0.5)


def test_unbalanced_shell_matches_full_basis_oracle():
    engine, shell_state, f = unbalanced_shell()
    old = sampled_discrepancies(RngStream(2010, 1), shell_state, full_haar_basis_measure, f)
    stat, p = two_sample_ks(engine, old)
    assert p > 0.01, f"KS statistic {stat:.4f}, p = {p:.4g}"


def test_ks_rejects_shell_sampler_without_r_factor():
    engine, shell_state, f = unbalanced_shell()
    broken = sampled_discrepancies(RngStream(2010, 2), shell_state, without_r_factor, f)
    stat, p = two_sample_ks(engine, broken)
    assert p < 1e-3, f"KS statistic {stat:.4f}, p = {p:.4g}"
