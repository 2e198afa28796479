"""The batched trial engine against the per-trial route it replaced.

Each Monte Carlo driver runs its trials in chunks of stacked arrays.  The
per-trial route in ``_oracles`` composes the validating public functions
(``random_purification``, ``conditional_measure``, ``random_basis_measure``,
``integrate``, ``reduced_density_matrix``, ``trace_norm``) with the same
substreams, so both must agree trial by trial up to rounding.  The outputs
must also be identical whatever the chunk length.
"""

import numpy as np
import pytest

from gaplab import (
    BipartiteState,
    DensityMatrix,
    DomainError,
    RngStream,
    canonical_density,
    cap_indicator,
    overlap_sq,
    polynomial,
    random_purification,
    real_part,
    uniform_sphere,
)
from gaplab import typicality as T

import _oracles as O

N = 30
RHO = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))


def _theorem1():
    stream, f, ref = RngStream(301), cap_indicator(np.array([1.0, 0.0]), 0.5), 0.62
    run = lambda: T.random_purification_experiment(stream, RHO, 8, f, 0.1, N,
                                                   reference=ref)
    return run, lambda: O.purification_trials(stream, RHO, 8, f, ref, N), 16


def _theorem2():
    psi = random_purification(RngStream(302).generator(), RHO, 16)
    stream, f, ref = RngStream(303), polynomial(np.array([1.0, 1.0j]), [0.1, 0.5, -0.3]), 0.2
    run = lambda: T.random_basis_experiment(stream, psi, f, 0.1, N, reference=ref)
    return run, lambda: O.random_basis_trials(stream, psi, f, ref, N), 32


def _theorem2_wide():
    # d1 > d2: the random system has k = d2 vectors.
    psi = BipartiteState(3, 2, uniform_sphere(RngStream(304).generator(), 6))
    stream, f, ref = RngStream(305), polynomial(np.array([1.0, 0.0, 1.0]), [0.0, 0.0, 1.0]), 0.3
    run = lambda: T.random_basis_experiment(stream, psi, f, 0.1, N, reference=ref)
    return run, lambda: O.random_basis_trials(stream, psi, f, ref, N), 6


def _theorem3():
    basis = T.random_subspace(RngStream(306).generator(), 2, 8, 12)
    target = T.reduced_of_subspace(basis, 2, 8)
    stream, ref = RngStream(307), 0.1
    f = real_part(uniform_sphere(RngStream(308).generator(), 2))
    run = lambda: T.shell_universality_experiment(stream, basis, 2, 8, f, 0.1, N,
                                                  reference=ref)
    return run, lambda: O.shell_trials(stream, basis, 2, 8, f, ref, target, N), 16


def _theorem3_wide():
    basis = T.random_subspace(RngStream(309).generator(), 3, 2, 4)
    target = T.reduced_of_subspace(basis, 3, 2)
    stream, ref = RngStream(310), 0.3
    f = polynomial(np.array([0.0, 1.0, 0.0]), [0.0, 1.0, -1.0])
    run = lambda: T.shell_universality_experiment(stream, basis, 3, 2, f, 0.1, N,
                                                  reference=ref)
    return run, lambda: O.shell_trials(stream, basis, 3, 2, f, ref, target, N), 6


def _theorem4():
    basis = T.random_subspace(RngStream(311).generator(), 2, 8, 16)
    omega = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    stream, f, ref = RngStream(312), cap_indicator(np.array([1.0, 0.0]), 0.5), 0.55
    run = lambda: T.shell_vs_target_experiment(stream, basis, 2, 8, omega, f, 0.15, N,
                                               reference=ref)
    return run, lambda: O.shell_trials(stream, basis, 2, 8, f, ref, omega, N), 16


def _thermal():
    system = np.array([0.0, 1.0])
    shell = T.microcanonical_shell(system, np.linspace(0.0, 20.0, 40), 10.0, 1.0)
    omega = canonical_density(system, T.fit_beta(system, shell.reduced_density()).beta)
    basis, d1, d2 = shell.basis(), shell.d1, shell.d2
    f = polynomial(np.ones(2), [0.0, 0.0, 1.0])
    stream, ref = RngStream(313), 0.3
    run = lambda: T.shell_vs_target_experiment(stream, basis, d1, d2, omega, f, 0.15, N,
                                               reference=ref)
    return run, lambda: O.shell_trials(stream, basis, d1, d2, f, ref, omega, N), d1 * d2


def _canonical():
    basis = T.random_subspace(RngStream(314).generator(), 3, 5, 9)
    target = T.reduced_of_subspace(basis, 3, 5)
    stream = RngStream(315)
    run = lambda: T.canonical_typicality_experiment(stream, basis, 3, 5, N)
    return run, lambda: O.canonical_trials(stream, basis, 3, 5, target, N), 15


CASES = {
    "theorem1": _theorem1, "theorem2": _theorem2, "theorem2-wide": _theorem2_wide,
    "theorem3": _theorem3, "theorem3-wide": _theorem3_wide, "theorem4": _theorem4,
    "thermal": _thermal, "canonical_typicality": _canonical,
}


def _columns(outcome):
    return np.column_stack([outcome.discrepancies, outcome.auxiliary])


@pytest.mark.parametrize("name", CASES)
def test_engine_matches_per_trial_route(name):
    run, oracle, _ = CASES[name]()
    engine, expected = _columns(run()), oracle()
    assert engine.shape == expected.shape == (N, 2)
    np.testing.assert_array_equal(np.isnan(engine), np.isnan(expected))
    assert np.nanmax(np.abs(engine - expected)) <= 1e-12
    # The comparison is not vacuous: trials differ from one another.
    assert np.ptp(expected[:, 0]) > 1e-3


@pytest.mark.parametrize("name", CASES)
def test_chunk_length_does_not_change_records(monkeypatch, name):
    run, _, entries = CASES[name]()
    default = run()
    assert T.CHUNK_ENTRIES // entries >= N  # one chunk holds every trial
    for chunk in (1, 7):
        monkeypatch.setattr(T, "CHUNK_ENTRIES", chunk * entries)
        out = run()
        for column in ("discrepancies", "passed", "auxiliary"):
            np.testing.assert_array_equal(getattr(out, column), getattr(default, column))


def test_chunk_checks_reject_what_the_public_constructors_reject():
    # Two (d2, d1) = (4, 2) branch stacks of the product state e1 (x) e1.
    good = np.zeros((2, 4, 2), dtype=complex)
    good[:, 0, 0] = 1.0
    nan = good.copy()
    nan[1, 0, 0] = np.nan
    f = overlap_sq(np.array([1.0, 0.0]))
    target = DensityMatrix.maximally_mixed(2)
    assert np.array_equal(T._conditional_integrals(good, f), [1.0, 1.0])
    assert np.allclose(T._reduced_distances(np.swapaxes(good, -1, -2), target), 1.0)
    for bad in (nan, 2.0 * good):
        with pytest.raises(DomainError):
            T._conditional_integrals(bad, f)
        with pytest.raises(DomainError):
            T._reduced_distances(np.swapaxes(bad, -1, -2), target)


def _scaled(q):
    return q * (1.0 + 1e-9)


def _one_nan(q):
    q = q.copy()
    q[..., 0, 0] = np.nan
    return q


def _thermal_driver():
    shell = T.microcanonical_shell([0.0, 1.0], np.linspace(0.0, 20.0, 40), 10.0, 1.0)
    f = polynomial(np.ones(2), [0.0, 0.0, 1.0])
    return lambda: T.thermal_experiment(RngStream(316), shell, f, 0.15, N)


DRIVERS = {"theorem1": lambda: CASES["theorem1"]()[0],
           "theorem2": lambda: CASES["theorem2"]()[0],
           "theorem3": lambda: CASES["theorem3"]()[0],
           "thermal": _thermal_driver}


@pytest.mark.parametrize("name", DRIVERS)
@pytest.mark.parametrize("spoil", [_scaled, _one_nan])
def test_spoiled_haar_system_fails_the_weight_check(monkeypatch, name, spoil):
    # The engine keeps no Gram check of its Haar systems: Q (1 + 1e-9) would
    # pass one at 1e-8, yet its weights sum to 1 + 2e-9 and fail.
    run = DRIVERS[name]()
    haar_columns = T._haar_columns
    monkeypatch.setattr(T, "_haar_columns", lambda z: spoil(haar_columns(z)))
    with pytest.raises(DomainError, match="conditional weights"):
        run()


def test_zero_trials_rejected():
    with pytest.raises(DomainError):
        T.random_purification_experiment(RngStream(317), RHO, 8,
                                         overlap_sq(np.array([1.0, 0.0])), 0.1, 0)
