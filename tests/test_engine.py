"""The batched trial engine against the per-trial route it replaced.

Each Monte Carlo driver runs its trials in chunks of stacked arrays.  The
per-trial route in ``_oracles`` composes the validating per-trial functions
(``random_purification``, ``conditional_measure``,
``reduced_state_basis_measure``, ``integrate``, ``reduced_density_matrix``,
``trace_norm``) on the same generator, trial after trial, so both must agree
trial by trial up to rounding.  The outputs must also be identical whatever
the chunk length.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import (
    DensityMatrix,
    DimensionError,
    DomainError,
    RngStream,
    canonical_density,
    cap_indicator,
    ginibre,
    haar_unitary,
    overlap_sq,
    polynomial,
    real_part,
    uniform_sphere,
)
from gaplab import typicality as T
from gaplab.randomness import _haar_frame_factor

import _oracles as O

N = 30
RHO = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))


def _pinned(reference, driver):
    """``driver`` as a call judged against ``reference`` in place of
    GAP(rho)(f), as the per-trial routes are."""
    def run():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(T, "gap_reference", lambda *args: reference)
            return driver()
    return run


def _theorem1():
    stream, f, ref = RngStream(301), cap_indicator(np.array([1.0, 0.0]), 0.5), 0.62
    run = _pinned(ref, lambda: T.random_purification_experiment(stream, RHO, 8, f, 0.1, N))
    return run, lambda: O.purification_trials(stream, RHO, 8, f, ref, N), 16


def _theorem2():
    # A frozen state in random bases, trial by trial, against the engine's
    # theorem-1 trials at its rho1, which the theorem2 experiment runs.
    psi = O.random_purification(RngStream(302).generator(), RHO, 16)
    stream, f, ref = RngStream(303), polynomial(np.array([1.0, 1.0j]), [0.1, 0.5, -0.3]), 0.2
    rho1 = O.reduced_density_matrix(psi)
    run = _pinned(ref, lambda: T.random_purification_experiment(stream, rho1, 16, f, 0.1, N))
    return run, lambda: O.random_basis_trials(stream, psi, f, ref, N), 32


def _theorem3():
    subspace = T.random_subspace(RngStream(306).generator(), 2, 8, 12)
    target = subspace.reduced_density()
    stream, ref = RngStream(307), 0.1
    f = real_part(uniform_sphere(RngStream(308).generator(), 2))
    run = _pinned(ref, lambda: T.shell_universality_experiment(stream, subspace, f, 0.1, N))
    return run, lambda: O.shell_trials(stream, subspace.basis, 2, 8, f, ref, target, N), 16


def _theorem3_wide():
    # d1 > d2: the random system has k = d2 < d1 vectors, which no theorem-1
    # point has (it needs d2 >= d1).
    subspace = T.random_subspace(RngStream(309).generator(), 3, 2, 4)
    target = subspace.reduced_density()
    stream, ref = RngStream(310), 0.3
    f = polynomial(np.array([0.0, 1.0, 0.0]), [0.0, 1.0, -1.0])
    run = _pinned(ref, lambda: T.shell_universality_experiment(stream, subspace, f, 0.1, N))
    return run, lambda: O.shell_trials(stream, subspace.basis, 3, 2, f, ref, target, N), 6


def _theorem4_wide():
    # d1 > d2 against a fixed target: k = d2 < d1 with the cap's bounded,
    # discontinuous integrand, which theorem3-wide's polynomial does not reach.
    subspace = T.random_subspace(RngStream(304).generator(), 3, 2, 4)
    omega = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
    stream, f, ref = RngStream(305), cap_indicator(np.array([1.0, 1.0j, 0.0]), 0.4), 0.45
    run = _pinned(ref, lambda: T.shell_vs_target_experiment(stream, subspace, omega, f,
                                                            0.15, N))
    return run, lambda: O.shell_trials(stream, subspace.basis, 3, 2, f, ref, omega, N), 6


def _theorem4():
    subspace = T.random_subspace(RngStream(311).generator(), 2, 8, 16)
    omega = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
    stream, f, ref = RngStream(312), cap_indicator(np.array([1.0, 0.0]), 0.5), 0.55
    run = _pinned(ref, lambda: T.shell_vs_target_experiment(stream, subspace, omega, f,
                                                            0.15, N))
    return run, lambda: O.shell_trials(stream, subspace.basis, 2, 8, f, ref, omega, N), 16


def _thermal(scattered=False):
    system = np.array([0.0, 1.0])
    shell = T.microcanonical_shell(system, np.linspace(0.0, 20.0, 40), 10.0, 1.0)
    omega = canonical_density(system, T.fit_beta(system, shell.reduced_density()))
    basis, d1, d2 = O.shell_basis(shell), shell.d1, shell.d2
    # thermal_experiment passes the shell itself, whose states are scattered.
    subspace = shell if scattered else T.Subspace(basis, d1, d2)
    f = polynomial(np.ones(2), [0.0, 0.0, 1.0])
    stream, ref = RngStream(313), 0.3
    run = _pinned(ref, lambda: T.shell_vs_target_experiment(stream, subspace, omega, f,
                                                            0.15, N))
    return run, lambda: O.shell_trials(stream, basis, d1, d2, f, ref, omega, N), d1 * d2


def _zero_row(theorem4=False):
    # No member pair has system level 2, so every state's coefficient matrix
    # has a zero row and its reduced matrix a zero eigenvalue.
    pairs = np.array([(0, j) for j in range(5)] + [(1, j) for j in range(1, 4)])
    subspace = T.CoordinateSubspace(3, 5, pairs)
    basis = O.shell_basis(subspace)
    stream, ref = RngStream(318), 0.4
    if theorem4:
        target = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        f = cap_indicator(np.array([1.0, 1.0j, 1.0]), 0.4)
        run = _pinned(ref, lambda: T.shell_vs_target_experiment(stream, subspace, target, f,
                                                                0.15, N))
    else:
        target = subspace.reduced_density()
        f = polynomial(np.array([1.0, 1.0, 1.0]), [0.0, 1.0, 0.5])
        run = _pinned(ref, lambda: T.shell_universality_experiment(stream, subspace, f, 0.1, N))
    return run, lambda: O.shell_trials(stream, basis, 3, 5, f, ref, target, N), 15


def _canonical():
    subspace = T.random_subspace(RngStream(314).generator(), 3, 5, 9)
    target = subspace.reduced_density()
    stream = RngStream(315)
    run = lambda: T.canonical_typicality_experiment(stream, subspace, N)
    return run, lambda: O.canonical_trials(stream, subspace.basis, 3, 5, target, N), 15


CASES = {
    "theorem1": _theorem1, "theorem2": _theorem2, "theorem3": _theorem3,
    "theorem3-wide": _theorem3_wide, "theorem4": _theorem4, "theorem4-wide": _theorem4_wide,
    "theorem3-zero-row": _zero_row, "theorem4-zero-row": lambda: _zero_row(theorem4=True),
    "thermal": _thermal, "thermal-scattered": lambda: _thermal(scattered=True),
    "canonical_typicality": _canonical,
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
    # Two (d2, k) = (4, 2) Gaussian draws whose frame is (e1, e2), with the
    # amplitude factor of the product state e1 (x) e1: the branches are
    # those of that state, whatever the columns' lengths and phases.
    good = np.zeros((2, 4, 2), dtype=complex)
    good[:, 0, 0], good[:, 1, 1] = 2.0, 0.5j
    factor = np.diag([1.0, 0.0]).astype(complex)
    f = overlap_sq(np.array([1.0, 0.0]))
    target = DensityMatrix.maximally_mixed(2)
    assert np.allclose(T._conditional_integrals(*_haar_frame_factor(good, factor), f), 1.0)
    # The state e1 (x) e1, whose reduced matrix diag(1, 0) gives that factor
    # back and lies at trace distance 1 from I/2.
    state = np.zeros((2, 2, 4), dtype=complex)
    state[:, 0, 0] = 1.0
    rho = T._reduced_matrices(state)
    np.testing.assert_array_equal(rho, [factor, factor])
    np.testing.assert_array_equal(T._amplitude_factor(rho, 2), [factor, factor])
    assert np.allclose(np.abs(np.linalg.eigvalsh(rho - target.matrix)).sum(axis=-1), 1.0)
    singular, nan, inf = good.copy(), good.copy(), good.copy()
    singular[1, 1, 1] = 0.0  # a zero column
    nan[1, 0, 0] = np.nan
    inf[1, 2, 0] = np.inf
    with pytest.raises(DomainError, match="Gram matrix is not positive definite"):
        _haar_frame_factor(singular, factor)
    # A NaN or inf passes the Cholesky factorization as NaN; a state of norm
    # 2 has weights that sum to 4 (and a reduced trace of 4).  An inf entry
    # makes numpy warn of an invalid value on its way to the one check.
    for draw, a in ((nan, factor), (inf, factor), (good, 2.0 * factor)):
        with pytest.raises(DomainError, match="conditional weights"), \
                np.errstate(invalid="ignore"):
            T._conditional_integrals(*_haar_frame_factor(draw, a), f)
    for bad in (2.0 * state, np.where(np.arange(4) == 0, np.nan, state),
                np.where(np.arange(4) == 3, np.inf, state)):
        with pytest.raises(DomainError, match="reduced density matrices"), \
                np.errstate(invalid="ignore"):
            T._reduced_matrices(bad)


@pytest.mark.parametrize("d1", range(1, 9))
def test_the_amplitude_factor_is_a_square_root_of_rho_transposed(d1):
    # rho = U diag(s) U^dagger for a Haar U and known spectra s: four random,
    # four with tied eigenvalues (pairs of equal entries and I / d1) and four
    # of rank about d1 / 2.  A = (V sqrt(P))^T has A^dagger A = conj(rho),
    # and its rows are the eigenvectors scaled by sqrt(p), p descending, so
    # their squared norms are s in descending order.  (Their norms would read
    # the sqrt of a rounded zero eigenvalue, about 1e-8, as not 0.)
    rng = RngStream(340 + d1).generator()
    half = max(1, d1 // 2)
    spectra = [rng.dirichlet(np.ones(d1)) for _ in range(4)]
    spectra += [np.repeat(rng.dirichlet(np.ones((d1 + 1) // 2)), 2)[:d1] for _ in range(3)]
    spectra += [np.full(d1, 1.0 / d1)]
    spectra += [np.concatenate([rng.dirichlet(np.ones(half)), np.zeros(d1 - half)])
                for _ in range(4)]
    spectra = np.array([s / s.sum() for s in spectra])
    rho = []
    for s in spectra:
        u = haar_unitary(rng, d1)
        m = (u * s) @ u.conj().T
        rho.append((m + m.conj().T) / 2.0)
    rho = np.array(rho)
    a = T._amplitude_factor(rho, d1)
    assert a.shape == (len(spectra), d1, d1)
    np.testing.assert_allclose(np.swapaxes(a.conj(), -1, -2) @ a, rho.conj(),
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.sum(np.abs(a) ** 2, axis=-1), -np.sort(-spectra, axis=-1),
                               rtol=0, atol=1e-14)
    # k < d1 keeps the first k rows: the k largest eigenpairs.
    for k in range(1, d1):
        np.testing.assert_array_equal(T._amplitude_factor(rho, k), a[:, :k])


def test_product_state_puts_every_trial_in_the_cap():
    # psi = chi (x) xi has rho1 = |chi><chi|, spectrum [1, 0]: every branch is
    # chi up to a factor, so mu(cap at chi, t = 1) is 1 in every trial.
    # eigh rounds the zero eigenvalue below 0, which the factor clips.
    rng = RngStream(332).generator()
    chi, xi = uniform_sphere(rng, 2), uniform_sphere(rng, 16)
    rho1 = O.reduced_density_matrix(O.product_state(chi, xi))
    assert np.linalg.eigvalsh(rho1.matrix)[0] < 0.0
    out = T.random_purification_experiment(RngStream(333), rho1, 16, cap_indicator(chi, 1.0),
                                           0.1, 200)
    assert out.reference == 1.0 and out.pass_fraction == 1.0
    assert np.max(out.discrepancies) <= 1e-12


class _Pcg64Stream:
    """A stream whose generator is the PCG64 route of ``stream``, the
    generator the library used up to 0.26.0."""

    def __init__(self, stream):
        self.stream = stream

    def generator(self):
        return O.pcg64_generator(self.stream)


def _real_frame(z, a):
    # Real Gaussian draws give real orthogonal frames, not Haar k-systems.
    return _haar_frame_factor(z.real.astype(complex), a)


def test_sfc64_trials_have_the_law_of_the_pcg64_route(monkeypatch):
    # mu(cap at e1, t = 0.5) for rho = diag(0.7, 0.3), d2 = 16: the engine on
    # the library's SFC64 stream against the per-trial route on the PCG64
    # generator of the same address.  Judged against 0, each discrepancy is
    # the trial's mu.
    stream, f, n = RngStream(350), cap_indicator(np.array([1.0, 0.0]), 0.5), 2000
    run = _pinned(0.0, lambda: T.random_purification_experiment(stream, RHO, 16, f, 0.1, n))
    oracle = O.purification_trials(_Pcg64Stream(stream), RHO, 16, f, 0.0, n)[:, 0]
    assert O.two_sample_ks(run().discrepancies, oracle)[1] > 1e-3
    # Control: real frames, whose cap reference is 0.748, not 0.784, fail.
    monkeypatch.setattr(T, "_haar_frame_factor", _real_frame)
    assert O.two_sample_ks(run().discrepancies, oracle)[1] < 1e-3


def _scaled(z, a):
    z, factor = _haar_frame_factor(z, a)
    return z, factor * (1.0 + 1e-9)


def _one_nan(z, a):
    z = z.copy()
    z[..., 0, 0] = np.nan
    return _haar_frame_factor(z, a)


def _thermal_driver():
    system = [0.0, 1.0]
    shell = T.microcanonical_shell(system, np.linspace(0.0, 20.0, 40), 10.0, 1.0)
    f = polynomial(np.ones(2), [0.0, 0.0, 1.0])
    return lambda: T.thermal_experiment(RngStream(316), system, shell, f, 0.15, N)


DRIVERS = {"theorem1": lambda: CASES["theorem1"]()[0],
           "theorem2": lambda: CASES["theorem2"]()[0],
           "theorem3": lambda: CASES["theorem3"]()[0],
           "thermal": _thermal_driver}


@pytest.mark.parametrize("name", DRIVERS)
@pytest.mark.parametrize("spoil", [_scaled, _one_nan])
def test_spoiled_haar_system_fails_the_weight_check(monkeypatch, name, spoil):
    # The engine keeps no Gram check of its Haar frames: a folded factor
    # F (1 + 1e-9) is a frame Q (1 + 1e-9), which a Gram check at 1e-8
    # would pass, yet its weights sum to 1 + 2e-9 and fail.  A NaN in a
    # draw comes out of the fold as NaN weights.
    run = DRIVERS[name]()
    monkeypatch.setattr(T, "_haar_frame_factor", spoil)
    with pytest.raises(DomainError, match="conditional weights"):
        run()


class _Fault(Exception):
    pass


class _RecordingGenerator:
    """A generator that records the thread of each ``standard_normal`` call
    and raises ``_Fault`` on call number ``fail_at``, if one is given."""

    def __init__(self, rng, fail_at=None):
        self.rng, self.fail_at, self.threads = rng, fail_at, []

    def standard_normal(self, *args, **kwargs):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail_at:
            raise _Fault(f"draw {self.fail_at}")
        return self.rng.standard_normal(*args, **kwargs)


def _record_generators(monkeypatch, fail_at=None):
    """Wrap every generator a stream hands out; returns the list of them."""
    generator, made = RngStream.generator, []

    def wrapped(self):
        made.append(_RecordingGenerator(generator(self), fail_at))
        return made[-1]

    monkeypatch.setattr(RngStream, "generator", wrapped)
    return made


def test_a_generator_error_reaches_the_caller(monkeypatch):
    _record_generators(monkeypatch, fail_at=3)
    monkeypatch.setattr(T, "CHUNK_ENTRIES", 16)  # one theorem1 trial per chunk
    run, _, _ = CASES["theorem1"]()
    with pytest.raises(_Fault, match="draw 3"):
        run()


@pytest.mark.parametrize("name", CASES)
def test_every_draw_runs_on_the_calling_thread(monkeypatch, name):
    # 0.23.0 to 0.28.1 drew every chunk on a worker thread.
    run, _, entries = CASES[name]()
    made = _record_generators(monkeypatch)
    monkeypatch.setattr(T, "CHUNK_ENTRIES", 3 * entries)
    run()
    threads = [thread for rng in made for thread in rng.threads]
    assert len(threads) > 1 and set(threads) == {threading.get_ident()}


@st.composite
def _shells(draw):
    """A shell of random levels whose window starts at one level pair's sum,
    so that it is never empty."""
    levels = st.floats(-10.0, 10.0, allow_nan=False)
    system = draw(st.lists(levels, min_size=1, max_size=4))
    bath = draw(st.lists(levels, min_size=1, max_size=40))
    i, j = draw(st.integers(0, len(system) - 1)), draw(st.integers(0, len(bath) - 1))
    return T.microcanonical_shell(system, bath, system[i] + bath[j],
                                  draw(st.floats(1e-3, 30.0)))


@st.composite
def _coordinate_subspaces(draw):
    """A coordinate subspace of arbitrary distinct member pairs in any order,
    such as a block subspace."""
    d1, d2 = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    flat = draw(st.lists(st.integers(0, d1 * d2 - 1), min_size=1, max_size=d1 * d2,
                         unique=True))
    return T.CoordinateSubspace(d1, d2, np.array([divmod(k, d2) for k in flat]))


@st.composite
def _shared_column_subspaces(draw):
    """A coordinate subspace on one to five bath columns, the first of which
    carries two system levels, so that its states' rho1 has an off-diagonal
    entry; the pairs are in any order."""
    d1, d2 = draw(st.integers(2, 4)), draw(st.integers(1, 40))
    columns = draw(st.lists(st.integers(0, d2 - 1), min_size=1, max_size=min(d2, 5),
                            unique=True))
    levels = [draw(st.lists(st.integers(0, d1 - 1), min_size=2 if c == 0 else 1,
                            max_size=d1, unique=True)) for c in range(len(columns))]
    pairs = [(i, j) for j, column in zip(columns, levels) for i in column]
    return T.CoordinateSubspace(d1, d2, np.array(draw(st.permutations(pairs))))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(shell=st.one_of(_shells(), _coordinate_subspaces(), _shared_column_subspaces()),
       seed=st.integers(0, 2**32 - 1))
@example(shell=T.CoordinateSubspace(3, 40, np.array([[2, 17], [0, 17]])), seed=1)
def test_scattered_shell_states_equal_the_dense_route(shell, seed):
    # The compact states hold the dense route's states on the bath columns
    # the pairs use, and the other columns are zero, so both give the same
    # rho1; the single-column example has an off-diagonal rho1.
    dense = T.Subspace(O.shell_basis(shell), shell.d1, shell.d2)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((5, shell.dim, 1)) + 1j * rng.standard_normal((5, shell.dim, 1))
    compact, multiplied = shell.states(z), dense.states(z)
    columns = np.unique(shell.member_pairs[:, 1])
    assert compact.shape == (5, shell.d1, columns.size)
    assert not np.any(np.delete(multiplied, columns, axis=-1))
    # Only the norm is summed in another order, so entries are a few ulps apart.
    np.testing.assert_allclose(compact, multiplied[..., columns],
                               rtol=4 * np.finfo(float).eps, atol=0)
    rho, oracle = T._reduced_matrices(compact), T._reduced_matrices(multiplied)
    # Entries of rho1 are at most 1 in modulus, and both routes sum the same
    # products, up to zeros and in another order: within 8 ulps of 1 (4 at
    # most over 5 000 random subspaces of these sizes).
    np.testing.assert_allclose(rho, oracle, rtol=0, atol=8 * np.finfo(float).eps)
    # rho_ii' is exactly 0 on both routes unless a bath column carries i and i'.
    occupied = np.zeros((shell.d1, shell.d2), dtype=int)
    occupied[shell.member_pairs[:, 0], shell.member_pairs[:, 1]] = 1
    apart = occupied @ occupied.T == 0
    assert np.all(rho[:, apart] == 0) and np.all(oracle[:, apart] == 0)
    assert np.array_equal(shell.reduced_density().matrix, dense.reduced_density().matrix)


@pytest.mark.parametrize("d1, d2, pairs, error, message", [
    (2, 3, [[0, 2], [0, 2]], DimensionError, "member pairs"),             # duplicate
    (2, 3, [[0, 0], [2, 0]], DimensionError, "member pairs"),             # out of range
    (2, 3, [[-1, 2]], DimensionError, "member pairs"),                    # negative
    (2, 3, [[0.0, 1.0]], DimensionError, "member pairs"),                 # float
    (2, 3, np.empty((0, 2), dtype=int), DimensionError, "member pairs"),  # empty
    (2.0, 3, [[0, 2]], DomainError, "d1 must be an integer >= 1, got 2.0"),
    (2, 3.0, [[0, 2]], DomainError, "d2 must be an integer >= 1, got 3.0"),
    (True, 3, [[0, 2]], DomainError, "d1 must be an integer >= 1, got True"),
    (2, True, [[0, 0]], DomainError, "d2 must be an integer >= 1, got True"),
])
def test_bad_member_pairs_rejected(d1, d2, pairs, error, message):
    with pytest.raises(error, match=message):
        T.CoordinateSubspace(d1, d2, np.array(pairs))


def _engine_draws(stream, n_trials, entries, shapes):
    """Every Gaussian array ``_run_trials`` hands ``evaluate``, stacked over
    the trials and scaled by sqrt(1/2) as ``ginibre`` scales its draws, and
    the number of chunks.  The arrays are views of the engine's buffer,
    which it refills once ``evaluate`` returns, so each is copied, scaled,
    before that."""
    seen = []

    def evaluate(*gaussians):
        seen.append([g * np.sqrt(0.5) for g in gaussians])
        return np.zeros(len(gaussians[0])), np.zeros(len(gaussians[0]))

    T._run_trials(stream, n_trials, entries, shapes, evaluate)
    return [np.concatenate(parts) for parts in zip(*seen)], len(seen)


@pytest.mark.parametrize("per_chunk, chunks", [(1, 23), (3, 8), (None, 1)])
def test_trials_draw_in_sequence_from_one_generator(monkeypatch, per_chunk, chunks):
    # Trial after trial, shape after shape, as ginibre draws on one generator.
    stream, shapes, n_trials, entries = RngStream(319), [(3, 1), (4, 2)], 23, 8
    rng = stream.generator()
    trials = [[ginibre(rng, *shape) for shape in shapes] for _ in range(n_trials)]
    per_trial = [np.stack(draws) for draws in zip(*trials)]
    if per_chunk is not None:
        monkeypatch.setattr(T, "CHUNK_ENTRIES", per_chunk * entries)
    draws, n_chunks = _engine_draws(stream, n_trials, entries, shapes)
    assert n_chunks == chunks
    for got, expected in zip(draws, per_trial, strict=True):
        np.testing.assert_array_equal(got, expected)


def test_a_chunk_keeps_its_draws_until_evaluate_returns(monkeypatch):
    # ``evaluate`` reads views of the engine's buffer, which must not be
    # refilled before ``evaluate`` returns.  Each chunk sleeps long enough
    # for any drawing of the next chunk that runs beside it to refill it.
    monkeypatch.setattr(T, "CHUNK_ENTRIES", 8)  # one trial per chunk
    changed = []

    def evaluate(z):
        before = z.copy()
        time.sleep(0.005)
        changed.append(not np.array_equal(z, before))
        return np.zeros(len(z)), np.zeros(len(z))

    T._run_trials(RngStream(352), 12, 8, [(4, 1)], evaluate)
    assert changed == [False] * 12


def test_concurrent_calls_each_draw_their_own_sequence(monkeypatch):
    # Four callers at one trial per chunk and a 1 us switch interval, so
    # that their chunks interleave as often as they can; every call still
    # gets the serial draws of its own generator.
    shapes, n_trials, entries = [(3, 1), (4, 2)], 40, 8
    monkeypatch.setattr(T, "CHUNK_ENTRIES", entries)
    expected, got = [], {}
    for seed in range(4):
        rng = RngStream(340 + seed).generator()
        trials = [[ginibre(rng, *shape) for shape in shapes] for _ in range(n_trials)]
        expected.append([np.stack(draws) for draws in zip(*trials)])

    def call(seed):
        got[seed] = _engine_draws(RngStream(340 + seed), n_trials, entries, shapes)[0]

    callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert sorted(got) == [0, 1, 2, 3]
    for seed, draws in enumerate(expected):
        for got_draw, expected_draw in zip(got[seed], draws, strict=True):
            np.testing.assert_array_equal(got_draw, expected_draw)


def test_zero_trials_rejected():
    with pytest.raises(DomainError):
        T.random_purification_experiment(RngStream(317), RHO, 8,
                                         overlap_sq(np.array([1.0, 0.0])), 0.1, 0)
