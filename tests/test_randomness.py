import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    DensityMatrix,
    DomainError,
    RngStream,
    ginibre,
    haar_unitary,
    random_ons,
    uniform_sphere,
)
from gaplab.randomness import (
    _gram_cholesky,
    _haar_columns,
    _haar_frame_factor,
)
from gaplab.stats import ks_statistic, ks_vs_exponential

from _oracles import (
    haar_system_by_gram_schmidt,
    pcg64_generator,
    random_onb,
    same_state,
    sample_complex_gaussian,
    sample_gap,
    two_sample_ks,
)

# Property tests replay the same examples on every run.
EXACT = settings(derandomize=True, database=None, deadline=None, max_examples=150)


class TestRngStream:
    def test_bit_identical_across_runs(self):
        a = RngStream(123, 4).generator().standard_normal(1000)
        b = RngStream(123, 4).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 4).generator().standard_normal(10)
        b = RngStream(123, 5).generator().standard_normal(10)
        assert not np.array_equal(a, b)

    def test_substreams_are_reproducible_and_distinct(self):
        s = RngStream(7, 1)
        a1 = s.substream(3).generator().random(5)
        a2 = s.substream(3).generator().random(5)
        b = s.substream(4).generator().random(5)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_numpy_integers_are_plain_components(self):
        s = RngStream(np.int64(7), np.uint32(1)).substream(np.int16(3))
        assert s == RngStream(7, 1, (3,))
        assert type(s.master_seed) is int and type(s._path[0]) is int

    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, True, np.bool_(False), "3", None])
    def test_bad_components_rejected(self, bad):
        with pytest.raises(DomainError):
            RngStream(bad)
        with pytest.raises(DomainError):
            RngStream(1, bad)
        with pytest.raises(DomainError):
            RngStream(1, 0, (2, bad))
        with pytest.raises(DomainError):
            RngStream(1).substream(bad)


def _child_state(seed, stream_index, path, index):
    """SFC64 state of child ``index`` of the SeedSequence at spawn key
    (stream_index,) + path: handed out by ``spawn`` for small indices, and
    past them, where ``spawn`` would allocate every earlier child, built from
    the key spawn gives it, the parent's key followed by ``index``."""
    key = (stream_index,) + path
    if index < 64:
        child = np.random.SeedSequence(entropy=seed, spawn_key=key).spawn(index + 1)[index]
    else:
        child = np.random.SeedSequence(entropy=seed, spawn_key=key + (index,))
    return np.random.SFC64(child).state


class TestStreamLayout:
    """A point's trials draw from ``generator()`` and its random subspace
    from substream n_trials + 1; substream n_trials is unused since the
    references became exact.  Substreams are the children numpy's
    ``SeedSequence.spawn`` gives the point's sequence, so they are
    independent of the trials and of each other."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 7])
    @pytest.mark.parametrize("stream_index", [0, 3, 2**33])
    def test_substreams_are_spawned_children(self, seed, stream_index):
        for path in [(), (5,), (2**40, 0), (1, 2, 3)]:
            stream = RngStream(seed, stream_index, path)
            for index in [0, 1, 8, 63, 2**32 - 1, 2**32, 2**32 + 1]:
                assert same_state(stream.substream(index).generator().bit_generator.state,
                                  _child_state(seed, stream_index, path, index))

    @EXACT
    @given(seed=st.integers(0, 2**140), stream_index=st.integers(0, 2**40),
           path=st.lists(st.integers(0, 2**36), max_size=3).map(tuple),
           index=st.one_of(st.integers(0, 63), st.integers(64, 2**33)))
    def test_substreams_are_spawned_children_property(self, seed, stream_index, path, index):
        stream = RngStream(seed, stream_index, path)
        assert same_state(stream.substream(index).generator().bit_generator.state,
                          _child_state(seed, stream_index, path, index))

    def test_a_state_one_draw_ahead_is_another_state(self):
        # The check above is not vacuous: a generator one draw ahead, or the
        # same sequence through another bit generator, fails it.
        state = _child_state(5, 0, (), 3)
        ahead = RngStream(5).substream(3).generator()
        ahead.standard_normal()
        assert same_state(state, _child_state(5, 0, (), 3))
        assert not same_state(ahead.bit_generator.state, state)
        assert not same_state(state, _child_state(5, 0, (), 4))
        pcg = pcg64_generator(RngStream(5).substream(3))
        assert not same_state(pcg.bit_generator.state, state)

    def test_generator_is_the_parent_sequence(self):
        stream = RngStream(2**64 + 3, 7, (4,))
        seq = stream.generator().bit_generator.seed_seq
        assert seq.entropy == 2**64 + 3 and seq.spawn_key == (7, 4)
        assert seq.n_children_spawned == 0
        assert stream.substream(0).generator().bit_generator.seed_seq.spawn_key == (7, 4, 0)


class TestComplexGaussian:
    def test_zero_variance(self):
        rng = RngStream(1).generator()
        assert sample_complex_gaussian(rng, 0.0) == 0.0

    def test_negative_variance_rejected(self):
        rng = RngStream(1).generator()
        with pytest.raises(DomainError):
            sample_complex_gaussian(rng, -1.0)

    def test_negative_entry_of_array_variance_rejected(self):
        rng = RngStream(1).generator()
        with pytest.raises(DomainError):
            sample_complex_gaussian(rng, np.array([0.5, -1e-3, 0.5]), size=(4, 3))

    def test_array_variance_scales_each_entry(self):
        rng = RngStream(2).generator()
        z = sample_complex_gaussian(rng, np.array([1.0, 0.0, 4.0]), size=(100_000, 3))
        assert np.all(z[:, 1] == 0.0)
        assert abs(np.mean(np.abs(z[:, 0]) ** 2) - 1.0) < 0.02
        assert abs(np.mean(np.abs(z[:, 2]) ** 2) - 4.0) < 0.08

    def test_list_variance_draws_as_the_array(self):
        draws = [sample_complex_gaussian(RngStream(6).generator(), variance, (4, 2))
                 for variance in ([0.5, 2.0], np.array([0.5, 2.0]))]
        np.testing.assert_array_equal(draws[0], draws[1])

    def test_moments(self):
        rng = RngStream(2).generator()
        z = sample_complex_gaussian(rng, 1.0, size=100_000)
        assert abs(z.mean()) < 0.01
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
        # real and imaginary parts carry half the variance each
        assert abs(np.var(z.real) - 0.5) < 0.01
        assert abs(np.var(z.imag) - 0.5) < 0.01

    def test_squared_modulus_is_unit_exponential(self):
        rng = RngStream(3).generator()
        z = sample_complex_gaussian(rng, 1.0, size=100_000)
        assert ks_vs_exponential(np.abs(z) ** 2) < 0.01


    @pytest.mark.parametrize("size", [2.5, (2, 2.5), True, -1])
    def test_size_that_is_not_a_count_is_rejected(self, size):
        with pytest.raises(DomainError, match="size must be an integer >= 0"):
            sample_complex_gaussian(RngStream(1).generator(), 1.0, size)

    def test_size_forms_draw_alike(self):
        draws = [sample_complex_gaussian(RngStream(5).generator(), 1.0, size)
                 for size in (3, (3,), [3], np.int64(3))]
        for z in draws[1:]:
            np.testing.assert_array_equal(z, draws[0])


class TestHaarUnitary:
    def test_unitarity(self):
        rng = RngStream(4).generator()
        for n in (1, 2, 5, 16):
            u = haar_unitary(rng, n)
            assert np.max(np.abs(u @ u.conj().T - np.eye(n))) < 1e-10

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            haar_unitary(RngStream(4).generator(), 0)

    def test_dim1_phase_uniform(self):
        rng = RngStream(5).generator()
        args = np.array([np.angle(haar_unitary(rng, 1)[0, 0]) for _ in range(100_000)])
        stat = ks_statistic(args, lambda x: (x + np.pi) / (2 * np.pi))
        assert stat < 0.01

    def test_entry_second_moment(self):
        rng = RngStream(6).generator()
        vals = np.array([np.abs(haar_unitary(rng, 8)[0, 0]) ** 2
                         for _ in range(100_000)])
        assert abs(vals.mean() - 1.0 / 8.0) < 0.005

    def test_left_invariance(self):
        # The law of V U equals the law of U for any fixed unitary V.
        rng = RngStream(7).generator()
        v = haar_unitary(rng, 4)
        a = np.array([np.abs((v @ haar_unitary(rng, 4))[0, 0]) ** 2
                      for _ in range(10_000)])
        b = np.array([np.abs(haar_unitary(rng, 4)[0, 0]) ** 2
                      for _ in range(10_000)])
        _, p = two_sample_ks(a, b)
        assert p > 0.01

    def test_naive_qr_is_not_haar(self):
        # Without the R-diagonal phase correction the (0,0) entry keeps a
        # deterministic phase; the uniformity test must reject it loudly.
        rng = RngStream(8).generator()

        def naive(n):
            q, _ = np.linalg.qr(ginibre(rng, n))
            return q

        phase_cdf = lambda x: (x + np.pi) / (2 * np.pi)
        naive_args = np.array([np.angle(naive(4)[0, 0]) for _ in range(2000)])
        fixed_args = np.array([np.angle(haar_unitary(rng, 4)[0, 0])
                               for _ in range(2000)])
        assert ks_statistic(naive_args, phase_cdf) > 0.2
        assert ks_statistic(fixed_args, phase_cdf) < 0.05


class TestRandomOnb:
    def test_gram(self):
        rng = RngStream(9).generator()
        for n in (2, 3, 8):
            b = random_onb(rng, n)
            assert np.max(np.abs(b @ b.conj().T - np.eye(n))) < 1e-10

    def test_rotation_invariance(self):
        rng = RngStream(10).generator()
        v = haar_unitary(rng, 3)
        stat_plain = np.array([np.abs(random_onb(rng, 3)[0, 0]) ** 2
                               for _ in range(10_000)])
        stat_rotated = np.array([np.abs((random_onb(rng, 3) @ v.T)[0, 0]) ** 2
                                 for _ in range(10_000)])
        ks, _ = two_sample_ks(stat_plain, stat_rotated)
        assert ks < 0.02

    def test_overlap_means(self):
        rng = RngStream(11).generator()
        acc = np.zeros((3, 3))
        n_draws = 100_000
        for _ in range(n_draws):
            acc += np.abs(random_onb(rng, 3)) ** 2
        assert np.max(np.abs(acc / n_draws - 1.0 / 3.0)) < 0.01


class TestRandomOns:
    def test_full_system_is_basis(self):
        rng = RngStream(12).generator()
        b = random_ons(rng, 4, 4)
        assert np.max(np.abs(b @ b.conj().T - np.eye(4))) < 1e-10

    def test_gram_always_identity(self):
        rng = RngStream(13).generator()
        for _ in range(100):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            s = random_ons(rng, n, k)
            assert np.max(np.abs(s @ s.conj().T - np.eye(k))) < 1e-10

    def test_single_vector_is_uniform_sphere_point(self):
        rng = RngStream(14).generator()
        a = np.array([np.abs(random_ons(rng, 6, 1)[0, 0]) ** 2
                      for _ in range(10_000)])
        b = np.abs(uniform_sphere(rng, 6, size=10_000)[:, 0]) ** 2
        _, p = two_sample_ks(a, b)
        assert p > 0.01

    def test_scaled_entry_approaches_gaussian(self):
        # sqrt(n) <e1|phi_1> for a 2-system in high dimension: the squared
        # modulus approaches a unit exponential.
        rng = RngStream(15).generator()
        n = 64
        vals = np.array([n * np.abs(random_ons(rng, n, 2)[0, 0]) ** 2
                         for _ in range(10_000)])
        assert ks_vs_exponential(vals) < 0.02

    def test_oversized_system_rejected(self):
        with pytest.raises(DomainError):
            random_ons(RngStream(16).generator(), 3, 4)


def _gaussian_stack(stream: RngStream, b: int, m: int, k: int) -> np.ndarray:
    """A (b, m, k) complex Gaussian stack as the trial engine reads it:
    consecutive normals an entry's real and imaginary part, unscaled."""
    return stream.generator().standard_normal((b, m, k, 2)).view(complex)[..., 0]


class TestHaarSystem:
    """The Gram-Schmidt oracle of the engine's Haar frames."""

    @pytest.mark.parametrize("m, k", [(1, 1), (2, 2), (3, 3), (5, 2), (16, 2), (64, 4),
                                      (200, 2), (256, 2)])
    def test_matches_phase_fixed_qr(self, m, k):
        z = _gaussian_stack(RngStream(31, m * k), 200, m, k)
        q = haar_system_by_gram_schmidt(z)
        assert np.max(np.abs(q - _haar_columns(z))) < 1e-13
        gram = np.swapaxes(q.conj(), -1, -2) @ q
        assert np.max(np.abs(gram - np.eye(k))) < 1e-13
        # Negative control: without the phase fix the QR is another Q.
        assert np.max(np.abs(q - np.linalg.qr(z)[0])) > 0.1

    @pytest.mark.parametrize("m", [2, 16, 256])
    @pytest.mark.parametrize("angle", [1e-2, 1e-6, 1e-10])
    def test_orthonormal_on_ill_conditioned_stacks(self, m, angle):
        # Two columns at this angle: condition number about 2 / angle.
        g = _gaussian_stack(RngStream(32, m), 64, m, 2)
        u = g[..., 0] / np.linalg.norm(g[..., 0], axis=-1, keepdims=True)
        w = g[..., 1] - u * np.sum(u.conj() * g[..., 1], axis=-1, keepdims=True)
        w /= np.linalg.norm(w, axis=-1, keepdims=True)
        z = np.stack([3.0 * u, np.exp(0.7j) * (np.cos(angle) * u + np.sin(angle) * w)],
                     axis=-1)
        assert np.linalg.cond(z).min() > 0.5 / angle
        q = haar_system_by_gram_schmidt(z)
        gram = np.swapaxes(q.conj(), -1, -2) @ q
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        r = np.swapaxes(q.conj(), -1, -2) @ z
        scale = np.linalg.norm(z, axis=(-2, -1))[:, None, None]
        assert np.max(np.abs(q @ r - z) / scale) <= 1e-12
        # R is upper triangular with a positive real diagonal.
        assert np.max(np.abs(np.tril(r, -1)) / scale) <= 1e-12
        diagonal = np.diagonal(r, axis1=-2, axis2=-1)
        assert np.all(diagonal.real > 0.0)
        assert np.max(np.abs(diagonal.imag) / scale[..., 0]) <= 1e-12


def _amplitudes(stream: RngStream, b: int, k: int, d1: int) -> np.ndarray:
    """(b, k, d1) amplitude factors of unit Frobenius norm."""
    a = _gaussian_stack(stream, b, k, d1)
    return a / np.linalg.norm(a, axis=(-2, -1), keepdims=True)


def _weight_sums(z: np.ndarray, factor: np.ndarray) -> np.ndarray:
    branches = z @ factor
    return np.sum(branches.real ** 2 + branches.imag ** 2, axis=(-2, -1))


class TestHaarFrameFactor:
    @pytest.mark.parametrize("m, k", [(1, 1), (2, 2), (3, 3), (5, 2), (16, 2), (64, 8),
                                      (1024, 16)])
    def test_folded_branches_match_the_gram_schmidt_frame(self, m, k):
        b = 200 if m * k <= 512 else 16
        z = _gaussian_stack(RngStream(34, m * k), b, m, k)
        a = _amplitudes(RngStream(35, m * k), b, k, k + 1)
        folded, factor = _haar_frame_factor(z, a)
        branches = np.swapaxes(factor, -1, -2) @ np.swapaxes(folded, -1, -2)
        expected = np.swapaxes(a, -1, -2) @ np.swapaxes(haar_system_by_gram_schmidt(z), -1, -2)
        assert np.max(np.abs(branches - expected)) <= 1e-12
        # Negative control: the frame of the QR without its phase fix.
        unfixed = np.swapaxes(a, -1, -2) @ np.swapaxes(np.linalg.qr(z)[0], -1, -2)
        assert np.max(np.abs(branches - unfixed)) > 0.1 * np.max(np.abs(branches))

    @pytest.mark.parametrize("m, k", [(1, 1), (3, 3), (5, 3), (16, 2), (64, 4), (256, 2)])
    def test_each_factor_alone_or_in_a_stack_bit_for_bit(self, m, k):
        z = _gaussian_stack(RngStream(33, m * k), 512, m, k)
        for a in (_amplitudes(RngStream(36), 1, k, 2)[0],      # one fixed factor
                  _amplitudes(RngStream(37), 512, k, 2)):      # a factor per trial
            alone = _haar_frame_factor(z[37:38].copy(), a if a.ndim == 2 else a[37:38].copy())
            stacked = _haar_frame_factor(z, a)
            for one, many in zip(alone, stacked):
                assert one.tobytes() == many[37:38].tobytes()

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_square_draws_take_a_second_pass(self, k):
        # A square Gaussian matrix has a heavy-tailed condition number, so
        # one Cholesky pass misses unit weight by eps kappa^2 on some of
        # 2 * 10^5 trials; the second pass keeps every trial within 1e-13.
        # At m = 2k one pass does.
        a = np.eye(k, dtype=complex) / np.sqrt(k)
        errors = {"two passes": 0.0, "one pass": 0.0, "one pass at m = 2k": 0.0}
        for chunk in range(8):
            square = _gaussian_stack(RngStream(38, k, (chunk,)), 25_000, k, k)
            errors["two passes"] = max(errors["two passes"], np.max(np.abs(
                _weight_sums(*_haar_frame_factor(square, a)) - 1.0)))
            errors["one pass"] = max(errors["one pass"], np.max(np.abs(
                _weight_sums(square, np.linalg.solve(_gram_cholesky(square), a)) - 1.0)))
            tall = _gaussian_stack(RngStream(39, k, (chunk,)), 25_000, 2 * k, k)
            folded, factor = _haar_frame_factor(tall, a)
            assert folded is tall
            assert np.array_equal(factor, np.linalg.solve(_gram_cholesky(tall), a))
            errors["one pass at m = 2k"] = max(errors["one pass at m = 2k"], np.max(np.abs(
                _weight_sums(folded, factor) - 1.0)))
        assert errors["two passes"] <= 1e-13, errors
        assert errors["one pass at m = 2k"] <= 1e-13, errors
        assert errors["one pass"] > 1e-13, errors


class TestUniformSphere:
    def test_dim1_phase_uniform(self):
        rng = RngStream(17).generator()
        z = uniform_sphere(rng, 1, size=50_000)[:, 0]
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-12
        stat = ks_statistic(np.angle(z), lambda x: (x + np.pi) / (2 * np.pi))
        assert stat < 0.01

    def test_component_symmetry(self):
        rng = RngStream(18).generator()
        psi = uniform_sphere(rng, 4, size=100_000)
        means = np.mean(np.abs(psi) ** 2, axis=0)
        assert np.max(np.abs(means - 0.25)) < 0.005

    def test_matches_gap_of_maximally_mixed(self):
        rng = RngStream(19).generator()
        d = 5
        a = np.abs(uniform_sphere(rng, d, size=10_000)[:, 0]) ** 2
        b = np.abs(sample_gap(rng, DensityMatrix.maximally_mixed(d),
                              size=10_000)[:, 0]) ** 2
        ks, _ = two_sample_ks(a, b)
        assert ks < 0.02

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            uniform_sphere(RngStream(20).generator(), 0)
