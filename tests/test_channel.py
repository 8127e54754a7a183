import numpy as np
import pytest

from svamsim import channel
from svamsim.arrays import ula_manifold
from svamsim.channel import (
    BatchNoise,
    ChannelParams,
    antenna_snapshot,
    combine,
    noiseless_snapshot,
)


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(1.0, 1.0, noise_variance=0.0)
        with pytest.raises(ValueError):
            ChannelParams(1.0, 0.0, noise_variance=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(1.0, 0.1, noise_variance=np.nan)
        with pytest.raises(ValueError):
            ChannelParams(1.0, 0.2, noise_variance=np.inf)
        for alpha in (np.nan, np.inf, complex(1.0, np.nan), complex(-np.inf, 0.0)):
            with pytest.raises(ValueError):
                ChannelParams(alpha, 0.3, 0.1)

    def test_single_path_helper(self):
        params = ChannelParams(1j, 0.25, noise_variance=0.5)
        assert (params.alpha, params.u) == (1j, 0.25)
        assert type(params.alpha) is complex and type(params.u) is float
        assert params.noise_variance == 0.5
        assert ChannelParams(1, 0).noise_variance == 0.0


def test_batch_signals_keep_each_lone_products_bits():
    # one product of the gains column and the steering rows gives every row
    # the bits of its channel's own alpha * phi_n(u)
    rng = np.random.default_rng(38)
    for n in (1, 7, 64):
        channels = [
            ChannelParams(rng.normal() * np.exp(2j * np.pi * rng.uniform()), u)
            for u in rng.uniform(-1.0, 1.0, 100)
        ]
        signals = noiseless_snapshot(channels, n)
        assert signals.shape == (100, n)
        for row, c in zip(signals, channels):
            assert row.tobytes() == (c.alpha * ula_manifold(n, c.u)).tobytes()


class TestAntennaSnapshot:
    def test_noiseless_single_path_formula(self):
        rng = np.random.default_rng(0)
        params = ChannelParams(2.0 * (0.5 - 0.5j), 0.3)
        noise = BatchNoise([rng], params.noise_variance, 1, 6)
        (x,) = antenna_snapshot(noise, noiseless_snapshot([params], 6), 0, 1)
        np.testing.assert_allclose(
            x[0], 2.0 * (0.5 - 0.5j) * ula_manifold(6, 0.3), atol=1e-12
        )

    def test_noiseless_deterministic_and_stream_untouched(self):
        params = ChannelParams(1.0, 0.1)
        rng = np.random.default_rng(42)
        before = rng.bit_generator.state
        signals = noiseless_snapshot([params], 4)
        noise = BatchNoise([rng], params.noise_variance, 3, 4)
        (x,) = antenna_snapshot(noise, signals, 0, 3)
        assert rng.bit_generator.state == before
        assert x.tobytes() == np.tile(signals[0], (3, 1)).tobytes()

    def test_noise_moments(self):
        # 100 000 observations of 3 elements from one run's draw
        rng = np.random.default_rng(123)
        noise = BatchNoise([rng], 2.0, 100_000, 3)
        zeros = np.zeros((1, 3), dtype=complex)
        (draws,) = antenna_snapshot(noise, zeros, 0, 100_000)
        mean = draws.mean()
        var = np.mean(np.abs(draws) ** 2)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.04
        # circularity: pseudo-variance E[x^2] vanishes
        assert abs(np.mean(draws**2)) < 0.02

    def test_same_seed_bit_identical(self, cold):
        # two fresh generators of one seed, each run drawing cold
        signals = noiseless_snapshot([ChannelParams(1.0, 0.4)], 5)
        runs = []
        for _ in range(2):
            cold.cache_clear()
            noise = BatchNoise([np.random.default_rng(9)], 1.0, 2, 5)
            runs.append(antenna_snapshot(noise, signals, 0, 2))
        assert np.array_equal(*runs)


class TestCombine:
    def test_selects_first_element(self):
        w = np.zeros(4, dtype=complex)
        w[0] = 1.0
        x = np.array([3.0 + 1j, 0.0, 0.0, 0.0])
        assert combine(w, x) == 3.0 + 1j

    def test_matched_combiner_collects_full_power(self):
        phi = ula_manifold(7, -0.2)
        assert combine(phi / np.sqrt(7), phi) == pytest.approx(np.sqrt(7))

    def test_conjugation_side(self):
        w = np.array([1j])
        x = np.array([1.0 + 0j])
        assert combine(w, x) == pytest.approx(-1j)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine(np.ones(3), np.ones(4))

    def test_stacked_rows_equal_lone_vdot_bit_for_bit(self):
        # The lockstep loops rely on every stacked output carrying the bits
        # of a lone trial's np.vdot. The reference takes each row as a
        # contiguous copy, as a lone trial holds it: on a row that is not
        # contiguous np.vdot can run another kernel than on the same values
        # held contiguously.
        rng = np.random.default_rng(29)

        def draw(shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        views = {
            "contiguous": lambda a: a,
            "row slice": lambda a: a[::2],
            "offset slice": lambda a: a[..., 1:-1],
            "strided": lambda a: a[..., ::2],
            "reversed": lambda a: a[..., ::-1],
            "column-major": lambda a: np.asfortranarray(a),
        }
        for n in range(1, 130):
            for lead in ((4,), (3, 4)):
                for name, view in views.items():
                    w = view(draw(lead + (2 * n + 2,)))[..., :n]
                    x = view(draw(lead + (2 * n + 2,)))[..., :n]
                    got = combine(w, x)
                    want = np.array([
                        np.vdot(np.ascontiguousarray(a), np.ascontiguousarray(b))
                        for a, b in zip(w.reshape(-1, n), x.reshape(-1, n))
                    ]).reshape(w.shape[:-1])
                    assert got.shape == want.shape
                    assert np.array_equal(got, want), (
                        f"stacked combine of a {name} {w.shape} stack differs "
                        "from per-row np.vdot: numpy's vecdot no longer "
                        "runs the BLAS dot kernel vdot runs, so lockstep "
                        "batches would stop reproducing lone trials"
                    )

    def test_unit_norm_noise_variance_preserved(self):
        # 60 000 observations of 6 elements from one run's draw
        rng = np.random.default_rng(77)
        w = np.random.default_rng(1).standard_normal(6) + 1j * np.random.default_rng(
            2
        ).standard_normal(6)
        w = w / np.linalg.norm(w)
        noise = BatchNoise([rng], 1.5, 60_000, 6)
        (x,) = antenna_snapshot(noise, np.zeros((1, 6), dtype=complex), 0, 60_000)
        outs = combine(np.broadcast_to(w, x.shape), x)
        assert abs(np.mean(np.abs(outs) ** 2) - 1.5) < 0.05


class TestAntennaBlocks:
    def test_in_place_noise_equals_the_complex_expression_bit_for_bit(self):
        # signal + scale * (real + 1j * imaginary), built from the same
        # draws; the noiseless middle row adds an exact zero to its signal
        n, count = 9, 4
        variances = np.array([0.7, 0.0, 2.5])
        signals = noiseless_snapshot(
            [ChannelParams((k - 1.5) * np.exp(1j * k), 0.2 * k) for k in range(3)], n
        )
        signals[1, 0] = -0.0  # a negative zero meets the noiseless zero
        rngs = [np.random.default_rng(5 + k) for k in range(3)]
        got = antenna_snapshot(BatchNoise(rngs, variances, count, n), signals, 0, count)
        noise = np.zeros((3, count, 2, n))
        for k, variance in enumerate(variances):
            if variance > 0.0:
                np.random.default_rng(5 + k).standard_normal(out=noise[k])
        scale = np.sqrt(variances / 2.0)[:, None, None]
        want = signals[:, None, :] + scale * (noise[..., 0, :] + 1j * noise[..., 1, :])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _states(rngs):
    return [rng.bit_generator.state for rng in rngs]


def _generators(seeds, bit_generator=np.random.PCG64):
    """One generator per distinct seed, held by every row of that seed."""
    made = {seed: np.random.Generator(bit_generator(seed)) for seed in seeds}
    return [made[seed] for seed in seeds]


def _assert_laid(slot, draw):
    """A complex (count, n) slot of the draw holds the real and imaginary
    planes of the (count, 2, n) standard_normal draw, bit for bit."""
    assert slot.dtype == complex and slot.shape == draw[:, 0].shape
    assert slot.real.tobytes() == draw[:, 0].tobytes()
    assert slot.imag.tobytes() == draw[:, 1].tobytes()


def _equal_states(a, b):
    """Bit generator states compared with their arrays by value."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_equal_states(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.fixture
def cold():
    """The run-draw cache, emptied before and after the test."""
    channel._run_draw.cache_clear()
    yield channel._run_draw
    channel._run_draw.cache_clear()


class _PCG64Subclass(np.random.PCG64):
    """A bit generator numpy does not know by name: only its class
    rebuilds it."""


class TestSharedRunDraw:
    @pytest.mark.parametrize(
        "kind",
        [
            np.random.PCG64,
            np.random.PCG64DXSM,
            np.random.MT19937,
            np.random.Philox,
            np.random.SFC64,
            _PCG64Subclass,
        ],
        ids=lambda kind: kind.__name__,
    )
    def test_a_cold_draw_rebuilds_the_generator_from_its_class(self, cold, kind):
        count, n = 5, 7
        rng = np.random.Generator(kind(11))
        want = np.random.Generator(kind(11))
        normals = BatchNoise([rng], 0.5, count, n).normals
        assert cold.cache_info()[:2] == (0, 1)
        assert normals.shape == (2, count, n)  # the draw and the zero slot
        _assert_laid(normals[0], want.standard_normal((count, 2, n)))
        assert type(rng.bit_generator) is kind
        assert _equal_states(rng.bit_generator.state, want.bit_generator.state)

    def test_equal_states_reuse_the_read_only_draw(self, cold):
        seeds = [3, 4, 5]
        first = _generators(seeds)
        drawn = BatchNoise(first, 0.5, 6, 8)
        again = _generators(seeds)
        shared = BatchNoise(again, 0.5, 6, 8)
        assert cold.cache_info()[:2] == (1, 1)  # hits, misses
        assert shared.normals is drawn.normals
        with pytest.raises(ValueError, match="read-only"):
            shared.normals[0, 0, 0] = 1.0
        # the reused draw left each generator where a real draw leaves it
        real = _generators(seeds)
        for rng in real:
            rng.standard_normal((6, 2, 8))
        assert _states(again) == _states(first) == _states(real)
        assert [g.standard_normal() for g in again] == [
            g.standard_normal() for g in real
        ]

    @pytest.mark.parametrize("change", ["count", "n", "advanced"])
    def test_another_count_size_or_state_draws_anew(self, cold, change):
        drawn = BatchNoise(_generators([3, 4]), 0.5, 6, 8)
        rngs = _generators([3, 4])
        count, n = {"count": (7, 8), "n": (6, 9)}.get(change, (6, 8))
        if change == "advanced":
            rngs[1].standard_normal()
        want = [np.random.Generator(np.random.PCG64(0)) for _ in rngs]
        for rng, copy in zip(rngs, want):
            copy.bit_generator.state = rng.bit_generator.state
            copy.standard_normal((count, 2, n))
        fresh = BatchNoise(rngs, 0.5, count, n)
        assert cold.cache_info()[:2] == (0, 2)
        assert fresh.normals is not drawn.normals
        assert _states(rngs) == _states(want)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_shared_and_noiseless_rows_keep_their_draws(self, cold, warm):
        # rows 0 and 2 hold one generator, and the last row's generator is
        # held only by a noiseless row: it draws nothing and gets no slot
        seeds, variances = [80, 81, 80, 82], np.array([0.0, 1.0, 2.0, 0.0])
        signals = np.ones((4, 8), dtype=complex)
        if warm:
            BatchNoise(_generators(seeds), variances, 6, 8)
        rngs = _generators(seeds)
        untouched = rngs[3].bit_generator.state
        noise = BatchNoise(rngs, variances, 6, 8)
        assert cold.cache_info()[:2] == ((1, 1) if warm else (0, 1))
        assert noise.slot.tolist() == [-1, 0, 1, -1]
        assert rngs[3].bit_generator.state == untouched
        got = antenna_snapshot(noise, signals, 0, 6)
        np.testing.assert_array_equal(got[0], signals[0, None].repeat(6, axis=0))
        for k in (1, 2):
            lone = BatchNoise(_generators([seeds[k]]), variances[k], 6, 8)
            (want,) = antenna_snapshot(lone, signals[k : k + 1], 0, 6)
            assert got[k].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    def test_states_holding_arrays_key_the_draw(self, cold, bit_generator):
        first = _generators([3, 4], bit_generator)
        drawn = BatchNoise(first, 0.5, 6, 8)
        again = _generators([3, 4], bit_generator)
        assert BatchNoise(again, 0.5, 6, 8).normals is drawn.normals
        for rng, done in zip(again, first):
            assert _equal_states(rng.bit_generator.state, done.bit_generator.state)
        # one advanced generator changes an array in its state: a miss
        moved = _generators([3, 4], bit_generator)
        moved[0].standard_normal()
        assert BatchNoise(moved, 0.5, 6, 8).normals is not drawn.normals
        assert cold.cache_info()[:2] == (1, 2)

    def test_two_bit_generator_types_never_share_a_draw(self, cold):
        # PCG64 and PCG64DXSM seeded alike differ in their states only by
        # the bit generator's name, and draw different numbers
        kinds = [np.random.PCG64, np.random.PCG64DXSM]
        drawn = [BatchNoise(_generators([3], k), 0.5, 6, 8).normals for k in kinds]
        assert cold.cache_info()[:2] == (0, 2)
        for kind, normals in zip(kinds, drawn):
            assert normals.shape == (2, 6, 8)  # the draw and the zero slot
            _assert_laid(normals[0], np.random.Generator(kind(3)).standard_normal((6, 2, 8)))
            assert not normals[-1].any()


    def test_a_cold_draw_reads_no_os_entropy(self, cold, monkeypatch):
        # the rebuilt generators' states are overwritten at once, so seeding
        # them from OS entropy first would be wasted work
        rngs = _generators([3, 4, 3])
        want = _generators([3, 4])

        def no_entropy(*args):
            raise AssertionError("a rebuilt generator read OS entropy")

        monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
        normals = BatchNoise(rngs, 0.5, 6, 8).normals
        assert cold.cache_info()[:2] == (0, 1)
        assert normals.shape == (3, 6, 8)
        for slot, rng in zip(normals, want):
            _assert_laid(slot, rng.standard_normal((6, 2, 8)))
        assert _states(rngs[:2]) == _states(want)


def test_a_snapshot_adds_the_scaled_complex_noise_to_each_signal():
    # the complex-laid draw gives every row the bits of the two-plane
    # formula signal + scale * (real + 1j * imaginary); a noiseless row,
    # whose planes are zeros, reads its signal
    seeds, variances = [80, 81, 80, 82], np.array([0.0, 1.0, 2.0, 0.7])
    rng = np.random.default_rng(9)
    signals = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    noise = BatchNoise(_generators(seeds), variances, 6, 8)
    draws = {seed: np.random.default_rng(seed).standard_normal((6, 2, 8)) for seed in (80, 81, 82)}
    got = antenna_snapshot(noise, signals, 1, 5)
    for k, (seed, v) in enumerate(zip(seeds, variances)):
        planes = draws[seed][1:5] if v > 0 else np.zeros((4, 2, 8))
        want = signals[k] + np.sqrt(v / 2.0) * (planes[:, 0] + 1j * planes[:, 1])
        assert got[k].tobytes() == want.tobytes()
    np.testing.assert_array_equal(got[0], np.broadcast_to(signals[0], (4, 8)))


class TestBatchNoiseArguments:
    def test_variance_count_must_be_one_or_one_per_generator(self):
        rngs = _generators([1, 2, 3])
        with pytest.raises(ValueError, match="need 1 or 3 variances, got 2"):
            BatchNoise(rngs, [0.5, 1.0], 4, 8)
        with pytest.raises(ValueError, match="got 4"):
            BatchNoise(rngs, np.full((2, 2), 0.5), 4, 8)
        # rejected before any generator draws
        assert _states(rngs) == _states(_generators([1, 2, 3]))

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "n", [8.0, True, 0, -1], ids=["float", "bool", "zero", "negative"]
    )
    def test_element_count_must_be_a_positive_integer(self, cold, warm, n):
        # a warm cache holding the draw of the int n (or of one element)
        # must not answer for a float or bool that equals it
        if warm:
            BatchNoise(_generators([1, 2]), 0.5, 4, max(int(n), 1))
        rngs = _generators([1, 2])
        with pytest.raises(ValueError, match="element"):
            BatchNoise(rngs, 0.5, 4, n)
        # rejected before any generator draws
        assert _states(rngs) == _states(_generators([1, 2]))

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (3, 1), (0, 5), (4, 6)])
    def test_snapshot_window_must_lie_in_the_draw(self, start, stop):
        noise = BatchNoise(_generators([1, 2]), 0.5, 4, 8)
        with pytest.raises(ValueError, match=f"{start}:{stop} lie outside 0:4"):
            antenna_snapshot(noise, np.ones((2, 8), dtype=complex), start, stop)

    @pytest.mark.parametrize("shape", [(3, 8), (2, 7), (8,), (2, 8, 1)])
    def test_signal_stack_must_be_trials_by_elements(self, shape):
        noise = BatchNoise(_generators([1, 2]), 0.5, 4, 8)
        with pytest.raises(ValueError, match=r"need \(2, 8\) signals"):
            antenna_snapshot(noise, np.ones(shape, dtype=complex), 0, 4)
