import numpy as np
import pytest

from svamsim import channel
from svamsim.arrays import ula_manifold
from svamsim.channel import (
    BatchNoise,
    ChannelParams,
    antenna_blocks,
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


class TestAntennaSnapshot:
    def test_noiseless_single_path_formula(self):
        rng = np.random.default_rng(0)
        params = ChannelParams(2.0 * (0.5 - 0.5j), 0.3)
        x = antenna_snapshot(params, 6, rng)
        np.testing.assert_allclose(
            x, 2.0 * (0.5 - 0.5j) * ula_manifold(6, 0.3), atol=1e-12
        )

    def test_noiseless_deterministic_and_stream_untouched(self):
        params = ChannelParams(1.0, 0.1)
        rng = np.random.default_rng(42)
        before = rng.bit_generator.state
        antenna_snapshot(params, 4, rng)
        assert rng.bit_generator.state == before

    def test_noise_moments(self):
        params = ChannelParams(0.0, 0.0, noise_variance=2.0)
        rng = np.random.default_rng(123)
        draws = np.array([antenna_snapshot(params, 3, rng) for _ in range(100_000)])
        mean = draws.mean()
        var = np.mean(np.abs(draws) ** 2)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.04
        # circularity: pseudo-variance E[x^2] vanishes
        assert abs(np.mean(draws**2)) < 0.02

    def test_same_seed_bit_identical(self):
        params = ChannelParams(1.0, 0.4, noise_variance=1.0)
        a = [
            antenna_snapshot(params, 5, np.random.default_rng(9)) for _ in range(1)
        ][0]
        b = [
            antenna_snapshot(params, 5, np.random.default_rng(9)) for _ in range(1)
        ][0]
        assert np.array_equal(a, b)


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
                        "from per-row np.vdot: numpy's batched matmul no longer "
                        "runs the BLAS dot kernel vdot runs, so lockstep "
                        "batches would stop reproducing lone trials"
                    )

    def test_unit_norm_noise_variance_preserved(self):
        params = ChannelParams(0.0, 0.0, noise_variance=1.5)
        rng = np.random.default_rng(77)
        w = np.random.default_rng(1).standard_normal(6) + 1j * np.random.default_rng(
            2
        ).standard_normal(6)
        w = w / np.linalg.norm(w)
        outs = np.array(
            [combine(w, antenna_snapshot(params, 6, rng)) for _ in range(60_000)]
        )
        assert abs(np.mean(np.abs(outs) ** 2) - 1.5) < 0.05


class TestAntennaBlocks:
    def test_in_place_noise_equals_the_complex_expression_bit_for_bit(self):
        # signal + scale * (real + 1j * imaginary), built from the same
        # draws; the noiseless middle row adds an exact zero to its signal
        n, count = 9, 4
        variances = np.array([0.7, 0.0, 2.5])
        signals = np.stack([
            noiseless_snapshot(ChannelParams((k - 1.5) * np.exp(1j * k), 0.2 * k), n)
            for k in range(3)
        ])
        signals[1, 0] = -0.0  # a negative zero meets the noiseless zero
        got = antenna_blocks(
            signals, variances, [np.random.default_rng(5 + k) for k in range(3)], count
        )
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


class TestSharedRunDraw:
    def test_equal_states_reuse_the_read_only_draw(self, cold):
        seeds = [3, 4, 5]
        first = _generators(seeds)
        drawn = BatchNoise(first, 0.5, 6, 8)
        again = _generators(seeds)
        shared = BatchNoise(again, 0.5, 6, 8)
        assert cold.cache_info()[:2] == (1, 1)  # hits, misses
        assert shared.normals is drawn.normals
        with pytest.raises(ValueError, match="read-only"):
            shared.normals[0, 0, 0, 0] = 1.0
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
        got = noise.observe(signals, 0, 6)
        np.testing.assert_array_equal(got[0], signals[0, None].repeat(6, axis=0))
        for k in (1, 2):
            (want,) = antenna_blocks(
                signals[k : k + 1], variances[k], _generators([seeds[k]]), 6
            )
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
            want = np.random.Generator(kind(3)).standard_normal((1, 6, 2, 8))
            np.testing.assert_array_equal(normals, want)


class TestBatchNoiseArguments:
    def test_variance_count_must_be_one_or_one_per_generator(self):
        rngs = _generators([1, 2, 3])
        with pytest.raises(ValueError, match="need 1 or 3 variances, got 2"):
            BatchNoise(rngs, [0.5, 1.0], 4, 8)
        with pytest.raises(ValueError, match="got 4"):
            BatchNoise(rngs, np.full((2, 2), 0.5), 4, 8)
        # rejected before any generator draws
        assert _states(rngs) == _states(_generators([1, 2, 3]))

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (3, 1), (0, 5), (4, 6)])
    def test_observe_window_must_lie_in_the_draw(self, start, stop):
        noise = BatchNoise(_generators([1, 2]), 0.5, 4, 8)
        with pytest.raises(ValueError, match=f"{start}:{stop} lie outside 0:4"):
            noise.observe(np.ones((2, 8), dtype=complex), start, stop)

    @pytest.mark.parametrize("shape", [(3, 8), (2, 7), (8,), (2, 8, 1)])
    def test_signal_stack_must_be_trials_by_elements(self, shape):
        noise = BatchNoise(_generators([1, 2]), 0.5, 4, 8)
        with pytest.raises(ValueError, match=r"need \(2, 8\) signals"):
            noise.observe(np.ones(shape, dtype=complex), 0, 4)
