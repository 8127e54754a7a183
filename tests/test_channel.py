import numpy as np
import pytest

from scalar_alignment import noise_rows
from svamsim.arrays import ula_manifold
from svamsim.channel import (
    BatchNoise,
    ChannelParams,
    antenna_snapshot,
    combine,
    draw_noise,
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
        params = ChannelParams(2.0 * (0.5 - 0.5j), 0.3)
        noise = draw_noise([np.random.default_rng(0)], 1, 6)
        rows = noise_rows(noise, [params.noise_variance])
        (x,) = antenna_snapshot(*rows, noiseless_snapshot([params], 6), 0, 1)
        np.testing.assert_allclose(
            x[0], 2.0 * (0.5 - 0.5j) * ula_manifold(6, 0.3), atol=1e-12
        )

    def test_a_row_of_the_zero_slot_reads_its_signal(self):
        signals = noiseless_snapshot([ChannelParams(1.0, 0.1)], 4)
        drawn = draw_noise([np.random.default_rng(42)], 3, 4)
        noise = BatchNoise(drawn.normals, np.array([-1]))
        (x,) = antenna_snapshot(noise, np.ones(1), signals, 0, 3)
        assert x.tobytes() == np.tile(signals[0], (3, 1)).tobytes()

    def test_noise_moments(self):
        # 100 000 observations of 3 elements from one run's draw
        noise = draw_noise([np.random.default_rng(123)], 100_000, 3)
        zeros = np.zeros((1, 3), dtype=complex)
        (draws,) = antenna_snapshot(noise, np.ones(1), zeros, 0, 100_000)
        mean = draws.mean()
        var = np.mean(np.abs(draws) ** 2)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.04
        # circularity: pseudo-variance E[x^2] vanishes
        assert abs(np.mean(draws**2)) < 0.02

    def test_same_seed_bit_identical(self):
        # two fresh generators of one seed draw the same run
        signals = noiseless_snapshot([ChannelParams(1.0, 0.4)], 5)
        runs = [
            antenna_snapshot(
                draw_noise([np.random.default_rng(9)], 2, 5), np.ones(1), signals, 0, 2
            )
            for _ in range(2)
        ]
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
        noise = draw_noise([rng], 60_000, 6)
        zeros = np.zeros((1, 6), dtype=complex)
        (x,) = antenna_snapshot(noise, np.sqrt([0.75]), zeros, 0, 60_000)
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
        noise = draw_noise([np.random.default_rng(5 + k) for k in range(3)], count, n)
        got = antenna_snapshot(*noise_rows(noise, variances), signals, 0, count)
        noise = np.zeros((3, count, 2, n))
        for k, variance in enumerate(variances):
            if variance > 0.0:
                np.random.default_rng(5 + k).standard_normal(out=noise[k])
        scale = np.sqrt(variances / 2.0)[:, None, None]
        want = signals[:, None, :] + scale * (noise[..., 0, :] + 1j * noise[..., 1, :])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _assert_laid(slot, draw):
    """A complex (count, n) slot of the draw holds the real and imaginary
    planes of the (count, 2, n) standard_normal draw, bit for bit."""
    assert slot.dtype == complex and slot.shape == draw[:, 0].shape
    assert slot.real.tobytes() == draw[:, 0].tobytes()
    assert slot.imag.tobytes() == draw[:, 1].tobytes()


KINDS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


def _generators(seeds):
    return [np.random.Generator(kind(seed)) for kind, seed in zip(KINDS, seeds)]


class _PCG64Subclass(np.random.PCG64):
    """A bit generator numpy does not know by name."""


class TestDrawNoise:
    def test_each_generator_draws_its_own_slot(self):
        # slot i holds generator i's standard_normal((count, 2, n)) as
        # complex parts, the last slot zeros; the draw is read-only, and
        # each generator stands where that draw leaves it
        count, n = 5, 7
        rngs = _generators([11, 12, 13, 14])
        noise = draw_noise(rngs, count, n)
        assert noise.normals.shape == (5, count, n)
        assert noise.slot.tolist() == [0, 1, 2, 3]
        for slot, rng in zip(noise.normals, _generators([11, 12, 13, 14])):
            _assert_laid(slot, rng.standard_normal((count, 2, n)))
        assert not noise.normals[-1].any()
        with pytest.raises(ValueError, match="read-only"):
            noise.normals[0, 0, 0] = 1.0
        for rng, want in zip(rngs, _generators([11, 12, 13, 14])):
            want.standard_normal((count, 2, n))
            assert rng.standard_normal() == want.standard_normal()

    def test_a_run_draws_the_numbers_of_its_blocks(self):
        # one draw of the whole run gives every block the bits of one
        # block-sized draw per block from the same generators
        n_v, blocks, n = 3, 4, 8
        run = draw_noise(_generators([80, 81]), blocks * n_v, n)
        block_rngs = _generators([80, 81])
        for t in range(blocks):
            block = draw_noise(block_rngs, n_v, n)
            assert run.normals[:, t * n_v : (t + 1) * n_v].tobytes() == (
                block.normals.tobytes()
            )

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
    def test_every_bit_generator_class_draws_its_own_slot(self, kind):
        # the caller's generator draws its slot itself, whatever its class:
        # the slot holds its numbers, and it keeps its bit generator and
        # stands where that draw leaves it
        count, n = 5, 7
        rng, want = np.random.Generator(kind(11)), np.random.Generator(kind(11))
        normals = draw_noise([rng], count, n).normals
        assert normals.shape == (2, count, n)  # the draw and the zero slot
        _assert_laid(normals[0], want.standard_normal((count, 2, n)))
        assert not normals[-1].any()
        assert type(rng.bit_generator) is kind
        assert rng.standard_normal() == want.standard_normal()

    def test_a_generator_listed_twice_draws_twice(self):
        # slots go by position, not by generator: a generator listed twice
        # fills its second slot with the numbers after its first
        one, other = _generators([3, 4])
        noise = draw_noise([one, other, one], 4, 6)
        want = _generators([3, 4])
        _assert_laid(noise.normals[0], want[0].standard_normal((4, 2, 6)))
        _assert_laid(noise.normals[1], want[1].standard_normal((4, 2, 6)))
        _assert_laid(noise.normals[2], want[0].standard_normal((4, 2, 6)))

    def test_no_generators_draw_only_the_zero_slot(self):
        noise = draw_noise([], 3, 4)
        assert noise.normals.shape == (1, 3, 4) and not noise.normals.any()
        assert noise.slot.shape == (0,)

    @pytest.mark.parametrize(
        "count, n",
        [(4, 8.0), (4, True), (4, 0), (4, -1), (2.0, 8), (0, 8), (-1, 8)],
        ids=[
            "float_n", "bool_n", "zero_n", "negative_n",
            "float_count", "zero_count", "negative_count",
        ],
    )
    def test_sizes_must_be_positive_integers(self, count, n):
        rngs = _generators([1, 2])
        with pytest.raises(ValueError, match="element|observation"):
            draw_noise(rngs, count, n)
        # rejected before any generator draws
        for rng, fresh in zip(rngs, _generators([1, 2])):
            assert rng.standard_normal() == fresh.standard_normal()


def test_a_snapshot_adds_the_scaled_complex_noise_to_each_signal():
    # rows 0 and 2 read one slot at their own variances; every row has the
    # bits of the two-plane formula signal + scale * (real + 1j *
    # imaginary), and a row of the zero slot reads its signal
    seeds, variances = [80, 81, 80, 82], np.array([0.0, 1.0, 2.0, 0.7])
    rng = np.random.default_rng(9)
    signals = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
    drawn = draw_noise([np.random.default_rng(seed) for seed in (80, 81, 82)], 6, 8)
    noise = BatchNoise(drawn.normals, np.array([-1, 1, 0, 2]))
    draws = {
        seed: np.random.default_rng(seed).standard_normal((6, 2, 8))
        for seed in (80, 81, 82)
    }
    got = antenna_snapshot(noise, np.sqrt(variances / 2.0), signals, 1, 5)
    for k, (seed, v) in enumerate(zip(seeds, variances)):
        planes = draws[seed][1:5] if v > 0 else np.zeros((4, 2, 8))
        want = signals[k] + np.sqrt(v / 2.0) * (planes[:, 0] + 1j * planes[:, 1])
        assert got[k].tobytes() == want.tobytes()
    np.testing.assert_array_equal(got[0], np.broadcast_to(signals[0], (4, 8)))


class TestSnapshotWindows:
    @pytest.mark.parametrize("start, stop", [(0, 4), (0, 1), (1, 3), (2, 4), (3, 4)])
    def test_a_window_is_that_slice_of_the_whole_draw(self, start, stop):
        # rows of one slot at two variances and a noiseless row: any window
        # has the bits of the same observations read in one whole window
        drawn = draw_noise(_generators([1, 2]), 4, 8)
        noise = BatchNoise(drawn.normals, np.array([0, 1, 0, -1]))
        scale = np.sqrt(np.array([0.5, 1.0, 2.0, 0.0]) / 2.0)
        signals = np.exp(1j * np.arange(32.0)).reshape(4, 8)
        whole = antenna_snapshot(noise, scale, signals, 0, 4)
        got = antenna_snapshot(noise, scale, signals, start, stop)
        assert got.tobytes() == whole[:, start:stop].tobytes()

    def test_a_snapshot_is_a_copy_of_the_draw(self):
        # the observations may be written in place without touching the
        # read-only draw they were read from
        noise = draw_noise(_generators([1, 2]), 4, 8)
        before = noise.normals.tobytes()
        x = antenna_snapshot(noise, np.ones(2), np.zeros((2, 8), dtype=complex), 0, 4)
        assert x.tobytes() == noise.normals[:2].tobytes()
        assert not np.shares_memory(x, noise.normals)
        x += 1.0
        assert noise.normals.tobytes() == before


class TestSnapshotArguments:
    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 2), (3, 1), (0, 5), (4, 6)])
    def test_snapshot_window_must_lie_in_the_draw(self, start, stop):
        noise = draw_noise(_generators([1, 2]), 4, 8)
        signals = np.ones((2, 8), dtype=complex)
        with pytest.raises(ValueError, match=f"{start}:{stop} lie outside 0:4"):
            antenna_snapshot(noise, np.ones(2), signals, start, stop)

    @pytest.mark.parametrize(
        "shape, scales",
        [((3, 8), 2), ((2, 7), 2), ((8,), 2), ((2, 8, 1), 2), ((2, 8), 3)],
    )
    def test_signals_and_scales_must_fit_the_rows(self, shape, scales):
        noise = draw_noise(_generators([1, 2]), 4, 8)
        with pytest.raises(ValueError, match=r"need \(2, 8\) signals and 2 scales"):
            signals = np.ones(shape, dtype=complex)
            antenna_snapshot(noise, np.ones(scales), signals, 0, 4)
