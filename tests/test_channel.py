import numpy as np
import pytest

from svamsim.arrays import ula_manifold
from svamsim.channel import (
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
