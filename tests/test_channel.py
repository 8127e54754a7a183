import numpy as np
import pytest

from svamsim.arrays import ula_manifold
from svamsim.channel import ChannelParams, antenna_snapshot, combine


class TestChannelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(power=-1.0, paths=((1.0, 0.1),), noise_variance=0.0)
        with pytest.raises(ValueError):
            ChannelParams(power=1.0, paths=(), noise_variance=0.0)
        with pytest.raises(ValueError):
            ChannelParams(power=1.0, paths=((1.0, 1.0),), noise_variance=0.0)
        with pytest.raises(ValueError):
            ChannelParams(power=1.0, paths=((1.0, 0.0),), noise_variance=-0.1)
        with pytest.raises(ValueError):
            ChannelParams(power=np.nan, paths=((1.0, 0.1),), noise_variance=0.5)
        with pytest.raises(ValueError):
            ChannelParams(power=1.0, paths=((1.0, 0.1),), noise_variance=np.nan)

    def test_single_path_helper(self):
        params = ChannelParams.single_path(1j, 0.25, noise_variance=0.5)
        assert params.paths == ((1j, 0.25),)
        assert params.noise_variance == 0.5


class TestAntennaSnapshot:
    def test_noiseless_single_path_formula(self):
        rng = np.random.default_rng(0)
        params = ChannelParams.single_path(0.5 - 0.5j, 0.3, power=4.0)
        x = antenna_snapshot(params, 6, rng)
        np.testing.assert_allclose(
            x, 2.0 * (0.5 - 0.5j) * ula_manifold(6, 0.3), atol=1e-12
        )

    def test_two_paths_superpose(self):
        rng = np.random.default_rng(0)
        params = ChannelParams(
            power=1.0, paths=((1.0, 0.2), (-1.0, 0.2)), noise_variance=0.0
        )
        x = antenna_snapshot(params, 8, rng)
        np.testing.assert_allclose(x, np.zeros(8), atol=1e-12)

    def test_noiseless_deterministic_and_stream_untouched(self):
        params = ChannelParams.single_path(1.0, 0.1)
        rng = np.random.default_rng(42)
        before = rng.bit_generator.state
        antenna_snapshot(params, 4, rng)
        assert rng.bit_generator.state == before

    def test_noise_moments(self):
        params = ChannelParams(power=0.0, paths=((0.0, 0.0),), noise_variance=2.0)
        rng = np.random.default_rng(123)
        draws = np.array([antenna_snapshot(params, 3, rng) for _ in range(100_000)])
        mean = draws.mean()
        var = np.mean(np.abs(draws) ** 2)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.04
        # circularity: pseudo-variance E[x^2] vanishes
        assert abs(np.mean(draws**2)) < 0.02

    def test_same_seed_bit_identical(self):
        params = ChannelParams.single_path(1.0, 0.4, noise_variance=1.0)
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

    def test_unit_norm_noise_variance_preserved(self):
        params = ChannelParams(power=0.0, paths=((0.0, 0.0),), noise_variance=1.5)
        rng = np.random.default_rng(77)
        w = np.random.default_rng(1).standard_normal(6) + 1j * np.random.default_rng(
            2
        ).standard_normal(6)
        w = w / np.linalg.norm(w)
        outs = np.array(
            [combine(w, antenna_snapshot(params, 6, rng)) for _ in range(60_000)]
        )
        assert abs(np.mean(np.abs(outs) ** 2) - 1.5) < 0.05
