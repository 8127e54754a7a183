import numpy as np
import pytest

from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.beams import BeamSpec, design_beamformer
from svamsim.channel import ChannelParams
from svamsim.sensing import (
    BeamCache,
    MeasurementHistory,
    measure_segment,
    svam_combiner,
)


def random_unit(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


class TestSvamCombiner:
    def test_dense_shift_layout(self):
        # a 4-tap beam on 6 elements slides through n_v = 3 shifts
        f = random_unit(4, 1)
        w0 = svam_combiner(f, 0, 6)
        w1 = svam_combiner(f, 1, 6)
        w2 = svam_combiner(f, 2, 6)
        np.testing.assert_allclose(w0, np.concatenate([f, [0, 0]]))
        np.testing.assert_allclose(w1, np.concatenate([[0], f, [0]]))
        np.testing.assert_allclose(w2, np.concatenate([[0, 0], f]))
        # block periodicity
        np.testing.assert_allclose(svam_combiner(f, 3, 6), w0)
        np.testing.assert_allclose(svam_combiner(f, 7, 6), w1)

    def test_single_snapshot_block_never_shifts(self):
        f = random_unit(8, 2)
        for snap in range(4):
            np.testing.assert_allclose(svam_combiner(f, snap, 8), f)

    def test_norm_preserved(self):
        f = random_unit(7, 5)
        for snap in range(4):
            assert np.linalg.norm(svam_combiner(f, snap, 10)) == pytest.approx(1.0)

    def test_wrong_length_rejected(self):
        # a beam longer than the aperture leaves n_v = 0 shifts
        with pytest.raises(ValueError):
            svam_combiner(random_unit(5, 6), 0, 4)

    def test_virtual_array_beyond_aperture_rejected(self):
        # a beam with no taps would ask for n_v = 5 > n = 4
        with pytest.raises(ValueError):
            svam_combiner(np.zeros(0, dtype=complex), 0, 4)

    def test_accepts_beamformer_objects(self):
        bf = design_beamformer(BeamSpec(0.25, 0.5), 8)
        w = svam_combiner(bf, 2, 10)
        np.testing.assert_allclose(w[2:], bf.weights)


class TestMeasureSegment:
    def test_noiseless_phase_progression(self):
        f = random_unit(4, 9)
        alpha, u = np.sqrt(2.0) * (0.7 - 0.2j), 0.35
        params = ChannelParams(alpha, u)
        values = measure_segment(f, params, 6, np.random.default_rng(0))
        beta = np.vdot(f, ula_manifold(4, u))
        expected = alpha * beta * np.exp(1j * np.pi * u * np.arange(3))
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_broadside_gives_equal_snapshots(self):
        f = random_unit(4, 10)
        params = ChannelParams(1.0, 0.0)
        values = measure_segment(f, params, 5, np.random.default_rng(0))
        np.testing.assert_allclose(values[0], values[1], atol=1e-12)


class TestMeasurementHistory:
    def _grid(self):
        return AngularGrid(RegionOfInterest(0.0, 1.0), 16)

    def _history_with_segments(self, count, noise=0.0, seed=0):
        grid = self._grid()
        params = ChannelParams(
            np.exp(0.4j), grid.points[5], noise_variance=noise
        )
        rng = np.random.default_rng(seed)
        hist = MeasurementHistory(3, grid, 1)
        for t in range(count):
            # 10 taps on 12 elements: blocks of n_v = 3
            f = random_unit(10, 100 + t)
            hist.append(measure_segment(f, params, 12, rng)[None], [f])
        return hist, grid, params

    def test_stacked_kron_structure_noiseless(self):
        hist, grid, params = self._history_with_segments(4)
        alpha, u = params.alpha, params.u
        i = 5  # on-grid path index
        betas = hist.beta_matrix[0, :, i]
        expected = np.kron(betas, ula_manifold(3, u)) * alpha
        np.testing.assert_allclose(hist.stacked()[0], expected, atol=1e-10)

    def test_beta_rows_match_direct_gain(self):
        hist, grid, _ = self._history_with_segments(2)
        (f,) = hist.beamformers[1]
        direct = np.array(
            [np.vdot(f, ula_manifold(10, u)) for u in grid.points]
        )
        np.testing.assert_allclose(hist.beta_matrix[0, 1], direct, atol=1e-12)

    def test_cumulative_gain_is_running_sum(self):
        hist, _, _ = self._history_with_segments(3, noise=0.5, seed=3)
        np.testing.assert_allclose(
            hist.cumulative_gain,
            np.sum(np.abs(hist.beta_matrix) ** 2, axis=1),
            rtol=1e-12,
        )

    def test_matched_statistic_explicit_sum(self):
        hist, grid, _ = self._history_with_segments(3, noise=0.3, seed=4)
        phi = grid.manifold(3)
        expected = np.zeros(grid.size, dtype=complex)
        for t, (values,) in enumerate(hist.segments):
            expected += hist.beta_matrix[0, t].conj() * (phi.conj().T @ values)
        np.testing.assert_allclose(hist.matched_statistic[0], expected, atol=1e-10)

    def test_total_power(self):
        hist, _, _ = self._history_with_segments(2, noise=1.0, seed=5)
        assert hist.total_power[0] == pytest.approx(
            np.linalg.norm(hist.stacked()) ** 2
        )

    def test_batched_power_rows_equal_lone_vdot(self):
        rng = np.random.default_rng(8)
        grid = self._grid()
        for n_v in (1, 2, 3, 4, 5, 8, 17):
            values = rng.standard_normal((6, n_v)) + 1j * rng.standard_normal((6, n_v))
            hist = MeasurementHistory(n_v, grid, 6)
            hist.append(values, [random_unit(4, k) for k in range(6)])
            for got, row in zip(hist.total_power, values):
                assert got == np.vdot(row, row).real

    def test_wrong_block_size_rejected(self):
        hist = MeasurementHistory(2, self._grid(), 1)
        with pytest.raises(ValueError):
            hist.append(np.zeros((1, 3), dtype=complex), [random_unit(5, 0)])


class TestBeamCacheStack:
    def test_stack_equals_per_beam_calls_bit_for_bit(self):
        calls = []
        cache = BeamCache(lambda w: calls.append(1) or np.outer(w, w.conj()))
        frozen, other = random_unit(3, 1), random_unit(3, 2)
        frozen.flags.writeable = False
        other.flags.writeable = False
        loose = random_unit(3, 3)
        beams = [frozen, loose, frozen, other, loose, frozen]
        got = cache.stack(beams)
        want = np.stack([cache(f) for f in beams])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # one lookup per distinct array: the read-only ones are served from
        # the cache, the writeable one is rebuilt once
        calls.clear()
        np.testing.assert_array_equal(cache.stack(beams), want)
        assert len(calls) == 1
        # a Beamformer and its own weights are one beam
        bf = design_beamformer(BeamSpec(0.5, 0.5), 3)
        calls.clear()
        pair = cache.stack([bf, bf.weights])
        assert len(calls) == 1 and pair[0].tobytes() == pair[1].tobytes()

    def test_stack_never_serves_a_changed_writeable_array_stale(self):
        cache = BeamCache(lambda w: w.sum())
        loose = np.ones(3, dtype=complex)
        assert cache.stack([loose, loose]).tolist() == [3, 3]
        loose[0] = 5.0
        assert cache.stack([loose]).tolist() == [7]
