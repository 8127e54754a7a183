import numpy as np
import pytest

from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.beams import BeamSpec, design_beamformer
from svamsim.channel import ChannelParams
from svamsim.sensing import (
    MeasurementHistory,
    SegmentMeasurement,
    SvamConfig,
    measure_segment,
    svam_combiner,
)


def random_unit(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


class TestSvamConfig:
    def test_dense_combiner_length(self):
        assert SvamConfig(n=6, n_v=3).combiner_length == 4
        assert SvamConfig(n=64, n_v=4).combiner_length == 61
        assert SvamConfig(n=8, n_v=1).combiner_length == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SvamConfig(n=4, n_v=5)


class TestSvamCombiner:
    def test_dense_shift_layout(self):
        cfg = SvamConfig(n=6, n_v=3)
        f = random_unit(4, 1)
        w0 = svam_combiner(f, 0, cfg)
        w1 = svam_combiner(f, 1, cfg)
        w2 = svam_combiner(f, 2, cfg)
        np.testing.assert_allclose(w0, np.concatenate([f, [0, 0]]))
        np.testing.assert_allclose(w1, np.concatenate([[0], f, [0]]))
        np.testing.assert_allclose(w2, np.concatenate([[0, 0], f]))
        # block periodicity
        np.testing.assert_allclose(svam_combiner(f, 3, cfg), w0)
        np.testing.assert_allclose(svam_combiner(f, 7, cfg), w1)

    def test_single_snapshot_block_never_shifts(self):
        cfg = SvamConfig(n=8, n_v=1)
        f = random_unit(8, 2)
        for snap in range(4):
            np.testing.assert_allclose(svam_combiner(f, snap, cfg), f)

    def test_norm_preserved(self):
        cfg = SvamConfig(n=10, n_v=4)
        f = random_unit(7, 5)
        for snap in range(4):
            assert np.linalg.norm(svam_combiner(f, snap, cfg)) == pytest.approx(1.0)

    def test_wrong_length_rejected(self):
        cfg = SvamConfig(n=6, n_v=3)
        with pytest.raises(ValueError):
            svam_combiner(random_unit(5, 6), 0, cfg)

    def test_accepts_beamformer_objects(self):
        cfg = SvamConfig(n=10, n_v=3)
        bf = design_beamformer(BeamSpec(0.25, 0.5), cfg.combiner_length)
        w = svam_combiner(bf, 2, cfg)
        np.testing.assert_allclose(w[2:], bf.weights)


class TestMeasureSegment:
    def test_noiseless_phase_progression(self):
        cfg = SvamConfig(n=6, n_v=3)
        f = random_unit(4, 9)
        alpha, u, power = 0.7 - 0.2j, 0.35, 2.0
        params = ChannelParams.single_path(alpha, u, power=power)
        seg = measure_segment(f, params, cfg, 0, np.random.default_rng(0))
        beta = np.vdot(f, ula_manifold(4, u))
        expected = (
            np.sqrt(power) * alpha * beta * np.exp(1j * np.pi * u * np.arange(3))
        )
        np.testing.assert_allclose(seg.values, expected, atol=1e-12)

    def test_broadside_gives_equal_snapshots(self):
        cfg = SvamConfig(n=5, n_v=2)
        f = random_unit(4, 10)
        params = ChannelParams.single_path(1.0, 0.0)
        seg = measure_segment(f, params, cfg, 3, np.random.default_rng(0))
        assert seg.index == 3
        np.testing.assert_allclose(seg.values[0], seg.values[1], atol=1e-12)

    def test_two_paths_superpose_in_output(self):
        cfg = SvamConfig(n=6, n_v=2)
        f = random_unit(5, 11)
        pa, pb = (0.3 + 1j, 0.1), (1.0, -0.6)
        params = ChannelParams(power=1.0, paths=(pa, pb), noise_variance=0.0)
        seg = measure_segment(f, params, cfg, 0, np.random.default_rng(0))
        expected = np.zeros(2, dtype=complex)
        for alpha, u in (pa, pb):
            beta = np.vdot(f, ula_manifold(5, u))
            expected += alpha * beta * np.exp(1j * np.pi * u * np.arange(2))
        np.testing.assert_allclose(seg.values, expected, atol=1e-12)


class TestMeasurementHistory:
    def _grid(self):
        return AngularGrid(RegionOfInterest(0.0, 1.0), 16)

    def _history_with_segments(self, count, noise=0.0, seed=0):
        cfg = SvamConfig(n=12, n_v=3)
        grid = self._grid()
        params = ChannelParams.single_path(
            np.exp(0.4j), grid.points[5], noise_variance=noise
        )
        rng = np.random.default_rng(seed)
        hist = MeasurementHistory(cfg)
        for t in range(count):
            f = random_unit(cfg.combiner_length, 100 + t)
            seg = measure_segment(f, params, cfg, t, rng)
            hist.append(seg, f, grid)
        return hist, grid, params

    def test_stacked_kron_structure_noiseless(self):
        hist, grid, params = self._history_with_segments(4)
        alpha, u = params.paths[0]
        i = 5  # on-grid path index
        betas = hist.beta_matrix[:, i]
        expected = np.kron(betas, ula_manifold(3, u)) * alpha
        np.testing.assert_allclose(hist.stacked(), expected, atol=1e-10)

    def test_beta_rows_match_direct_gain(self):
        hist, grid, _ = self._history_with_segments(2)
        f = hist.beamformers[1]
        direct = np.array(
            [np.vdot(f, ula_manifold(10, u)) for u in grid.points]
        )
        np.testing.assert_allclose(hist.beta_matrix[1], direct, atol=1e-12)

    def test_cumulative_gain_is_running_sum(self):
        hist, _, _ = self._history_with_segments(3, noise=0.5, seed=3)
        np.testing.assert_allclose(
            hist.cumulative_gain,
            np.sum(np.abs(hist.beta_matrix) ** 2, axis=0),
            rtol=1e-12,
        )

    def test_matched_statistic_explicit_sum(self):
        hist, grid, _ = self._history_with_segments(3, noise=0.3, seed=4)
        phi = grid.manifold(3)
        expected = np.zeros(grid.size, dtype=complex)
        for t, seg in enumerate(hist.segments):
            expected += hist.beta_matrix[t].conj() * (phi.conj().T @ seg.values)
        np.testing.assert_allclose(hist.matched_statistic, expected, atol=1e-10)

    def test_total_power(self):
        hist, _, _ = self._history_with_segments(2, noise=1.0, seed=5)
        assert hist.total_power == pytest.approx(
            np.linalg.norm(hist.stacked()) ** 2
        )

    def test_out_of_order_append_rejected(self):
        cfg = SvamConfig(n=6, n_v=2)
        hist = MeasurementHistory(cfg)
        seg = SegmentMeasurement(values=np.zeros(2, dtype=complex), index=1)
        with pytest.raises(ValueError):
            hist.append(seg, random_unit(5, 0), self._grid())

    def test_wrong_block_size_rejected(self):
        cfg = SvamConfig(n=6, n_v=2)
        hist = MeasurementHistory(cfg)
        seg = SegmentMeasurement(values=np.zeros(3, dtype=complex), index=0)
        with pytest.raises(ValueError):
            hist.append(seg, random_unit(5, 0), self._grid())

    def test_grid_switch_rejected(self):
        cfg = SvamConfig(n=6, n_v=2)
        hist = MeasurementHistory(cfg)
        f = random_unit(5, 1)
        seg0 = SegmentMeasurement(values=np.ones(2, dtype=complex), index=0)
        hist.append(seg0, f, self._grid())
        seg1 = SegmentMeasurement(values=np.ones(2, dtype=complex), index=1)
        with pytest.raises(ValueError):
            hist.append(seg1, f, self._grid())  # fresh grid object
