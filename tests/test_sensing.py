import numpy as np
import pytest

from history_helpers import append_beams
from scalar_alignment import measure_segment_scalar, noise_rows
from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.beams import BeamSpec, design_beamformer
from svamsim.channel import ChannelParams, draw_noise, noiseless_snapshot
from svamsim.sensing import (
    BeamTable,
    MeasurementHistory,
    beam_responses,
    block_combiners,
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


    @pytest.mark.parametrize("taps, n, n_v", [(4, 6, 3), (6, 6, 4), (1, 5, 5), (3, 8, 2)])
    def test_a_stack_of_weights_gives_each_beam_its_own_combiners(self, taps, n, n_v):
        rng = np.random.default_rng(10 * taps + n)
        stack = rng.standard_normal((2, 3, taps)) + 1j * rng.standard_normal((2, 3, taps))
        blocks = block_combiners(stack, n, n_v)
        assert blocks.shape == (2, 3, n_v, n)
        for i in np.ndindex(2, 3):
            assert blocks[i].tobytes() == block_combiners(stack[i], n, n_v).tobytes()
            for r in range(n_v):
                lone = svam_combiner(stack[i], r, n)
                assert svam_combiner(stack, r, n)[i].tobytes() == lone.tobytes()
                assert blocks[i + (r,)].tobytes() == lone.tobytes()


# (new rows, taps m, aperture n, block n_v, grid points), then random ones
_BUILDS = [
    (1, 1, 1, 1, 8), (1, 64, 64, 1, 128), (2, 1, 9, 9, 8), (7, 13, 16, 4, 64),
    (31, 33, 40, 8, 37), (64, 61, 64, 4, 64), (127, 64, 80, 17, 128),
    (127, 5, 68, 64, 100),
]
for _draw in np.random.default_rng(31).integers(0, 2**31, size=(8, 5)):
    _m = 1 + int(_draw[1]) % 64
    _n = _m + int(_draw[2]) % 40
    _BUILDS.append(
        (1 + int(_draw[0]) % 127, _m, _n, 1 + int(_draw[3]) % (_n - _m + 1),
         8 + int(_draw[4]) % 121)
    )


@pytest.mark.parametrize("count, m, n, n_v, size", _BUILDS)
def test_a_stacked_build_gives_each_row_a_lone_builds_bits(count, m, n, n_v, size):
    # a gather builds all the weights arrays it meets first in one stacked
    # call; each row has the bits of block_combiners and beam_responses on
    # its own array, in the gather that builds it and in a later one
    rng = np.random.default_rng((count, m, n, n_v, size))
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), size)
    w = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    beams = [row.copy() for row in w]
    beams.append(beams[0])  # a row that shares row 0's weights array
    table = BeamTable(beams, n, n_v, grid)
    order = rng.permutation(len(beams))
    for rows in (order[: rng.integers(1, len(beams) + 1)], order, order[::-1]):
        combiners, responses = table.gather(rows)
        assert table.taps == m
        for row, c, r in zip(rows.tolist(), combiners, responses):
            assert c.tobytes() == block_combiners(beams[row], n, n_v).tobytes()
            assert r.tobytes() == beam_responses(beams[row], grid).tobytes()
            assert r.tobytes() == (beams[row].conj() @ grid.manifold(m)).tobytes()


def test_a_gather_builds_only_the_rows_no_block_has_read(monkeypatch):
    # a gather reads its rows' slots once and sends only unread rows to the
    # build, and a beam appended after the table was made gets a slot
    rng = np.random.default_rng(39)
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
    beams = [rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(3)]
    table = BeamTable(beams, 6, 2, grid)
    built, build = [], BeamTable._build
    monkeypatch.setattr(
        BeamTable, "_build", lambda t, rows: built.append(rows.tolist()) or build(t, rows)
    )
    gathers = [np.array([0, 0, 2]), np.array([2, 0]), np.array([3, 1, 3, 0])]
    for k, rows in enumerate(gathers):
        if k == 2:
            beams.append(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        combiners, responses = table.gather(rows)
        for row, c, r in zip(rows.tolist(), combiners, responses):
            assert c.tobytes() == block_combiners(beams[row], 6, 2).tobytes()
            assert r.tobytes() == beam_responses(beams[row], grid).tobytes()
    assert built == [[0, 0, 2], [3, 1, 3]]


def _measure_lone(f, params, n, n_v, rng):
    """The (n_v,) outputs and (grid,) responses measure_segment gives a
    batch of one sensing block 0 with beam f."""
    table = BeamTable([f], n, n_v, AngularGrid(RegionOfInterest(0.0, 1.0), 8))
    noise = noise_rows(draw_noise([rng], n_v, n), [params.noise_variance])
    signals = noiseless_snapshot([params], n)
    rows = np.zeros(1, dtype=int)
    (values,), (responses,) = measure_segment(table, rows, *noise, signals, 0)
    return values, responses


class TestMeasureSegment:
    def test_noiseless_phase_progression(self):
        f = random_unit(4, 9)
        alpha, u = np.sqrt(2.0) * (0.7 - 0.2j), 0.35
        params = ChannelParams(alpha, u)
        values, _ = _measure_lone(f, params, 6, 3, np.random.default_rng(0))
        beta = np.vdot(f, ula_manifold(4, u))
        expected = alpha * beta * np.exp(1j * np.pi * u * np.arange(3))
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_broadside_gives_equal_snapshots(self):
        f = random_unit(4, 10)
        params = ChannelParams(1.0, 0.0)
        values, _ = _measure_lone(f, params, 5, 2, np.random.default_rng(0))
        np.testing.assert_allclose(values[0], values[1], atol=1e-12)

    def test_rows_equal_lone_blocks_snapshot_by_snapshot(self):
        # each block of a batch, at any window of the run's draw, carries
        # the bits of its trial's lone block: every snapshot synthesized and
        # combined on its own, after the blocks before it
        n, n_v, blocks = 9, 3, 3
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 16)
        beams = [random_unit(n - n_v + 1, 20 + k) for k in range(4)]
        channels = [
            ChannelParams(np.exp(1j * k), 0.2 * k, noise_variance=v)
            for k, v in enumerate([0.5, 0.0, 2.0, 1.0])
        ]
        signals = noiseless_snapshot(channels, n)
        rngs = [np.random.default_rng(30 + k) for k in range(4)]
        lone_rngs = [np.random.default_rng(30 + k) for k in range(4)]
        table = BeamTable(beams, n, n_v, grid)
        noise = noise_rows(
            draw_noise(rngs, blocks * n_v, n), [c.noise_variance for c in channels]
        )
        for t in range(blocks):
            rows = np.roll(np.arange(4), t)
            values, responses = measure_segment(table, rows, *noise, signals, t * n_v)
            assert values.shape == (4, n_v) and responses.shape == (4, grid.size)
            for k, row in enumerate(rows.tolist()):
                lone = measure_segment_scalar(beams[row], channels[k], n, lone_rngs[k])
                assert values[k].tobytes() == lone.tobytes()
                lone_responses = beam_responses(beams[row], grid)
                assert responses[k].tobytes() == lone_responses.tobytes()


class TestMeasurementHistory:
    def _grid(self):
        return AngularGrid(RegionOfInterest(0.0, 1.0), 16)

    def _history_with_segments(self, count, noise=0.0, seed=0):
        grid = self._grid()
        params = ChannelParams(
            np.exp(0.4j), grid.points[5], noise_variance=noise
        )
        rng = np.random.default_rng(seed)
        hist = MeasurementHistory(12, 3, grid, 1, 0.5)
        beta = []
        for t in range(count):
            # 10 taps on 12 elements: blocks of n_v = 3
            f = random_unit(10, 100 + t)
            values = measure_segment_scalar(f, params, 12, rng)[None]
            beta.append(append_beams(hist, values, [f]))
        # the (trials, segments, grid) response rows the history folded
        return hist, grid, params, np.stack(beta, axis=-2)

    def test_stacked_kron_structure_noiseless(self):
        hist, grid, params, beta = self._history_with_segments(4)
        alpha, u = params.alpha, params.u
        i = 5  # on-grid path index
        betas = beta[0, :, i]
        expected = np.kron(betas, ula_manifold(3, u)) * alpha
        np.testing.assert_allclose(hist.stacked()[0], expected, atol=1e-10)

    def test_beta_rows_match_direct_gain(self):
        hist, grid, _, beta = self._history_with_segments(2)
        f = random_unit(10, 101)  # the second segment's beam
        direct = np.array(
            [np.vdot(f, ula_manifold(10, u)) for u in grid.points]
        )
        np.testing.assert_allclose(beta[0, 1], direct, atol=1e-12)

    def test_cumulative_gain_is_running_sum(self):
        hist, _, _, beta = self._history_with_segments(3, noise=0.5, seed=3)
        np.testing.assert_allclose(
            hist.cumulative_gain,
            np.sum(np.abs(beta) ** 2, axis=1),
            rtol=1e-12,
        )

    def test_matched_statistic_explicit_sum(self):
        hist, grid, _, beta = self._history_with_segments(3, noise=0.3, seed=4)
        phi = grid.manifold(3)
        expected = np.zeros(grid.size, dtype=complex)
        for t, (values,) in enumerate(hist.segments):
            expected += beta[0, t].conj() * (phi.conj().T @ values)
        np.testing.assert_allclose(hist.matched_statistic[0], expected, atol=1e-10)

    def test_total_power(self):
        hist, _, _, _ = self._history_with_segments(2, noise=1.0, seed=5)
        assert hist.total_power[0] == pytest.approx(
            np.linalg.norm(hist.stacked()) ** 2
        )

    def test_batched_power_rows_equal_lone_vdot(self):
        rng = np.random.default_rng(8)
        grid = self._grid()
        for n_v in (1, 2, 3, 4, 5, 8, 17):
            values = rng.standard_normal((6, n_v)) + 1j * rng.standard_normal((6, n_v))
            hist = MeasurementHistory(n_v + 3, n_v, grid, 6, 0.5)
            append_beams(hist, values, [random_unit(4, k) for k in range(6)])
            for got, row in zip(hist.total_power, values):
                assert got == np.vdot(row, row).real

    @pytest.mark.parametrize("taps", [7, 10, 12], ids=["sliding", "sliding-cycled", "repeated"])
    def test_matched_rows_keep_the_gathered_rows_bits(self, taps):
        # 12 elements, n_v = 3: 10 taps slide through 3 shifts, 7 taps
        # through 6 (rows 0-2 of phi_6) and 12 taps repeat (ones)
        rng = np.random.default_rng(taps)
        grid = self._grid()
        hist = MeasurementHistory(12, 3, grid, 4, 0.5)
        shifts = 12 - taps + 1
        virtual = grid.manifold(shifts)[np.arange(3) % shifts]
        want = np.zeros((4, grid.size), dtype=complex)
        for _ in range(3):
            values = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            responses = rng.standard_normal((4, grid.size)) + 0j
            hist.append(values, responses, taps)
            want += responses.conj() * np.matmul(values[:, None, :], virtual.conj())[:, 0, :]
        assert hist.matched_statistic.tobytes() == want.tobytes()

    def test_wrong_block_size_rejected(self):
        hist = MeasurementHistory(6, 2, self._grid(), 1, 0.5)
        with pytest.raises(ValueError):
            append_beams(hist, np.zeros((1, 3), dtype=complex), [random_unit(5, 0)])
