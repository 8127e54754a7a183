"""Lockstep trials: the batched alignment loop against the one-trial oracle,
block noise against single snapshots, and per-row validation."""

import gc
import math
import weakref

import numpy as np
import pytest

from scalar_alignment import run_alignment_scalar
from svamsim.adaptive import AdaptConfig, run_alignment
from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim.beams import BeamSpec, design_beamformer
from svamsim.channel import (
    ChannelParams,
    antenna_blocks,
    antenna_snapshot,
    noiseless_snapshot,
)
from svamsim.harness import draw_channel, noise_variance_from_snr, trial_generator
from svamsim.inference import (
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    posterior_pmf,
)
from svamsim.sensing import (
    BeamCache,
    MeasurementHistory,
    SegmentMeasurement,
    SvamConfig,
    measure_segment,
)

ROI = RegionOfInterest(0.0, 1.0)
TRIALS = 6


def config(**overrides) -> AdaptConfig:
    base = dict(
        n=16, n_v=4, total_snapshots=24, roi=ROI, grid_size=16, p_thresh=0.6
    )
    base.update(overrides)
    return AdaptConfig(**base)


def single_path_trials(cfg: AdaptConfig, snr_db: float, seed: int = 5):
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    return [
        draw_channel(grid, snr_db, trial_generator(seed, trial))
        for trial in range(TRIALS)
    ]


def two_path_trials(cfg: AdaptConfig, snr_db: float, seed: int = 9):
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    channels = []
    for trial in range(TRIALS):
        rng = trial_generator(seed, trial)
        u1, u2 = (float(grid.points[k]) for k in rng.integers(grid.size, size=2))
        a1, a2 = np.exp(2j * np.pi * rng.uniform(size=2))
        channels.append(
            ChannelParams(
                power=1.0,
                paths=((a1, u1), (0.4 * a2, u2)),
                noise_variance=noise_variance_from_snr(snr_db),
            )
        )
    return channels


def assert_matches_oracle(cfg: AdaptConfig, channels, seed: int = 0) -> None:
    """The batch and the lone runs each start from the same per-trial
    generators; every TrialRecord and SegmentLog field must agree."""

    def generators():
        return [np.random.default_rng((seed, trial)) for trial in range(len(channels))]

    batched = run_alignment(cfg, channels, generators())
    lone = [
        run_alignment_scalar(cfg, channel, rng, trial_index=trial)
        for trial, (channel, rng) in enumerate(zip(channels, generators()))
    ]
    assert len(batched) == len(lone)
    for got, want in zip(batched, lone):
        assert got.trial_index == want.trial_index
        assert got.true_angle == want.true_angle
        assert got.estimate == want.estimate
        assert len(got.segments) == len(want.segments)
        for seg_got, seg_want in zip(got.segments, want.segments):
            assert seg_got.beam == seg_want.beam
            assert seg_got.gain_at_truth == seg_want.gain_at_truth
            assert seg_got.mode_index == seg_want.mode_index
            assert seg_got.peak_prob == seg_want.peak_prob
        assert got == want


@pytest.mark.parametrize("n_v", [1, 4])
@pytest.mark.parametrize("noise_scale", [1.0, 0.5])
@pytest.mark.parametrize("snr_db", [-10.0, math.inf])
@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
def test_lockstep_matches_scalar_oracle(codebook, snr_db, noise_scale, n_v):
    cfg = config(codebook=codebook, noise_scale=noise_scale, n_v=n_v)
    assert_matches_oracle(cfg, single_path_trials(cfg, snr_db))


def test_lockstep_matches_oracle_with_start_offset():
    cfg = config(codebook="hierarchical", hier_start_offset=1, n_v=2)
    assert_matches_oracle(cfg, single_path_trials(cfg, -5.0))


@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
def test_lockstep_matches_oracle_on_two_paths(codebook):
    cfg = config(codebook=codebook)
    assert_matches_oracle(cfg, two_path_trials(cfg, 0.0))


def test_batch_rejects_mismatched_inputs():
    cfg = config()
    chan = ChannelParams.single_path(1.0, 0.25, noise_variance=0.5)
    quieter = ChannelParams.single_path(1.0, 0.25, noise_variance=0.1)
    rng = np.random.default_rng
    with pytest.raises(ValueError):
        run_alignment(cfg, [], [])
    with pytest.raises(ValueError):
        run_alignment(cfg, [chan, chan], [rng(0)])
    with pytest.raises(ValueError):
        run_alignment(cfg, [chan, quieter], [rng(0), rng(1)])


# ------------------------------------------------------------ block noise


def test_noise_block_reproduces_consecutive_snapshots():
    n, n_v, seed = 8, 4, 21
    params = ChannelParams.single_path(np.exp(0.7j), 0.3, noise_variance=2.0)
    rng = np.random.default_rng(seed)
    singles = np.stack([antenna_snapshot(params, n, rng) for _ in range(n_v)])
    raw = np.random.default_rng(seed).standard_normal((n_v, 2, n))
    noise = np.sqrt(params.noise_variance / 2.0) * (raw[:, 0] + 1j * raw[:, 1])
    np.testing.assert_array_equal(singles, noiseless_snapshot(params, n) + noise)

    rng_block, rng_single = np.random.default_rng(seed), np.random.default_rng(seed)
    (block,) = antenna_blocks(
        noiseless_snapshot(params, n)[None], params.noise_variance, [rng_block], n_v
    )
    np.testing.assert_array_equal(
        block, [antenna_snapshot(params, n, rng_single) for _ in range(n_v)]
    )
    # both generators stand at the same place afterwards
    assert rng_block.standard_normal() == rng_single.standard_normal()


def test_noiseless_block_leaves_generator_untouched():
    params = ChannelParams.single_path(1.0, 0.5)
    rng = np.random.default_rng(3)
    block = antenna_blocks(noiseless_snapshot(params, 6)[None], 0.0, [rng], 3)
    np.testing.assert_array_equal(
        block[0], np.tile(noiseless_snapshot(params, 6), (3, 1))
    )
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


# ------------------------------------------------------ batched inference


def _histories(trials=3, n_v=2, segments=3):
    cfg = SvamConfig(n=10, n_v=n_v)
    grid = AngularGrid(ROI, 16)
    m = cfg.combiner_length
    batch = MeasurementHistory(cfg, trials=trials)
    lone = [MeasurementHistory(cfg) for _ in range(trials)]
    rngs = [np.random.default_rng(40 + i) for i in range(trials)]
    for t in range(segments):
        beams = [
            design_beamformer(BeamSpec(0.5, 1.0 / (1 + (i + t) % 3)), m)
            for i in range(trials)
        ]
        params = ChannelParams.single_path(
            1j, float(grid.points[3]), noise_variance=0.7
        )
        segs = [
            measure_segment(f, params, cfg, t, rng) for f, rng in zip(beams, rngs)
        ]
        for hist, seg, f in zip(lone, segs, beams):
            hist.append(seg, f, grid)
        values = np.stack([seg.values for seg in segs])
        batch.append(SegmentMeasurement(values, t), beams, grid)
    return batch, lone, grid


def test_batched_history_rows_equal_lone_histories():
    batch, lone, grid = _histories()
    for i, hist in enumerate(lone):
        np.testing.assert_array_equal(batch.cumulative_gain[i], hist.cumulative_gain)
        np.testing.assert_array_equal(
            batch.matched_statistic[i], hist.matched_statistic
        )
        assert batch.total_power[i] == hist.total_power
        np.testing.assert_array_equal(batch.beta_matrix[i], hist.beta_matrix)
        np.testing.assert_array_equal(batch.stacked()[i], hist.stacked())


def test_finished_history_is_freed_by_reference_counting():
    # a sweep builds one history per point; a reference cycle would keep
    # each one, with its cached response rows, alive until the cyclic
    # collector happens to run
    batch, _, _ = _histories()
    ref = weakref.ref(batch)
    gc.disable()
    try:
        del batch
        assert ref() is None
    finally:
        gc.enable()


def test_batched_inference_rows_equal_lone_inference():
    batch, lone, grid = _histories()

    def chain(hist):
        gamma = gamma_mle(hist, grid, 1.0, 0.7)
        post = alpha_posterior(hist, grid, gamma, 1.0, 0.7)
        ll = approx_log_likelihood(hist, grid, post, 1.0, 0.7)
        return gamma, post.mean, post.variance, ll, posterior_pmf(ll)

    for got, want in zip(chain(batch), zip(*(chain(h) for h in lone))):
        np.testing.assert_array_equal(got, np.stack(want))


def test_batched_history_validates_each_block():
    batch, _, grid = _histories(trials=2, segments=1)
    f = design_beamformer(BeamSpec(0.5, 1.0), batch.config.combiner_length)
    with pytest.raises(ValueError):  # one trial's worth of values
        batch.append(SegmentMeasurement(np.zeros(2, dtype=complex), 1), [f, f], grid)
    with pytest.raises(ValueError):  # wrong block size
        batch.append(
            SegmentMeasurement(np.zeros((2, 3), dtype=complex), 1), [f, f], grid
        )
    with pytest.raises(ValueError):  # one beamformer short
        batch.append(
            SegmentMeasurement(np.zeros((2, 2), dtype=complex), 1), [f], grid
        )
    with pytest.raises(ValueError):  # a different grid
        batch.append(
            SegmentMeasurement(np.zeros((2, 2), dtype=complex), 1), [f, f],
            AngularGrid(ROI, 16),
        )
    with pytest.raises(ValueError):
        MeasurementHistory(batch.config, trials=0)


def test_inference_checks_gamma_per_row():
    batch, _, grid = _histories(trials=2)
    gamma = gamma_mle(batch, grid, 1.0, 0.7)
    with pytest.raises(ValueError):
        alpha_posterior(batch, grid, gamma[0], 1.0, 0.7)  # one row for two trials
    gamma[1, 4] = -1.0
    with pytest.raises(ValueError):
        alpha_posterior(batch, grid, gamma, 1.0, 0.7)


@pytest.mark.parametrize(
    "bad_row",
    [[0.0, np.nan, -1.0], [-np.inf, -np.inf, -np.inf]],
    ids=["nan", "all_inf"],
)
def test_pmf_rejects_any_bad_row(bad_row):
    good = [-1.0, -2.0, -3.0]
    with pytest.raises(ValueError):
        posterior_pmf(np.array([good, bad_row, good]))
    pmf = posterior_pmf(np.array([good, [-np.inf, 0.0, -np.inf]]))
    np.testing.assert_array_equal(pmf[0], posterior_pmf(np.array(good)))
    np.testing.assert_array_equal(pmf[1], [0.0, 1.0, 0.0])


def test_beam_cache_keys_read_only_weights_only():
    calls = []
    cache = BeamCache(lambda w: calls.append(1) or w.sum())
    frozen = np.ones(3, dtype=complex)
    frozen.flags.writeable = False
    assert cache(frozen) == cache(frozen) == 3
    assert len(calls) == 1
    loose = np.ones(3, dtype=complex)
    assert cache(loose) == 3
    loose[0] = 5.0  # an in-place change must not be served stale
    assert cache(loose) == 7
    assert len(calls) == 3
