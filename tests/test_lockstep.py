"""Lockstep trials: the batched alignment and known-gain hiePM loops against
their one-trial oracles, block noise against single snapshots, and per-row
validation."""

import functools
import gc
import math
import types
import weakref
from dataclasses import replace

import numpy as np
import pytest

from history_helpers import append_beams
from scalar_alignment import (
    antenna_snapshot_scalar,
    columns,
    known_alpha_update,
    measure_segment_scalar,
    noise_rows,
    run_alignment_scalar,
    select_codeword_scalar,
)
from svamsim import harness, sensing
from svamsim.adaptive import (
    AdaptConfig,
    _align,
    node_mass,
    node_masses,
    run_alignment,
    run_hiepm_known_alpha,
    select_codeword_posterior_matching,
)
from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim.beams import BeamSpec, build_hierarchical_codebook, design_beamformer
from svamsim.channel import (
    BatchNoise,
    ChannelParams,
    antenna_snapshot,
    draw_noise,
    noiseless_snapshot,
)
from svamsim.harness import (
    _draw_trials,
    draw_channel,
    run_hiepm_trials,
    trial_generator,
)
from svamsim.inference import (
    alpha_posterior,
    approx_log_likelihood,
    fitted_log_likelihood,
    gamma_mle,
    known_alpha_posterior,
    posterior_pmf,
)
from svamsim.sensing import MeasurementHistory, block_combiners

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


def drawn(cfg: AdaptConfig, rngs) -> BatchNoise:
    """A run's noise: one row per generator, each drawing the whole run."""
    return draw_noise(rngs, cfg.total_snapshots, cfg.n)


def assert_matches_oracle(
    cfg: AdaptConfig, channels, seed: int = 0, codebook=None
) -> None:
    """The batch and the lone runs each start from the same per-trial
    generators; every column of the outcome must agree with the lone
    runs' logs, gains at the truth included: to the bit with the fitted
    gain, and as assert_matches_known_gain_oracle says with the known one."""

    def generators():
        return [np.random.default_rng((seed, trial)) for trial in range(len(channels))]

    batched = run_alignment(cfg, channels, drawn(cfg, generators()), codebook)
    lone = [
        run_alignment_scalar(cfg, channel, rng, codebook)
        for channel, rng in zip(channels, generators())
    ]
    if cfg.gain == "known":
        assert_matches_known_gain_oracle(batched, lone)
    else:
        assert_same_outcome(batched, lone)


def assert_same_outcome(batched, lone) -> None:
    got, want = columns(batched), columns(lone)
    for name in want:
        assert got[name] == want[name], name


# block sizes 3 and 6 are ones where a lone vector-matrix product and a row
# of a batch's matrix product round differently
@pytest.mark.parametrize("n_v", [1, 3, 4, 6])
@pytest.mark.parametrize("noise_scale", [1.0, 0.5])
@pytest.mark.parametrize("snr_db", [-10.0, math.inf])
@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
@pytest.mark.parametrize("gain", ["fitted", "known"])
def test_lockstep_matches_scalar_oracle(gain, codebook, snr_db, noise_scale, n_v):
    cfg = config(codebook=codebook, noise_scale=noise_scale, n_v=n_v, gain=gain)
    assert_matches_oracle(cfg, single_path_trials(cfg, snr_db))


def run_of(controller: str, cfg: AdaptConfig):
    """The config and run of a controller on cfg's sizes: flexible and
    hierarchical fit the gain, and hiepm, the known-gain scheme, is the
    known gain with posterior matching over the sliding codebook."""
    if controller != "hiepm":
        return replace(cfg, codebook=controller), run_alignment
    cfg = replace(cfg, codebook="posterior_matching", gain="known")
    return cfg, functools.partial(run_alignment, codebook=book_for(cfg, "svam"))


def _assert_rejects_mismatched_inputs(run, cfg):
    # no channel, a noise row short, or a draw of another length or size
    chan = ChannelParams(1.0, 0.25, noise_variance=0.5)
    rngs = [np.random.default_rng(0)]
    for channels, noise, match in [
        ([], drawn(cfg, []), "need at least one channel"),
        ([chan, chan], drawn(cfg, rngs), "one noise row per channel"),
        ([chan], draw_noise(rngs, 12, cfg.n), "need 24 observations of 16"),
        ([chan], draw_noise(rngs, 24, 8), r"got a draw of \(24, 8\)"),
    ]:
        with pytest.raises(ValueError, match=match):
            run(cfg, channels, noise)


@pytest.mark.parametrize("controller", ["flexible", "hierarchical", "hiepm"])
def test_batch_rejects_mismatched_inputs(controller):
    # posterior matching picks its first node from one uniform row, so a
    # run of no channels reaches the loop's own check
    cfg, run = run_of(controller, config())
    _assert_rejects_mismatched_inputs(run, cfg)


@pytest.mark.parametrize("codebook", ["flexible", "hierarchical", "hiepm"])
def test_a_run_reads_its_noise_and_writes_nothing(codebook):
    # the loop is a function of its inputs: two runs on one draw give the
    # same bits, and the draw stays read-only and unchanged
    cfg, run = run_of(codebook, config())
    channels = single_path_trials(cfg, -5.0)
    noise = drawn(cfg, [trial_generator(3, i) for i in range(len(channels))])
    before = noise.normals.tobytes()
    first, second = run(cfg, channels, noise), run(cfg, channels, noise)
    assert columns(first) == columns(second)
    assert first.peak_prob.tobytes() == second.peak_prob.tobytes()
    assert not noise.normals.flags.writeable
    assert noise.normals.tobytes() == before


@pytest.mark.parametrize("codebook", ["flexible", "hierarchical", "hiepm"])
def test_noiseless_rows_read_no_noise(codebook):
    # a noiseless trial's outcome does not depend on the draw it is given:
    # its row reads the zero slot, whatever its own slot holds
    cfg, run = run_of(codebook, config())
    channels = single_path_trials(cfg, math.inf)
    one = drawn(cfg, [trial_generator(3, i) for i in range(TRIALS)])
    other = drawn(cfg, [trial_generator(4, i) for i in range(TRIALS)])
    zeros = BatchNoise(one.normals, np.full(TRIALS, -1))
    want = run(cfg, channels, zeros)
    for noise in (one, other):
        got = run(cfg, channels, noise)
        assert_same_outcome(got, want)
        assert got.peak_prob.tobytes() == want.peak_prob.tobytes()


@pytest.mark.parametrize("noise_scale", [1.0, 0.5])
@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
def test_mixed_snr_batch_equals_lone_batches(codebook, noise_scale):
    # one batch holding several SNRs, one listed twice, as a sweep point's
    # batch does: each SNR's slice is that SNR's lone batch
    cfg = config(codebook=codebook, noise_scale=noise_scale)
    snrs = [-10.0, 0.0, math.inf, -10.0]
    grid = AngularGrid(cfg.roi, cfg.grid_size)

    def draw(snr):
        rngs = [trial_generator(13, trial) for trial in range(TRIALS)]
        return rngs, [draw_channel(grid, snr, rng) for rng in rngs]

    draws = [draw(snr) for snr in snrs]
    mixed = run_alignment(
        cfg,
        [channel for _, channels in draws for channel in channels],
        drawn(cfg, [rng for rngs, _ in draws for rng in rngs]),
    )
    for k, snr in enumerate(snrs):
        rngs, channels = draw(snr)
        lone = run_alignment(cfg, channels, drawn(cfg, rngs))
        assert_same_outcome(mixed[k * TRIALS : (k + 1) * TRIALS], lone)


@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
def test_sweep_batch_rows_of_a_trial_read_its_one_draw(codebook):
    # a sweep batch's rows of one trial read that trial's one slot: each
    # row's channel is the one a lone draw at its SNR gives, the slot holds
    # the noise its generator draws after the path, and the run equals the
    # same batch on a draw of its own per row
    cfg = config(codebook=codebook)
    snrs, seed = [-10.0, math.inf, 0.0, -10.0], 17
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    channels, noise = _draw_trials(cfg, snrs, TRIALS, seed)
    assert len(channels) == len(noise.slot) == len(snrs) * TRIALS
    assert noise.normals.shape == (TRIALS + 1, cfg.total_snapshots, cfg.n)
    assert noise.slot.tolist() == list(range(TRIALS)) * len(snrs)
    fresh = []
    for k, snr in enumerate(snrs):
        for i in range(TRIALS):
            fresh.append(trial_generator(seed, i))
            assert channels[k * TRIALS + i] == draw_channel(grid, snr, fresh[-1])
    own = drawn(cfg, fresh)
    assert own.normals[:TRIALS].tobytes() == noise.normals[:TRIALS].tobytes()
    shared = run_alignment(cfg, channels, noise)
    assert_same_outcome(shared, run_alignment(cfg, channels, own))


def test_draw_trials_reads_one_set_up_per_trial_set():
    # a second call with equal trial-set arguments reads the first call's
    # draw, the same read-only normals, whatever the SNRs or block size; any
    # other seed, trial count, grid, region, snapshot count or aperture
    # misses the set-up cache, and every set-up holds each trial's path
    # and then its noise from trial_generator
    harness._trial_setup.cache_clear()
    cfg, snrs, seed = config(), [-10.0, 0.0], 23
    _, first = _draw_trials(cfg, snrs, TRIALS, seed)
    for cfg, snrs, trials, seed, misses in [
        (cfg, [math.inf], TRIALS, seed, 1),
        (config(n_v=2), snrs, TRIALS, seed, 1),
        (cfg, snrs, TRIALS, seed + 1, 2),
        (cfg, snrs, TRIALS + 1, seed, 3),
        (config(grid_size=32), snrs, TRIALS, seed, 4),
        (config(roi=RegionOfInterest(-0.5, 0.25)), snrs, TRIALS, seed, 5),
        (config(n_v=2, total_snapshots=12), snrs, TRIALS, seed, 6),
        (config(n=8), snrs, TRIALS, seed, 7),
    ]:
        channels, noise = _draw_trials(cfg, snrs, trials, seed)
        assert harness._trial_setup.cache_info().misses == misses
        assert (noise.normals is first.normals) == (misses == 1)
        grid = AngularGrid(cfg.roi, cfg.grid_size)
        fresh = [trial_generator(seed, i) for i in range(trials)]
        for i, rng in enumerate(fresh):
            assert channels[i] == draw_channel(grid, snrs[0], rng)
        assert noise.normals.tobytes() == drawn(cfg, fresh).normals.tobytes()


def test_a_trial_set_up_reads_no_os_entropy(monkeypatch):
    # each trial's generator is seeded by (seed, trial) alone, so a set-up
    # is a function of its arguments: a second cold set-up has its bits
    def no_entropy(*args):
        raise AssertionError("a trial generator read OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    cfg, seed = config(), 29
    harness._trial_setup.cache_clear()
    channels, noise = _draw_trials(cfg, [-10.0], TRIALS, seed)
    harness._trial_setup.cache_clear()
    again, redrawn = _draw_trials(cfg, [-10.0], TRIALS, seed)
    assert redrawn.normals is not noise.normals
    assert channels == again
    assert redrawn.normals.tobytes() == noise.normals.tobytes()


def _counted_draws(monkeypatch) -> list[int]:
    """The row count of each draw_noise call the harness makes from now on,
    its set-up cache emptied."""
    harness._trial_setup.cache_clear()
    rows = []

    def counted(rngs, count, n):
        rows.append(len(rngs))
        return draw_noise(rngs, count, n)

    monkeypatch.setattr(harness, "draw_noise", counted)
    return rows


def test_hiepm_schemes_share_one_trial_set_up(monkeypatch):
    # the eight schemes of the known-gain table (L = 60, the least multiple
    # of their block sizes) run on one set-up of their trials: one
    # generator per trial and one noise draw
    made, rows = [], _counted_draws(monkeypatch)

    def counted(seed, trial):
        made.append(trial)
        return trial_generator(seed, trial)

    monkeypatch.setattr(harness, "trial_generator", counted)
    schemes = [(1, "svam"), (2, "repeat")] + [(k, "svam") for k in (2, 3, 4, 5, 10, 15)]
    for n_v, mode in schemes:
        cfg = config(
            codebook="posterior_matching", gain="known", n_v=n_v, total_snapshots=60
        )
        run_alignment(cfg, *_draw_trials(cfg, [-10.0], 2, 7), book_for(cfg, mode))
    assert made == [0, 1]
    assert rows == [2]


def test_codebook_compare_groups_share_one_noise_draw(monkeypatch):
    # both controller groups of a codebook comparison, each a batch of two
    # SNRs, read one draw of the trial set
    rows = _counted_draws(monkeypatch)
    harness.run_experiment(
        harness.ExperimentConfig(
            "codebook_compare", n=16, n_v=(4,), grid_size=16, total_snapshots=24,
            trials=3, snr_db=(-10.0, 0.0),
        )
    )
    assert rows == [3]


# --------------------------------------------------------- known-gain hiePM


@functools.cache
def hiepm_codebook(taps: int):
    return build_hierarchical_codebook(ROI, 4, taps, grid_size=16)


def hiepm_config(n_v: int) -> AdaptConfig:
    """A 20-snapshot known-gain run stepped by posterior matching, the
    hiePM scheme; every block size below divides 20."""
    return config(
        codebook="posterior_matching", gain="known", n_v=n_v, total_snapshots=20
    )


def book_for(cfg: AdaptConfig, mode: str):
    return hiepm_codebook(cfg.combiner_length if mode == "svam" else cfg.n)


@pytest.mark.parametrize("snr_db", [-10.0, math.inf])
@pytest.mark.parametrize("n_v", [1, 2, 5])
@pytest.mark.parametrize("mode", ["svam", "repeat"])
@pytest.mark.parametrize(
    "gain, step",
    [
        ("known", "posterior_matching"),
        ("known", "hierarchical"),
        ("fitted", "posterior_matching"),
        ("fitted", "hierarchical"),
    ],
)
def test_codebook_runs_match_scalar_oracle(gain, step, mode, n_v, snr_db):
    # each codebook step with each score, on a given codebook whose
    # codewords slide or repeat
    cfg = replace(hiepm_config(n_v), gain=gain, codebook=step)
    channels = single_path_trials(cfg, snr_db, seed=3)
    assert_matches_oracle(cfg, channels, seed=7, codebook=book_for(cfg, mode))


# With the known gain the loop scores a whole block from the history's
# running statistics, and the oracle updates once per snapshot: the masses
# are summed in another order, so peak_prob agrees to rounding (worst seen
# 1.3e-14 relative in posterior matching's cases above, 2.9e-13 over -20 to
# +10 dB) and every other column, posterior modes and estimates included,
# to the bit.
PEAK_PROB_RTOL = 1e-10


def assert_matches_known_gain_oracle(batched, lone) -> None:
    got, want = columns(batched), columns(lone)
    for name in want:
        if name != "peak_prob":
            assert got[name] == want[name], name
    np.testing.assert_allclose(
        got["peak_prob"], want["peak_prob"], rtol=PEAK_PROB_RTOL, atol=0
    )


@pytest.mark.parametrize("mode", ["svam", "repeat"])
def test_hiepm_batch_keeps_each_trial_stream(mode):
    # a 3-trial batch equals the head of a 7-trial batch
    cfg = hiepm_config(2)
    book = book_for(cfg, mode)
    few = run_alignment(cfg, *_draw_trials(cfg, [-5.0], 3, 11), book)
    many = run_alignment(cfg, *_draw_trials(cfg, [-5.0], 7, 11), book)
    assert len(few.true_angle) == 3 and len(many.true_angle) == 7
    assert_same_outcome(many[:3], few)


@pytest.mark.parametrize("mode", ["svam", "repeat"])
def test_the_hiepm_wrappers_are_one_run_alignment_call(mode):
    # the two wrappers kept for the benchmark give the bits of run_alignment
    # with the known gain and posterior matching, from a config of any step
    cfg = config(codebook="hierarchical", n_v=2, total_snapshots=20)
    book = book_for(cfg, mode)
    channels, noise = _draw_trials(cfg, [-5.0], TRIALS, 11)
    want = run_alignment(hiepm_config(2), channels, noise, book)
    for got in (
        run_hiepm_known_alpha(cfg, channels, noise, book),
        run_hiepm_trials(cfg, -5.0, TRIALS, 11, book, mode),
    ):
        assert_same_outcome(got, want)
        assert got.peak_prob.tobytes() == want.peak_prob.tobytes()


@pytest.mark.parametrize("mode", ["svam", "repeat"])
def test_hiepm_batch_mixes_noise_variances(mode):
    # each trial keeps its own noise variance, a noiseless one included:
    # every row equals its lone run, and the per-snapshot oracle's
    cfg = hiepm_config(2)
    book = book_for(cfg, mode)
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    channels = [
        draw_channel(grid, snr, trial_generator(9, k))
        for k, snr in enumerate([-10.0, 0.0, math.inf, 10.0])
    ]

    def generators():
        return [np.random.default_rng((2, k)) for k in range(len(channels))]

    mixed = run_alignment(cfg, channels, drawn(cfg, generators()), book)
    for k, (channel, rng) in enumerate(zip(channels, generators())):
        lone = run_alignment(cfg, [channel], drawn(cfg, [rng]), book)
        assert_same_outcome(mixed[k : k + 1], lone)
    oracle = [
        run_alignment_scalar(cfg, channel, rng, book)
        for channel, rng in zip(channels, generators())
    ]
    assert_matches_known_gain_oracle(mixed, oracle)


def _known_alpha_batch(trials=4, n=10, grid_size=16, seed=8):
    rng = np.random.default_rng(seed)
    prior = rng.random((trials, grid_size)) ** 3
    prior[1, 3] = 0.0  # a ruled-out candidate stays ruled out
    prior /= prior.sum(axis=-1, keepdims=True)
    w = rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n))
    w *= 0.9 / np.linalg.norm(w, axis=-1, keepdims=True)
    y = rng.standard_normal(trials) + 1j * rng.standard_normal(trials)
    alpha = np.sqrt(2.0) * np.exp(2j * np.pi * rng.random(trials))
    grid = AngularGrid(ROI, grid_size)
    # each combiner's response over the grid, by the product a lone update takes
    response = np.stack([row.conj() @ grid.manifold(n) for row in w])
    return prior, y, w, alpha, grid, response


def test_batched_known_alpha_rows_equal_lone_updates():
    prior, y, w, alpha, grid, response = _known_alpha_batch()
    batch = known_alpha_posterior(prior, y, alpha, response, 0.3)
    for i in range(len(prior)):
        y_i, alpha_i = complex(y[i]), complex(alpha[i])
        lone = known_alpha_posterior(prior[i], y_i, alpha_i, response[i], 0.3)
        oracle = known_alpha_update(prior[i], y_i, w[i], alpha_i, grid, 0.3)
        np.testing.assert_array_equal(lone, oracle)
        np.testing.assert_array_equal(batch[i], lone)
    assert batch[1, 3] == 0.0


@pytest.mark.parametrize(
    "spoil",
    ["negative_prior", "massless_prior", "short_y", "response_shape", "prior_length"],
)
def test_known_alpha_batch_rejects_any_bad_row(spoil):
    prior, y, _, alpha, grid, response = _known_alpha_batch()
    if spoil == "negative_prior":
        prior[2, 5] = -0.01
    elif spoil == "massless_prior":
        prior[2] = 0.0
    elif spoil == "short_y":
        y = y[:-1]
    elif spoil == "response_shape":
        response = np.zeros((len(prior), grid.size + 1), dtype=complex)
    else:
        prior = prior[:, :-1]
    with pytest.raises(ValueError):
        known_alpha_posterior(prior, y, alpha, response, 0.3)


def _peaky_pmfs(grid_size=64, seed=4):
    rng = np.random.default_rng(seed)
    pmfs = [np.full(grid_size, 1.0 / grid_size), np.eye(grid_size)[37]]
    for power in (1, 4, 12, 40):
        p = rng.random(grid_size) ** power
        pmfs.append(p / p.sum())
    return np.stack(pmfs)


def _node_mass_stacks(seed=39):
    """Seeded pmf stacks on grids of 1 to 128 points: Dirichlet rows at
    several concentrations, softmax rows of wide logits, one-hot, uniform,
    and a row of NaN."""
    rng = np.random.default_rng(seed)
    for size in (1, 2, 4, 8, 16, 32, 64, 128):
        rows = [rng.dirichlet(np.full(size, c), 4) for c in (0.05, 0.5, 5.0)]
        logits = rng.uniform(-300.0, 300.0, (4, size))
        softmax = np.exp(logits - logits.max(axis=1, keepdims=True))
        rows.append(softmax / softmax.sum(axis=1, keepdims=True))
        rows.append([np.eye(size)[rng.integers(size)], np.full(size, 1.0 / size)])
        rows.append(np.full((1, size), np.nan))
        yield np.concatenate(rows)


def _assert_same_bits(got, want):
    """Equal float bit patterns, and NaN exactly where want is NaN."""
    nan = np.isnan(want)
    assert got.shape == want.shape
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.int64) == want[~nan].view(np.int64)).all()


def test_node_masses_equal_node_mass_bit_for_bit():
    # levels of fewer than 8 points are added left to right and wider ones
    # reduced pairwise: every level must keep node_mass's np.sum bits
    for pmf in _node_mass_stacks():
        size = pmf.shape[1]
        depth = size.bit_length() - 1
        # node (l, k) at column 2**l - 1 + k
        want = np.array([
            [node_mass(row, l, k) for l in range(depth + 1) for k in range(2**l)]
            for row in pmf
        ])
        for d in range(depth + 1):
            _assert_same_bits(node_masses(pmf, d), want[:, : 2 ** (d + 1) - 1])
        # a lone pmf gives its row of the table
        _assert_same_bits(node_masses(pmf[0], depth), want[0])
    # 12 points do not split into 8 nodes, an empty grid into any, and a
    # depth must be a nonnegative integer: True is no depth of 1, nor 2.0 of 2
    for points, depth in [(12, 3), (0, 0), (16, -1), (16, True), (16, 2.0)]:
        with pytest.raises(ValueError):
            node_masses(np.full((1, points), 1 / 16), depth)


def _tied_pmfs(grid_size=64):
    """pmfs whose node masses tie: uniform, one-hot, equal siblings at
    every level, and nodes of mass exactly 1/2 (all sums of powers of two,
    so exact)."""
    pmfs = [np.full(grid_size, 1.0 / grid_size)]
    pmfs += [np.eye(grid_size)[k] for k in (0, 31, 32, 63)]
    for first, second in [(10, 11), (0, 63), (20, 24), (5, 37)]:
        pmfs.append(np.zeros(grid_size))  # two equal point masses
        pmfs[-1][[first, second]] = 0.5
    for lo, hi in [(0, 32), (16, 48), (0, 16), (40, 44)]:
        pmfs.append(np.zeros(grid_size))  # flat over an aligned span or not
        pmfs[-1][lo:hi] = 1.0 / (hi - lo)
    half = np.zeros(grid_size)
    half[7], half[40:48] = 0.5, 0.5 / 8
    quarters = np.repeat([0.25, 0.125, 0.125, 0.5], grid_size // 4) / (grid_size // 4)
    # node (1, 0) holds 5/8 and its better child 3/8: equally far from 1/2
    level_tie = np.repeat([0.375, 0.25, 0.375, 0.0], grid_size // 4) / (grid_size // 4)
    return np.stack(pmfs + [half, quarters, level_tie])


def _nan_pmfs():
    """The peaky and tied pmfs, each with one NaN grid point, and one row of
    NaNs: every node above a NaN point is NaN."""
    pmf = np.concatenate([_peaky_pmfs(), _tied_pmfs()])
    for k, row in enumerate(pmf):
        row[(7 * k) % len(row)] = np.nan
    pmf[1, :] = np.nan
    return pmf


def test_batched_matching_equals_scalar_rule():
    # a NaN sibling pair takes the right child, and a NaN mass stops the
    # walk as a failed test does
    for pmf in (_peaky_pmfs(), _tied_pmfs(), _nan_pmfs()):
        for depth in range(7):  # depth 0: every trial takes the root
            book = types.SimpleNamespace(depth=depth)
            want = [select_codeword_scalar(row, book) for row in pmf]
            got = select_codeword_posterior_matching(node_masses(pmf, depth))
            assert got.tolist() == [2**l - 1 + k for l, k in want], depth
        assert len({level for level, _ in want}) > 2  # walks of several lengths
    with pytest.raises(ValueError):  # a table that ends inside a level
        select_codeword_posterior_matching(np.ones((2, 4)))


# ------------------------------------------------------------ block noise


def test_noise_block_reproduces_consecutive_snapshots():
    n, n_v, seed = 8, 4, 21
    params = ChannelParams(np.exp(0.7j), 0.3, noise_variance=2.0)
    rng = np.random.default_rng(seed)
    singles = np.stack([antenna_snapshot_scalar(params, n, rng) for _ in range(n_v)])
    raw = np.random.default_rng(seed).standard_normal((n_v, 2, n))
    noise = np.sqrt(params.noise_variance / 2.0) * (raw[:, 0] + 1j * raw[:, 1])
    np.testing.assert_array_equal(singles, noiseless_snapshot([params], n)[0] + noise)

    rng_block, rng_single = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = noise_rows(draw_noise([rng_block], n_v, n), [params.noise_variance])
    (block,) = antenna_snapshot(*rows, noiseless_snapshot([params], n), 0, n_v)
    np.testing.assert_array_equal(
        block, [antenna_snapshot_scalar(params, n, rng_single) for _ in range(n_v)]
    )
    # both generators stand at the same place afterwards
    assert rng_block.standard_normal() == rng_single.standard_normal()


@pytest.mark.parametrize(
    "variances", [[0.5, 0.0, 2.0], [0.5, 1.0, 2.0]], ids=["one_noiseless", "all_noisy"]
)
def test_per_trial_noise_rows_equal_lone_noise_blocks(variances):
    n, n_v = 8, 3
    signals = noiseless_snapshot(
        [ChannelParams(np.exp(1j * k), 0.1 * k) for k in range(3)], n
    )
    noise = draw_noise([np.random.default_rng(60 + k) for k in range(3)], n_v, n)
    blocks = antenna_snapshot(*noise_rows(noise, variances), signals, 0, n_v)
    for k, variance in enumerate(variances):
        lone = draw_noise([np.random.default_rng(60 + k)], n_v, n)
        rows = noise_rows(lone, [variance])
        (want,) = antenna_snapshot(*rows, signals[k : k + 1], 0, n_v)
        np.testing.assert_array_equal(blocks[k], want)


@pytest.mark.parametrize(
    "variances",
    [(0.5, 2.0), (0.0, 2.0), (0.0, 0.0)],
    ids=["all_noisy", "noiseless_first", "all_noiseless"],
)
def test_run_draw_equals_per_block_draws(variances):
    # one draw of the whole run, read block by block at the rows'
    # variances, gives each block the observations of a draw of that block
    # alone, and each row the consecutive snapshots of its lone trial
    n, n_v, blocks = 8, 3, 4
    channels = [
        ChannelParams(np.exp(1j * k), 0.1 * k, noise_variance=v)
        for k, v in enumerate(variances)
    ]
    signals = noiseless_snapshot(channels, n)
    rngs = [np.random.default_rng(90 + k) for k in range(2)]
    run = noise_rows(draw_noise(rngs, blocks * n_v, n), variances)
    block_rngs = [np.random.default_rng(90 + k) for k in range(2)]
    lone_rngs = [np.random.default_rng(90 + k) for k in range(2)]
    for t in range(blocks):
        got = antenna_snapshot(*run, signals, t * n_v, (t + 1) * n_v)
        block = noise_rows(draw_noise(block_rngs, n_v, n), variances)
        assert got.tobytes() == antenna_snapshot(*block, signals, 0, n_v).tobytes()
        for k, (channel, rng) in enumerate(zip(channels, lone_rngs)):
            lone = [antenna_snapshot_scalar(channel, n, rng) for _ in range(n_v)]
            np.testing.assert_array_equal(got[k], lone)


@pytest.mark.parametrize(
    "shared",
    [(-5.0, 3.0), (math.inf, 3.0), (math.inf, math.inf)],
    ids=["both_noisy", "noiseless_first", "both_noiseless"],
)
@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
def test_rows_that_share_a_slot_equal_lone_runs(codebook, shared):
    # rows 0 and 2 read one slot at their own SNRs, row 1 another slot;
    # each row's outcome is the lone run of its trial on a draw of its own
    cfg = config(codebook=codebook)
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    snrs, trials = [shared[0], -10.0, shared[1]], [0, 1, 0]
    channels = [
        draw_channel(grid, snr, trial_generator(70, i)) for snr, i in zip(snrs, trials)
    ]
    two = drawn(cfg, [np.random.default_rng(70 + i) for i in range(2)])
    batch = run_alignment(cfg, channels, BatchNoise(two.normals, np.array(trials)))
    for k, (channel, i) in enumerate(zip(channels, trials)):
        own = drawn(cfg, [np.random.default_rng(70 + i)])
        lone = run_alignment(cfg, [channel], own)
        assert_same_outcome(batch[k : k + 1], lone)


# ------------------------------------------------------------ beam tables


@pytest.mark.parametrize("controller", ["flexible", "hierarchical", "hiepm"])
def test_beam_table_builds_each_weights_array_once(controller, monkeypatch):
    # a run builds the block combiners of each distinct weights array once:
    # each gather that builds makes one stacked block_combiners call (n_v
    # svam_combiner calls) of the arrays it meets first, and every block's
    # rows equal block_combiners and the beam's own responses bit for bit
    cfg, run = run_of(controller, config())
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    calls, stacks, gathered = [], [], []
    combiner, blocks = sensing.svam_combiner, sensing.block_combiners
    monkeypatch.setattr(
        sensing, "svam_combiner", lambda *args: calls.append(1) or combiner(*args)
    )
    monkeypatch.setattr(
        sensing, "block_combiners",
        lambda w, *args: stacks.append(w.copy()) or blocks(w, *args),
    )
    gather = sensing.BeamTable.gather
    monkeypatch.setattr(
        sensing.BeamTable, "gather",
        lambda table, rows: gathered.append(gather(table, rows)) or gathered[-1],
    )
    channels = single_path_trials(cfg, -5.0)
    noise = drawn(cfg, [np.random.default_rng((4, k)) for k in range(len(channels))])
    out = run(cfg, channels, noise)
    monkeypatch.undo()
    distinct = {id(beam.weights): beam.weights for row in out.beams for beam in row}
    assert all(w.shape[1:] == (cfg.combiner_length,) for w in stacks)
    built = sorted(w.tobytes() for stack in stacks for w in stack)
    assert 1 < len(distinct) and built == sorted(w.tobytes() for w in distinct.values())
    assert len(calls) == cfg.n_v * len(stacks)
    assert len(gathered) == cfg.total_snapshots // cfg.n_v
    for t, (combiners, responses) in enumerate(gathered):
        for i, row in enumerate(out.beams):
            w = row[t].weights
            want = block_combiners(w, cfg.n, cfg.n_v)
            assert combiners[i].tobytes() == want.tobytes()
            assert responses[i].tobytes() == (w.conj() @ grid.manifold(len(w))).tobytes()


def test_beam_table_keeps_the_first_tap_count():
    # the first weights array fixes the run's tap count: a beam of another
    # count is rejected, naming both, in the block of the first beam or in
    # a later one
    cfg = config()  # 13 taps slide on 16 elements
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    sliding = design_beamformer(BeamSpec(0.5, 1.0), 13)
    full = design_beamformer(BeamSpec(0.5, 1.0), 16)
    table = sensing.BeamTable([sliding, full], cfg.n, cfg.n_v, grid)
    with pytest.raises(ValueError, match="16-tap beam in a run of 13-tap"):
        table.gather(np.array([0, 1]))
    channels = single_path_trials(cfg, -5.0)
    noise = drawn(cfg, [np.random.default_rng((6, k)) for k in range(len(channels))])
    first = np.zeros(len(channels), dtype=int)

    def locate(keys):  # the sliding beam, then the full one
        return np.minimum(keys[0], 1)

    def step(pmf, modes, keys):
        return pmf.max(axis=-1), (keys[0] + 1, keys[1])

    with pytest.raises(ValueError, match="16-tap beam in a run of 13-tap"):
        _align(
            cfg, channels, noise, fitted_log_likelihood, (first, first), locate,
            [sliding, full], step,
        )


# ------------------------------------------------------ batched inference


def _histories(trials=3, n_v=2, segments=3):
    n = 10
    grid = AngularGrid(ROI, 16)
    m = n - n_v + 1
    batch = MeasurementHistory(n, n_v, grid, trials, 0.7)
    lone = [MeasurementHistory(n, n_v, grid, 1, 0.7) for _ in range(trials)]
    rngs = [np.random.default_rng(40 + i) for i in range(trials)]
    for t in range(segments):
        beams = [
            design_beamformer(BeamSpec(0.5, 1.0 / (1 + (i + t) % 3)), m)
            for i in range(trials)
        ]
        params = ChannelParams(
            1j, float(grid.points[3]), noise_variance=0.7
        )
        values = np.stack(
            [measure_segment_scalar(f, params, n, rng) for f, rng in zip(beams, rngs)]
        )
        for hist, row, f in zip(lone, values, beams):
            append_beams(hist, row[None], [f])
        append_beams(batch, values, beams)
    return batch, lone, grid


def test_batched_history_rows_equal_lone_histories():
    # every row of a batch equals a batch of one; at block size 3 one
    # matrix product over all rows would round differently
    for n_v in (2, 3):
        batch, lone, _ = _histories(n_v=n_v)
        for i, hist in enumerate(lone):
            np.testing.assert_array_equal(
                batch.cumulative_gain[i], hist.cumulative_gain[0]
            )
            np.testing.assert_array_equal(
                batch.matched_statistic[i], hist.matched_statistic[0]
            )
            assert batch.total_power[i] == hist.total_power[0]
            np.testing.assert_array_equal(batch.stacked()[i], hist.stacked()[0])


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
    def chain(hist):
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        ll = approx_log_likelihood(hist, post)
        return gamma, post.mean, post.variance, ll, posterior_pmf(ll)

    for n_v in (2, 3):
        batch, lone, _ = _histories(n_v=n_v)
        for got, want in zip(chain(batch), zip(*(chain(h) for h in lone))):
            np.testing.assert_array_equal(got, np.concatenate(want))


def test_batched_history_validates_each_block():
    batch, _, grid = _histories(trials=2, segments=1)
    values = np.zeros((2, 2), dtype=complex)
    responses = np.zeros((2, grid.size), dtype=complex)
    # 9 taps slide through n_v = 2 shifts on 10 elements
    with pytest.raises(ValueError):  # one trial's worth of values
        batch.append(values[0], responses, 9)
    with pytest.raises(ValueError):  # wrong block size
        batch.append(np.zeros((2, 3), dtype=complex), responses, 9)
    with pytest.raises(ValueError, match="responses"):  # one trial's row short
        batch.append(values, responses[:1], 9)
    with pytest.raises(ValueError, match="11-tap"):  # wider than the aperture
        batch.append(values, responses, 11)
    with pytest.raises(ValueError, match="integer"):
        batch.append(values, responses, 9.0)
    assert batch.segment_count == 1
    # sizes are checked once, when the history is built: no trial, a block
    # size outside [1, n] (n_v = 0 would make gamma_mle divide by zero), bool
    # or float sizes
    for n, n_v, trials in [
        (10, 2, 0), (10, 0, 1), (10, 11, 1), (10, True, 1), (10.0, 2, 1), (10, 2, 2.0)
    ]:
        with pytest.raises(ValueError):
            MeasurementHistory(n, n_v, grid, trials, 0.7)


def test_inference_checks_gamma_per_row():
    batch, _, _ = _histories(trials=2)
    gamma = gamma_mle(batch)
    with pytest.raises(ValueError):
        alpha_posterior(batch, gamma[0])  # one row for two trials
    gamma[1, 4] = -1.0
    with pytest.raises(ValueError):
        alpha_posterior(batch, gamma)


@pytest.mark.parametrize(
    "bad_row",
    [[0.0, np.nan, -1.0], [-np.inf, -np.inf, -np.inf], [0.0, np.inf, -1.0]],
    ids=["nan", "all_inf", "plus_inf"],
)
def test_pmf_rejects_any_bad_row(bad_row):
    good = [-1.0, -2.0, -3.0]
    with pytest.raises(ValueError):
        posterior_pmf(np.array([good, bad_row, good]))
    pmf = posterior_pmf(np.array([good, [-np.inf, 0.0, -np.inf]]))
    np.testing.assert_array_equal(pmf[0], posterior_pmf(np.array(good)))
    np.testing.assert_array_equal(pmf[1], [0.0, 1.0, 0.0])
