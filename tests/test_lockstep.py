"""Lockstep trials: the batched alignment and known-gain hiePM loops against
their one-trial oracles, block noise against single snapshots, and per-row
validation."""

import copy
import functools
import gc
import math
import types
import weakref

import numpy as np
import pytest

from history_helpers import append_beams
from scalar_alignment import (
    antenna_snapshot_scalar,
    columns,
    known_alpha_update,
    measure_segment_scalar,
    run_alignment_scalar,
    run_hiepm_scalar,
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


def assert_matches_oracle(cfg: AdaptConfig, channels, seed: int = 0) -> None:
    """The batch and the lone runs each start from the same per-trial
    generators; every column of the outcome must agree with the lone
    runs' logs, gains at the truth included."""

    def generators():
        return [np.random.default_rng((seed, trial)) for trial in range(len(channels))]

    batched = run_alignment(cfg, channels, generators())
    lone = [
        run_alignment_scalar(cfg, channel, rng)
        for channel, rng in zip(channels, generators())
    ]
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
def test_lockstep_matches_scalar_oracle(codebook, snr_db, noise_scale, n_v):
    cfg = config(codebook=codebook, noise_scale=noise_scale, n_v=n_v)
    assert_matches_oracle(cfg, single_path_trials(cfg, snr_db))


def test_batch_rejects_mismatched_inputs():
    cfg = config()
    chan = ChannelParams(1.0, 0.25, noise_variance=0.5)
    rng = np.random.default_rng
    with pytest.raises(ValueError):
        run_alignment(cfg, [], [])
    with pytest.raises(ValueError):
        run_alignment(cfg, [chan, chan], [rng(0)])


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
    noiseless = draws[snrs.index(math.inf)][0][0]
    state = noiseless.bit_generator.state
    mixed = run_alignment(
        cfg,
        [channel for _, channels in draws for channel in channels],
        [rng for rngs, _ in draws for rng in rngs],
    )
    assert noiseless.bit_generator.state == state
    for k, snr in enumerate(snrs):
        rngs, channels = draw(snr)
        lone = run_alignment(cfg, channels, rngs)
        assert_same_outcome(mixed[k * TRIALS : (k + 1) * TRIALS], lone)


@pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
def test_sweep_batch_draws_each_trial_once_per_block(codebook):
    # a sweep batch's rows of one trial hold one generator: each row's
    # channel is the one a lone draw at its SNR gives, the generator moves
    # one noise block per segment however many SNRs hold it, and the run
    # equals the same batch on a distinct copy of the generator per row
    cfg = config(codebook=codebook)
    snrs, seed = [-10.0, math.inf, 0.0, -10.0], 17
    grid = AngularGrid(cfg.roi, cfg.grid_size)
    channels, rngs = _draw_trials(cfg, snrs, TRIALS, seed)
    assert len(channels) == len(rngs) == len(snrs) * TRIALS
    assert len({id(rng) for rng in rngs}) == TRIALS
    for k, snr in enumerate(snrs):
        for i in range(TRIALS):
            assert rngs[k * TRIALS + i] is rngs[i]
            lone = draw_channel(grid, snr, trial_generator(seed, i))
            assert channels[k * TRIALS + i] == lone
    copies = [copy.deepcopy(rng) for rng in rngs]
    shared = run_alignment(cfg, channels, rngs)
    for i, rng in enumerate(rngs[:TRIALS]):
        fresh = trial_generator(seed, i)
        draw_channel(grid, snrs[0], fresh)
        for _ in range(cfg.total_snapshots // cfg.n_v):
            fresh.standard_normal((cfg.n_v, 2, cfg.n))
        assert rng.bit_generator.state == fresh.bit_generator.state
    assert_same_outcome(shared, run_alignment(cfg, channels, copies))


def test_draw_trials_rebuilds_fresh_generators_from_one_set_up(monkeypatch):
    # a second call with equal arguments, after a run has moved the first
    # call's generators, gets the channels and the generator states a fresh
    # trial_generator and draw_channel give, on generators of its own that
    # read no OS entropy; any other seed, trial count, grid size or region
    # misses the set-up cache
    def no_entropy(*args):
        raise AssertionError("a rebuilt generator read OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", no_entropy)
    harness._trial_setup.cache_clear()
    cfg, snrs, seed = config(), [-10.0, 0.0], 23
    first, first_rngs = _draw_trials(cfg, snrs, TRIALS, seed)
    run_alignment(cfg, first, first_rngs)
    for cfg, trials, seed, misses in [
        (cfg, TRIALS, seed, 1),
        (config(n_v=2, total_snapshots=12), TRIALS, seed, 1),  # same trials
        (cfg, TRIALS, seed + 1, 2),
        (cfg, TRIALS + 1, seed, 3),
        (config(grid_size=32), TRIALS, seed, 4),
        (config(roi=RegionOfInterest(-0.5, 0.25)), TRIALS, seed, 5),
    ]:
        channels, rngs = _draw_trials(cfg, snrs, trials, seed)
        assert harness._trial_setup.cache_info().misses == misses
        assert not {id(rng) for rng in rngs} & {id(rng) for rng in first_rngs}
        grid = AngularGrid(cfg.roi, cfg.grid_size)
        for i in range(trials):
            fresh = [trial_generator(seed, i) for _ in snrs]
            for k, (snr, lone) in enumerate(zip(snrs, fresh)):
                assert channels[k * trials + i] == draw_channel(grid, snr, lone)
                assert rngs[k * trials + i] is rngs[i]
            rng = rngs[i]
            assert type(rng.bit_generator) is type(fresh[0].bit_generator)
            assert rng.bit_generator.state == fresh[0].bit_generator.state
            assert rng.standard_normal(3).tobytes() == fresh[0].standard_normal(3).tobytes()


def test_hiepm_schemes_share_one_trial_set_up(monkeypatch):
    # the eight schemes of the known-gain table (L = 60, the least multiple
    # of their block sizes) run on one set-up of their trials
    harness._trial_setup.cache_clear()
    made = []

    def counted(seed, trial):
        made.append(trial)
        return trial_generator(seed, trial)

    monkeypatch.setattr(harness, "trial_generator", counted)
    schemes = [(1, "svam"), (2, "repeat")] + [(k, "svam") for k in (2, 3, 4, 5, 10, 15)]
    for n_v, mode in schemes:
        cfg = config(codebook="hierarchical", n_v=n_v, total_snapshots=60)
        book = book_for(cfg, mode)
        run_hiepm_trials(cfg, -10.0, 2, 7, book, mode=mode)
    assert made == [0, 1]


# --------------------------------------------------------- known-gain hiePM


@functools.cache
def hiepm_codebook(taps: int):
    return build_hierarchical_codebook(ROI, 4, taps, grid_size=16)


def hiepm_config(n_v: int) -> AdaptConfig:
    """A 20-snapshot run, which every block size below divides."""
    return config(codebook="hierarchical", n_v=n_v, total_snapshots=20)


def book_for(cfg: AdaptConfig, mode: str):
    return hiepm_codebook(cfg.combiner_length if mode == "svam" else cfg.n)


@pytest.mark.parametrize("snr_db", [-10.0, math.inf])
@pytest.mark.parametrize("n_v", [1, 2, 5])
@pytest.mark.parametrize("mode", ["svam", "repeat"])
def test_hiepm_lockstep_matches_scalar_oracle(mode, n_v, snr_db):
    cfg = hiepm_config(n_v)
    book = book_for(cfg, mode)
    channels = single_path_trials(cfg, snr_db, seed=3)

    def generators():
        return [np.random.default_rng((7, trial)) for trial in range(len(channels))]

    batched = run_hiepm_known_alpha(cfg, channels, generators(), book)
    lone = [
        run_hiepm_scalar(cfg, channel, book, rng, mode)
        for channel, rng in zip(channels, generators())
    ]
    assert_matches_hiepm_oracle(batched, lone)


# The loop scores a whole block from the history's running statistics, the
# oracle updates once per snapshot: the masses are summed in another order,
# so peak_prob agrees to rounding (worst seen 1.3e-14 relative in the cases
# above, 2.9e-13 over -20 to +10 dB) and every other column, posterior
# modes and estimates included, to the bit.
PEAK_PROB_RTOL = 1e-10


def assert_matches_hiepm_oracle(batched, lone) -> None:
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
    few = run_hiepm_trials(cfg, -5.0, 3, 11, book, mode)
    many = run_hiepm_trials(cfg, -5.0, 7, 11, book, mode)
    assert len(few.true_angle) == 3 and len(many.true_angle) == 7
    assert_same_outcome(many[:3], few)


def test_hiepm_batch_rejects_mismatched_inputs():
    cfg = hiepm_config(2)
    book = book_for(cfg, "svam")
    chan = ChannelParams(1.0, 0.25, noise_variance=0.5)
    rng = np.random.default_rng
    with pytest.raises(ValueError):
        run_hiepm_known_alpha(cfg, [], [], book)
    with pytest.raises(ValueError):
        run_hiepm_known_alpha(cfg, [chan, chan], [rng(0)], book)


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

    mixed = run_hiepm_known_alpha(cfg, channels, generators(), book)
    for k, (channel, rng) in enumerate(zip(channels, generators())):
        lone = run_hiepm_known_alpha(cfg, [channel], [rng], book)
        assert_same_outcome(mixed[k : k + 1], lone)
    oracle = [
        run_hiepm_scalar(cfg, channel, book, rng, mode)
        for channel, rng in zip(channels, generators())
    ]
    assert_matches_hiepm_oracle(mixed, oracle)


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
    with pytest.raises(ValueError):  # 12 points do not split into 8 nodes
        node_masses(np.full((1, 12), 1 / 12), 3)


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
    noise = BatchNoise([rng_block], params.noise_variance, n_v, n)
    (block,) = antenna_snapshot(noise, noiseless_snapshot([params], n), 0, n_v)
    np.testing.assert_array_equal(
        block, [antenna_snapshot_scalar(params, n, rng_single) for _ in range(n_v)]
    )
    # both generators stand at the same place afterwards
    assert rng_block.standard_normal() == rng_single.standard_normal()


def test_noiseless_block_leaves_generator_untouched():
    params = ChannelParams(1.0, 0.5)
    rng = np.random.default_rng(3)
    signals = noiseless_snapshot([params], 6)
    block = antenna_snapshot(BatchNoise([rng], 0.0, 3, 6), signals, 0, 3)
    np.testing.assert_array_equal(block[0], np.tile(signals[0], (3, 1)))
    assert rng.standard_normal() == np.random.default_rng(3).standard_normal()


@pytest.mark.parametrize(
    "variances", [[0.5, 0.0, 2.0], [0.5, 1.0, 2.0]], ids=["one_noiseless", "all_noisy"]
)
def test_per_trial_noise_rows_equal_shared_noise_blocks(variances):
    n, n_v = 8, 3
    variances = np.array(variances)
    signals = noiseless_snapshot(
        [ChannelParams(np.exp(1j * k), 0.1 * k) for k in range(3)], n
    )
    rngs = [np.random.default_rng(60 + k) for k in range(3)]
    blocks = antenna_snapshot(BatchNoise(rngs, variances, n_v, n), signals, 0, n_v)
    for k, variance in enumerate(variances):
        rng = np.random.default_rng(60 + k)
        lone = BatchNoise([rng], float(variance), n_v, n)
        (want,) = antenna_snapshot(lone, signals[k : k + 1], 0, n_v)
        np.testing.assert_array_equal(blocks[k], want)
        # each generator stands where its lone draw left it, and a
        # noiseless row's never moved
        assert rngs[k].bit_generator.state == rng.bit_generator.state
        if variance == 0.0:
            untouched = np.random.default_rng(60 + k).bit_generator.state
            assert rng.bit_generator.state == untouched
    with pytest.raises(ValueError):  # one variance short
        BatchNoise(rngs, variances[:2], n_v, n)


@pytest.mark.parametrize(
    "shared",
    [(0.5, 2.0), (0.0, 2.0), (0.0, 0.0)],
    ids=["both_noisy", "noiseless_first", "both_noiseless"],
)
def test_rows_on_one_generator_share_its_draw(shared):
    # rows 0 and 2 hold one generator, row 1 another; each row is the row a
    # fresh copy of its generator gives at that row's variance, and the
    # shared generator moves one block if any of its rows is noisy
    n, n_v = 8, 3
    variances = np.array([shared[0], 1.0, shared[1]])
    signals = noiseless_snapshot(
        [ChannelParams(np.exp(1j * k), 0.1 * k) for k in range(3)], n
    )
    seeds = [70, 71, 70]
    one, other = np.random.default_rng(70), np.random.default_rng(71)
    noise = BatchNoise([one, other, one], variances, n_v, n)
    blocks = antenna_snapshot(noise, signals, 0, n_v)
    for k, (seed, variance) in enumerate(zip(seeds, variances)):
        fresh = np.random.default_rng(seed)
        lone = BatchNoise([fresh], float(variance), n_v, n)
        (want,) = antenna_snapshot(lone, signals[k : k + 1], 0, n_v)
        np.testing.assert_array_equal(blocks[k], want)
    moved = np.random.default_rng(70)
    if max(shared) > 0.0:
        moved.standard_normal((n_v, 2, n))
    assert one.bit_generator.state == moved.bit_generator.state


@pytest.mark.parametrize(
    "variance, count",
    [(-1.0, 2), (math.nan, 2), (math.inf, 2), ([0.5, -1.0], 2), (0.5, 0), (0.5, -1)],
    ids=["negative", "nan", "inf", "one_bad_row", "no_observation", "negative_count"],
)
def test_blocks_reject_bad_variance_or_count(variance, count):
    rngs = [np.random.default_rng(5), np.random.default_rng(6)]
    with pytest.raises(ValueError):
        BatchNoise(rngs, variance, count, 4)
    # rejected before any row draws
    assert rngs[0].bit_generator.state == np.random.default_rng(5).bit_generator.state


def _run_noise_batch(variances, seeds=(80, 81, 80, 82)):
    """Rows on generators by seed, the first and third holding one object:
    the signals, variances and a maker of fresh generators for each row."""
    n = 8
    signals = noiseless_snapshot(
        [ChannelParams(np.exp(1j * k), 0.1 * k) for k in range(len(seeds))], n
    )

    def generators():
        made = {seed: np.random.default_rng(seed) for seed in seeds}
        return [made[seed] for seed in seeds]

    return signals, np.array(variances), generators


@pytest.mark.parametrize(
    "variances",
    [(0.5, 1.0, 2.0, 0.3), (0.0, 1.0, 2.0, 0.0), (0.0, 0.0, 0.0, 0.0)],
    ids=["all_noisy", "noiseless_first", "all_noiseless"],
)
def test_run_draw_equals_per_block_draws(variances):
    # one draw of the whole run per generator gives every block the bits,
    # and leaves every generator in the state, of one block-sized
    # BatchNoise per block
    n_v, blocks = 3, 4
    signals, variances, generators = _run_noise_batch(variances)
    run_rngs, block_rngs = generators(), generators()
    noise = BatchNoise(run_rngs, variances, blocks * n_v, signals.shape[1])
    for t in range(blocks):
        got = antenna_snapshot(noise, signals, t * n_v, (t + 1) * n_v)
        block = BatchNoise(block_rngs, variances, n_v, signals.shape[1])
        want = antenna_snapshot(block, signals, 0, n_v)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for run_rng, block_rng in zip(run_rngs, block_rngs):
        assert run_rng.bit_generator.state == block_rng.bit_generator.state


def test_run_draw_holds_one_slot_per_noisy_generator():
    # rows 0 and 2 share a generator; row 0 and the last row are noiseless,
    # so the last row's generator draws nothing and gets no slot; the
    # noiseless rows read the zero slot after the two drawn ones
    signals, variances, generators = _run_noise_batch((0.0, 1.0, 2.0, 0.0))
    rngs = generators()
    untouched = rngs[3].bit_generator.state
    noise = BatchNoise(rngs, variances, 6, signals.shape[1])
    assert noise.normals.shape == (3, 6, signals.shape[1])
    # each drawn slot holds its generator's (6, 2, n) draw as complex parts
    for slot, rng in zip(noise.normals, generators()[1:3]):
        draw = rng.standard_normal((6, 2, signals.shape[1]))
        assert slot.real.tobytes() == draw[:, 0].tobytes()
        assert slot.imag.tobytes() == draw[:, 1].tobytes()
    assert not noise.normals[-1].any()
    assert noise.slot.tolist() == [-1, 0, 1, -1]
    assert rngs[3].bit_generator.state == untouched


# ------------------------------------------------------------ beam tables


@pytest.mark.parametrize("controller", ["flexible", "hierarchical", "hiepm"])
def test_beam_table_builds_each_weights_array_once(controller, monkeypatch):
    # a run builds the block combiners of each distinct weights array once:
    # each gather that builds makes one stacked block_combiners call (n_v
    # svam_combiner calls) of the arrays it meets first, and every block's
    # rows equal block_combiners and the beam's own responses bit for bit
    cfg = config(codebook="flexible" if controller == "flexible" else "hierarchical")
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
    rngs = [np.random.default_rng((4, k)) for k in range(len(channels))]
    if controller == "hiepm":
        out = run_hiepm_known_alpha(cfg, channels, rngs, book_for(cfg, "svam"))
    else:
        out = run_alignment(cfg, channels, rngs)
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
    rngs = [np.random.default_rng((6, k)) for k in range(len(channels))]
    first = np.zeros(len(channels), dtype=int)

    def locate(keys):  # the sliding beam, then the full one
        return np.minimum(keys[0], 1)

    def step(pmf, modes, keys):
        return pmf.max(axis=-1), (keys[0] + 1, keys[1])

    with pytest.raises(ValueError, match="16-tap beam in a run of 13-tap"):
        _align(
            cfg, channels, rngs, fitted_log_likelihood, (first, first), locate,
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
