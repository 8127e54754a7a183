"""Controller tests: windowed-mass beam selection, dyadic search,
posterior-matching codeword choice, and full closed-loop runs."""

import dataclasses
import types

import numpy as np
import pytest

from scalar_alignment import columns, cumul_peak_scalar, hier_beam_search_scalar
from svamsim import adaptive
from svamsim.adaptive import (
    AdaptConfig,
    cumul_peak,
    hier_beam_search,
    node_mass,
    node_masses,
    run_alignment,
    select_codeword_posterior_matching,
    select_next_beam,
)
from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim.beams import (
    BeamSpec,
    HierarchicalCodebook,
    build_hierarchical_codebook,
    design_beamformer,
)
from svamsim.channel import ChannelParams, draw_noise
from svamsim.harness import run_hiepm_trials

ROI = RegionOfInterest(0.0, 1.0)


def grid_of(size: int) -> AngularGrid:
    return AngularGrid(ROI, size)


def noise_of(cfg: AdaptConfig, *seeds: int):
    """A run's noise, one row per seed."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    return draw_noise(rngs, cfg.total_snapshots, cfg.n)


# ---------------------------------------------------------------- cumul_peak


def peak_one(pmf, bw_check, g):
    """The batched cumul_peak on a batch of one: its mass and beam."""
    peaks, directions = cumul_peak(np.asarray(pmf)[None], [bw_check], g)
    return float(peaks[0]), BeamSpec(float(directions[0]), bw_check)


def select_one(pmf, bw_current, p_thresh, g):
    """The batched select_next_beam on a batch of one: its beam and mass."""
    directions, widths, peaks = select_next_beam(
        np.asarray(pmf)[None], [bw_current], p_thresh, g
    )
    return BeamSpec(float(directions[0]), float(widths[0])), float(peaks[0])


def test_cumul_peak_uniform_quarter_window():
    g = grid_of(64)
    pmf = np.full(64, 1.0 / 64)
    peak, spec = peak_one(pmf, 0.25, g)
    assert peak == pytest.approx(0.25)
    assert spec.beamwidth == 0.25


def test_cumul_peak_delta_captures_everything():
    g = grid_of(64)
    pmf = np.zeros(64)
    pmf[40] = 1.0
    peak, spec = peak_one(pmf, 1.0 / 64, g)
    assert peak == pytest.approx(1.0)
    # single-point window centered on the point itself
    assert spec.direction == pytest.approx(g.points[40])


def test_cumul_peak_window_must_contain_mode():
    g = grid_of(64)
    pmf = np.zeros(64)
    pmf[10] = 0.3  # the mode
    pmf[40:48] = 0.06  # lump holding more windowed mass (0.48) off-mode
    peak, spec = peak_one(pmf, 8 / 64, g)
    assert peak == pytest.approx(0.3)
    half = spec.beamwidth / 2
    assert spec.direction - half <= g.points[10] <= spec.direction + half


def test_cumul_peak_clamps_to_region_edge():
    g = grid_of(64)
    pmf = np.zeros(64)
    pmf[0] = 1.0
    peak, spec = peak_one(pmf, 0.25, g)
    assert peak == pytest.approx(1.0)
    assert spec.direction == pytest.approx(ROI.u_left + 0.125)


def test_cumul_peak_wider_than_region_centers():
    g = grid_of(16)
    pmf = np.full(16, 1 / 16)
    _, spec = peak_one(pmf, 2.0, g)
    assert spec.direction == pytest.approx(ROI.center)


@pytest.mark.parametrize("windows", ["mixed", "one_point"])
def test_cumul_peak_keeps_the_per_trial_convolution_bits(windows):
    # one-point windows are read off the pmf and wider ones convolved; each
    # trial's mass and direction equal the lone np.convolve oracle's bits
    g = grid_of(64)
    rng = np.random.default_rng(12)
    pmf = rng.dirichlet(np.full(64, 0.3), size=60)
    pmf[:4] = 1.0 / 64  # ties everywhere
    points = np.ones(60) if windows == "one_point" else rng.integers(1, 65, 60) * 1.0
    points[::4] = 1
    # 0.2 and 1.4 grid points round to windows of one point
    points[1::8], points[3::8] = 0.2, 1.4
    widths = points * g.spacing
    peaks, directions = cumul_peak(pmf, widths, g)
    for p, bw, peak, direction in zip(pmf, widths, peaks, directions):
        want, spec = cumul_peak_scalar(p, bw, g)
        assert np.float64(peak).tobytes() == np.float64(want).tobytes()
        assert np.float64(direction).tobytes() == np.float64(spec.direction).tobytes()


def test_cumul_peak_rejects_length_mismatch():
    with pytest.raises(ValueError):
        peak_one(np.ones(8) / 8, 0.5, grid_of(16))


# ---------------------------------------------------------- select_next_beam


def test_select_halves_when_mass_is_concentrated():
    g = grid_of(64)
    pmf = np.full(64, 0.1 / 48)
    pmf[24:40] = 0.9 / 16  # 0.9 inside a quarter-width lump
    spec, peak = select_one(pmf, 0.5, 0.6, g)
    assert spec.beamwidth == pytest.approx(0.25)
    assert peak >= 0.6


def test_select_resets_to_initial_on_uniform():
    g = grid_of(64)
    pmf = np.full(64, 1.0 / 64)
    spec, peak = select_one(pmf, 0.25, 0.6, g)
    assert spec.beamwidth == pytest.approx(ROI.width)
    assert spec.direction == pytest.approx(ROI.center)
    assert peak == pytest.approx(1.0)


def test_select_rewidens_to_recover_spread_mass():
    g = grid_of(64)
    pmf = np.full(64, 0.3 / 48)
    pmf[16:32] = 0.7 / 16  # 0.7 spread over a quarter of the region
    spec, peak = select_one(pmf, 1.0 / 8, 0.6, g)
    # half width (1/16) and the current width both fail; one doubling wins
    assert spec.beamwidth == pytest.approx(0.25)
    assert peak == pytest.approx(0.7)


def test_select_validates_inputs():
    g = grid_of(16)
    pmf = np.full(16, 1 / 16)
    with pytest.raises(ValueError):
        select_one(pmf, 0.5, 1.5, g)
    with pytest.raises(ValueError):
        select_one(pmf, 0.0, 0.5, g)


@pytest.mark.parametrize(
    "width", [np.nan, np.inf, -0.25], ids=["nan", "inf", "negative"]
)
def test_select_rejects_a_width_that_is_not_positive_and_finite(width):
    # a NaN width used to fail every "bw < widest" test and reset silently
    # to the region-wide beam
    g = grid_of(16)
    pmf = np.full((2, 16), 1 / 16)
    with pytest.raises(ValueError, match="positive and finite"):
        select_next_beam(pmf, [0.5, width], 0.6, g)
    with pytest.raises(ValueError, match="positive and finite"):
        cumul_peak(pmf, [width, 0.5], g)
    with pytest.raises(ValueError, match="one beamwidth per trial"):
        select_next_beam(pmf, [0.5], 0.6, g)


def test_select_floors_the_halved_width_at_machine_epsilon():
    # a confident trial at 2^-60 asks for 2^-61; the band edges of a beam
    # that narrow are one float, so the width stops at 2^-52
    g = grid_of(16)
    pmf = np.zeros((2, 16))
    pmf[:, 9] = 1.0
    _, widths, peaks = select_next_beam(pmf, [2.0**-60, 2.0**-51], 0.6, g)
    assert widths.tolist() == [np.finfo(float).eps, 2.0**-52]
    assert peaks.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("snr_db", [10.0, -10.0, np.inf])
def test_long_flexible_run_completes(snr_db):
    # 60 blocks of n_v = 2: confident blocks used to halve the width to
    # 2^-53, whose band BeamSpec rejects, and the run raised midway
    from svamsim.harness import run_adaptive_trials

    cfg = make_config(n_v=2, total_snapshots=120)
    out = run_adaptive_trials(cfg, snr_db, 4, 3)
    widths = np.array([[beam.spec.beamwidth for beam in row] for row in out.beams])
    assert widths.min() == np.finfo(float).eps
    assert np.isin(out.estimate, grid_of(16).points).all()


# ---------------------------------------------------------- hier_beam_search

DEPTH_16 = 4  # dyadic levels over a 16-point grid


def row(level, index):
    """Heap row of dyadic node (level, index)."""
    return 2**level - 1 + index


def search_one(node, pmf, p_thresh):
    """The batched search on a batch of one trial: its next heap row."""
    (node,) = hier_beam_search(
        [node], node_masses(pmf[None], DEPTH_16), [int(np.argmax(pmf))],
        len(pmf), p_thresh,
    )
    return node


def test_hier_search_descends_to_confident_leaf():
    pmf = np.full(16, 0.1 / 15)
    pmf[5] = 0.9
    # only the current node's level counts, not where on it the node lies
    for k in range(8):
        assert search_one(row(3, k), pmf, 0.6) == row(4, 5)


def test_hier_search_climbs_to_parent():
    pmf = np.zeros(16)
    pmf[5] = 0.55
    pmf[4] = 0.45
    assert search_one(row(3, 0), pmf, 0.6) == row(3, 2)
    assert node_mass(pmf, 3, 2) == pytest.approx(1.0)


def test_hier_search_terminates_at_root():
    pmf = np.full(16, 1 / 16)
    assert search_one(row(0, 0), pmf, 0.99) == row(0, 0)


def test_hier_search_level_is_capped_at_depth():
    pmf = np.zeros(16)
    pmf[5] = 1.0
    for k in (0, 5, 15):  # a leaf's next node is a leaf
        assert search_one(row(4, k), pmf, 0.6) == row(4, 5)


def test_hier_search_rejects_uneven_grid():
    masses = node_masses(np.full((1, 8), 1 / 8), 2)
    with pytest.raises(ValueError):
        hier_beam_search([1], masses, [0], 6, 0.5)
    # a float grid size once failed in numpy's indexing, and True is no size
    for grid_size in (8.0, True):
        with pytest.raises(ValueError, match="grid size must be an integer"):
            hier_beam_search([1], masses, [0], grid_size, 0.5)


@pytest.mark.parametrize(
    "nodes, modes, p_thresh",
    [([0, 0], [0], 0.6), ([0], [16], 0.6), ([0], [-1], 0.6), ([-3], [0], 0.6),
     ([-1], [0], 0.6), ([0], [0], 1.0), ([31], [0], 0.6), ([40], [0], 0.6),
     ([0.5], [0], 0.6), ([1.0], [0], 0.6), ([True], [0], 0.6),
     ([0], [2.5], 0.6), ([0], [True], 0.6)],
    ids=["nodes_vs_modes", "mode_past_grid", "negative_mode", "negative_node",
         "node_minus_one", "p_thresh", "node_past_table", "node_far_past_table",
         "fractional_node", "float_node", "bool_node", "fractional_mode",
         "bool_mode"],
)
def test_hier_search_rejects_bad_batch(nodes, modes, p_thresh):
    # a 31-node table: a row past it once restarted from the leaves, and a
    # fractional row was truncated, as were a fractional and a boolean mode
    masses = node_masses(np.full((len(nodes), 16), 1 / 16), DEPTH_16)
    with pytest.raises(ValueError):
        hier_beam_search(nodes, masses, modes, 16, p_thresh)


def test_hier_search_oracle_rejects_a_negative_level_too():
    book = types.SimpleNamespace(depth=DEPTH_16)
    for level in (-1, -3):
        with pytest.raises(ValueError, match="negative codebook level"):
            hier_beam_search_scalar(level, np.full(16, 1 / 16), 16, 0.6, book)


def test_both_codebook_steps_take_a_nested_list_table():
    # the table may be any array-like, as node_masses's pmf may
    pmf = np.random.default_rng(5).random((6, 16)) ** 8
    masses = node_masses(pmf / pmf.sum(axis=1, keepdims=True), DEPTH_16)
    nodes, modes = [0, 1, 4, 9, 20, 30], np.argmax(pmf, axis=-1)
    want = hier_beam_search(nodes, masses, modes, 16, 0.6)
    got = hier_beam_search(nodes, masses.tolist(), modes, 16, 0.6)
    assert got.tolist() == want.tolist()
    want = select_codeword_posterior_matching(masses)
    got = select_codeword_posterior_matching(masses.tolist())
    assert got.tolist() == want.tolist()


def test_both_codebook_steps_reject_a_table_without_the_root_level():
    # a heap table is 2**(depth+1) - 1 columns wide: width 0 lacks the root,
    # and no width but 1, 3, 7, ... ends on a whole level
    for shape in [(1, 0), (1, 2), (1, 4), (1, 6), (3,)]:
        with pytest.raises(ValueError, match="heap table"):
            hier_beam_search([0], np.ones(shape), [0], 8, 0.6)
        with pytest.raises(ValueError, match="heap table"):
            select_codeword_posterior_matching(np.ones(shape))


# ---------------------------------------- posterior-matching codeword choice

DEPTH_8 = 3  # dyadic levels over an 8-point grid


def match_one(pmf):
    """Posterior matching on a batch of one trial: its heap row."""
    (node,) = select_codeword_posterior_matching(node_masses(pmf[None], DEPTH_8))
    return node


def test_matching_walks_to_leaf_on_delta():
    pmf = np.zeros(8)
    pmf[4] = 1.0
    assert match_one(pmf) == row(3, 4)


def test_matching_keeps_node_closer_to_half():
    # right half holds 0.52 (close to 1/2); its children hold 0.22 and 0.3
    pmf = np.array([0.48, 0.0, 0.0, 0.0, 0.22, 0.0, 0.3, 0.0])
    assert match_one(pmf) == row(1, 1)
    assert node_mass(pmf, 1, 1) == pytest.approx(0.52)


def test_matching_takes_child_closer_to_half():
    pmf = np.array([0.25, 0.24, 0.03, 0.0, 0.48, 0.0, 0.0, 0.0])
    assert match_one(pmf) == row(2, 0)
    assert node_mass(pmf, 2, 0) == pytest.approx(0.49)


def test_matching_uniform_picks_half_region():
    assert match_one(np.full(8, 1 / 8)) in (row(1, 0), row(1, 1))


@pytest.mark.parametrize(
    "level, index", [(-1, 0), (2, 4), (2, -1), (4, 0)],
    ids=["negative_level", "index_past_level", "negative_index", "finer_than_grid"],
)
def test_node_mass_rejects_a_node_off_the_grid(level, index):
    with pytest.raises(ValueError):
        node_mass(np.full(8, 1 / 8), level, index)


# -------------------------------------------------------------- full trials


def make_config(**overrides) -> AdaptConfig:
    base = dict(
        n=16,
        n_v=4,
        total_snapshots=16,
        roi=ROI,
        grid_size=16,
        p_thresh=0.6,
    )
    base.update(overrides)
    return AdaptConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(total_snapshots=15)  # not a multiple of n_v
    with pytest.raises(ValueError):
        make_config(p_thresh=0.0)
    with pytest.raises(ValueError):
        make_config(codebook="fancy")
    with pytest.raises(ValueError, match="unknown gain score"):
        make_config(gain="fancy")
    # both codebook steps build a codebook log2(grid) levels deep
    for step in ("hierarchical", "posterior_matching"):
        with pytest.raises(ValueError, match="cannot resolve 8 nodes"):
            make_config(codebook=step, grid_size=12)
    cfg = make_config()
    assert cfg.depth() == 4
    assert cfg.combiner_length == 13


def test_combiner_length_is_aperture_minus_block_plus_one():
    for n, n_v, m in [(6, 3, 4), (64, 4, 61), (8, 1, 8), (8, 8, 1)]:
        cfg = make_config(n=n, n_v=n_v, total_snapshots=8 * n_v)
        assert cfg.combiner_length == m


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n=8, n_v=16, total_snapshots=16),  # virtual size beyond the aperture
        dict(grid_size=0),
        dict(noise_scale=float("nan")),
        dict(noise_scale=float("inf")),
        dict(n=16.0),
        dict(n=16.5),
        dict(n_v=2.0),
        dict(n_v=True),
        dict(total_snapshots=16.0),
        dict(n=np.float64(16.0)),
        dict(grid_size=16.5),
        dict(grid_size=True),
        dict(roi=(0.0, 1.0)),
    ],
    ids=[
        "n_v_beyond_aperture", "empty_grid", "noise_scale_nan", "noise_scale_inf",
        "n_float", "n_fraction", "n_v_float", "n_v_bool", "snapshots_float",
        "n_numpy_float", "grid_float_fraction", "grid_bool", "roi_tuple",
    ],
)
def test_config_rejects_unrunnable_sizes(overrides):
    # each used to be accepted and fail only once a run started, or never
    with pytest.raises(ValueError):
        make_config(**overrides)


def test_numpy_integer_sizes_stored_as_int():
    cfg = make_config(
        n=np.int64(16), n_v=np.int32(4), grid_size=np.int16(16),
        total_snapshots=np.uint8(16),
    )
    assert cfg == make_config()
    sizes = (cfg.n, cfg.n_v, cfg.grid_size, cfg.total_snapshots)
    assert all(type(v) is int for v in sizes)


def test_noiseless_on_grid_recovery_flexible():
    cfg = make_config(total_snapshots=24)
    grid = AngularGrid(ROI, 16)
    truth = float(grid.points[9])
    chan = ChannelParams(np.exp(0.3j), truth)
    out = run_alignment(cfg, [chan], noise_of(cfg, 0))
    assert out.estimate.tolist() == [truth]
    assert out.true_angle.tolist() == [truth]
    assert out.mode_index[0, -1] == 9
    # narrowing beams concentrate energy on the true angle
    (gains,) = out.gain_at_truth()
    assert gains[-1] > 3 * gains[0]
    assert out.peak_prob[0, -1] > 0.99


def test_noiseless_on_grid_recovery_hierarchical():
    cfg = make_config(total_snapshots=24, codebook="hierarchical")
    grid = AngularGrid(ROI, 16)
    truth = float(grid.points[9])
    chan = ChannelParams(1.0 + 0.0j, truth)
    out = run_alignment(cfg, [chan], noise_of(cfg, 0))
    assert out.estimate.tolist() == [truth]
    assert out.beams[0][0].spec.beamwidth == pytest.approx(ROI.width)


def test_alignment_is_deterministic():
    cfg = make_config()
    chan = ChannelParams(1j, 0.4, noise_variance=0.5)
    out1 = run_alignment(cfg, [chan], noise_of(cfg, 7))
    out2 = run_alignment(cfg, [chan], noise_of(cfg, 7))
    assert columns(out1) == columns(out2)


def test_records_carry_one_log_per_segment():
    cfg = make_config()
    chan = ChannelParams(1.0, 0.4, noise_variance=0.1)
    out = run_alignment(cfg, [chan], noise_of(cfg, 1))
    blocks = (1, cfg.total_snapshots // cfg.n_v)
    assert out.mode_index.shape == out.peak_prob.shape == blocks
    assert out.gain_at_truth().shape == blocks
    assert len(out.beams) == 1 and len(out.beams[0]) == blocks[1]
    assert (out.peak_prob >= 0).all()


def test_no_beam_is_designed_after_the_last_block(monkeypatch):
    # each block designs its own distinct beams; none is designed for a
    # block that never runs
    designed = []

    def counting(spec, m):
        designed.append(spec)
        return design_beamformer(spec, m)

    monkeypatch.setattr(adaptive, "design_beamformer", counting)
    cfg = make_config(total_snapshots=24)
    chans = [ChannelParams(1.0, u, noise_variance=0.3) for u in (0.1, 0.45, 0.8)]
    out = run_alignment(cfg, chans, noise_of(cfg, 0, 1, 2))
    distinct = sum(
        len({(beam.spec.direction, beam.spec.beamwidth) for beam in block})
        for block in zip(*out.beams)
    )
    assert len(designed) == distinct
    assert distinct > cfg.total_snapshots // cfg.n_v  # the trials do not all sense alike


def hiepm_config(**overrides) -> AdaptConfig:
    """The known-gain hiePM scheme: the known gain with posterior matching."""
    return make_config(codebook="posterior_matching", gain="known", **overrides)


def test_hiepm_noiseless_recovery():
    cfg = hiepm_config(n_v=1, total_snapshots=12)
    grid = AngularGrid(ROI, 16)
    truth = float(grid.points[6])
    chan = ChannelParams(np.exp(-0.7j), truth)
    book = build_hierarchical_codebook(ROI, 4, 16, grid_size=16)
    out = run_alignment(cfg, [chan], noise_of(cfg, 0), book)
    assert out.estimate.tolist() == [truth]
    assert out.peak_prob.shape == (1, 12)


def test_hiepm_modes_must_fit_the_taps():
    cfg = make_config(n_v=4)
    book_13 = build_hierarchical_codebook(ROI, 4, 13, grid_size=16)
    book_16 = build_hierarchical_codebook(ROI, 4, 16, grid_size=16)
    # the taps set the combining: 13 slide and 16 repeat on 16 elements,
    # and a mode naming the other one is rejected
    with pytest.raises(ValueError, match="'svam' does not fit 16-tap"):
        run_hiepm_trials(cfg, 0.0, 1, 0, book_16, "svam")
    with pytest.raises(ValueError, match="'repeat' does not fit 13-tap"):
        run_hiepm_trials(cfg, 0.0, 1, 0, book_13, "repeat")
    with pytest.raises(ValueError):
        run_hiepm_trials(cfg, 0.0, 1, 0, book_13, "sideways")
    # with one snapshot per block, sliding and repeating are the same rule,
    # so a full-aperture codebook satisfies both modes
    cfg = make_config(n_v=1, total_snapshots=8)
    rec_a = run_hiepm_trials(cfg, 5.0, 2, 5, book_16, "svam")
    rec_b = run_hiepm_trials(cfg, 5.0, 2, 5, book_16, "repeat")
    assert columns(rec_a) == columns(rec_b)


CODEBOOK_STEPS = ["hierarchical", "posterior_matching"]


@pytest.mark.parametrize("step", CODEBOOK_STEPS)
def test_codebook_validations(step):
    cfg = make_config(n_v=4, codebook=step, gain="known")
    chan = ChannelParams(1.0, 0.4)
    noise = noise_of(cfg, 0)
    book_10 = build_hierarchical_codebook(ROI, 4, 10, grid_size=16)
    with pytest.raises(ValueError, match="13 .sliding. or 16 .repeated."):
        run_alignment(cfg, [chan], noise, book_10)
    # the right tap count over another region would score beams pointing
    # elsewhere
    elsewhere = build_hierarchical_codebook(
        RegionOfInterest(-1.0, 0.0), 4, 13, grid_size=16
    )
    with pytest.raises(ValueError, match="region"):
        run_alignment(cfg, [chan], noise, elsewhere)


def test_a_flexible_run_takes_no_codebook():
    # the flexible step designs its beams, so a codebook would go unread
    cfg = make_config()
    book = build_hierarchical_codebook(ROI, 4, 13, grid_size=16)
    chan = ChannelParams(1.0, 0.4)
    with pytest.raises(ValueError, match="takes no codebook"):
        run_alignment(cfg, [chan], noise_of(cfg, 0), book)


@pytest.mark.parametrize("step", CODEBOOK_STEPS)
@pytest.mark.parametrize("taps", [13, 16], ids=["svam", "repeat"])
def test_codebook_rejects_codewords_beyond_unit_norm(taps, step):
    # the known-gain update assumes combiners of norm at most 1; a codebook
    # from the caller with scaled taps fails before any update runs
    cfg = make_config(n_v=4, codebook=step, gain="known")
    book = build_hierarchical_codebook(ROI, 4, taps, grid_size=16)
    loud = HierarchicalCodebook(
        [dataclasses.replace(f, weights=1.01 * f.weights) for f in book.beams],
        book.spans,
    )
    chan = ChannelParams(1.0, 0.4, noise_variance=0.1)
    noise = noise_of(cfg, 0)
    run_alignment(cfg, [chan], noise, book)  # unit norm passes
    with pytest.raises(ValueError, match="norm"):
        run_alignment(cfg, [chan], noise, loud)


@pytest.mark.parametrize("step", CODEBOOK_STEPS)
def test_codebook_rejects_codewords_of_another_tap_count(step):
    # every codeword is checked against the root before the first block: a
    # 15-tap root fits n = 16, n_v = 2, its 16-tap deeper levels do not
    cfg = make_config(n_v=2, codebook=step, gain="known")
    root = build_hierarchical_codebook(ROI, 4, 15, grid_size=16)
    deeper = build_hierarchical_codebook(ROI, 4, 16, grid_size=16)
    mixed = HierarchicalCodebook(root.beams[:1] + deeper.beams[1:], root.spans)
    chan = ChannelParams(1.0, 0.4, noise_variance=0.1)
    with pytest.raises(ValueError, match="15-tap and 16-tap"):
        run_alignment(cfg, [chan], noise_of(cfg, 0), mixed)
