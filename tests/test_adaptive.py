"""Controller tests: windowed-mass beam selection, dyadic search,
posterior-matching codeword choice, and full closed-loop runs."""

import dataclasses

import numpy as np
import pytest

from svamsim.adaptive import (
    AdaptConfig,
    cumul_peak,
    hier_beam_search,
    node_mass,
    node_masses,
    run_alignment,
    run_hiepm_known_alpha,
    select_codeword_posterior_matching,
    select_next_beam,
)
from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim.beams import BeamSpec, HierarchicalCodebook, build_hierarchical_codebook
from svamsim.channel import ChannelParams

ROI = RegionOfInterest(0.0, 1.0)


def grid_of(size: int) -> AngularGrid:
    return AngularGrid(ROI, size)


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


# ---------------------------------------------------------- hier_beam_search

DEPTH_16 = 4  # dyadic levels over a 16-point grid


def search_one(level, pmf, p_thresh):
    """The batched search on a batch of one trial: its (level, index)."""
    (level,), (index,) = hier_beam_search(
        [level], node_masses(pmf[None], DEPTH_16), [int(np.argmax(pmf))],
        len(pmf), p_thresh,
    )
    return level, index


def test_hier_search_descends_to_confident_leaf():
    pmf = np.full(16, 0.1 / 15)
    pmf[5] = 0.9
    assert search_one(3, pmf, 0.6) == (4, 5)


def test_hier_search_climbs_to_parent():
    pmf = np.zeros(16)
    pmf[5] = 0.55
    pmf[4] = 0.45
    node = search_one(3, pmf, 0.6)
    assert node == (3, 2)
    assert node_mass(pmf, *node) == pytest.approx(1.0)


def test_hier_search_terminates_at_root():
    pmf = np.full(16, 1 / 16)
    assert search_one(0, pmf, 0.99) == (0, 0)


def test_hier_search_level_is_capped_at_depth():
    pmf = np.zeros(16)
    pmf[5] = 1.0
    assert search_one(9, pmf, 0.6) == (4, 5)


def test_hier_search_rejects_uneven_grid():
    masses = node_masses(np.full((1, 8), 1 / 8), 2)
    with pytest.raises(ValueError):
        hier_beam_search([1], masses, [0], 6, 0.5)


@pytest.mark.parametrize(
    "levels, modes, p_thresh",
    [([0, 0], [0], 0.6), ([0], [16], 0.6), ([0], [-1], 0.6), ([-3], [0], 0.6),
     ([0], [0], 1.0)],
    ids=["levels_vs_modes", "mode_past_grid", "negative_mode", "negative_level",
         "p_thresh"],
)
def test_hier_search_rejects_bad_batch(levels, modes, p_thresh):
    masses = node_masses(np.full((len(levels), 16), 1 / 16), DEPTH_16)
    with pytest.raises(ValueError):
        hier_beam_search(levels, masses, modes, 16, p_thresh)


# ---------------------------------------- posterior-matching codeword choice

DEPTH_8 = 3  # dyadic levels over an 8-point grid


def match_one(pmf):
    """Posterior matching on a batch of one trial: its (level, index)."""
    (level,), (index,) = select_codeword_posterior_matching(
        node_masses(pmf[None], DEPTH_8)
    )
    return level, index


def test_matching_walks_to_leaf_on_delta():
    pmf = np.zeros(8)
    pmf[4] = 1.0
    assert match_one(pmf) == (3, 4)


def test_matching_keeps_node_closer_to_half():
    # right half holds 0.52 (close to 1/2); its children hold 0.22 and 0.3
    pmf = np.array([0.48, 0.0, 0.0, 0.0, 0.22, 0.0, 0.3, 0.0])
    node = match_one(pmf)
    assert node == (1, 1)
    assert node_mass(pmf, *node) == pytest.approx(0.52)


def test_matching_takes_child_closer_to_half():
    pmf = np.array([0.25, 0.24, 0.03, 0.0, 0.48, 0.0, 0.0, 0.0])
    node = match_one(pmf)
    assert node == (2, 0)
    assert node_mass(pmf, *node) == pytest.approx(0.49)


def test_matching_uniform_picks_half_region():
    level, _ = match_one(np.full(8, 1 / 8))
    assert level == 1


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
    cfg = make_config()
    assert cfg.segments == 4
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
    ],
    ids=[
        "n_v_beyond_aperture", "empty_grid", "noise_scale_nan", "noise_scale_inf",
        "n_float", "n_fraction", "n_v_float", "n_v_bool", "snapshots_float",
        "n_numpy_float", "grid_float_fraction", "grid_bool",
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
    (rec,) = run_alignment(cfg, [chan], [np.random.default_rng(0)])
    assert rec.estimate == truth
    assert (rec.estimate - rec.true_angle) ** 2 == 0.0
    assert rec.segments[-1].mode_index == 9
    # narrowing beams concentrate energy on the true angle
    assert rec.segments[-1].gain_at_truth > 3 * rec.segments[0].gain_at_truth
    assert rec.segments[-1].peak_prob > 0.99


def test_noiseless_on_grid_recovery_hierarchical():
    cfg = make_config(total_snapshots=24, codebook="hierarchical")
    grid = AngularGrid(ROI, 16)
    truth = float(grid.points[9])
    chan = ChannelParams(1.0 + 0.0j, truth)
    (rec,) = run_alignment(cfg, [chan], [np.random.default_rng(0)])
    assert rec.estimate == truth
    assert rec.segments[0].beam.beamwidth == pytest.approx(ROI.width)


def test_alignment_is_deterministic():
    cfg = make_config()
    chan = ChannelParams(1j, 0.4, noise_variance=0.5)
    (rec1,) = run_alignment(cfg, [chan], [np.random.default_rng(7)])
    (rec2,) = run_alignment(cfg, [chan], [np.random.default_rng(7)])
    assert rec1 == rec2


def test_records_carry_one_log_per_segment():
    cfg = make_config()
    chan = ChannelParams(1.0, 0.4, noise_variance=0.1)
    (rec,) = run_alignment(cfg, [chan], [np.random.default_rng(1)])
    assert len(rec.segments) == cfg.segments
    assert all(s.peak_prob >= 0 for s in rec.segments)


def test_hiepm_noiseless_recovery():
    cfg = make_config(n_v=1, total_snapshots=12)
    grid = AngularGrid(ROI, 16)
    truth = float(grid.points[6])
    chan = ChannelParams(np.exp(-0.7j), truth)
    book = build_hierarchical_codebook(ROI, 4, 16, grid_size=16)
    (rec,) = run_hiepm_known_alpha(cfg, [chan], [np.random.default_rng(0)], book)
    assert rec.estimate == truth
    assert len(rec.segments) == 12


def test_hiepm_block_size_one_makes_modes_agree():
    # with one snapshot per block, sliding and repeating are the same rule
    cfg = make_config(n_v=1, total_snapshots=8)
    chan = ChannelParams(1.0, 0.37, noise_variance=0.3)
    book = build_hierarchical_codebook(ROI, 4, 16, grid_size=16)
    rec_a = run_hiepm_known_alpha(
        cfg, [chan], [np.random.default_rng(5)], book, "svam"
    )
    rec_b = run_hiepm_known_alpha(
        cfg, [chan], [np.random.default_rng(5)], book, "repeat"
    )
    assert rec_a == rec_b


def test_hiepm_validations():
    cfg = make_config(n_v=4)
    book_13 = build_hierarchical_codebook(ROI, 4, 13, grid_size=16)
    book_16 = build_hierarchical_codebook(ROI, 4, 16, grid_size=16)
    chan = ChannelParams(1.0, 0.4)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):  # svam needs 13-tap codewords here
        run_hiepm_known_alpha(cfg, [chan], [rng], book_16, "svam")
    with pytest.raises(ValueError):  # repeat needs full-length codewords
        run_hiepm_known_alpha(cfg, [chan], [rng], book_13, "repeat")
    with pytest.raises(ValueError):
        run_hiepm_known_alpha(cfg, [chan], [rng], book_13, "sideways")


@pytest.mark.parametrize(
    "mode, taps", [("svam", 13), ("repeat", 16)], ids=["svam", "repeat"]
)
def test_hiepm_rejects_codewords_beyond_unit_norm(mode, taps):
    # the known-gain update assumes combiners of norm at most 1; a codebook
    # from the caller with scaled taps fails before any update runs
    cfg = make_config(n_v=4)
    book = build_hierarchical_codebook(ROI, 4, taps, grid_size=16)
    loud = HierarchicalCodebook([
        [
            dataclasses.replace(node, beamformer=dataclasses.replace(
                node.beamformer, weights=1.01 * node.beamformer.weights
            ))
            for node in level
        ]
        for level in book.levels
    ])
    chan = ChannelParams(1.0, 0.4, noise_variance=0.1)
    rng = np.random.default_rng(0)
    run_hiepm_known_alpha(cfg, [chan], [rng], book, mode)  # unit norm passes
    with pytest.raises(ValueError):
        run_hiepm_known_alpha(cfg, [chan], [rng], loud, mode)
