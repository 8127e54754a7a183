"""Harness tests: metric math, seeding discipline, CSV format, config
parsing, and the CLI surface."""

import csv
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from scalar_alignment import columns
from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim import harness
from svamsim.cli import main as cli_main
from svamsim.crb import gain_condition_sufficient
from svamsim.harness import (
    CONFIG_KEYS,
    CRB_COLUMNS,
    CRB_SCHEMES,
    EXPERIMENT_KINDS,
    UNREAD_SETTINGS,
    ExperimentConfig,
    MetricRow,
    bootstrap_rmse_interval,
    config_from_file,
    crb_table,
    emit_csv,
    noise_variance_from_snr,
    rmse,
    run_adaptive_trials,
    run_experiment,
    write_crb_csv,
    write_trajectories,
)

ROI = RegionOfInterest(0.0, 1.0)


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        experiment="rmse_vs_snr",
        n=16,
        n_v=(4,),
        grid_size=16,
        total_snapshots=16,
        trials=4,
        snr_db=(0.0,),
        p_thresh=(0.6,),
        roi=ROI,
        seed=11,
    )
    base.update(overrides)
    if base["experiment"] == "crb_sweep":  # it rejects the trial settings
        for name in UNREAD_SETTINGS["crb_sweep"]:
            if name not in overrides:
                base.pop(name, None)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ metrics


def test_rmse_examples():
    assert rmse([0.5, 0.2], [0.5, 0.2]) == 0.0
    assert rmse([0.5], [0.25]) == pytest.approx(0.25)
    assert rmse([0.1, -0.1], [0.0, 0.0]) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        rmse([], [])
    with pytest.raises(ValueError):
        rmse([1.0], [1.0, 2.0])


def test_snr_mapping():
    assert noise_variance_from_snr(0.0) == pytest.approx(1.0)
    assert noise_variance_from_snr(-10.0) == pytest.approx(10.0)
    assert noise_variance_from_snr(20.0) == pytest.approx(0.01)
    assert noise_variance_from_snr(math.inf) == 0.0
    for meaningless in (math.nan, -math.inf):
        with pytest.raises(ValueError):
            noise_variance_from_snr(meaningless)
    # finite, but the power overflows or underflows to zero: the error
    # names the SNR instead of an OverflowError or a silently noiseless run
    for extreme in (-4000.0, 4000.0, np.float64(-4000.0)):
        with pytest.raises(ValueError, match=f"SNR {float(extreme)} dB"):
            noise_variance_from_snr(extreme)


def test_bootstrap_interval_contains_point_rmse():
    rng = np.random.default_rng(3)
    sq = rng.exponential(size=200) ** 2
    lo, hi = bootstrap_rmse_interval(sq, resamples=500, seed=1)
    point = math.sqrt(np.mean(sq))
    assert lo < point < hi
    assert (lo, hi) == bootstrap_rmse_interval(sq, resamples=500, seed=1)
    # no resample or a non-finite error has no interval: a ValueError, not
    # numpy's IndexError or a silent (nan, nan)
    for resamples in (0, -1):
        with pytest.raises(ValueError, match="resample"):
            bootstrap_rmse_interval(sq, resamples=resamples)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            bootstrap_rmse_interval(np.append(sq, bad))


# ------------------------------------------------------------------ seeding


def test_first_trials_unchanged_when_count_grows():
    cfg = tiny_config(trials=6)
    adapt = cfg.adapt(4, 0.6)
    few = run_adaptive_trials(adapt, 0.0, 3, cfg.seed)
    many = run_adaptive_trials(adapt, 0.0, 6, cfg.seed)
    assert columns(many[:3]) == columns(few)


@pytest.mark.parametrize("codebook", ["flexible", "hierarchical", "posterior_matching"])
def test_lockstep_batch_keeps_each_trial_stream(codebook):
    # trials advance together, but each still draws only from its own
    # generator: a 3-trial batch equals the head of a 7-trial batch
    cfg = tiny_config(trials=7, codebook=codebook)
    adapt = cfg.adapt(4, 0.6)
    few = run_adaptive_trials(adapt, -5.0, 3, cfg.seed)
    many = run_adaptive_trials(adapt, -5.0, 7, cfg.seed)
    assert len(few.true_angle) == 3 and len(many.true_angle) == 7
    assert columns(many[:3]) == columns(few)


def test_trials_are_reproducible_and_distinct():
    cfg = tiny_config()
    adapt = cfg.adapt(4, 0.6)
    a = run_adaptive_trials(adapt, 0.0, 4, cfg.seed)
    b = run_adaptive_trials(adapt, 0.0, 4, cfg.seed)
    assert columns(a) == columns(b)
    angles = set(a.true_angle.tolist()) | set(a.estimate.tolist())
    assert len(angles) > 1  # trials see different channels


def test_noiseless_single_trial_recovers_exactly():
    cfg = tiny_config(trials=1)
    adapt = cfg.adapt(4, 0.6)
    out = run_adaptive_trials(adapt, math.inf, 1, cfg.seed)
    assert out.estimate.tolist() == out.true_angle.tolist()


# ------------------------------------------------------------- experiments


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("codebook", ["flexible", "hierarchical", "posterior_matching"])
def test_snr_batch_records_equal_one_snr_sweeps(codebook, trials, monkeypatch):
    # every SNR of a sweep point runs in one batch; each point must see the
    # records of a sweep of its SNR alone, an SNR listed twice included.
    # One-trial sweeps are grouped too. Block size 3 is one where a lone
    # vector product and a row of a batch's matrix product round
    # differently, so the rows carry every trial's position and peak mass
    def every_peak(outcome, grid):
        for trial, peaks in enumerate(outcome.peak_prob.tolist()):
            for t, peak in enumerate(peaks):
                yield t, f"peak_{trial}", peak

    monkeypatch.setitem(harness._REDUCERS, "gain_over_time", every_peak)
    snrs = (-5.0, 5.0, -5.0)
    config = tiny_config(
        experiment="gain_over_time", n_v=(2, 3), total_snapshots=12,
        trials=trials, snr_db=snrs, codebook=codebook,
    )
    want = [
        row
        for snr in snrs
        for row in run_experiment(dataclasses.replace(config, snr_db=(snr,)))
    ]
    assert run_experiment(config) == want


def test_rmse_vs_snr_row_count_contract():
    cfg = tiny_config(snr_db=(0.0, 10.0), n_v=(2, 4), p_thresh=(0.5, 0.6))
    rows = run_experiment(cfg)
    assert len(rows) == 8
    keys = {(r.snr_db, r.n_v, r.p_thresh) for r in rows}
    assert len(keys) == 8
    assert all(r.metric_name == "rmse" and r.value >= 0 for r in rows)


def test_rmse_vs_snapshots_emits_one_row_per_segment():
    cfg = tiny_config(experiment="rmse_vs_snapshots")
    rows = run_experiment(cfg)
    assert [r.t for r in rows] == [0, 1, 2, 3]


def test_gain_over_time_rows():
    cfg = tiny_config(experiment="gain_over_time", trials=3)
    rows = run_experiment(cfg)
    assert len(rows) == 3 * 4  # three stats per segment
    by_t = {}
    for r in rows:
        by_t.setdefault(r.t, {})[r.metric_name] = r.value
    for stats in by_t.values():
        assert stats["min_gain_db"] <= stats["mean_gain_db"] <= stats["max_gain_db"]


def test_noise_mismatch_rows_carry_scale():
    cfg = tiny_config(experiment="noise_mismatch", noise_scale=(0.5, 1.0))
    rows = run_experiment(cfg)
    assert [r.noise_scale for r in rows] == [0.5, 1.0]


def test_codebook_compare_pairs_rows():
    cfg = tiny_config(experiment="codebook_compare", trials=3)
    rows = run_experiment(cfg)
    assert [r.metric_name for r in rows] == ["rmse_flexible", "rmse_hierarchical"]


def test_crb_sweep_rows_and_inf_tabulation():
    cfg = tiny_config(
        experiment="crb_sweep", n_v=(1,), total_snapshots=1, snr_db=(-10.0,)
    )
    rows = run_experiment(cfg)
    assert len(rows) == 3 * cfg.grid_size
    unknown = [r for r in rows if r.metric_name == "crb_unknown_alpha"]
    assert all(math.isinf(r.value) for r in unknown)  # single snapshot
    finite = [r for r in rows if r.metric_name == "crb_svam"]
    assert all(r.value > 0 for r in finite)


def test_hiepm_trials_run_and_reproduce():
    # the known-gain scheme is a config of the sweeps' run, on the sliding
    # codebook it builds
    cfg = tiny_config(n_v=(2,), total_snapshots=8)
    adapt = dataclasses.replace(
        cfg.adapt(2, 0.6, codebook="posterior_matching"), gain="known"
    )
    out = run_adaptive_trials(adapt, math.inf, 2, 5)
    assert out.estimate.tolist() == out.true_angle.tolist()
    again = run_adaptive_trials(adapt, math.inf, 2, 5)
    assert columns(out) == columns(again)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        tiny_config(experiment="heatmap")
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(n_v=(3,))  # does not divide 16
    with pytest.raises(ValueError):
        tiny_config(snr_db=())


@pytest.mark.parametrize(
    "overrides",
    [
        dict(p_thresh=(0.6, 1.0)),
        dict(experiment="noise_mismatch", noise_scale=(1.0, 0.0)),
        dict(codebook="bogus"),
        dict(n=64, grid_size=48, total_snapshots=120, snr_db=(20.0,),
             codebook="hierarchical"),
        dict(n=64, grid_size=48, total_snapshots=120, snr_db=(20.0,),
             codebook="posterior_matching"),
        dict(experiment="codebook_compare", n=64, grid_size=48,
             total_snapshots=120, snr_db=(20.0,)),
        dict(n=8, n_v=(16,), total_snapshots=16, trials=1),
        dict(grid_size=0),
        *(dict(experiment=kind, n_v=(0,)) for kind in EXPERIMENT_KINDS),
        dict(experiment="crb_sweep", n=8, n_v=(2, 16), total_snapshots=16),
        dict(experiment="crb_sweep", snr_db=(-10.0, math.inf)),
        dict(experiment="crb_sweep", n_v=(2, -4)),
        dict(experiment="crb_sweep", total_snapshots=0),
        dict(experiment="crb_sweep", grid_size=0),
        dict(snr_db=(math.nan,)),
        dict(experiment="crb_sweep", snr_db=(math.nan,)),
        dict(snr_db=(-10.0, -math.inf)),
        dict(experiment="crb_sweep", snr_db=(-math.inf,)),
        dict(experiment="noise_mismatch", noise_scale=(1.0, math.nan)),
        dict(experiment="noise_mismatch", noise_scale=(1.0, math.inf)),
        dict(seed=-1),
        dict(experiment="crb_sweep", seed=-1),
        dict(seed=1.5),
        dict(seed=2.0),
        dict(experiment="crb_sweep", seed=1.5),
        dict(seed=True),
        dict(trials=2.5),
        dict(trials=True),
        dict(trials=np.float64(2.0)),
        dict(n=16.0),
        dict(n=16.5),
        dict(total_snapshots=16.0),
        dict(n_v=(2.0,)),
        dict(n_v=(True,)),
        dict(n_v=(4, np.float64(2.0))),
        dict(experiment="crb_sweep", n=16.0),
        dict(experiment="crb_sweep", n=16.5),
        dict(experiment="crb_sweep", total_snapshots=16.0),
        dict(experiment="crb_sweep", n_v=(2.0,)),
        dict(experiment="crb_sweep", n_v=(True,)),
        dict(grid_size=16.5),
        dict(grid_size=True),
        dict(snr_db=(-10.0, -4000.0)),
        dict(snr_db=(-10.0, 4000.0)),
        dict(experiment="crb_sweep", snr_db=(-4000.0,)),
        dict(experiment="crb_sweep", snr_db=(4000.0,)),
        dict(roi=(0.0, 1.0)),
        dict(experiment="crb_sweep", roi=(0.0, 1.0)),
        dict(experiment="noise_mismatch", n_v=4),
        dict(experiment="noise_mismatch", p_thresh=0.6),
        dict(experiment="noise_mismatch", snr_db=-10.0),
        dict(experiment="noise_mismatch", noise_scale=1.0),
        dict(experiment="noise_mismatch", snr_db="-10"),
    ],
    ids=[
        "p_thresh", "noise_scale", "codebook", "hier_grid", "matching_grid",
        "compare_grid",
        "n_v_beyond_aperture", "empty_grid",
        *(f"n_v_zero_{kind}" for kind in EXPERIMENT_KINDS),
        "crb_n_v_beyond_aperture", "crb_noiseless", "crb_negative_n_v",
        "crb_no_snapshots", "crb_empty_grid", "snr_nan", "crb_snr_nan",
        "snr_minus_inf", "crb_snr_minus_inf", "noise_scale_nan", "noise_scale_inf",
        "seed_negative", "crb_seed_negative", "seed_fraction", "seed_float",
        "crb_seed_fraction", "seed_bool", "trials_fraction", "trials_bool",
        "trials_numpy_float", "n_float", "n_fraction", "snapshots_float",
        "n_v_float", "n_v_bool", "n_v_numpy_float", "crb_n_float", "crb_n_fraction",
        "crb_snapshots_float", "crb_n_v_float", "crb_n_v_bool",
        "grid_float_fraction", "grid_bool", "snr_overflow", "snr_underflow",
        "crb_snr_overflow", "crb_snr_underflow", "roi_tuple", "crb_roi_tuple",
        "n_v_scalar", "p_thresh_scalar", "snr_scalar", "noise_scale_scalar",
        "snr_str",
    ],
)
def test_bad_sweep_point_fails_at_construction(overrides):
    # each of these used to be accepted and raise only after earlier sweep
    # points had run their trials
    with pytest.raises(ValueError):
        tiny_config(**overrides)


def test_a_scalar_sweep_axis_is_named_in_the_error():
    for axis, value in (("n_v", 4), ("snr_db", -10.0), ("p_thresh", 0.6),
                        ("noise_scale", 1.0), ("snr_db", "-10")):
        with pytest.raises(ValueError, match=f"sweep axis {axis} must be a sequence"):
            tiny_config(experiment="noise_mismatch", **{axis: value})


def test_numpy_integer_seed_and_trials_accepted():
    config = tiny_config(seed=np.int64(3), trials=np.int32(2))
    assert config == tiny_config(seed=3, trials=2)
    assert type(config.seed) is int and type(config.trials) is int


@pytest.mark.parametrize("experiment", ["rmse_vs_snr", "crb_sweep"])
def test_numpy_integer_sizes_stored_as_int(experiment):
    config = tiny_config(
        experiment=experiment, n=np.int64(16), n_v=(np.int16(4),),
        grid_size=np.int32(16), total_snapshots=np.uint32(16),
    )
    assert config == tiny_config(experiment=experiment)
    sizes = (config.n, *config.n_v, config.grid_size, config.total_snapshots)
    assert all(type(v) is int for v in sizes)


# -------------------------------------------------------------- CSV output


def test_emit_csv_header_and_format(tmp_path):
    path = tmp_path / "m.csv"
    rows = [
        MetricRow("rmse_vs_snr", -10.0, 4, 0.6, None, None, 100, "rmse",
                  0.123456789012345),
        MetricRow("crb_sweep", -10.0, 1, None, None, 7, 0, "crb_unknown_alpha",
                  math.inf),
    ]
    emit_csv(rows, str(path))
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == "experiment,snr_db,n_v,p_thresh,noise_scale,t,trial_count,metric_name,value"
    assert lines[1] == "rmse_vs_snr,-10,4,0.6,,,100,rmse,0.123456789012"
    assert lines[2] == "crb_sweep,-10,1,,,7,0,crb_unknown_alpha,inf"
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert float(parsed[0]["value"]) == pytest.approx(0.123456789012345, rel=1e-12)
    assert math.isinf(float(parsed[1]["value"]))


def _chain_cell(value) -> str:
    """harness._cell as a chain of isinstance tests, before its type lookup."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def test_numpy_bools_print_as_words():
    # np.bool_ is neither bool nor an integer type: a vectorised verdict
    # must not print as 1/0 where a Python bool prints true/false
    assert [harness._cell(v) for v in (np.bool_(True), np.bool_(False))] == [
        "true", "false",
    ]
    assert [harness._cell(v) for v in (True, False)] == ["true", "false"]


_CELL_VALUES = (
    [None, "", "svam", "crb_unknown_alpha"]
    + [0, 1, -7, 2**63 - 1, -(2**63), 10**30]
    + [
        kind(v)
        for kind in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint32, np.uint64)
        for v in (0, 1, 100, np.iinfo(kind).max, np.iinfo(kind).min)
    ]
    + [
        kind(v)
        for kind in (float, np.float64)
        for v in (
            0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 123456789.123456789, 1e-300, 1e300,
            5e-324, 2.2250738585072014e-308 / 3, math.inf, -math.inf, math.nan,
        )
    ]
    + [
        np.float32(v)  # 1e-40 and 1e-45 are float32 subnormals
        for v in (0.0, -0.0, 0.1, -2.5, 3e38, 1e-40, 1e-45, math.inf, -math.inf, math.nan)
    ]
)


@pytest.mark.parametrize(
    "value", _CELL_VALUES, ids=[f"{type(v).__name__}-{v!r}" for v in _CELL_VALUES]
)
def test_cell_type_lookup_prints_what_the_chain_printed(value):
    assert harness._cell(value) == _chain_cell(value)


def _write_cell_by_cell(path, header, records) -> None:
    """harness._write_csv as it was before it formatted whole columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([harness._cell(v) for v in record] for record in records)


# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch,
# and that import warns; with warnings as errors the warning would abort the
# session instead of reporting the failing example.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
def test_column_writer_prints_what_the_cell_writer_printed(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    specials = st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308 / 3]
    )
    floats = st.floats() | specials
    int64 = np.iinfo(np.int64)
    int32 = np.iinfo(np.int32)
    # one strategy per cell type the records of the package's writers hold
    kinds = {
        "None": st.none(),
        # commas, quotes and line breaks send a file through csv.writer
        "str": st.text(st.characters(min_codepoint=32, max_codepoint=126)
                       | st.sampled_from("\n\r"), max_size=4),
        "bool": st.booleans(),
        "np.bool_": st.booleans().map(np.bool_),
        "int": st.integers(),
        "np.int64": st.integers(int64.min, int64.max).map(np.int64),
        "np.int32": st.integers(int32.min, int32.max).map(np.int32),
        "float": floats,
        "np.float64": floats.map(np.float64),
        # 1e-40 and 1e-45 are float32 subnormals
        "np.float32": (st.floats(width=32) | st.sampled_from([-0.0, 1e-40, 1e-45]))
        .map(np.float32),
    }

    @st.composite
    def records(draw):
        width = draw(st.integers(1, 4))
        column_kinds = [
            draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1, max_size=3,
                          unique=True))
            for _ in range(width)
        ]
        return [
            [draw(st.one_of(*(kinds[k] for k in column))) for column in column_kinds]
            for _ in range(draw(st.integers(0, 6)))
        ]

    zeros = [[0.0, -0.0], [-0.0, 0.0], [np.float64(-0.0), None], [None, np.float64(0.0)]]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(records())
    @hypothesis.example(zeros)
    @hypothesis.example([[1, 2**70, np.int64(-3), "x"], [np.int32(7), 0, True, None]])
    @hypothesis.example([["a,b", 1]])
    @hypothesis.example([['say "hi"', 1.0]])
    @hypothesis.example([["z\n", None], ["x\ry", 0]])
    @hypothesis.example([[""], [None], [1.5]])  # one empty cell is written ""
    def check(rows):
        header = [f"c{i}" for i in range(len(rows[0]) if rows else 2)]
        harness._write_csv(str(tmp_path / "columns.csv"), "test", header, rows)
        _write_cell_by_cell(tmp_path / "cells.csv", header, rows)
        assert (tmp_path / "columns.csv").read_bytes() == (
            tmp_path / "cells.csv"
        ).read_bytes()

    check()


def test_emit_csv_empty_rows_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path))
    assert path.read_text() == "experiment,snr_db,n_v,p_thresh,noise_scale,t,trial_count,metric_name,value\n"


def test_emit_csv_bad_path_has_context():
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv([], "no/such/dir/x.csv")


def test_rerun_is_byte_identical(tmp_path):
    cfg = tiny_config(trials=3, snr_db=(-5.0,))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), str(p1))
    emit_csv(run_experiment(cfg), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_trajectory_writer(tmp_path):
    cfg = tiny_config(trials=2)
    records = run_adaptive_trials(cfg.adapt(4, 0.6), 0.0, 2, cfg.seed)
    path = tmp_path / "traj.csv"
    write_trajectories(records, str(path))
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4
    assert {r["trial"] for r in rows} == {"0", "1"}
    assert all(float(r["beamwidth"]) > 0 for r in rows)


def test_crb_table_and_writer(tmp_path):
    grid = AngularGrid(ROI, 8)
    rows = crb_table("svam", 16, 4, 16, grid, 0.0)
    assert len(rows) == 8
    svam = dict(zip(CRB_COLUMNS, zip(*rows)))
    assert None not in svam["g_term"]
    general = dict(zip(CRB_COLUMNS, zip(*crb_table("general", 16, 4, 16, grid, 0.0))))
    assert svam["bound"] == pytest.approx(general["bound"], rel=1e-9)
    path = tmp_path / "crb.csv"
    write_crb_csv(rows, str(path))
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["scheme"] == "svam"
    assert parsed[0]["condition_holds"] in ("true", "false")
    with pytest.raises(ValueError):
        crb_table("best", 16, 4, 16, grid, 0.0)


def test_svam_table_with_single_tap_combiners(tmp_path):
    # n_v = n leaves one tap per segment: the derivative vanishes and the
    # gain term is pi^2 (n_v-1)(2 n_v-1)/6 ||F^H phi||^2, so it is
    # nonnegative and the certificate holds
    grid = AngularGrid(ROI, 8)
    table = dict(zip(CRB_COLUMNS, zip(*crb_table("svam", 16, 16, 32, grid, 0.0))))
    expected_g = np.pi**2 * 15 * 31 / 6.0 * 2  # two unit-modulus taps
    assert all(h is True for h in table["condition_holds"])
    assert all(g == pytest.approx(expected_g, rel=1e-12) for g in table["g_term"])
    assert all(math.isfinite(b) and b > 0 for b in table["bound"])
    out = tmp_path / "crb.csv"
    code = cli_main(
        ["crb", "--scheme", "svam", "--n", "16", "--nv", "16", "--snapshots", "32",
         "--grid", "8", "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 8
    assert all(r["condition_holds"] == "true" and float(r["g_term"]) >= 0 for r in parsed)


def test_crb_table_rows_are_tuples_in_column_order(tmp_path):
    # every row is (u, N, N_v, L, scheme, bound, g_term, condition_holds) of
    # plain Python values, read off the bound call's arrays; rows joined
    # from several calls write each cell as _cell formats it
    grid = AngularGrid(ROI, 8)
    rows = []
    for scheme, n_v in itertools.product(("svam", "unknown-alpha"), (1, 4)):
        table = crb_table(scheme, 16, n_v, 16, grid, 0.0)
        bank, res = harness._scheme_bounds(scheme, 16, n_v, 16, grid, 0.0)
        if scheme == "svam":
            gains = res.gain_term.tolist()
            holds = gain_condition_sufficient(bank, grid.points)[0].tolist()
        else:
            gains = holds = [None] * len(grid)
        want = [
            (u, 16, n_v, 16, scheme, bound, g, h)
            for u, bound, g, h in zip(grid.points.tolist(), res.bound.tolist(), gains, holds)
        ]
        assert all(type(row) is tuple for row in table)
        assert [list(map(type, row)) for row in table] == [list(map(type, row)) for row in want]
        assert table == want
        rows += table
    path = tmp_path / "crb.csv"
    write_crb_csv(rows, str(path))
    text = "".join(",".join(map(harness._cell, row)) + "\n" for row in [CRB_COLUMNS, *rows])
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize("scheme", CRB_SCHEMES)
@pytest.mark.parametrize(
    "n_v, total_snapshots", [(0, 16), (4, 0)], ids=["n_v_zero", "no_snapshots"]
)
def test_crb_table_rejects_bad_sizes(scheme, n_v, total_snapshots, tmp_path):
    grid = AngularGrid(ROI, 8)
    with pytest.raises(ValueError):
        crb_table(scheme, 16, n_v, total_snapshots, grid, 0.0)
    with pytest.raises(SystemExit) as exc:
        cli_main(
            ["crb", "--scheme", scheme, "--n", "16", "--nv", str(n_v),
             "--snapshots", str(total_snapshots), "--grid", "8",
             "--out", str(tmp_path / "crb.csv")]
        )
    assert exc.value.code == 2


def _count_expansions(monkeypatch) -> list:
    calls = []
    expand = harness.expanded_combiners

    def counted(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(harness, "expanded_combiners", counted)
    return calls


@pytest.mark.parametrize(
    "scheme, expansions",
    [("general", 1), ("unknown-alpha", 1), ("svam", 0), ("benchmark", 0)],
)
def test_crb_table_expands_the_bank_once(scheme, expansions, monkeypatch):
    calls = _count_expansions(monkeypatch)
    rows = crb_table(scheme, 16, 4, 16, AngularGrid(ROI, 8), 0.0)
    assert len(rows) == 8
    assert len(calls) == expansions


def test_crb_sweep_expands_once_per_point(monkeypatch):
    calls = _count_expansions(monkeypatch)
    cfg = tiny_config(
        experiment="crb_sweep", n_v=(1, 2, 4), snr_db=(-10.0, 0.0), grid_size=8
    )
    rows = run_experiment(cfg)
    assert len(rows) == 3 * 8 * len(cfg.n_v) * len(cfg.snr_db)
    assert len(calls) == len(cfg.n_v) * len(cfg.snr_db)


# ------------------------------------------------------------------ config


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        """
        # desk-scale sweep
        experiment = rmse_vs_snr
        n = 16
        n_v = 2,4
        grid_size = 16
        total_snapshots = 16
        trials = 3
        snr_db = -10,0
        p_thresh = 0.6
        roi = 0,1
        seed = 9
        """
    )
    cfg = config_from_file(str(path))
    assert cfg.n == 16
    assert cfg.n_v == (2, 4)
    assert cfg.snr_db == (-10.0, 0.0)
    assert cfg.roi == ROI
    cfg2 = config_from_file(str(path), trials=5, seed=None)
    assert cfg2.trials == 5 and cfg2.seed == 9


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("colour = blue\n")
    with pytest.raises(ValueError, match="colour"):
        config_from_file(str(path))
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key = value"):
        config_from_file(str(path))
    for bad in ("n_v = 2.5", "roi = 0,1,2", "trials = x"):
        path.write_text(f"n = 16\n{bad}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2:")):
            config_from_file(str(path))
    # a repeated key once silently kept its last value
    path.write_text("experiment = rmse_vs_snr\ntrials = 5\n# a comment\ntrials = 7\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4:") + ".*line 2"):
        config_from_file(str(path))


def test_config_keys_cover_every_field():
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert list(CONFIG_KEYS) == fields


# --------------------------------------------------------------------- CLI


def test_cli_align_smoke(tmp_path, capsys):
    out = tmp_path / "align.csv"
    traj = tmp_path / "traj.csv"
    code = cli_main(
        [
            "align", "--n", "16", "--nv", "4", "--grid", "16",
            "--snapshots", "16", "--trials", "2", "--snr-db", "0",
            "--p-thresh", "0.6", "--seed", "3",
            "--out", str(out), "--trajectories", str(traj),
        ]
    )
    assert code == 0
    assert out.exists() and traj.exists()
    assert "rmse" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["trial_count"] == "2"


@pytest.mark.parametrize(
    "flag, message",
    [(["--nv", "0"], "virtual size 0 outside [1, aperture 64]"),
     (["--snr-db=-4000"], "SNR -4000.0 dB gives no positive finite noise power")],
    ids=["nv_zero", "snr_underflow"],
)
def test_cli_reports_a_rejected_config_in_one_line(flag, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--experiment", "rmse_vs_snr", "--trials", "1",
                  "--out", str(out)] + flag)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"svamsim: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("scale", [0.0, -1.0, math.nan, math.inf])
def test_every_alignment_kind_rejects_a_bad_noise_scale(scale, tmp_path, capsys):
    # noise_mismatch checks every scale it sweeps; the other kinds read no
    # scale and reject any but the default. align runs a noise_mismatch
    # point, so its scale is checked too
    for kind in EXPERIMENT_KINDS:
        if kind == "crb_sweep":
            continue
        message = (
            "noise scale must be positive" if kind == "noise_mismatch"
            else f"{kind} does not read noise_scale"
        )
        with pytest.raises(ValueError, match=message):
            tiny_config(experiment=kind, noise_scale=(scale,))
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(
            ["align", "--trials", "1", f"--noise-scale={scale}", "--out", str(out)]
        )
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"svamsim: error: noise scale must be positive and finite, got {scale}\n"
    )
    assert not out.exists()


UNREAD_VALUES = dict(
    trials=9, seed=1, p_thresh=(0.3,), noise_scale=(0.5,), codebook="hierarchical"
)


@pytest.mark.parametrize(
    "kind, name",
    [(kind, name) for kind, names in UNREAD_SETTINGS.items() for name in names],
)
def test_a_setting_the_kind_never_reads_is_rejected(kind, name):
    # such a value used to be accepted and ignored: the CSV came out the
    # same as with the default
    with pytest.raises(ValueError, match=f"^{kind} does not read {name}: "):
        tiny_config(experiment=kind, **{name: UNREAD_VALUES[name]})
    default = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    tiny_config(experiment=kind, **{name: default[name]})


def test_every_setting_is_read_by_some_kind():
    assert set(UNREAD_SETTINGS) == set(EXPERIMENT_KINDS)
    assert set.intersection(*map(set, UNREAD_SETTINGS.values())) == set()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--experiment", "rmse_vs_snr", "--noise-scale", "0.5"],
         "rmse_vs_snr does not read noise_scale: (0.5,)"),
        (["--experiment", "crb_sweep", "--p-thresh", "0.3", "--noise-scale", "7",
          "--codebook", "hierarchical", "--trials", "9"],
         "crb_sweep does not read trials: 9"),
    ],
    ids=["noise_scale", "crb_trial_settings"],
)
def test_cli_sweep_rejects_an_unread_setting_in_one_line(
    argv, message, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--out", str(out)] + argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"svamsim: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("noise_scale = 0.5\n", [], "rmse_vs_snr does not read noise_scale: (0.5,)"),
        ("n_v = 7\n", [], "block size 7 must divide 120 snapshots"),
        ("n_v = 4\ntrials = 2\n", ["--nv", "7", "--trials", "3"],
         "block size 7 must divide 120 snapshots "
         "(command-line flags override n_v, trials)"),
    ],
    ids=["unread_value", "bad_block", "flag_override"],
)
def test_cli_names_the_config_file_of_a_rejected_value(
    text, flags, message, tmp_path, capsys
):
    path = tmp_path / "f.cfg"
    path.write_text("experiment = rmse_vs_snr\n" + text)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--config", str(path), "--out", str(out)] + flags)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"svamsim: error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("problem", ["missing", "directory", "not_utf8"])
def test_cli_reports_an_unreadable_config_file_in_one_line(
    problem, tmp_path, capsys
):
    path = tmp_path / "exp.cfg"
    reason = {"missing": "No such file or directory", "directory": "Is a directory"}
    if problem == "directory":
        path.mkdir()
    elif problem == "not_utf8":
        path.write_bytes(b"experiment = rmse_vs_snr\nroi = 0,\xff1\n")
        reason["not_utf8"] = "'utf-8' codec can't decode byte 0xff"
    with pytest.raises(SystemExit) as exc:
        cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"svamsim: error: {path}: {reason[problem]}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("with_file", [True, False], ids=["file", "no_file"])
def test_cli_sweep_without_an_experiment_kind_exits_in_one_line(
    with_file, tmp_path, capsys
):
    argv = ["sweep", "--trials", "1", "--out", str(tmp_path / "x.csv")]
    if with_file:
        cfgfile = tmp_path / "nokind.cfg"
        cfgfile.write_text("snr_db = 0\n")
        argv += ["--config", str(cfgfile)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("svamsim: error: ") and err.count("\n") == 1
    assert "experiment" in err
    assert not (tmp_path / "x.csv").exists()


def test_cli_run_fault_keeps_its_traceback(monkeypatch, tmp_path):
    # only a rejected configuration exits 2; a ValueError raised while an
    # accepted one runs is a fault and propagates (exit status 1)
    def broken(config):
        raise ValueError("fault inside the run")

    monkeypatch.setattr("svamsim.cli.run_experiment", broken)
    with pytest.raises(ValueError, match="fault inside the run"):
        cli_main(["sweep", "--experiment", "rmse_vs_snr", "--trials", "1",
                  "--out", str(tmp_path / "x.csv")])


def test_cli_codebook_reports_a_rejected_design_in_one_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["codebook", "--depth", "-1", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "svamsim: error: depth must be nonnegative, got -1\n"
    )


def test_cli_sweep_with_config_file(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "experiment = gain_over_time\nn = 16\nn_v = 4\ngrid_size = 16\n"
        "total_snapshots = 16\ntrials = 2\nsnr_db = 0\np_thresh = 0.6\n"
    )
    out = tmp_path / "gain.csv"
    code = cli_main(
        ["sweep", "--experiment", "gain_over_time",
         "--config", str(cfgfile), "--out", str(out)]
    )
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12


def test_cli_crb_and_codebook(tmp_path):
    crb_out = tmp_path / "crb.csv"
    code = cli_main(
        ["crb", "--scheme", "unknown-alpha", "--n", "16", "--nv", "2",
         "--snapshots", "4", "--grid", "8", "--snr-db", "0",
         "--out", str(crb_out)]
    )
    assert code == 0
    with open(crb_out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8 and rows[0]["scheme"] == "unknown-alpha"

    book_out = tmp_path / "book.csv"
    code = cli_main(
        ["codebook", "--depth", "3", "--m", "13", "--out", str(book_out)]
    )
    assert code == 0
    with open(book_out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15  # 1 + 2 + 4 + 8 nodes
    assert rows[0]["beamwidth"] == "1"


@pytest.mark.parametrize(
    "flag", [["--trials", "5"], ["--seed", "1"], ["--p-thresh", "0.6"],
             ["--noise-scale", "0.5"], ["--codebook", "flexible"]],
    ids=["trials", "seed", "p_thresh", "noise_scale", "codebook"],
)
def test_cli_crb_rejects_flags_the_table_does_not_read(flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli_main(["crb", "--scheme", "svam", "--out", str(tmp_path / "x.csv")] + flag)
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_cli_crb_reads_config_file(tmp_path):
    # the file's experiment is replaced, and each axis gives its first value
    cfgfile = tmp_path / "crb.cfg"
    cfgfile.write_text(
        "experiment = rmse_vs_snr\nn = 16\nn_v = 2, 4\ngrid_size = 8\n"
        "total_snapshots = 8\nsnr_db = 0, 5\nroi = 0.25, 0.75\n"
    )
    from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
    assert cli_main(
        ["crb", "--scheme", "svam", "--config", str(cfgfile), "--out", str(from_file)]
    ) == 0
    assert cli_main(
        ["crb", "--scheme", "svam", "--n", "16", "--nv", "2", "--snapshots", "8",
         "--grid", "8", "--snr-db", "0", "--roi", "0.25,0.75",
         "--out", str(from_flags)]
    ) == 0
    assert from_file.read_bytes() == from_flags.read_bytes()
