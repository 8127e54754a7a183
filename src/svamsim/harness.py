"""Seeded Monte Carlo experiment drivers, metrics, and CSV emission.

Conventions (not physics, just bookkeeping): the received path gain
sqrt(P) * alpha has unit magnitude with phase uniform on [0, 2pi), so the
per-antenna SNR P|alpha|^2 / sigma^2 in dB maps to the noise power as
sigma^2 = 10^(-SNR/10) exactly. True angles are drawn uniformly from the
candidate grid, so a perfect run has zero error. Per-trial generators are
spawned from the experiment seed keyed by trial index alone; shrinking or
growing the trial count never changes earlier trials, and paired
comparisons across sweep points see identical channel realizations.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .adaptive import (
    CODEBOOK_MODES,
    AdaptConfig,
    Trials,
    check_blocks,
    run_alignment,
    run_hiepm_known_alpha,
)
from .arrays import AngularGrid, RegionOfInterest, check_integer, check_roi
from .beams import BeamSpec, HierarchicalCodebook, design_beamformer
from .channel import ChannelParams
from .crb import (
    CrbResult,
    crb_benchmark,
    crb_general,
    crb_svam,
    crb_unknown_alpha,
    gain_condition_sufficient,
)
from .sensing import _virtual_size, block_combiners

CRB_SCHEMES = ("general", "benchmark", "svam", "unknown-alpha")

# the columns of a crb_table row, in the order write_crb_csv writes them
CRB_COLUMNS = ("u", "N", "N_v", "L", "scheme", "bound", "g_term", "condition_holds")


def noise_variance_from_snr(snr_db: float) -> float:
    """Per-antenna noise power for a unit received gain; +inf SNR means none.

    NaN and -inf dB have no such power and are rejected, and so is a finite
    SNR so far out that its power overflows or underflows to zero.
    """
    if snr_db == math.inf:
        return 0.0
    try:
        noise_var = 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        noise_var = math.inf
    if not (0.0 < noise_var < math.inf):  # NaN compares false
        raise ValueError(f"SNR {snr_db} dB gives no positive finite noise power")
    return noise_var


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible experiment: a sweep grid plus fixed sizes and seed."""

    experiment: str
    n: int = 64
    n_v: tuple[int, ...] = (4,)
    grid_size: int = 64
    total_snapshots: int = 120
    trials: int = 100
    snr_db: tuple[float, ...] = (-10.0,)
    p_thresh: tuple[float, ...] = (0.6,)
    noise_scale: tuple[float, ...] = (1.0,)
    roi: RegionOfInterest = field(default_factory=lambda: RegionOfInterest(0.0, 1.0))
    seed: int = 0
    codebook: str = "flexible"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of "
                f"{', '.join(EXPERIMENT_KINDS)}"
            )
        for axis in ("n_v", "snr_db", "p_thresh", "noise_scale"):
            values = getattr(self, axis)
            if np.ndim(values) != 1:  # a scalar or a str is no axis
                raise ValueError(
                    f"sweep axis {axis} must be a sequence of values, got {values!r}"
                )
            if len(values) == 0:
                raise ValueError(f"sweep axis {axis} is empty")
        for name in ("n", "grid_size", "total_snapshots", "trials", "seed"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        object.__setattr__(
            self, "n_v", tuple(check_integer("n_v", n_v) for n_v in self.n_v)
        )
        check_roi(self.roi)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in UNREAD_SETTINGS[self.experiment] and value != f.default:
                raise ValueError(f"{self.experiment} does not read {f.name}: {value!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:  # the per-trial seed sequences take no negative seed
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        # check every sweep point now so a bad one fails here, not after the
        # points before it have run: a bound point with the bound dispatch's
        # checks, an alignment point by building its AdaptConfig and noise power
        if self.experiment == "crb_sweep":
            AngularGrid(self.roi, self.grid_size)  # rejects an empty grid
            for snr, n_v in itertools.product(self.snr_db, self.n_v):
                _bound_noise_variance(self.n, n_v, self.total_snapshots, snr)
        else:
            for (snr, *_), _ in self.sweep_points():
                noise_variance_from_snr(snr)

    def adapt(
        self,
        n_v: int,
        p_thresh: float,
        noise_scale: float = 1.0,
        codebook: str | None = None,
    ) -> AdaptConfig:
        return AdaptConfig(
            n=self.n,
            n_v=n_v,
            total_snapshots=self.total_snapshots,
            roi=self.roi,
            grid_size=self.grid_size,
            p_thresh=p_thresh,
            codebook=self.codebook if codebook is None else codebook,
            noise_scale=noise_scale,
        )

    def sweep_points(self) -> Iterator[tuple[tuple, AdaptConfig]]:
        """Every alignment sweep point in CSV row order.

        Yields ((snr_db, n_v, p_thresh, noise_scale, codebook), AdaptConfig).
        noise_mismatch adds the innermost noise_scale axis and
        codebook_compare the innermost codebook axis; an axis the experiment
        does not sweep is None in the coordinates.
        """
        scales = self.noise_scale if self.experiment == "noise_mismatch" else (None,)
        books = CODEBOOK_MODES if self.experiment == "codebook_compare" else (None,)
        for point in itertools.product(
            self.snr_db, self.n_v, self.p_thresh, scales, books
        ):
            _, n_v, p, scale, book = point
            yield point, self.adapt(n_v, p, 1.0 if scale is None else scale, book)


class MetricRow(NamedTuple):
    """One CSV record: sweep coordinates plus a named metric value.

    A tuple of its cells in CSV_COLUMNS order, which emit_csv writes as it
    is. Coordinates that do not apply to a metric are None and serialize
    to empty cells; infinite values serialize to the literal token inf.
    """

    experiment: str
    snr_db: float
    n_v: int
    p_thresh: float | None
    noise_scale: float | None
    t: int | None
    trial_count: int
    metric_name: str
    value: float


CSV_COLUMNS = MetricRow._fields


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream; depends on (seed, trial) only."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def draw_channel(
    grid: AngularGrid, snr_db: float, rng: np.random.Generator
) -> ChannelParams:
    """Single-path channel for one trial: on-grid angle, unit-modulus gain."""
    u_true = float(grid.points[int(rng.integers(grid.size))])
    alpha = np.exp(2j * np.pi * rng.uniform())
    return ChannelParams(alpha, u_true, noise_variance=noise_variance_from_snr(snr_db))


@lru_cache(maxsize=1)
def _trial_setup(
    roi: RegionOfInterest, grid_size: int, trials: int, seed: int
) -> tuple[tuple[ChannelParams, ...], tuple[tuple[type, dict], ...]]:
    """Each trial's noiseless path on the grid, drawn from
    trial_generator(seed, i), and the (bit-generator class, state) that
    generator is left in by the draw. Only the last trial set is kept: the
    schemes of a comparison, and a sweep's controller groups, run the same
    trials one after another."""
    grid = AngularGrid(roi, grid_size)
    paths, states = [], []
    for i in range(trials):
        rng = trial_generator(seed, i)
        paths.append(draw_channel(grid, math.inf, rng))
        states.append((type(rng.bit_generator), rng.bit_generator.state))
    return tuple(paths), tuple(states)


def _draw_trials(
    config: AdaptConfig, snrs: Sequence[float], trials: int, seed: int
) -> tuple[list[ChannelParams], list[np.random.Generator]]:
    """The channels and generators of every SNR's trials in batch order,
    SNR by SNR. Trial i has one generator, trial_generator(seed, i), and
    its row at every SNR holds that same object. The generator draws the
    trial's path first, as a lone run of any SNR draws it; each SNR's
    channel is that path with the SNR's noise variance. The rows then share
    the generator's one noise draw per run (channel.BatchNoise), so each
    trial's noise is drawn and held once, total_snapshots * 2 * n floats,
    not once per SNR. Equal arguments give generators in equal states, so
    the next scheme or controller on these trials reuses that draw.

    The paths and the generators' states after the path draw come from the
    last trial set's one set-up (_trial_setup); every call gets new
    generators set to those states, each built from one fixed seed sequence
    first, so no OS entropy is read and no generator is shared between
    calls."""
    paths, states = _trial_setup(config.roi, config.grid_size, trials, seed)
    fixed = np.random.SeedSequence(0)
    rngs = []
    for kind, state in states:
        bits = kind(fixed)
        bits.state = state
        rngs.append(np.random.Generator(bits))
    variances = [noise_variance_from_snr(snr) for snr in snrs]
    channels = [replace(path, noise_variance=v) for v in variances for path in paths]
    return channels, rngs * len(snrs)


def run_adaptive_trials(
    config: AdaptConfig,
    snr_db: float,
    trials: int,
    seed: int,
) -> Trials:
    """All trials of one sweep point, advanced together by run_alignment."""
    return run_alignment(config, *_draw_trials(config, [snr_db], trials, seed))


def run_hiepm_trials(
    config: AdaptConfig,
    snr_db: float,
    trials: int,
    seed: int,
    codebook: HierarchicalCodebook,
    mode: str = "svam",
) -> Trials:
    """All trials of one known-gain scheme, advanced together by
    run_hiepm_known_alpha. The codewords' taps set the combining; mode must
    name it: "svam" for n - n_v + 1 taps, "repeat" for n."""
    taps = codebook.beams[0].size
    if taps != {"svam": config.combiner_length, "repeat": config.n}.get(mode):
        raise ValueError(f"combining mode {mode!r} does not fit {taps}-tap codewords")
    channels, rngs = _draw_trials(config, [snr_db], trials, seed)
    return run_hiepm_known_alpha(config, channels, rngs, codebook)


def rmse(estimates, truths) -> float:
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape or estimates.ndim != 1 or len(estimates) == 0:
        raise ValueError("need equally many estimates and truths, at least one pair")
    return float(np.sqrt(np.mean((estimates - truths) ** 2)))


def records_rmse(trials: Trials) -> float:
    return rmse(trials.estimate, trials.true_angle)


def bootstrap_rmse_interval(
    squared_errors,
    resamples: int = 2000,
    confidence: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the RMSE of a trial batch."""
    sq = np.asarray(squared_errors, dtype=float)
    if sq.ndim != 1 or len(sq) == 0:
        raise ValueError("need a nonempty vector of squared errors")
    if not np.isfinite(sq).all():
        raise ValueError("squared errors must be finite")
    if check_integer("resamples", resamples) < 1:
        raise ValueError(f"need at least one resample, got {resamples}")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must lie in (0, 1)")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB007,)))
    idx = rng.integers(len(sq), size=(resamples, len(sq)))
    stats = np.sqrt(sq[idx].mean(axis=1))
    tail = 100.0 * (1.0 - confidence) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail])
    return float(lo), float(hi)


def _db(x: float) -> float:
    return 10.0 * math.log10(x) if x > 0 else -math.inf


def _final_rmse(trials: Trials, grid: AngularGrid):
    yield None, "rmse", records_rmse(trials)


def _segment_rmse(trials: Trials, grid: AngularGrid):
    for t, modes in enumerate(trials.mode_index.T):
        yield t, "rmse", rmse(grid.points[modes], trials.true_angle)


def _gain_stats(trials: Trials, grid: AngularGrid):
    for t, gains in enumerate(trials.gain_at_truth().T):
        yield t, "mean_gain_db", _db(float(np.mean(gains)))
        yield t, "min_gain_db", _db(float(np.min(gains)))
        yield t, "max_gain_db", _db(float(np.max(gains)))


# per alignment experiment: the trials of one sweep point -> (t, metric, value)
_REDUCERS = {
    "rmse_vs_snr": _final_rmse,
    "rmse_vs_snapshots": _segment_rmse,
    "gain_over_time": _gain_stats,
    "noise_mismatch": _final_rmse,
    "codebook_compare": _final_rmse,
}

EXPERIMENT_KINDS = (*_REDUCERS, "crb_sweep")

# the fields each kind never reads: ExperimentConfig rejects a non-default one
UNREAD_SETTINGS = {kind: ("noise_scale",) for kind in EXPERIMENT_KINDS} | {
    "noise_mismatch": (),
    "codebook_compare": ("noise_scale", "codebook"),  # runs both controllers
    "crb_sweep": ("trials", "seed", "p_thresh", "noise_scale", "codebook"),
}


def _adaptive_rows(config: ExperimentConfig) -> list[MetricRow]:
    """Metric rows of every alignment sweep point, in sweep order.

    Sweep points with equal AdaptConfigs differ only in SNR; all their
    trials run as one lockstep batch. Each point's row slice, the outcome a
    run of that point alone gives, is reduced into the point's own slot
    before the next batch runs, so a repeated SNR repeats its rows.
    """
    reduce = _REDUCERS[config.experiment]
    grid = AngularGrid(config.roi, config.grid_size)
    points = list(config.sweep_points())
    groups: dict[AdaptConfig, list[int]] = {}
    for position, (_, adapt) in enumerate(points):
        groups.setdefault(adapt, []).append(position)
    rows: list[list[MetricRow]] = [[] for _ in points]
    for adapt, positions in groups.items():
        snrs = [points[position][0][0] for position in positions]
        draws = _draw_trials(adapt, snrs, config.trials, config.seed)
        batch = run_alignment(adapt, *draws)
        for k, position in enumerate(positions):
            snr, n_v, p, scale, book = points[position][0]
            trials = batch[k * config.trials : (k + 1) * config.trials]
            rows[position] = [
                MetricRow(
                    config.experiment, snr, n_v, p, scale, t, config.trials,
                    name if book is None else f"{name}_{book}", value,
                )
                for t, name, value in reduce(trials, grid)
            ]
    return [row for point_rows in rows for row in point_rows]


def region_beam_bank(beam: BeamSpec, taps: int, segments: int) -> np.ndarray:
    """Non-adaptive bank: one designed beam repeated for every segment."""
    f = design_beamformer(beam, taps)
    return np.tile(f.weights[:, None], (1, segments))


def expanded_combiners(bank: np.ndarray, n: int) -> np.ndarray:
    """Full N x L combiner matrix from a per-segment sub-aperture bank."""
    n_v = _virtual_size(len(bank), n)
    blocks = block_combiners(bank.T, n, n_v)  # (L, n_v, n), one block per column
    # C order, as the bound products expect: the bounds cancel digits, and
    # BLAS rounds a Fortran-ordered matrix differently
    return np.ascontiguousarray(blocks.reshape(-1, n).T)


def _bound_noise_variance(
    n: int, n_v: int, total_snapshots: int, snr_db: float
) -> float:
    """Check the sizes and SNR of one bound point; its noise variance."""
    check_blocks(n, n_v, total_snapshots)
    noise_var = noise_variance_from_snr(snr_db)
    if noise_var <= 0:
        raise ValueError("noise variance must be positive for a finite bound")
    return noise_var


def _scheme_bounds(
    scheme: str,
    n: int,
    n_v: int,
    total_snapshots: int,
    grid: AngularGrid,
    snr_db: float,
) -> tuple[np.ndarray, CrbResult]:
    """The scheme's repeated-beam bank and its bounds at the grid points,
    from one bound call over the whole grid.

    The bank is designed once: full-aperture taps for benchmark,
    sub-aperture taps otherwise. general and unknown-alpha work on the
    sliding combiners, expanded once to N x L; svam and benchmark need no
    expansion. The beam covers the grid's region.
    """
    if scheme not in CRB_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    noise_var = _bound_noise_variance(n, n_v, total_snapshots, snr_db)
    beam = BeamSpec(grid.roi.center, grid.roi.width)
    m = n if scheme == "benchmark" else n - n_v + 1
    bank = region_beam_bank(beam, m, total_snapshots // n_v)
    if scheme == "svam":
        bounds = crb_svam(bank, n_v, grid.points, noise_var)
    elif scheme == "benchmark":
        bounds = crb_benchmark(bank, n_v, grid.points, noise_var)
    else:
        w = expanded_combiners(bank, n)
        bound = crb_general if scheme == "general" else crb_unknown_alpha
        bounds = bound(w, grid.points, noise_var)
    return bank, bounds


# crb_sweep's schemes in the order each grid point's rows are written
_SWEEP_SCHEMES = ("svam", "benchmark", "unknown-alpha")


def _crb_rows(config: ExperimentConfig) -> list[MetricRow]:
    grid = AngularGrid(config.roi, config.grid_size)
    rows = []
    for snr, n_v in itertools.product(config.snr_db, config.n_v):
        results = [
            _scheme_bounds(scheme, config.n, n_v, config.total_snapshots, grid, snr)[1]
            for scheme in _SWEEP_SCHEMES
        ]
        for i, point in enumerate(zip(*(res.bound.tolist() for res in results))):
            for scheme, bound in zip(_SWEEP_SCHEMES, point):
                rows.append(
                    MetricRow(
                        config.experiment, snr, n_v, None, None, i, 0,
                        "crb_" + scheme.replace("-", "_"), bound,
                    )
                )
    return rows


def run_experiment(config: ExperimentConfig) -> list[MetricRow]:
    """Run every sweep point of the configured study and aggregate metrics."""
    if config.experiment == "crb_sweep":
        return _crb_rows(config)
    return _adaptive_rows(config)


def _cell(value) -> str:
    """A CSV cell: empty for None, true/false for a bool (numpy's too),
    digits for an integer and 12 significant digits for anything else."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _float_text(value)


def _float_text(value) -> str:
    return "" if value is None else format(float(value), ".12g")


# cell types one formatter writes as _cell does: str, or 12 digits (None empty)
_TEXT_TYPES = {str, int, np.int64}
_FLOAT_TYPES = {float, np.float64, type(None)}


def _column_cells(column: tuple) -> list[str]:
    """Every cell of one column, through the one formatter its types need:
    str for integers and strings, 12 significant digits for floats (None
    empty), and _cell for any other mix. The first two format each
    distinct value once, except a zero: -0.0 == 0.0 would share a text."""
    types = set(map(type, column))
    if types <= _TEXT_TYPES:
        texts = {v: str(v) for v in set(column)}
        return [texts[v] for v in column]
    if types <= _FLOAT_TYPES:
        texts = {v: _float_text(v) for v in set(column)}
        return [texts[v] if v else _float_text(v) for v in column]
    return list(map(_cell, column))


def _write_csv(path: str, what: str, header, records) -> None:
    """The one CSV writer: a header, then the records, each column
    formatted in one pass with the bytes _cell gives each cell.

    Where no cell holds a comma, a quote or a line break and a row has two
    cells or more, csv.writer's minimal quoting quotes nothing, and the
    rows are joined as they are; any other file goes through csv.writer.
    """
    rows = [header, *zip(*map(_column_cells, zip(*records)))]
    text = "".join([",".join(row) + "\n" for row in rows])
    plain = (
        len(header) > 1
        and text.count(",") == len(rows) * (len(header) - 1)
        and text.count("\n") == len(rows)
        and '"' not in text
        and "\r" not in text
    )
    try:
        with open(path, "w", newline="") as fh:
            if plain:
                fh.write(text)
            else:
                csv.writer(fh, lineterminator="\n").writerows(rows)
    except OSError as exc:
        raise OSError(f"cannot write {what} CSV to {path!r}: {exc}") from exc


def emit_csv(rows: list[MetricRow], path: str) -> None:
    """Write metric rows with a fixed column order and 12-digit floats."""
    _write_csv(path, "metrics", CSV_COLUMNS, rows)


def write_trajectories(trials: Trials, path: str) -> None:
    """Per-segment trace of each trial: beam, gain at truth, confidence."""
    header = [
        "trial", "true_angle", "t", "beam_direction", "beamwidth",
        "gain_db_at_truth", "peak_prob", "mode_index", "estimate",
    ]
    gains = trials.gain_at_truth()
    _write_csv(
        path, "trajectory", header,
        (
            [
                i, trials.true_angle[i], t, beam.spec.direction, beam.spec.beamwidth,
                _db(gains[i, t]), trials.peak_prob[i, t], trials.mode_index[i, t],
                trials.estimate[i],
            ]
            for i, row in enumerate(trials.beams)
            for t, beam in enumerate(row)
        ),
    )


def crb_table(
    scheme: str,
    n: int,
    n_v: int,
    total_snapshots: int,
    grid: AngularGrid,
    snr_db: float,
) -> list[tuple]:
    """Bound sweep over the grid for one scheme and a fixed (repeated) beam
    covering the grid's region: one row per grid point, its cells in
    CRB_COLUMNS order.

    general expands the sliding combiners explicitly and must match svam;
    benchmark repeats a full-aperture beam; unknown-alpha drops the
    known-gain assumption on the expanded combiners. svam rows add the
    virtual-aperture gain term and its nonnegativity certificate; the
    other schemes leave both None.
    """
    bank, res = _scheme_bounds(scheme, n, n_v, total_snapshots, grid, snr_db)
    gains = holds = [None] * len(grid)
    if scheme == "svam":
        gains = res.gain_term.tolist()
        holds = gain_condition_sufficient(bank, grid.points)[0].tolist()
    columns = grid.points.tolist(), res.bound.tolist(), gains, holds
    return [
        (u, n, n_v, total_snapshots, scheme, bound, g, h)
        for u, bound, g, h in zip(*columns)
    ]


def write_crb_csv(rows: list[tuple], path: str) -> None:
    """Write crb_table rows, joined from any number of calls, under the
    CRB_COLUMNS header."""
    _write_csv(path, "CRB", CRB_COLUMNS, rows)


def write_codebook(book: HierarchicalCodebook, path: str) -> None:
    """Every node of a dyadic codebook: span, beam, design method and taps."""

    def records():
        for row, (beam, span) in enumerate(zip(book.beams, book.spans)):
            level = (row + 1).bit_length() - 1  # row 2**level - 1 + index
            taps = " ".join(f"{w.real:.12g}{w.imag:+.12g}j" for w in beam.weights)
            yield [
                level, row + 1 - 2**level, *span, beam.spec.direction,
                beam.spec.beamwidth, beam.method, taps,
            ]

    header = [
        "level", "index", "u_lo", "u_hi", "direction", "beamwidth", "method", "taps",
    ]
    _write_csv(path, "codebook", header, records())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _region(text: str) -> RegionOfInterest:
    left, right = (float(v) for v in text.split(","))
    return RegionOfInterest(left, right)


@dataclass(frozen=True)
class ConfigKey:
    """How one ExperimentConfig field is spelled and parsed as text.

    The config-file key is the field name; the command-line flag is
    --field-name with dashes unless flag spells it differently.
    """

    parse: Callable[[str], object]
    help: str
    flag: str | None = None
    choices: tuple[str, ...] | None = None


CONFIG_KEYS: dict[str, ConfigKey] = {
    "experiment": ConfigKey(str, "experiment kind"),
    "n": ConfigKey(int, "physical array size"),
    "n_v": ConfigKey(_int_list, "block sizes, comma separated", "--nv"),
    "grid_size": ConfigKey(int, "candidate grid size", "--grid"),
    "total_snapshots": ConfigKey(int, "training length", "--snapshots"),
    "trials": ConfigKey(int, "Monte Carlo realizations"),
    "snr_db": ConfigKey(
        _float_list, "SNR values in dB; spell negative lists as --snr-db=-10,-5"
    ),
    "p_thresh": ConfigKey(_float_list, "confidence thresholds"),
    "noise_scale": ConfigKey(_float_list, "inference noise multipliers"),
    "roi": ConfigKey(_region, "region as left,right"),
    "seed": ConfigKey(int, "experiment seed"),
    "codebook": ConfigKey(str, "beam controller", choices=CODEBOOK_MODES),
    "out": ConfigKey(str, "output CSV path"),
}


def parse_config_file(path: str) -> dict:
    """key = value experiment settings; '#' comments; lists comma-separated.

    Returns keyword arguments for ExperimentConfig. Every error names the
    path, and the offending line where there is one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    kwargs: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ValueError(
                f"{path}:{lineno}: repeated key {key!r}, "
                f"first set on line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            kwargs[key] = CONFIG_KEYS[key].parse(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {key} {value!r}: {exc}") from exc
    return kwargs


def config_from_file(path: str, **overrides) -> ExperimentConfig:
    """The file's settings under the overrides that are not None; a rejected
    configuration names the file and the keys the overrides replaced."""
    kwargs = parse_config_file(path)
    given = {k: v for k, v in overrides.items() if v is not None}
    replaced = ", ".join(k for k in kwargs if k in given)
    kwargs.update(given)
    if "experiment" not in kwargs:
        raise ValueError(f"{path}: no experiment kind set")
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        note = f" (command-line flags override {replaced})" if replaced else ""
        raise ValueError(f"{path}: {exc}{note}") from exc
