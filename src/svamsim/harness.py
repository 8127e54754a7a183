"""Seeded Monte Carlo experiment drivers, metrics, and CSV emission.

Conventions (not physics, just bookkeeping): the transmit power is 1 and
the path gain has unit magnitude with phase uniform on [0, 2pi), so the
per-antenna SNR in dB maps to the noise power as sigma^2 = 10^(-SNR/10)
exactly. True angles are drawn uniformly from the candidate grid, so a
perfect run has zero error. Per-trial generators are spawned from the
experiment seed keyed by trial index alone; shrinking or growing the
trial count never changes earlier trials, and paired comparisons across
sweep points see identical channel realizations.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .adaptive import (
    CODEBOOK_MODES,
    AdaptConfig,
    TrialRecord,
    run_alignment,
    run_hiepm_known_alpha,
)
from .arrays import AngularGrid, RegionOfInterest
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
from .sensing import SvamConfig, block_combiners

EXPERIMENT_KINDS = (
    "rmse_vs_snr",
    "rmse_vs_snapshots",
    "gain_over_time",
    "noise_mismatch",
    "codebook_compare",
    "crb_sweep",
)

CRB_SCHEMES = ("general", "benchmark", "svam", "unknown-alpha")

CSV_COLUMNS = (
    "experiment",
    "snr_db",
    "n_v",
    "p_thresh",
    "noise_scale",
    "t",
    "trial_count",
    "metric_name",
    "value",
)


def u_from_theta(theta: float) -> float:
    """Electrical angle for a physical direction of arrival in radians."""
    if not -math.pi / 2 <= theta < math.pi / 2:
        raise ValueError("physical angle must lie in [-pi/2, pi/2)")
    return math.sin(theta)


def theta_from_u(u: float) -> float:
    return math.asin(u)


def noise_variance_from_snr(snr_db: float) -> float:
    """Per-antenna noise power for unit signal power; +inf SNR means none.

    NaN and -inf dB have no such power and are rejected.
    """
    if math.isnan(snr_db) or snr_db == -math.inf:
        raise ValueError(f"SNR must be finite or +inf dB, got {snr_db}")
    if snr_db == math.inf:
        return 0.0
    return 10.0 ** (-snr_db / 10.0)


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
        for name in ("trials", "seed"):
            value = getattr(self, name)
            # a bool is an Integral too, but trials=True is no trial count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.seed < 0:  # the per-trial seed sequences take no negative seed
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for axis in ("n_v", "snr_db", "p_thresh", "noise_scale"):
            if len(getattr(self, axis)) == 0:
                raise ValueError(f"sweep axis {axis} is empty")
        for snr in self.snr_db:
            noise_variance_from_snr(snr)
        # check every sweep point now so a bad one fails here, not after
        # the points before it have run: a bound point with the bound
        # dispatch's checks, an alignment point by building its AdaptConfig
        if self.experiment == "crb_sweep":
            AngularGrid(self.roi, self.grid_size)  # rejects an empty grid
            for snr, n_v in itertools.product(self.snr_db, self.n_v):
                _bound_noise_variance(self.n, n_v, self.total_snapshots, snr)
        else:
            for _ in self.sweep_points():
                pass

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


@dataclass(frozen=True)
class MetricRow:
    """One CSV record: sweep coordinates plus a named metric value.

    Coordinates that do not apply to a metric are None and serialize to
    empty cells; infinite values serialize to the literal token inf.
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


def trial_generator(seed: int, trial: int) -> np.random.Generator:
    """Independent per-trial stream; depends on (seed, trial) only."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


def draw_channel(
    grid: AngularGrid, snr_db: float, rng: np.random.Generator
) -> ChannelParams:
    """Single-path channel for one trial: on-grid angle, unit-modulus gain."""
    u_true = float(grid.points[int(rng.integers(grid.size))])
    alpha = np.exp(2j * np.pi * rng.uniform())
    return ChannelParams.single_path(
        alpha, u_true, power=1.0, noise_variance=noise_variance_from_snr(snr_db)
    )


def _draw_trials(
    config: AdaptConfig, snr_db: float, trials: int, seed: int
) -> tuple[list[np.random.Generator], list[ChannelParams]]:
    """Each trial's generator and the channel it draws first."""
    grid = AngularGrid(config.roi, config.grid_size)
    rngs = [trial_generator(seed, trial) for trial in range(trials)]
    return rngs, [draw_channel(grid, snr_db, rng) for rng in rngs]


def run_adaptive_trials(
    config: AdaptConfig,
    snr_db: float,
    trials: int,
    seed: int,
    codebook: HierarchicalCodebook | None = None,
) -> list[TrialRecord]:
    """All trials of one sweep point, advanced together by run_alignment."""
    rngs, channels = _draw_trials(config, snr_db, trials, seed)
    return run_alignment(config, channels, rngs, codebook=codebook)


def run_hiepm_trials(
    config: AdaptConfig,
    snr_db: float,
    trials: int,
    seed: int,
    codebook: HierarchicalCodebook,
    mode: str = "svam",
) -> list[TrialRecord]:
    """All trials of one known-gain scheme, advanced together by
    run_hiepm_known_alpha."""
    rngs, channels = _draw_trials(config, snr_db, trials, seed)
    return run_hiepm_known_alpha(config, channels, rngs, codebook, mode=mode)


def rmse(estimates, truths) -> float:
    estimates = np.asarray(estimates, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if estimates.shape != truths.shape or estimates.ndim != 1 or len(estimates) == 0:
        raise ValueError("need equally many estimates and truths, at least one pair")
    return float(np.sqrt(np.mean((estimates - truths) ** 2)))


def records_rmse(records: list[TrialRecord]) -> float:
    return rmse([r.estimate for r in records], [r.true_angle for r in records])


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


def _final_rmse(records: list[TrialRecord], grid: AngularGrid):
    yield None, "rmse", records_rmse(records)


def _segment_rmse(records: list[TrialRecord], grid: AngularGrid):
    truths = [r.true_angle for r in records]
    for t in range(len(records[0].segments)):
        ests = [grid.points[r.segments[t].mode_index] for r in records]
        yield t, "rmse", rmse(ests, truths)


def _gain_stats(records: list[TrialRecord], grid: AngularGrid):
    for t in range(len(records[0].segments)):
        gains = [r.segments[t].gain_at_truth for r in records]
        yield t, "mean_gain_db", _db(float(np.mean(gains)))
        yield t, "min_gain_db", _db(float(np.min(gains)))
        yield t, "max_gain_db", _db(float(np.max(gains)))


# per alignment experiment: records of one sweep point -> (t, metric, value)
_REDUCERS = {
    "rmse_vs_snr": _final_rmse,
    "rmse_vs_snapshots": _segment_rmse,
    "gain_over_time": _gain_stats,
    "noise_mismatch": _final_rmse,
    "codebook_compare": _final_rmse,
}


def _adaptive_rows(config: ExperimentConfig) -> list[MetricRow]:
    reduce = _REDUCERS[config.experiment]
    grid = AngularGrid(config.roi, config.grid_size)
    rows = []
    for (snr, n_v, p, scale, book), adapt in config.sweep_points():
        records = run_adaptive_trials(adapt, snr, config.trials, config.seed)
        for t, name, value in reduce(records, grid):
            rows.append(
                MetricRow(
                    config.experiment, snr, n_v, p, scale, t, config.trials,
                    name if book is None else f"{name}_{book}", value,
                )
            )
    return rows


def region_beam_bank(beam: BeamSpec, taps: int, segments: int) -> np.ndarray:
    """Non-adaptive bank: one designed beam repeated for every segment."""
    f = design_beamformer(beam, taps)
    return np.tile(f.weights[:, None], (1, segments))


def expanded_combiners(bank: np.ndarray, n: int, n_v: int) -> np.ndarray:
    """Full N x L combiner matrix from a per-segment sub-aperture bank."""
    cfg = SvamConfig(n=n, n_v=n_v)
    blocks = [block_combiners(column, cfg) for column in bank.T]
    # C order, as the bound products expect: the bounds cancel digits, and
    # BLAS rounds a Fortran-ordered matrix differently
    return np.ascontiguousarray(np.concatenate(blocks).T)


def _bound_noise_variance(
    n: int, n_v: int, total_snapshots: int, snr_db: float
) -> float:
    """Check the sizes and SNR of one bound point; its noise variance."""
    SvamConfig(n=n, n_v=n_v)  # rejects n_v < 1 and a block beyond the aperture
    if total_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if total_snapshots % n_v:
        raise ValueError(f"block size {n_v} must divide {total_snapshots} snapshots")
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
    beam: BeamSpec | None = None,
) -> tuple[np.ndarray, list[CrbResult]]:
    """The scheme's repeated-beam bank and its bound at every grid point,
    from one bound call over the whole grid.

    The bank is designed once: full-aperture taps for benchmark,
    sub-aperture taps otherwise. general and unknown-alpha work on the
    sliding combiners, expanded once to N x L; svam and benchmark need no
    expansion. The beam defaults to one covering the grid's region.
    """
    if scheme not in CRB_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    noise_var = _bound_noise_variance(n, n_v, total_snapshots, snr_db)
    if beam is None:
        beam = BeamSpec(grid.roi.center, grid.roi.width)
    m = n if scheme == "benchmark" else SvamConfig(n=n, n_v=n_v).combiner_length
    bank = region_beam_bank(beam, m, total_snapshots // n_v)
    if scheme == "svam":
        bounds = crb_svam(bank, n_v, grid.points, 1.0, 1.0, noise_var)
    elif scheme == "benchmark":
        bounds = crb_benchmark(bank, n_v, grid.points, 1.0, 1.0, noise_var)
    else:
        w = expanded_combiners(bank, n, n_v)
        bound = crb_general if scheme == "general" else crb_unknown_alpha
        bounds = bound(w, grid.points, 1.0, 1.0, noise_var)
    return bank, bounds


# crb_sweep's schemes in the order each grid point's rows are written
_SWEEP_SCHEMES = ("svam", "benchmark", "unknown-alpha")


def _crb_rows(config: ExperimentConfig) -> list[MetricRow]:
    grid = AngularGrid(config.roi, config.grid_size)
    rows = []
    for snr, n_v in itertools.product(config.snr_db, config.n_v):
        columns = [
            _scheme_bounds(scheme, config.n, n_v, config.total_snapshots, grid, snr)[1]
            for scheme in _SWEEP_SCHEMES
        ]
        for i, point in enumerate(zip(*columns)):
            for scheme, res in zip(_SWEEP_SCHEMES, point):
                rows.append(
                    MetricRow(
                        config.experiment, snr, n_v, None, None, i, 0,
                        "crb_" + scheme.replace("-", "_"), res.bound,
                    )
                )
    return rows


def run_experiment(config: ExperimentConfig) -> list[MetricRow]:
    """Run every sweep point of the configured study and aggregate metrics."""
    if config.experiment == "crb_sweep":
        return _crb_rows(config)
    return _adaptive_rows(config)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _write_csv(path: str, what: str, header, records) -> None:
    """The one CSV writer: a header, then each record's cells through _cell."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_cell(v) for v in record] for record in records)
    except OSError as exc:
        raise OSError(f"cannot write {what} CSV to {path!r}: {exc}") from exc


def emit_csv(rows: list[MetricRow], path: str) -> None:
    """Write metric rows with a fixed column order and 12-digit floats."""
    _write_csv(
        path, "metrics", CSV_COLUMNS,
        ([getattr(row, col) for col in CSV_COLUMNS] for row in rows),
    )


def write_trajectories(records: list[TrialRecord], path: str) -> None:
    """Per-segment trace of each trial: beam, gain at truth, confidence."""
    header = [
        "trial", "true_angle", "t", "beam_direction", "beamwidth",
        "gain_db_at_truth", "peak_prob", "mode_index", "estimate",
    ]
    _write_csv(
        path, "trajectory", header,
        (
            [
                rec.trial_index, rec.true_angle, t, seg.beam.direction,
                seg.beam.beamwidth, _db(seg.gain_at_truth), seg.peak_prob,
                seg.mode_index, rec.estimate,
            ]
            for rec in records
            for t, seg in enumerate(rec.segments)
        ),
    )


def crb_table(
    scheme: str,
    n: int,
    n_v: int,
    total_snapshots: int,
    grid: AngularGrid,
    snr_db: float,
    beam: BeamSpec | None = None,
) -> list[dict]:
    """Bound sweep over the grid for one scheme and a fixed (repeated) beam.

    general expands the sliding combiners explicitly and must match svam;
    benchmark repeats a full-aperture beam; unknown-alpha drops the
    known-gain assumption on the expanded combiners. svam rows add the
    virtual-aperture gain term and its nonnegativity certificate.
    """
    bank, bounds = _scheme_bounds(scheme, n, n_v, total_snapshots, grid, snr_db, beam)
    if scheme == "svam":
        holds = [h for h, _, _ in gain_condition_sufficient(bank, grid.points)]
    else:
        holds = [None] * len(grid)
    return [
        {
            "u": u,
            "N": n,
            "N_v": n_v,
            "L": total_snapshots,
            "scheme": scheme,
            "bound": res.bound,
            "g_term": res.gain_term,
            "condition_holds": h,
        }
        for u, res, h in zip(map(float, grid.points), bounds, holds)
    ]


def write_crb_csv(rows: list[dict], path: str) -> None:
    columns = ["u", "N", "N_v", "L", "scheme", "bound", "g_term", "condition_holds"]
    _write_csv(path, "CRB", columns, ([row[col] for col in columns] for row in rows))


def write_codebook(book: HierarchicalCodebook, path: str) -> None:
    """Every node of a dyadic codebook: span, beam, design method and taps."""

    def records():
        for level in book.levels:
            for node in level:
                beam = node.beamformer
                taps = " ".join(f"{w.real:.12g}{w.imag:+.12g}j" for w in beam.weights)
                yield [
                    node.level, node.index, *node.span, beam.spec.direction,
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
    offending path:line.
    """
    kwargs: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                kwargs[key] = CONFIG_KEYS[key].parse(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad {key} {value!r}: {exc}") from exc
    return kwargs


def config_from_file(path: str, **overrides) -> ExperimentConfig:
    kwargs = parse_config_file(path)
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**kwargs)
