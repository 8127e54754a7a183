"""The benchmark's three workloads, driven through svamsim's public API.

Importing this module imports the package, so a fresh process that imports
it pays the same start-up cost as the ``svamsim`` console script.

One repetition of a workload does what one CLI invocation does: it runs the
experiment from a cold beam-design cache and writes its CSV. ``units`` is the
work in one repetition: trials for ``align`` and ``hiepm``, emitted bound
values (bound points) for ``crb``. Repetitions are kept to 1-2 s so that the
reference kernel timed around each one tracks the host's speed.

- ``align``: the ``codebook_compare`` sweep at criterion 11's operating points
  (N=64, n_v=4, L=120, grid 64, p_thresh 0.6, SNR -15..0 dB), 25 trials per
  controller and SNR. The whole unknown-gain loop runs; the flexible half
  designs a beam every block, so the beam-design layer and its cache show here.
- ``hiepm``: criterion 07's known-gain scheme table (N=64, grid 64, L=60,
  -10 dB), 25 trials per scheme: the every-snapshot baseline, ``repeat`` at
  n_v=2 and sliding at n_v in {2, 3, 4, 5, 10, 15}. The per-snapshot Bayes
  update and posterior matching dominate; codebooks are built during set-up,
  so beam design and the measurement history are bypassed.
- ``crb``: the ``crb_sweep`` experiment plus ``crb_table`` for all four schemes
  at n_v in {1, 2, 4, 8} on a 128-point grid. Deterministic: it draws no random
  numbers, so its output does not depend on the seed.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from svamsim import arrays, beams, harness
from svamsim.adaptive import AdaptConfig
from svamsim.arrays import RegionOfInterest
from tracer import package_modules

ROI = RegionOfInterest(0.0, 1.0)


def clear_caches() -> None:
    """Empty every functools cache in the package, as a fresh process has."""
    for mod in package_modules():
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def _read_rows(blob: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(blob.decode("ascii"))))


def _number(cell: str) -> float:
    value = float(cell)
    if math.isnan(value):
        raise ValueError("NaN value")
    return value


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _check_metric_csv(
    blob: bytes, expected: list[tuple[str, ...]], value_ok
) -> list[str]:
    """Check an ``emit_csv`` file against its expected coordinate columns.

    expected holds, per row, the first eight cells (everything but the value);
    value_ok(row_index, value) says whether the value is acceptable.
    """
    rows = _read_rows(blob)
    if not rows or tuple(rows[0]) != harness.CSV_COLUMNS:
        return ["metrics CSV header differs from harness.CSV_COLUMNS"]
    body = rows[1:]
    if len(body) != len(expected):
        return [f"metrics CSV has {len(body)} rows, expected {len(expected)}"]
    problems = []
    for i, (row, want) in enumerate(zip(body, expected)):
        if tuple(row[:-1]) != want:
            problems.append(f"row {i}: coordinates {row[:-1]} != {list(want)}")
            continue
        try:
            value = _number(row[-1])
        except ValueError:
            problems.append(f"row {i}: value {row[-1]!r} is not a number")
            continue
        if not value_ok(i, value):
            problems.append(f"row {i}: value {row[-1]} out of range")
    return problems[:10]


def _is_rmse(_: int, value: float) -> bool:
    # estimates and truths both lie in the region [0, 1)
    return 0.0 <= value <= 1.0


class Align:
    name = "align"
    unit = "trial"
    seeded = True
    snr_db = (-15.0, -10.0, -5.0, 0.0)
    modes = ("flexible", "hierarchical")
    default_trials = 25

    def __init__(self, seed: int, trials: int | None = None):
        self.seed = seed
        self.default_size = trials is None
        self.trials = self.default_trials if trials is None else trials
        self.config = harness.ExperimentConfig(
            experiment="codebook_compare",
            n=64,
            n_v=(4,),
            grid_size=64,
            total_snapshots=120,
            trials=self.trials,
            snr_db=self.snr_db,
            p_thresh=(0.6,),
            roi=ROI,
            seed=seed,
        )
        self.units = len(self.snr_db) * len(self.modes) * self.trials

    def run(self, out_dir: Path) -> list[Path]:
        path = out_dir / "align.csv"
        harness.emit_csv(harness.run_experiment(self.config), str(path))
        return [path]

    def check(self, blobs: list[bytes]) -> list[str]:
        expected = [
            ("codebook_compare", _g(snr), "4", "0.6", "", "", str(self.trials),
             f"rmse_{mode}")
            for snr in self.snr_db
            for mode in self.modes
        ]
        return _check_metric_csv(blobs[0], expected, _is_rmse)


class Hiepm:
    name = "hiepm"
    unit = "trial"
    seeded = True
    snr_db = -10.0
    # (row name, n_v, combining mode, taps per codeword)
    schemes = (
        ("baseline_1", 1, "svam", 64),
        ("repeat_2", 2, "repeat", 64),
        *((f"sliding_{k}", k, "svam", 65 - k) for k in (2, 3, 4, 5, 10, 15)),
    )
    default_trials = 25

    def __init__(self, seed: int, trials: int | None = None):
        self.seed = seed
        self.default_size = trials is None
        self.trials = self.default_trials if trials is None else trials
        self.configs = {
            name: AdaptConfig(
                n=64, n_v=n_v, total_snapshots=60, roi=ROI, grid_size=64,
                p_thresh=0.6, codebook="hierarchical",
            )
            for name, n_v, _, _ in self.schemes
        }
        self.books = {
            taps: beams.build_hierarchical_codebook(ROI, 6, taps, grid_size=64)
            for taps in sorted({taps for *_, taps in self.schemes})
        }
        self.units = len(self.schemes) * self.trials

    def run(self, out_dir: Path) -> list[Path]:
        rows = []
        for name, n_v, mode, taps in self.schemes:
            records = harness.run_hiepm_trials(
                self.configs[name], self.snr_db, self.trials, self.seed,
                self.books[taps], mode=mode,
            )
            rows.append(
                harness.MetricRow(
                    "hiepm_schemes", self.snr_db, n_v, None, None, None,
                    self.trials, f"rmse_{name}", harness.records_rmse(records),
                )
            )
        path = out_dir / "hiepm.csv"
        harness.emit_csv(rows, str(path))
        return [path]

    def check(self, blobs: list[bytes]) -> list[str]:
        expected = [
            ("hiepm_schemes", _g(self.snr_db), str(n_v), "", "", "",
             str(self.trials), f"rmse_{name}")
            for name, n_v, _, _ in self.schemes
        ]
        return _check_metric_csv(blobs[0], expected, _is_rmse)


class Crb:
    name = "crb"
    unit = "bound point"
    seeded = False
    n, total_snapshots, snr_db, grid_size = 64, 120, -10.0, 128
    n_v = (1, 2, 4, 8)
    sweep_metrics = ("crb_svam", "crb_benchmark", "crb_unknown_alpha")
    table_schemes = ("general", "benchmark", "svam", "unknown-alpha")
    table_columns = ["u", "N", "N_v", "L", "scheme", "bound", "g_term", "condition_holds"]

    def __init__(self, seed: int):
        self.seed = seed
        self.default_size = True
        self.config = harness.ExperimentConfig(
            experiment="crb_sweep",
            n=self.n,
            n_v=self.n_v,
            grid_size=self.grid_size,
            total_snapshots=self.total_snapshots,
            snr_db=(self.snr_db,),
            roi=ROI,
        )
        self.grid = arrays.AngularGrid(ROI, self.grid_size)
        self.units = self.grid_size * len(self.n_v) * (
            len(self.sweep_metrics) + len(self.table_schemes)
        )

    def run(self, out_dir: Path) -> list[Path]:
        sweep = out_dir / "crb_sweep.csv"
        harness.emit_csv(harness.run_experiment(self.config), str(sweep))
        rows = [
            row
            for scheme in self.table_schemes
            for n_v in self.n_v
            for row in harness.crb_table(
                scheme, self.n, n_v, self.total_snapshots, self.grid, self.snr_db
            )
        ]
        table = out_dir / "crb_table.csv"
        harness.write_crb_csv(rows, str(table))
        return [sweep, table]

    @staticmethod
    def _bound_ok(singular: bool, value: float) -> bool:
        # a single repeated combiner carries no angle information once the
        # gain is unknown: that bound is infinite, every other one finite
        return math.isinf(value) if singular else math.isfinite(value) and value > 0

    def check(self, blobs: list[bytes]) -> list[str]:
        expected, singular = [], []
        for n_v in self.n_v:
            for i in range(self.grid_size):
                for metric in self.sweep_metrics:
                    expected.append(
                        ("crb_sweep", _g(self.snr_db), str(n_v), "", "", str(i), "0",
                         metric)
                    )
                    singular.append(metric == "crb_unknown_alpha" and n_v == 1)
        problems = _check_metric_csv(
            blobs[0], expected, lambda i, v: self._bound_ok(singular[i], v)
        )
        return problems + self._check_table(blobs[1])

    def _check_table(self, blob: bytes) -> list[str]:
        rows = _read_rows(blob)
        if not rows or rows[0] != self.table_columns:
            return ["bound table header differs"]
        body = rows[1:]
        want = len(self.table_schemes) * len(self.n_v) * self.grid_size
        if len(body) != want:
            return [f"bound table has {len(body)} rows, expected {want}"]
        problems = []
        points = [_g(u) for u in self.grid.points]
        it = iter(body)
        for scheme in self.table_schemes:
            for n_v in self.n_v:
                for u in points:
                    row = next(it)
                    head = [u, str(self.n), str(n_v), str(self.total_snapshots), scheme]
                    if row[:5] != head:
                        problems.append(f"bound table row {row[:5]} != {head}")
                        continue
                    try:
                        bound = _number(row[5])
                        g_term = _number(row[6]) if row[6] else None
                    except ValueError:
                        problems.append(f"bound table row {row}: not a number")
                        continue
                    singular = scheme == "unknown-alpha" and n_v == 1
                    svam = scheme == "svam"
                    if not (
                        self._bound_ok(singular, bound)
                        and (g_term is not None) == svam
                        and (g_term is None or math.isfinite(g_term))
                        and (row[7] in ("true", "false")) == svam
                        and (svam or row[7] == "")
                    ):
                        problems.append(f"bound table row {row}: bad values")
        return problems[:10]


WORKLOADS = {cls.name: cls for cls in (Align, Hiepm, Crb)}
