"""Command-line front end: alignment runs, metric sweeps, bound tables,
and codebook export, all emitting CSV artifacts."""

from __future__ import annotations

import argparse
import sys

from .arrays import AngularGrid, RegionOfInterest
from .beams import HierarchicalCodebook, build_hierarchical_codebook
from .harness import (
    CONFIG_KEYS,
    CRB_SCHEMES,
    EXPERIMENT_KINDS,
    UNREAD_SETTINGS,
    ExperimentConfig,
    MetricRow,
    config_from_file,
    crb_table,
    emit_csv,
    records_rmse,
    run_adaptive_trials,
    run_experiment,
    write_codebook,
    write_crb_csv,
    write_trajectories,
)

_parse_roi = CONFIG_KEYS["roi"].parse

# the config keys the bound table reads; crb registers no flag for the others
_CRB_KEYS = tuple(k for k in CONFIG_KEYS if k not in UNREAD_SETTINGS["crb_sweep"])


def _base_config(args) -> ExperimentConfig:
    overrides = {key: getattr(args, key, None) for key in CONFIG_KEYS}
    if args.config:
        return config_from_file(args.config, **overrides)
    if args.experiment is None:  # only sweep leaves the kind to the user
        raise ValueError("need --experiment or a --config that sets experiment")
    return ExperimentConfig(**{k: v for k, v in overrides.items() if v is not None})


def _add_common(
    parser: argparse.ArgumentParser, names: tuple[str, ...] = tuple(CONFIG_KEYS)
) -> None:
    """--config plus one flag per named config key; the command fixes
    experiment."""
    parser.add_argument("--config", help="key = value settings file")
    for name in names:
        if name == "experiment":
            continue
        key = CONFIG_KEYS[name]
        parser.add_argument(
            key.flag or "--" + name.replace("_", "-"),
            dest=name, type=key.parse, choices=key.choices, help=key.help,
        )


def _cmd_align(args, config: ExperimentConfig) -> int:
    # one operating point: the first noise_mismatch point (it reads every setting)
    (snr, n_v, p, scale, _), adapt = next(config.sweep_points())
    outcome = run_adaptive_trials(adapt, snr, config.trials, config.seed)
    row = MetricRow(
        "rmse_vs_snr", snr, n_v, p, scale, None, config.trials, "rmse",
        records_rmse(outcome),
    )
    out = config.out or "align_metrics.csv"
    emit_csv([row], out)
    print(f"rmse {row.value:.6g} over {config.trials} trials -> {out}")
    if args.trajectories:
        write_trajectories(outcome, args.trajectories)
        print(f"trajectories -> {args.trajectories}")
    return 0


def _cmd_sweep(args, config: ExperimentConfig) -> int:
    rows = run_experiment(config)
    out = config.out or f"{config.experiment}.csv"
    emit_csv(rows, out)
    print(f"{len(rows)} rows -> {out}")
    return 0


def _cmd_crb(args, config: ExperimentConfig) -> int:
    # like align: first value of every sweep axis
    grid = AngularGrid(config.roi, config.grid_size)
    rows = crb_table(
        args.scheme, config.n, config.n_v[0], config.total_snapshots, grid,
        config.snr_db[0],
    )
    out = config.out or "crb.csv"
    write_crb_csv(rows, out)
    print(f"{len(rows)} rows -> {out}")
    return 0


def _design_codebook(args) -> HierarchicalCodebook:
    return build_hierarchical_codebook(args.roi, args.depth, args.m)


def _cmd_codebook(args, book: HierarchicalCodebook) -> int:
    out = args.out or "codebook.csv"
    write_codebook(book, out)
    print(f"{len(book.beams)} beams -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svamsim",
        description="Sliding sub-aperture beam alignment simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser(
        "align",
        help="Monte Carlo alignment at one setting",
        description="Monte Carlo alignment at one setting. Only the first value "
        "of each sweep axis (--nv, --snr-db, --p-thresh, --noise-scale) is read.",
    )
    _add_common(p_align)
    p_align.add_argument("--trajectories", help="per-segment trace CSV path")
    p_align.set_defaults(
        experiment="noise_mismatch", setup=_base_config, run=_cmd_align
    )

    p_sweep = sub.add_parser("sweep", help="full experiment sweep to CSV")
    p_sweep.add_argument(
        "--experiment", choices=EXPERIMENT_KINDS, help="experiment kind, or --config's"
    )
    _add_common(p_sweep)
    p_sweep.set_defaults(setup=_base_config, run=_cmd_sweep)

    p_crb = sub.add_parser(
        "crb",
        help="estimation bound table over the grid",
        description="Estimation bound table over the grid. Only the first value "
        "of --nv and --snr-db is read.",
    )
    p_crb.add_argument("--scheme", required=True, choices=CRB_SCHEMES)
    _add_common(p_crb, _CRB_KEYS)
    p_crb.set_defaults(experiment="crb_sweep", setup=_base_config, run=_cmd_crb)

    p_book = sub.add_parser("codebook", help="export a dyadic beam codebook")
    p_book.add_argument("--depth", type=int, required=True)
    p_book.add_argument("--m", type=int, default=61, help="taps per beam")
    p_book.add_argument("--roi", type=_parse_roi, default=RegionOfInterest(0.0, 1.0))
    p_book.add_argument("--out")
    p_book.set_defaults(setup=_design_codebook, run=_cmd_codebook)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        setup = args.setup(args)
    except ValueError as exc:
        # a configuration the library rejects ends like a bad flag: one
        # line on stderr and exit status 2, not a traceback; a fault while
        # the command runs keeps its traceback and exit status 1
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    return args.run(args, setup)


if __name__ == "__main__":
    sys.exit(main())
