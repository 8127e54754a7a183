"""Byte-identity oracle: SHA-256 of every CSV artifact at tiny sizes.

The digests were recorded before the harness's sweep drivers, CSV writers
and config-key handling were merged into shared helpers. Any change that
alters a single byte of an experiment, trajectory, bound-table or codebook
CSV fails here; a change that must alter output on purpose re-records the
digests and says why.
"""

import hashlib

import pytest

from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim.cli import main as cli_main
from svamsim.harness import (
    UNREAD_SETTINGS,
    ExperimentConfig,
    crb_table,
    emit_csv,
    run_adaptive_trials,
    run_experiment,
    write_crb_csv,
    write_trajectories,
)

ROI = RegionOfInterest(0.0, 1.0)

# every sweep axis has two values so the row order of each kind is pinned;
# each kind is given only the settings it reads (see _settings)
SWEEP = dict(
    n=16,
    n_v=(2, 4),
    grid_size=16,
    total_snapshots=16,
    trials=3,
    snr_db=(-5.0, 5.0),
    p_thresh=(0.5, 0.7),
    noise_scale=(0.5, 2.0),
    roi=ROI,
    seed=7,
)

GOLDEN = {
    "rmse_vs_snr": (
        "44736b4ac770bba147a011a78d75db0e"
        "04ded45215de01d375fae161e875ebb5"
    ),
    "rmse_vs_snapshots": (
        "3b2c6ef2134947ad9673018dd7727f5b"
        "dafaade486b27284be6843f691f8a6aa"
    ),
    "gain_over_time": (
        "ce57ef0bb12be97026e35c18092f8ea4"
        "5758cc967061b031a77c327738a966fc"
    ),
    "noise_mismatch": (
        "f4dba7921c908dc865d4a80ee4a3938f"
        "10d31b2acff584a113d20828057a4626"
    ),
    "codebook_compare": (
        "e3301d9db0adc93add25c3fe8542d839"
        "7b9c32d9e3fb9c34cd5f7b434109b57a"
    ),
    "crb_sweep": (
        "f5726eb4a969cb1484d55a426677587c"
        "cd46f712aede636bb21820686db8ca25"
    ),
    "rmse_vs_snr_hierarchical": (
        "6957f3569363a2c0626e0361cbc3f1c5"
        "dfba913a73fdd38fdcc7601ceee4bf2b"
    ),
    "crb_general": (
        "333c39d71efdcf7eb28a20374002b8de"
        "2260e3665a07a5ccb0322695b9c6d5df"
    ),
    "crb_benchmark": (
        "e982fa6279b9a2de8733504449e2b875"
        "78f8b3258f05a0cb35f67bc774b0d3a3"
    ),
    "crb_svam": (
        "0e844ff4eb1e2ce92b1f4d830db3f05b"
        "c60aada75a769ac02b7187482a392ebb"
    ),
    "crb_unknown-alpha": (
        "78627d89a47bb89a5fd36ad57b88fc84"
        "8bef809d84794c238c8bf8cf23211e4d"
    ),
    "trajectories": (
        "1875e3d384467f1cd751ae2c8bb2f16b"
        "3b683a00a46aaed463fd13d42fd42027"
    ),
    "cli_align": (
        "07dde65a346bb9371a3bb8cf0d627cac"
        "96dc6192e4294631cbeb4bb7c3f63f5e"
    ),
    "cli_align_trajectories": (
        "95f31d570dc799afb9f5d3988af8fdaf"
        "4b5645461b3c662a3802316fd1347f6a"
    ),
    "cli_sweep_config": (
        "3e596f809701145bdb3e6c911a564e68"
        "43d1de1d3a41fa6cd98857b7860d9673"
    ),
    "cli_crb": (
        "0ca6d250efaeb2788c4394994e43dbde"
        "252c328d5054042b690a3b72f32436f2"
    ),
    "cli_codebook": (
        "c3f22ad6014c42a727dd2164ff4629dc"
        "799eb81df87b708afd9bb1975cf0efcc"
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _settings(kind) -> dict:
    """SWEEP without the settings the kind never reads, which it rejects.

    The digests were recorded while every kind was still handed all of
    SWEEP; that they still match shows the dropped values never mattered.
    """
    unread = UNREAD_SETTINGS[kind]
    return {k: v for k, v in SWEEP.items() if k not in unread} | {"experiment": kind}


def _experiment(kind, tmp_path, **overrides):
    kwargs = _settings(kind)
    if kind == "crb_sweep":
        kwargs["grid_size"] = 8
    kwargs.update(overrides)
    path = tmp_path / "metrics.csv"
    emit_csv(run_experiment(ExperimentConfig(**kwargs)), str(path))
    return _sha(path)


@pytest.mark.parametrize(
    "kind",
    [
        "rmse_vs_snr",
        "rmse_vs_snapshots",
        "gain_over_time",
        "noise_mismatch",
        "codebook_compare",
        "crb_sweep",
    ],
)
def test_experiment_csv_bytes(kind, tmp_path):
    assert _experiment(kind, tmp_path) == GOLDEN[kind]


def test_hierarchical_experiment_csv_bytes(tmp_path):
    digest = _experiment("rmse_vs_snr", tmp_path, codebook="hierarchical")
    assert digest == GOLDEN["rmse_vs_snr_hierarchical"]


@pytest.mark.parametrize("scheme", ["general", "benchmark", "svam", "unknown-alpha"])
def test_bound_table_csv_bytes(scheme, tmp_path):
    grid = AngularGrid(ROI, 8)
    rows = [
        row
        for n_v in (1, 2, 4)
        for row in crb_table(scheme, 16, n_v, 16, grid, 0.0)
    ]
    path = tmp_path / "crb.csv"
    write_crb_csv(rows, str(path))
    assert _sha(path) == GOLDEN[f"crb_{scheme}"]


def test_trajectory_csv_bytes(tmp_path):
    cfg = ExperimentConfig(**_settings("rmse_vs_snr"))
    records = run_adaptive_trials(cfg.adapt(4, 0.6), 0.0, 3, cfg.seed)
    path = tmp_path / "traj.csv"
    write_trajectories(records, str(path))
    assert _sha(path) == GOLDEN["trajectories"]


def test_cli_align_csv_bytes(tmp_path):
    out, traj = tmp_path / "align.csv", tmp_path / "traj.csv"
    code = cli_main(
        [
            "align", "--n", "16", "--nv", "4,2", "--grid", "16",
            "--snapshots", "16", "--trials", "3", "--snr-db=-5,5",
            "--p-thresh", "0.7", "--noise-scale", "2", "--roi=-0.5,0.5",
            "--seed", "4", "--codebook", "hierarchical",
            "--out", str(out), "--trajectories", str(traj),
        ]
    )
    assert code == 0
    assert _sha(out) == GOLDEN["cli_align"]
    assert _sha(traj) == GOLDEN["cli_align_trajectories"]


def test_cli_sweep_config_csv_bytes(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "experiment = rmse_vs_snr  # replaced by --experiment\n"
        "n = 16\nn_v = 2, 4\ngrid_size = 16\ntotal_snapshots = 16\n"
        "trials = 2\nsnr_db = -5, 5\np_thresh = 0.6\nnoise_scale = 0.5, 1\n"
        "roi = 0.25, 0.75\nseed = 3\ncodebook = flexible\n"
    )
    out = tmp_path / "sweep.csv"
    code = cli_main(
        ["sweep", "--experiment", "noise_mismatch", "--config", str(cfgfile),
         "--trials", "3", "--out", str(out)]
    )
    assert code == 0
    assert _sha(out) == GOLDEN["cli_sweep_config"]


def test_cli_crb_csv_bytes(tmp_path):
    out = tmp_path / "crb.csv"
    code = cli_main(
        ["crb", "--scheme", "svam", "--n", "16", "--nv", "2", "--snapshots", "8",
         "--grid", "8", "--snr-db", "0", "--roi", "0.25,0.75", "--out", str(out)]
    )
    assert code == 0
    assert _sha(out) == GOLDEN["cli_crb"]


def test_cli_codebook_csv_bytes(tmp_path):
    out = tmp_path / "book.csv"
    code = cli_main(["codebook", "--depth", "3", "--m", "13", "--out", str(out)])
    assert code == 0
    assert _sha(out) == GOLDEN["cli_codebook"]
