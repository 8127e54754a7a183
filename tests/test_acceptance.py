"""End-to-end acceptance gate.

Twelve checks, one test function each, run in numeric order:

  1-2   closed-form bounds against explicit combiner expansions and a
        finite-difference Fisher oracle
  3-4   rank-one likelihood algebra and the gain posterior against dense
        linear algebra and brute-force numerical integration
  5-6   nonnegativity certificate soundness and singular-geometry handling
  7-11  full simulation runs at documented operating points (orderings,
        gain trajectory, exact recovery, noise mismatch, codebook parity)
  12    byte-identical experiment reruns

Every test prints a single CRITERION nn PASS/FAIL line (visible with -s,
or in the captured output of a failing test) and then asserts.
"""

import math

import numpy as np

from history_helpers import append_beams
from scalar_alignment import measure_segment_scalar
from svamsim import (
    AdaptConfig,
    AngularGrid,
    ExperimentConfig,
    RegionOfInterest,
    alpha_posterior,
    build_hierarchical_codebook,
    bootstrap_rmse_interval,
    crb_benchmark,
    crb_general,
    crb_svam,
    crb_unknown_alpha,
    emit_csv,
    gain_condition_sufficient,
    gamma_mle,
    likelihood_terms,
    run_experiment,
    svam_combiner,
    ula_manifold,
)
from svamsim.channel import ChannelParams
from svamsim.harness import (
    records_rmse,
    run_adaptive_trials,
    run_hiepm_trials,
)
from svamsim.sensing import MeasurementHistory

ROI = RegionOfInterest(0.0, 1.0)


def _verdict(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _unit_columns(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    f = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return f / np.linalg.norm(f, axis=0, keepdims=True)


def _expand_sliding(f_cols: np.ndarray, n: int, n_v: int) -> np.ndarray:
    """One zero-padded full-length combiner per snapshot, shift l mod n_v."""
    m, t_count = f_cols.shape
    assert m == n - n_v + 1
    cols = []
    for t in range(t_count):
        for r in range(n_v):
            w = np.zeros(n, dtype=complex)
            w[r : r + m] = f_cols[:, t]
            cols.append(w)
    return np.column_stack(cols)


def test_criterion_01_closed_forms_match_expanded_general_bound():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([8, 16, 32]))
        n_v = int(rng.choice([1, 2, 4]))
        t_count = int(rng.choice([2, 8]))
        u = float(rng.uniform(-1.0, 1.0))
        power = float(rng.uniform(0.5, 2.0))
        alpha_sq = float(rng.uniform(0.5, 2.0))
        noise = float(rng.uniform(0.1, 1.0))
        # the bounds see the noise relative to the received gain's power
        relative_noise = noise / (power * alpha_sq)

        f_small = _unit_columns(rng, n - n_v + 1, t_count)
        expanded = _expand_sliding(f_small, n, n_v)
        fast = crb_svam(f_small, n_v, u, relative_noise).bound
        slow = crb_general(expanded, u, relative_noise).bound
        worst = max(worst, abs(fast - slow) / slow)

        f_full = _unit_columns(rng, n, t_count)
        repeated = np.repeat(f_full, n_v, axis=1)
        fast = crb_benchmark(f_full, n_v, u, relative_noise).bound
        slow = crb_general(repeated, u, relative_noise).bound
        worst = max(worst, abs(fast - slow) / slow)
    ok = worst < 1e-9
    msg = _verdict(1, ok, f"max rel err {worst:.3e} over 200 tuples (< 1e-9)")
    assert ok, msg


def test_criterion_02_general_bound_matches_finite_difference_fisher():
    rng = np.random.default_rng(202)
    step = 1e-5
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 21))
        snapshots = int(rng.integers(2, 9))
        w = rng.standard_normal((n, snapshots)) + 1j * rng.standard_normal(
            (n, snapshots)
        )
        u = float(rng.uniform(-0.99, 0.99))
        power = float(rng.uniform(0.5, 2.0))
        alpha_sq = float(rng.uniform(0.5, 2.0))
        noise = float(rng.uniform(0.1, 1.0))
        alpha = math.sqrt(alpha_sq) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        gain = math.sqrt(power) * alpha  # the received path gain

        def mean(at: float) -> np.ndarray:
            return gain * (w.conj().T @ ula_manifold(n, at))

        d_mean = (mean(u + step) - mean(u - step)) / (2 * step)
        fisher = 2.0 * float(np.vdot(d_mean, d_mean).real) / noise
        oracle = 1.0 / fisher
        bound = crb_general(w, u, noise / (power * alpha_sq)).bound
        worst = max(worst, abs(bound - oracle) / oracle)
    ok = worst < 1e-4
    msg = _verdict(2, ok, f"max rel err {worst:.3e} over 20 configs (< 1e-4)")
    assert ok, msg


def _random_history(
    rng: np.random.Generator,
    n: int,
    n_v: int,
    segments: int,
    grid: AngularGrid,
    magnitude: float,
    noise: float,
) -> tuple[MeasurementHistory, list[np.ndarray]]:
    """A history of random beams on a path whose received gain has the
    given magnitude and a random phase, and the beams, one per segment."""
    u_true = float(grid.points[int(rng.integers(grid.size))])
    alpha = magnitude * np.exp(2j * np.pi * rng.uniform())
    params = ChannelParams(alpha, u_true, noise_variance=noise)
    history = MeasurementHistory(n, n_v, grid, 1, noise)
    beams = []
    for t in range(segments):
        f = _unit_columns(rng, n - n_v + 1, 1)[:, 0]
        append_beams(history, measure_segment_scalar(f, params, n, rng)[None], [f])
        beams.append(f)
    return history, beams


def _stacked_response(
    beams: list[np.ndarray], n: int, n_v: int, u: float
) -> np.ndarray:
    """Model response of every snapshot a batch of one sensed with the
    given beams, one per block of n_v, on an n-element aperture at angle u,
    built from the zero-padded combiners directly rather than the cached
    statistics."""
    phi = ula_manifold(n, u)
    rows = []
    for t, f in enumerate(beams):
        for r in range(n_v):
            w = svam_combiner(f, t * n_v + r, n)
            rows.append(np.vdot(w, phi))
    return np.array(rows)


def test_criterion_03_rank_one_likelihood_matches_dense_solve():
    rng = np.random.default_rng(303)
    grid = AngularGrid(ROI, 24)
    worst_det = 0.0
    worst_quad = 0.0
    for _ in range(100):
        n_v = int(rng.integers(1, 5))
        segments = int(rng.integers(1, 5))
        power = float(rng.uniform(0.5, 2.0))
        noise = float(rng.uniform(0.2, 1.0))
        history, beams = _random_history(
            rng, 10, n_v, segments, grid, math.sqrt(power), noise
        )
        gamma = gamma_mle(history)
        posterior = alpha_posterior(history, gamma)
        terms = likelihood_terms(history, posterior)

        i = int(rng.integers(grid.size))
        h = _stacked_response(beams, 10, n_v, float(grid.points[i]))
        total = segments * n_v
        sigma = posterior.variance[0, i] * np.outer(h, h.conj()) + noise * np.eye(total)
        _, dense_logdet = np.linalg.slogdet(sigma)
        residual = history.stacked()[0] - posterior.mean[0, i] * h
        dense_quad = float(np.vdot(residual, np.linalg.solve(sigma, residual)).real)

        # relative error of det equals absolute error of log det to first order
        worst_det = max(
            worst_det,
            abs(terms.log_det[0, i] - dense_logdet) / max(1.0, abs(dense_logdet)),
        )
        worst_quad = max(
            worst_quad, abs(terms.quad_form[0, i] - dense_quad) / dense_quad
        )
    ok = worst_det < 1e-10 and worst_quad < 1e-10
    msg = _verdict(
        3,
        ok,
        f"max rel err det {worst_det:.3e}, quad {worst_quad:.3e} "
        f"over 100 instances (< 1e-10)",
    )
    assert ok, msg


def test_criterion_04_gain_posterior_matches_numerical_integration():
    rng = np.random.default_rng(404)
    grid = AngularGrid(ROI, 16)
    worst_mean = 0.0
    worst_var = 0.0
    for _ in range(20):
        n_v = int(rng.integers(1, 3))
        segments = int(rng.integers(1, 3))
        noise = float(rng.uniform(0.05, 0.2))
        history, beams = _random_history(rng, 8, n_v, segments, grid, 1.0, noise)
        gamma = gamma_mle(history)
        posterior = alpha_posterior(history, gamma)
        i = int(np.argmax(gamma[0]))
        assert gamma[0, i] > 0

        h = _stacked_response(beams, 8, n_v, float(grid.points[i]))
        y = history.stacked()[0]
        half = 6.0 * math.sqrt(gamma[0, i])
        axis = np.linspace(-half, half, 401)
        re, im = np.meshgrid(axis, axis)
        alpha_grid = re + 1j * im
        matched = np.vdot(h, y)
        energy = float(np.vdot(h, h).real)
        log_w = (
            -(
                float(np.vdot(y, y).real)
                - 2.0 * (np.conj(alpha_grid) * matched).real
                + np.abs(alpha_grid) ** 2 * energy
            )
            / noise
            - np.abs(alpha_grid) ** 2 / gamma[0, i]
        )
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        mean_num = complex(np.sum(alpha_grid * w))
        var_num = float(np.sum(np.abs(alpha_grid - mean_num) ** 2 * w))

        worst_mean = max(
            worst_mean, abs(posterior.mean[0, i] - mean_num) / abs(mean_num)
        )
        worst_var = max(
            worst_var, abs(posterior.variance[0, i] - var_num) / var_num
        )
    ok = worst_mean < 1e-3 and worst_var < 1e-3
    msg = _verdict(
        4,
        ok,
        f"max rel err mean {worst_mean:.3e}, var {worst_var:.3e} "
        f"over 20 instances (< 1e-3)",
    )
    assert ok, msg


def test_criterion_05_nonnegativity_certificate_is_sound():
    rng = np.random.default_rng(505)
    draws = 10_000
    certified = 0
    violations = 0
    nonnegative = 0
    for _ in range(draws):
        m = int(rng.integers(4, 33))
        t_count = int(rng.integers(1, 5))
        n_v = int(rng.integers(2, 9))
        u = float(rng.uniform(-1.0, 1.0))
        f = _unit_columns(rng, m, t_count)
        holds, _, _ = gain_condition_sufficient(f, u)
        g = crb_svam(f, n_v, u, 1.0).gain_term
        if holds:
            certified += 1
            if g < -1e-9:
                violations += 1
        if g >= 0:
            nonnegative += 1
    fraction = nonnegative / draws
    ok = violations == 0 and fraction > 0.9
    msg = _verdict(
        5,
        ok,
        f"{violations} certificate violations ({certified} certified), "
        f"gain term >= 0 on {fraction:.3f} of {draws} Gaussian draws (> 0.9)",
    )
    assert ok, msg


def test_criterion_06_gain_nuisance_singularities():
    rng = np.random.default_rng(606)
    n = 8
    u = 0.3
    single = _unit_columns(rng, n, 1)
    one_snapshot = crb_unknown_alpha(single, u, 0.5)
    rank_one = crb_unknown_alpha(np.tile(single, (1, 4)), u, 0.5)

    f = _unit_columns(rng, n - 1, 1)[:, 0]  # blocks of n_v = 2
    sliding = np.column_stack([svam_combiner(f, 0, n), svam_combiner(f, 1, n)])
    two_shifts = crb_unknown_alpha(sliding, u, 0.5)

    ok = (
        math.isinf(one_snapshot.bound)
        and math.isinf(rank_one.bound)
        and not math.isinf(two_shifts.bound)
    )
    msg = _verdict(
        6,
        ok,
        f"single snapshot inf={math.isinf(one_snapshot.bound)}, "
        f"rank-one inf={math.isinf(rank_one.bound)}, "
        f"two shifts bound={two_shifts.bound:.3e}",
    )
    assert ok, msg


def test_criterion_07_known_gain_scheme_ordering():
    """Known-gain comparison at N=64, G=64, L=60, SNR -10 dB, 500 trials:
    sliding schemes with block sizes 2..5 should beat the every-snapshot
    baseline, the repeated-beam scheme should land between them, and block
    sizes 10 and 15 should trail 2..5."""
    trials = 500
    snr = -10.0
    results: dict[str, float] = {}

    def config(n_v: int) -> AdaptConfig:
        return AdaptConfig(
            n=64,
            n_v=n_v,
            total_snapshots=60,
            roi=ROI,
            grid_size=64,
            p_thresh=0.6,
            codebook="hierarchical",
        )

    full_book = build_hierarchical_codebook(ROI, 6, 64, grid_size=64)
    results["baseline_1"] = records_rmse(
        run_hiepm_trials(config(1), snr, trials, 0, full_book, mode="svam")
    )
    results["repeat_2"] = records_rmse(
        run_hiepm_trials(config(2), snr, trials, 0, full_book, mode="repeat")
    )
    for n_v in (2, 3, 4, 5, 10, 15):
        book = build_hierarchical_codebook(ROI, 6, 65 - n_v, grid_size=64)
        results[f"sliding_{n_v}"] = records_rmse(
            run_hiepm_trials(config(n_v), snr, trials, 0, book, mode="svam")
        )

    small = [results[f"sliding_{k}"] for k in (2, 3, 4, 5)]
    sliding_beat_baseline = all(x < results["baseline_1"] for x in small)
    repeat_between = max(small) < results["repeat_2"] < results["baseline_1"]
    large_blocks_trail = all(
        results[f"sliding_{k}"] > max(small) for k in (10, 15)
    )
    table = "  ".join(f"{k}={v:.4f}" for k, v in sorted(results.items()))
    ok = sliding_beat_baseline and repeat_between and large_blocks_trail
    msg = _verdict(
        7,
        ok,
        f"sliding<baseline={sliding_beat_baseline}, "
        f"repeat between={repeat_between}, "
        f"blocks 10/15 trail={large_blocks_trail} [{table}]",
    )
    assert ok, msg


def test_criterion_08_gain_trajectory_rises_from_3_to_13_db():
    cfg = AdaptConfig(
        n=64,
        n_v=4,
        total_snapshots=120,
        roi=ROI,
        grid_size=64,
        p_thresh=0.6,
        codebook="flexible",
    )
    gains = run_adaptive_trials(cfg, -10.0, 100, 0).gain_at_truth()
    start = 10 * math.log10(float(np.mean(gains[:, 0])))
    end = 10 * math.log10(float(np.mean(gains[:, -1])))
    ok = 2.0 <= start <= 4.0 and end >= 13.0
    msg = _verdict(
        8, ok, f"mean gain starts {start:.2f} dB (3 +/- 1), ends {end:.2f} dB (>= 13)"
    )
    assert ok, msg


def test_criterion_09_high_snr_exact_recovery():
    cfg = AdaptConfig(
        n=64,
        n_v=4,
        total_snapshots=120,
        roi=ROI,
        grid_size=64,
        p_thresh=0.6,
        codebook="flexible",
    )
    value = records_rmse(run_adaptive_trials(cfg, 0.0, 100, 0))
    ok = value < 0.01
    msg = _verdict(9, ok, f"RMSE {value:.6f} at 0 dB over 100 trials (< 0.01)")
    assert ok, msg


def test_criterion_10_underreporting_noise_helps_cautious_threshold():
    def run(scale: float) -> float:
        cfg = AdaptConfig(
            n=64,
            n_v=4,
            total_snapshots=200,
            roi=ROI,
            grid_size=64,
            p_thresh=0.9,
            codebook="flexible",
            noise_scale=scale,
        )
        return records_rmse(run_adaptive_trials(cfg, -10.0, 100, 0))

    half = run(0.5)
    full = run(1.0)
    ok = half <= full
    msg = _verdict(
        10, ok, f"RMSE {half:.4f} at scale 0.5 <= {full:.4f} at scale 1.0"
    )
    assert ok, msg


def test_criterion_11_codebook_parity_across_snr_sweep():
    details = []
    ok = True
    for snr in (-15.0, -10.0, -5.0, 0.0):
        intervals = []
        for codebook in ("flexible", "hierarchical"):
            cfg = AdaptConfig(
                n=64,
                n_v=4,
                total_snapshots=120,
                roi=ROI,
                grid_size=64,
                p_thresh=0.6,
                codebook=codebook,
            )
            out = run_adaptive_trials(cfg, snr, 200, 0)
            sq = (out.estimate - out.true_angle) ** 2
            intervals.append(bootstrap_rmse_interval(sq))
        (lo_f, hi_f), (lo_h, hi_h) = intervals
        overlap = not (lo_h > hi_f or lo_f > hi_h)
        ok &= overlap
        details.append(
            f"{snr:+.0f}dB flex[{lo_f:.4f},{hi_f:.4f}] "
            f"hier[{lo_h:.4f},{hi_h:.4f}] overlap={overlap}"
        )
    msg = _verdict(11, ok, "; ".join(details))
    assert ok, msg


def test_criterion_12_reruns_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        experiment="rmse_vs_snr",
        trials=2,
        total_snapshots=8,
        snr_db=(-5.0,),
        seed=3,
    )
    paths = []
    for name in ("first.csv", "second.csv"):
        path = tmp_path / name
        emit_csv(run_experiment(cfg), str(path))
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    ok = first == second
    msg = _verdict(12, ok, f"rerun identical={ok} ({len(first)} bytes)")
    assert ok, msg
