"""Test oracles: the one-trial-at-a-time unknown-gain and known-gain loops.

These are the loops as they ran before trials advanced in lockstep. In the
unknown-gain loop every snapshot is synthesized and combined on its own,
the running statistics live in a one-trial history that computes each
response row afresh, and the inference and controller functions are called
once per trial and block; the flexible step windows one trial's pmf
(select_next_beam_scalar, cumul_peak_scalar) and the dyadic search reads
one trial's pmf slice by slice (hier_beam_search_scalar). The known-gain
loop (at the end) takes one trial's Bayes update and posterior matching
snapshot by snapshot. Both dyadic oracles keep a node as its own (level,
index) pair, a numbering independent of the package's heap rows, and read
its beam at row 2**level - 1 + index of the codebook. Each oracle keeps its
own per-trial log (TrialRecord, one SegmentLog per block, the gain at the
truth computed as the block runs). The batched run_alignment and run_hiepm_known_alpha must
reproduce every column of it exactly (columns below).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from svamsim.adaptive import AdaptConfig, Trials, node_mass
from svamsim.arrays import AngularGrid, ula_manifold
from svamsim.beams import (
    BeamSpec,
    HierarchicalCodebook,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)
from svamsim.channel import ChannelParams, combine
from svamsim.inference import (
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    posterior_pmf,
)
from svamsim.sensing import svam_combiner

NOISELESS_VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class SegmentLog:
    """What a lone trial's controller did and saw during one block."""

    beam: BeamSpec
    gain_at_truth: float  # |beta_t(u_true)|^2, linear
    mode_index: int
    peak_prob: float


@dataclass(frozen=True)
class TrialRecord:
    true_angle: float
    estimate: float
    segments: tuple[SegmentLog, ...]


def columns(outcome: Trials | list[TrialRecord]) -> dict[str, list]:
    """Every column of a batch outcome, or of a list of oracle records, as
    plain lists: one entry per trial, one inner entry per block. Equal
    dicts mean bit-equal runs, gains at the truth included."""
    if isinstance(outcome, Trials):
        return {
            "true_angle": outcome.true_angle.tolist(),
            "estimate": outcome.estimate.tolist(),
            "beam": [[beam.spec for beam in row] for row in outcome.beams],
            "gain_at_truth": outcome.gain_at_truth().tolist(),
            "mode_index": outcome.mode_index.tolist(),
            "peak_prob": outcome.peak_prob.tolist(),
        }
    logs = [record.segments for record in outcome]
    return {
        "true_angle": [record.true_angle for record in outcome],
        "estimate": [record.estimate for record in outcome],
        "beam": [[s.beam for s in segments] for segments in logs],
        "gain_at_truth": [[s.gain_at_truth for s in segments] for segments in logs],
        "mode_index": [[s.mode_index for s in segments] for segments in logs],
        "peak_prob": [[s.peak_prob for s in segments] for segments in logs],
    }


def antenna_snapshot_scalar(params: ChannelParams, n: int, rng) -> np.ndarray:
    """One lone length-n array observation: the path plus circular noise,
    real then imaginary normals drawn on their own. Noiseless parameters
    draw nothing, so the generator is left untouched."""
    x = params.alpha * ula_manifold(n, params.u)
    if params.noise_variance > 0.0:
        scale = np.sqrt(params.noise_variance / 2.0)
        x += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return x


def measure_segment_scalar(f, params: ChannelParams, n: int, rng) -> np.ndarray:
    """One lone block on an n-element aperture, snapshot by snapshot: pad,
    synthesize, combine. f is a Beamformer or its weights; snapshot r holds
    the beam at shift r, so an m-tap beam gives n - m + 1 outputs."""
    values = np.empty(n - len(getattr(f, "weights", f)) + 1, dtype=complex)
    for r in range(len(values)):
        w = svam_combiner(f, r, n)
        x = antenna_snapshot_scalar(params, n, rng)
        values[r] = combine(w, x)
    return values


class ScalarHistory:
    """The running statistics the inference reads, for one trial."""

    def __init__(self, n_v: int, grid: AngularGrid, noise_var: float):
        self.n_v = n_v
        self.grid = grid
        self.noise_var = noise_var
        self.segment_count = 0
        self.cumulative_gain = np.zeros(grid.size)
        self.matched_statistic = np.zeros(grid.size, dtype=complex)
        self.total_power = 0.0

    def append(self, values: np.ndarray, beamformer) -> None:
        weights = beamformer.weights
        beta = weights.conj() @ self.grid.manifold(len(weights))
        matched_row = self.grid.manifold(self.n_v).conj().T @ values
        self.segment_count += 1
        self.cumulative_gain += np.abs(beta) ** 2
        self.matched_statistic += beta.conj() * matched_row
        self.total_power += float(np.vdot(values, values).real)


def cumul_peak_scalar(
    pmf: np.ndarray, bw_check: float, grid: AngularGrid
) -> tuple[float, BeamSpec]:
    """One trial's best windowed posterior mass around the mode.

    Slides a window of round(bw_check/spacing) grid points (at least one;
    placements may hang off the grid edges, where they collect nothing)
    over the pmf, keeps only placements containing the mode, and returns
    the winning mass together with a beam covering that window: direction
    at the midpoint of the window's grid points, clamped so the beam stays
    inside the region, width bw_check.
    """
    pmf = np.asarray(pmf, dtype=float)
    if pmf.shape != (grid.size,):
        raise ValueError("pmf length must match the grid")
    window = max(1, int(round(bw_check / grid.spacing)))
    sums = np.convolve(pmf, np.ones(window))  # sums[e] = window ending at e
    mode = int(np.argmax(pmf))
    candidates = sums[mode : mode + window]
    k = int(np.argmax(candidates))  # ties: widest overlap to the left wins
    peak_prob = float(candidates[k])
    end = mode + k
    start = end - window + 1
    center = grid.roi.u_left + 0.5 * (start + end) * grid.spacing
    low = grid.roi.u_left + 0.5 * bw_check
    high = grid.roi.u_right - 0.5 * bw_check
    if low > high:
        center = grid.roi.center
    else:
        center = min(max(center, low), high)
    return peak_prob, BeamSpec(direction=center, beamwidth=bw_check)


def select_next_beam_scalar(
    pmf: np.ndarray,
    bw_current: float,
    p_thresh: float,
    grid: AngularGrid,
) -> tuple[BeamSpec, float]:
    """One trial's next flexible beam: try half the current width (at least
    2^-52) and double until the windowed mass clears the threshold; at the
    region's width the search gives up and resets to the region-wide beam."""
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    if bw_current <= 0:
        raise ValueError("beamwidth must be positive")
    widest = grid.roi.width
    bw = max(0.5 * bw_current, np.finfo(float).eps)
    while bw < widest:
        peak_prob, spec = cumul_peak_scalar(pmf, bw, grid)
        if peak_prob >= p_thresh:
            return spec, peak_prob
        bw *= 2.0
    peak_prob, spec = cumul_peak_scalar(pmf, widest, grid)
    return spec, peak_prob


def hier_beam_search_scalar(
    level_current: int,
    pmf: np.ndarray,
    grid_size: int,
    p_thresh: float,
    codebook: HierarchicalCodebook,
) -> tuple[int, int]:
    """One trial's dyadic search, as a (level, index) pair: start one level
    below the current one at the node containing the posterior mode, then
    climb to the parent until enough mass is captured. Level 0 always
    terminates the climb."""
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    pmf = np.asarray(pmf, dtype=float)
    if len(pmf) != grid_size:
        raise ValueError("pmf length must match the grid size")
    if level_current < 0:
        raise ValueError("negative codebook level")
    level = min(level_current + 1, codebook.depth)
    if grid_size % 2**level:
        raise ValueError(
            f"grid size {grid_size} cannot resolve {2**level} nodes evenly"
        )
    mode = int(np.argmax(pmf))
    k = (mode * 2**level) // grid_size
    while True:
        per_node = grid_size // 2**level
        mass = float(pmf[k * per_node : (k + 1) * per_node].sum())
        if mass >= p_thresh or level == 0:
            return level, k
        k //= 2
        level -= 1


def run_alignment_scalar(
    config: AdaptConfig,
    channel: ChannelParams,
    rng: np.random.Generator,
) -> TrialRecord:
    grid = AngularGrid(config.roi, config.grid_size)
    m = config.combiner_length
    noise_var = max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)
    truth = channel.u

    hierarchical = config.codebook == "hierarchical"
    if hierarchical:
        codebook = build_hierarchical_codebook(
            config.roi, config.depth(), m, grid_size=config.grid_size
        )
        level = 0
        beam = codebook.beams[0]
    else:
        beam = design_beamformer(BeamSpec(config.roi.center, config.roi.width), m)
        bw_current = config.roi.width

    history = ScalarHistory(config.n_v, grid, noise_var)
    logs: list[SegmentLog] = []
    pmf = np.full(grid.size, 1.0 / grid.size)
    blocks = config.total_snapshots // config.n_v
    for t in range(blocks):
        history.append(measure_segment_scalar(beam, channel, config.n, rng), beam)
        gamma = gamma_mle(history)
        post = alpha_posterior(history, gamma)
        pmf = posterior_pmf(approx_log_likelihood(history, post))
        mode = int(np.argmax(pmf))
        gain = abs(beam_gain(beam, truth)) ** 2

        if hierarchical:
            next_level, next_index = hier_beam_search_scalar(
                level, pmf, grid.size, config.p_thresh, codebook
            )
            peak_prob = node_mass(pmf, next_level, next_index)
            next_beam = codebook.beams[2**next_level - 1 + next_index]
        else:
            spec, peak_prob = select_next_beam_scalar(
                pmf, bw_current, config.p_thresh, grid
            )
            next_beam = design_beamformer(spec, m)

        logs.append(
            SegmentLog(
                beam=beam.spec,
                gain_at_truth=gain,
                mode_index=mode,
                peak_prob=peak_prob,
            )
        )
        if t < blocks - 1:
            beam = next_beam
            if hierarchical:
                level = next_level
            else:
                bw_current = spec.beamwidth

    return TrialRecord(
        true_angle=truth,
        estimate=float(grid.points[int(np.argmax(pmf))]),
        segments=tuple(logs),
    )


# ------------------------------------------------------------ known gain
#
# The known-gain hiePM loop as it ran before trials advanced in lockstep:
# one snapshot per step, with the one-trial Bayes update and posterior
# matching read node by node through node_mass.


def known_alpha_update(prior, y, w, alpha, grid, noise_var) -> np.ndarray:
    """One trial's exact single-snapshot Bayes update."""
    response = w.conj() @ grid.manifold(len(w))
    predicted = alpha * response
    log_lik = -np.abs(y - predicted) ** 2 / noise_var
    with np.errstate(divide="ignore"):
        log_post = np.log(prior) + log_lik
    return posterior_pmf(log_post)


def select_codeword_scalar(
    pmf: np.ndarray, codebook: HierarchicalCodebook
) -> tuple[int, int]:
    """One trial's posterior matching, as a (level, index) pair."""
    level, k = 0, 0
    mass = 1.0
    while level < codebook.depth:
        lm = node_mass(pmf, level + 1, 2 * k)
        rm = node_mass(pmf, level + 1, 2 * k + 1)
        child, child_mass = (2 * k, lm) if lm >= rm else (2 * k + 1, rm)
        if child_mass >= 0.5:
            level, k, mass = level + 1, child, child_mass
            continue
        if abs(child_mass - 0.5) < abs(mass - 0.5):
            return level + 1, child
        return level, k
    return level, k


def run_hiepm_scalar(
    config: AdaptConfig,
    channel: ChannelParams,
    codebook: HierarchicalCodebook,
    rng: np.random.Generator,
    mode: str = "svam",
) -> TrialRecord:
    grid = AngularGrid(config.roi, config.grid_size)
    noise_var = max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)
    alpha, truth = channel.alpha, channel.u

    pmf = np.full(grid.size, 1.0 / grid.size)
    level, index = select_codeword_scalar(pmf, codebook)
    logs: list[SegmentLog] = []
    for snap in range(config.total_snapshots):
        codeword = codebook.beams[2**level - 1 + index]
        if mode == "svam":
            w = svam_combiner(codeword, snap, config.n)
        else:
            w = codeword.weights
        x = antenna_snapshot_scalar(channel, config.n, rng)
        y = combine(w, x)
        pmf = known_alpha_update(pmf, y, w, alpha, grid, noise_var)
        if (snap + 1) % config.n_v == 0:
            logs.append(
                SegmentLog(
                    beam=codeword.spec,
                    gain_at_truth=abs(beam_gain(codeword, truth)) ** 2,
                    mode_index=int(np.argmax(pmf)),
                    peak_prob=node_mass(pmf, level, index),
                )
            )
            if snap + 1 < config.total_snapshots:
                level, index = select_codeword_scalar(pmf, codebook)

    return TrialRecord(
        true_angle=truth,
        estimate=float(grid.points[int(np.argmax(pmf))]),
        segments=tuple(logs),
    )
