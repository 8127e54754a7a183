"""Test oracles: the one-trial-at-a-time alignment loop, for every gain
score and controller step.

This is the loop as it ran before trials advanced in lockstep. Every
snapshot is synthesized and combined on its own, and the score and step
functions are called once per trial and block. The fitted-gain score keeps
its running statistics in a one-trial history that computes each response
row afresh; the known-gain score takes one exact Bayes update per snapshot.
The flexible step windows one trial's pmf (select_next_beam_scalar,
cumul_peak_scalar), the dyadic search reads one trial's pmf slice by slice
(hier_beam_search_scalar), and posterior matching reads it node by node
through node_mass (select_codeword_scalar). Both codebook steps keep a node
as its own (level, index) pair, a numbering independent of the package's
heap rows, and read its beam at row 2**level - 1 + index of the codebook.
The oracle keeps its own per-trial log (TrialRecord, one SegmentLog per
block, the gain at the truth computed as the block runs). The batched
run_alignment must reproduce every column of it (columns below): exactly
with the fitted gain, and with the known gain every column but peak_prob,
whose masses the per-snapshot updates sum in another order.
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
from svamsim.channel import BatchNoise, ChannelParams, combine
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


def noise_rows(noise: BatchNoise, variances) -> tuple[BatchNoise, np.ndarray]:
    """The rows of a drawn noise at the given per-row variances, as the
    alignment loop reads them: a noiseless row points at the zero slot; and
    each row's scale, sqrt(variance / 2)."""
    variances = np.asarray(variances, dtype=float)
    slot = np.where(variances > 0.0, noise.slot, -1)
    return BatchNoise(noise.normals, slot), np.sqrt(variances / 2.0)


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

    def __init__(self, n: int, n_v: int, grid: AngularGrid, noise_var: float):
        self.n = n
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
        # the virtual rows: phi_{n_v} for a sliding beam, ones for an n-tap
        # beam, which repeats for the whole block; complex ones, since real
        # ones cast in the product reach another BLAS kernel, which rounds
        # differently at block sizes 4 and 5
        if len(weights) < self.n:
            rows = self.grid.manifold(self.n_v)
        else:
            rows = np.ones((self.n_v, self.grid.size), dtype=complex)
        matched_row = rows.conj().T @ values
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


# ------------------------------------------------------------ the scores
#
# score(config, channel, grid, noise_var) -> update(pmf, values, combiners,
# beam), the pmf after one block: its (n_v,) outputs, the combiner of each
# snapshot and the block's beam.


def fitted_score(config: AdaptConfig, channel: ChannelParams, grid, noise_var):
    """The unknown-gain chain: each block joins a one-trial history, and the
    pmf is its likelihood under the posterior of the fitted gain."""
    history = ScalarHistory(config.n, config.n_v, grid, noise_var)

    def update(pmf, values, combiners, beam):
        history.append(values, beam)
        post = alpha_posterior(history, gamma_mle(history))
        return posterior_pmf(approx_log_likelihood(history, post))

    return update


def known_score(config: AdaptConfig, channel: ChannelParams, grid, noise_var):
    """The known-gain chain: one exact Bayes update per snapshot."""

    def update(pmf, values, combiners, beam):
        for y, w in zip(values, combiners):
            pmf = known_alpha_update(pmf, y, w, channel.alpha, grid, noise_var)
        return pmf

    return update


# ------------------------------------------------------------- the steps
#
# step(config, grid, codebook) -> (first key, beam_of(key), next(key, pmf)
# -> (peak_prob, next key)). A flexible key is its BeamSpec, a codebook key
# the (level, index) pair of its node.


def flexible_step(config: AdaptConfig, grid, codebook):
    """The region-wide beam first; then the flexible search from the current
    width, whose beam's mass is recorded."""
    m = config.combiner_length

    def next_key(spec, pmf):
        spec, peak_prob = select_next_beam_scalar(
            pmf, spec.beamwidth, config.p_thresh, grid
        )
        return peak_prob, spec

    first = BeamSpec(config.roi.center, config.roi.width)
    return first, lambda spec: design_beamformer(spec, m), next_key


def hierarchical_step(config: AdaptConfig, grid, codebook):
    """The root first; then the dyadic search from the current level, whose
    node's mass is recorded."""

    def next_key(node, pmf):
        level, index = hier_beam_search_scalar(
            node[0], pmf, grid.size, config.p_thresh, codebook
        )
        return node_mass(pmf, level, index), (level, index)

    return (0, 0), lambda node: codebook.beams[2 ** node[0] - 1 + node[1]], next_key


def posterior_matching_step(config: AdaptConfig, grid, codebook):
    """The node a uniform pmf picks first; then posterior matching, with the
    mass of the node the block sensed with recorded."""

    def next_key(node, pmf):
        return node_mass(pmf, *node), select_codeword_scalar(pmf, codebook)

    first = select_codeword_scalar(np.full(grid.size, 1.0 / grid.size), codebook)
    return first, lambda node: codebook.beams[2 ** node[0] - 1 + node[1]], next_key


SCORES = {"fitted": fitted_score, "known": known_score}
STEPS = {
    "flexible": flexible_step,
    "hierarchical": hierarchical_step,
    "posterior_matching": posterior_matching_step,
}


def run_alignment_scalar(
    config: AdaptConfig,
    channel: ChannelParams,
    rng: np.random.Generator,
    codebook: HierarchicalCodebook | None = None,
) -> TrialRecord:
    """One trial under the score config.gain names and the step
    config.codebook names. A codebook step climbs the given codebook or the
    m-tap one log2(grid) levels deep. Snapshot r of a block holds the beam
    at shift r mod (n - taps + 1), so an n-tap codeword repeats."""
    grid = AngularGrid(config.roi, config.grid_size)
    noise_var = max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)
    if codebook is None and config.codebook != "flexible":
        codebook = build_hierarchical_codebook(
            config.roi, config.depth(), config.combiner_length, grid_size=grid.size
        )
    update = SCORES[config.gain](config, channel, grid, noise_var)
    key, beam_of, next_key = STEPS[config.codebook](config, grid, codebook)

    logs: list[SegmentLog] = []
    pmf = np.full(grid.size, 1.0 / grid.size)
    for _ in range(config.total_snapshots // config.n_v):
        beam = beam_of(key)
        combiners = [svam_combiner(beam, r, config.n) for r in range(config.n_v)]
        snapshots = [antenna_snapshot_scalar(channel, config.n, rng) for _ in combiners]
        values = np.array([combine(w, x) for w, x in zip(combiners, snapshots)])
        pmf = update(pmf, values, combiners, beam)
        peak_prob, key = next_key(key, pmf)
        logs.append(
            SegmentLog(
                beam=beam.spec,
                gain_at_truth=abs(beam_gain(beam, channel.u)) ** 2,
                mode_index=int(np.argmax(pmf)),
                peak_prob=peak_prob,
            )
        )

    return TrialRecord(
        true_angle=channel.u,
        estimate=float(grid.points[int(np.argmax(pmf))]),
        segments=tuple(logs),
    )
