"""Test oracles: the one-trial-at-a-time unknown-gain and known-gain loops.

These are the loops as they ran before trials advanced in lockstep. In the
unknown-gain loop every snapshot is synthesized and combined on its own,
the running statistics live in a one-trial history that computes each
response row afresh, and the inference and controller functions are called
once per trial and block; the dyadic search reads one trial's pmf slice by
slice (hier_beam_search_scalar). The known-gain loop (at the end) takes one
trial's Bayes update and posterior matching snapshot by snapshot. The
batched run_alignment and run_hiepm_known_alpha must reproduce their
records exactly, field by field.
"""

from __future__ import annotations

import numpy as np

from svamsim.adaptive import (
    AdaptConfig,
    HierNode,
    SegmentLog,
    TrialRecord,
    node_mass,
    select_next_beam,
)
from svamsim.arrays import AngularGrid
from svamsim.beams import (
    BeamSpec,
    HierarchicalCodebook,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)
from svamsim.channel import ChannelParams, antenna_snapshot, combine
from svamsim.inference import (
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    posterior_pmf,
)
from svamsim.sensing import SvamConfig, svam_combiner

NOISELESS_VAR_FLOOR = 1e-12


def measure_segment(f, params, config: SvamConfig, segment_index, rng) -> np.ndarray:
    """One block, snapshot by snapshot: pad, synthesize, combine."""
    values = np.empty(config.n_v, dtype=complex)
    base = segment_index * config.n_v
    for r in range(config.n_v):
        w = svam_combiner(f, base + r, config)
        x = antenna_snapshot(params, config.n, rng)
        values[r] = combine(w, x)
    return values


class ScalarHistory:
    """The running statistics the inference reads, for one trial."""

    def __init__(self, config: SvamConfig, grid: AngularGrid):
        self.config = config
        self.grid = grid
        self.segment_count = 0
        self.cumulative_gain = np.zeros(grid.size)
        self.matched_statistic = np.zeros(grid.size, dtype=complex)
        self.total_power = 0.0

    @property
    def n_v(self) -> int:
        return self.config.n_v

    def append(self, values: np.ndarray, beamformer) -> None:
        weights = beamformer.weights
        beta = weights.conj() @ self.grid.manifold(len(weights))
        matched_row = self.grid.manifold(self.n_v).conj().T @ values
        self.segment_count += 1
        self.cumulative_gain += np.abs(beta) ** 2
        self.matched_statistic += beta.conj() * matched_row
        self.total_power += float(np.vdot(values, values).real)


def hier_beam_search_scalar(
    level_current: int,
    pmf: np.ndarray,
    grid_size: int,
    p_thresh: float,
    codebook: HierarchicalCodebook,
    start_offset: int = 0,
) -> HierNode:
    """One trial's dyadic search: start one level below the current one at
    the node containing the posterior mode, then climb to the parent until
    enough mass is captured. Level 0 always terminates the climb."""
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    pmf = np.asarray(pmf, dtype=float)
    if len(pmf) != grid_size:
        raise ValueError("pmf length must match the grid size")
    level = min(level_current + 1 + start_offset, codebook.depth)
    if level < 0:
        raise ValueError("negative codebook level")
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
            return HierNode(level=level, index=k)
        k //= 2
        level -= 1


def run_alignment_scalar(
    config: AdaptConfig,
    channel: ChannelParams,
    rng: np.random.Generator,
    trial_index: int = 0,
    codebook: HierarchicalCodebook | None = None,
) -> TrialRecord:
    grid = AngularGrid(config.roi, config.grid_size)
    svam_cfg = config.svam()
    m = svam_cfg.combiner_length
    noise_var = max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)
    truth = channel.paths[0][1]

    hierarchical = config.codebook == "hierarchical"
    if hierarchical:
        if codebook is None:
            codebook = build_hierarchical_codebook(
                config.roi, config.depth(), m, grid_size=config.grid_size
            )
        level = 0
        beam = codebook.node(0, 0).beamformer
    else:
        beam = design_beamformer(BeamSpec(config.roi.center, config.beamwidth_initial), m)
        bw_current = config.beamwidth_initial

    history = ScalarHistory(svam_cfg, grid)
    logs: list[SegmentLog] = []
    pmf = np.full(grid.size, 1.0 / grid.size)
    for t in range(config.segments):
        history.append(measure_segment(beam, channel, svam_cfg, t, rng), beam)
        gamma = gamma_mle(history, grid, channel.power, noise_var)
        post = alpha_posterior(history, grid, gamma, channel.power, noise_var)
        pmf = posterior_pmf(
            approx_log_likelihood(history, grid, post, channel.power, noise_var)
        )
        mode = int(np.argmax(pmf))
        gain = abs(beam_gain(beam, truth)) ** 2

        if hierarchical:
            nxt = hier_beam_search_scalar(
                level, pmf, grid.size, config.p_thresh, codebook,
                config.hier_start_offset,
            )
            peak_prob = node_mass(pmf, nxt, grid.size)
            next_beam = codebook.node(nxt.level, nxt.index).beamformer
        else:
            spec, peak_prob = select_next_beam(
                pmf, bw_current, config.p_thresh, grid, config.beamwidth_initial
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
        if t < config.segments - 1:
            beam = next_beam
            if hierarchical:
                level = nxt.level
            else:
                bw_current = spec.beamwidth

    return TrialRecord(
        trial_index=trial_index,
        true_angle=truth,
        estimate=float(grid.points[int(np.argmax(pmf))]),
        segments=tuple(logs),
    )


# ------------------------------------------------------------ known gain
#
# The known-gain hiePM loop as it ran before trials advanced in lockstep:
# one snapshot per step, with the one-trial Bayes update and posterior
# matching read node by node through node_mass.


def known_alpha_update(prior, y, w, alpha, grid, power, noise_var) -> np.ndarray:
    """One trial's exact single-snapshot Bayes update."""
    response = w.conj() @ grid.manifold(len(w))
    predicted = np.sqrt(power) * alpha * response
    log_lik = -np.abs(y - predicted) ** 2 / noise_var
    with np.errstate(divide="ignore"):
        log_post = np.log(prior) + log_lik
    return posterior_pmf(log_post)


def select_codeword_scalar(
    pmf: np.ndarray, codebook: HierarchicalCodebook, grid_size: int
) -> HierNode:
    level, k = 0, 0
    mass = 1.0
    while level < codebook.depth:
        left = HierNode(level + 1, 2 * k)
        right = HierNode(level + 1, 2 * k + 1)
        lm = node_mass(pmf, left, grid_size)
        rm = node_mass(pmf, right, grid_size)
        child, child_mass = (left, lm) if lm >= rm else (right, rm)
        if child_mass >= 0.5:
            level, k, mass = child.level, child.index, child_mass
            continue
        if abs(child_mass - 0.5) < abs(mass - 0.5):
            return child
        return HierNode(level, k)
    return HierNode(level, k)


def run_hiepm_scalar(
    config: AdaptConfig,
    channel: ChannelParams,
    codebook: HierarchicalCodebook,
    rng: np.random.Generator,
    mode: str = "svam",
    trial_index: int = 0,
) -> TrialRecord:
    grid = AngularGrid(config.roi, config.grid_size)
    svam_cfg = config.svam()
    noise_var = max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)
    alpha, truth = channel.paths[0]

    pmf = np.full(grid.size, 1.0 / grid.size)
    node = select_codeword_scalar(pmf, codebook, grid.size)
    logs: list[SegmentLog] = []
    for snap in range(config.total_snapshots):
        codeword = codebook.node(node.level, node.index).beamformer
        if mode == "svam":
            w = svam_combiner(codeword, snap, svam_cfg)
        else:
            w = codeword.weights
        x = antenna_snapshot(channel, config.n, rng)
        y = combine(w, x)
        pmf = known_alpha_update(pmf, y, w, alpha, grid, channel.power, noise_var)
        if (snap + 1) % config.n_v == 0:
            logs.append(
                SegmentLog(
                    beam=codeword.spec,
                    gain_at_truth=abs(beam_gain(codeword, truth)) ** 2,
                    mode_index=int(np.argmax(pmf)),
                    peak_prob=node_mass(pmf, node, grid.size),
                )
            )
            if snap + 1 < config.total_snapshots:
                node = select_codeword_scalar(pmf, codebook, grid.size)

    return TrialRecord(
        trial_index=trial_index,
        true_angle=truth,
        estimate=float(grid.points[int(np.argmax(pmf))]),
        segments=tuple(logs),
    )
