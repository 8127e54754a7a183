"""Test oracle: the one-trial-at-a-time unknown-gain loop.

This is the alignment loop as it ran before trials advanced in lockstep:
every snapshot is synthesized and combined on its own, the running
statistics live in a one-trial history that computes each response row
afresh, and the inference and controller functions are called once per
trial and block. The batched run_alignment must reproduce its records
exactly, field by field.
"""

from __future__ import annotations

import numpy as np

from svamsim.adaptive import (
    AdaptConfig,
    SegmentLog,
    TrialRecord,
    hier_beam_search,
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
            nxt = hier_beam_search(
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
