"""Closed-loop beam controllers driving the posterior toward the path angle.

Two controllers share the measurement/inference loop:

* run_alignment treats the path gain as unknown and after every
  snapshot block either re-designs a flexible beam around the posterior
  mass (halving or doubling its width against a confidence threshold) or
  picks a node of a dyadic codebook by climbing from the posterior mode.
  It advances a whole batch of trials in lockstep.

* run_hiepm_known_alpha is the known-gain case study: an exact
  per-snapshot Bayes update drives codeword selection by posterior
  matching (the node whose mass is closest to 1/2), with the codeword
  either slid across the aperture as a sub-beam or repeated at full
  aperture for the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import AngularGrid, RegionOfInterest
from .beams import (
    BeamSpec,
    Beamformer,
    HierarchicalCodebook,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)
from .channel import (
    ChannelParams,
    antenna_blocks,
    antenna_snapshot,
    combine,
    noiseless_snapshot,
)
from .inference import (
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    known_alpha_posterior,
    posterior_pmf,
)
from .sensing import (
    BeamCache,
    MeasurementHistory,
    SegmentMeasurement,
    SvamConfig,
    block_combiners,
    svam_combiner,
)

# Noiseless channels are allowed as a sentinel (infinite SNR); the Gaussian
# scoring still needs a positive variance, so inference falls back to this
# floor. Large enough that closed-form cancellation noise stays harmless.
NOISELESS_VAR_FLOOR = 1e-12

CODEBOOK_MODES = ("flexible", "hierarchical")


@dataclass(frozen=True)
class AdaptConfig:
    """Static description of one alignment run."""

    n: int
    n_v: int
    total_snapshots: int
    roi: RegionOfInterest
    grid_size: int
    p_thresh: float
    codebook: str = "flexible"  # or "hierarchical"
    beamwidth_initial: float | None = None  # defaults to the region width
    noise_scale: float = 1.0
    codebook_depth: int | None = None
    hier_start_offset: int = 0  # extra levels to skip downward per search

    def __post_init__(self) -> None:
        self.svam()  # rejects n_v < 1 and a virtual size beyond the aperture
        if self.grid_size < 1:
            raise ValueError(f"grid size must be positive, got {self.grid_size}")
        if self.codebook_depth is not None and self.codebook_depth < 0:
            raise ValueError(
                f"codebook depth must be nonnegative, got {self.codebook_depth}"
            )
        if self.total_snapshots < 1:
            raise ValueError("need at least one snapshot")
        if self.total_snapshots % self.n_v:
            raise ValueError(
                f"block size {self.n_v} must divide {self.total_snapshots} snapshots"
            )
        if not (0.0 < self.p_thresh < 1.0):
            raise ValueError("confidence threshold must lie in (0, 1)")
        if self.codebook not in CODEBOOK_MODES:
            raise ValueError(f"unknown codebook mode {self.codebook!r}")
        if self.noise_scale <= 0:
            raise ValueError("noise scale must be positive")
        if self.hier_start_offset < 0:
            raise ValueError("start offset must be nonnegative")
        bw = self.beamwidth_initial
        if bw is None:
            object.__setattr__(self, "beamwidth_initial", self.roi.width)
        elif bw < self.roi.width:
            raise ValueError("initial beam must cover the region of interest")
        if self.codebook == "hierarchical" and self.grid_size % 2 ** self.depth():
            raise ValueError(
                f"grid size {self.grid_size} cannot resolve "
                f"{2 ** self.depth()} nodes evenly"
            )

    @property
    def segments(self) -> int:
        return self.total_snapshots // self.n_v

    def svam(self) -> SvamConfig:
        return SvamConfig(n=self.n, n_v=self.n_v)

    def depth(self) -> int:
        if self.codebook_depth is not None:
            return self.codebook_depth
        return int(np.log2(self.grid_size))


@dataclass(frozen=True)
class HierNode:
    """Address of a codebook node: dyadic level and index within it."""

    level: int
    index: int

    def __post_init__(self) -> None:
        if self.level < 0 or not (0 <= self.index < 2**self.level):
            raise ValueError(f"node ({self.level}, {self.index}) is not dyadic")


@dataclass(frozen=True)
class SegmentLog:
    """What the controller did and saw during one snapshot block."""

    beam: BeamSpec
    gain_at_truth: float  # |beta_t(u_true)|^2, linear
    mode_index: int
    peak_prob: float


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    true_angle: float
    estimate: float
    segments: tuple[SegmentLog, ...]

    @property
    def squared_error(self) -> float:
        return (self.estimate - self.true_angle) ** 2


def cumul_peak(
    pmf: np.ndarray, bw_check: float, grid: AngularGrid
) -> tuple[float, BeamSpec]:
    """Best windowed posterior mass around the mode.

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


def select_next_beam(
    pmf: np.ndarray,
    bw_current: float,
    p_thresh: float,
    grid: AngularGrid,
    bw_initial: float,
) -> tuple[BeamSpec, float]:
    """Pick the next flexible beam: try half the current width and double
    until the windowed mass clears the threshold; at the initial width the
    search gives up and resets to the region-wide beam."""
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    if bw_current <= 0 or bw_initial <= 0:
        raise ValueError("beamwidths must be positive")
    bw = 0.5 * bw_current
    while bw < bw_initial:
        peak_prob, spec = cumul_peak(pmf, bw, grid)
        if peak_prob >= p_thresh:
            return spec, peak_prob
        bw *= 2.0
    peak_prob, spec = cumul_peak(pmf, bw_initial, grid)
    return spec, peak_prob


def hier_beam_search(
    level_current: int,
    pmf: np.ndarray,
    grid_size: int,
    p_thresh: float,
    codebook: HierarchicalCodebook,
    start_offset: int = 0,
) -> HierNode:
    """Codebook node for the next block: start one level below the current
    one at the node containing the posterior mode, then climb to the parent
    until enough mass is captured. Level 0 always terminates the climb."""
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


def node_mass(pmf: np.ndarray, node: HierNode, grid_size: int) -> float:
    """Posterior mass inside one dyadic node."""
    per_node = grid_size // 2**node.level
    if per_node * 2**node.level != grid_size:
        raise ValueError("grid does not tile the node's level")
    return float(np.sum(pmf[node.index * per_node : (node.index + 1) * per_node]))


def select_codeword_posterior_matching(
    pmf: np.ndarray, codebook: HierarchicalCodebook, grid_size: int
) -> HierNode:
    """Known-gain codeword rule: walk down the larger-mass child while the
    mass stays at least 1/2, then choose between the deepest such node and
    its better child whichever mass is closer to 1/2."""
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


def _inference_noise(config: AdaptConfig, channel: ChannelParams) -> float:
    return max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)


def run_alignment(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
    codebook: HierarchicalCodebook | None = None,
) -> list[TrialRecord]:
    """Unknown-gain alignment of a batch of trials over all snapshot blocks.

    The trials advance in lockstep. Trial i observes channels[i] and draws
    only from rngs[i], one noise block per segment, in the order a lone run
    of that trial would. The history and the posterior carry a leading trial
    axis, so inference runs once per block for the whole batch; only the
    controller step is taken trial by trial. A single trial is a batch of
    one. The trials must share transmit power and noise variance.

    The dominant (first) path angle of each channel is the ground truth for
    its per-segment gain log and each final estimate is the posterior
    argmax. Records are numbered by their position in the batch.
    """
    count = len(channels)
    if count < 1 or len(rngs) != count:
        raise ValueError("need at least one channel and one generator per channel")
    power, channel_noise = channels[0].power, channels[0].noise_variance
    if any(c.power != power or c.noise_variance != channel_noise for c in channels):
        raise ValueError("trials of one batch must share power and noise variance")
    grid = AngularGrid(config.roi, config.grid_size)
    svam_cfg = config.svam()
    m = svam_cfg.combiner_length
    noise_var = _inference_noise(config, channels[0])
    truths = [channel.paths[0][1] for channel in channels]
    signals = np.stack([noiseless_snapshot(channel, config.n) for channel in channels])

    hierarchical = config.codebook == "hierarchical"
    if hierarchical:
        if codebook is None:
            codebook = build_hierarchical_codebook(
                config.roi, config.depth(), m, grid_size=config.grid_size
            )
        levels = [0] * count
        beams = [codebook.node(0, 0).beamformer] * count
    else:
        widths = [config.beamwidth_initial] * count
        beams = [
            design_beamformer(BeamSpec(config.roi.center, config.beamwidth_initial), m)
        ] * count

    combiners = BeamCache(lambda w: block_combiners(w, svam_cfg))
    gains = [BeamCache(lambda w, u=u: abs(beam_gain(w, u)) ** 2) for u in truths]
    history = MeasurementHistory(svam_cfg, trials=count)
    logs: list[list[SegmentLog]] = [[] for _ in range(count)]
    for t in range(config.segments):
        x = antenna_blocks(signals, channel_noise, rngs, config.n_v)
        # row-by-row products, as a lone trial computes them: one batched
        # product over all trials would round the outputs differently
        values = combine(np.stack([combiners(beam) for beam in beams]), x)
        history.append(SegmentMeasurement(values, t), beams, grid)
        gamma = gamma_mle(history, grid, power, noise_var)
        post = alpha_posterior(history, grid, gamma, power, noise_var)
        pmf = posterior_pmf(
            approx_log_likelihood(history, grid, post, power, noise_var)
        )
        modes = np.argmax(pmf, axis=-1)

        for i, beam in enumerate(beams):
            if hierarchical:
                nxt = hier_beam_search(
                    levels[i], pmf[i], grid.size, config.p_thresh, codebook,
                    config.hier_start_offset,
                )
                peak_prob = node_mass(pmf[i], nxt, grid.size)
                next_beam = codebook.node(nxt.level, nxt.index).beamformer
            else:
                spec, peak_prob = select_next_beam(
                    pmf[i], widths[i], config.p_thresh, grid,
                    config.beamwidth_initial,
                )
                next_beam = design_beamformer(spec, m)

            logs[i].append(
                SegmentLog(
                    beam=beam.spec,
                    gain_at_truth=gains[i](beam),
                    mode_index=int(modes[i]),
                    peak_prob=peak_prob,
                )
            )
            if t < config.segments - 1:
                beams[i] = next_beam
                if hierarchical:
                    levels[i] = nxt.level
                else:
                    widths[i] = spec.beamwidth

    return [
        TrialRecord(
            trial_index=index,
            true_angle=truth,
            estimate=float(grid.points[mode]),
            segments=tuple(log),
        )
        for index, (truth, mode, log) in enumerate(zip(truths, modes, logs))
    ]


def run_hiepm_known_alpha(
    config: AdaptConfig,
    channel: ChannelParams,
    codebook: HierarchicalCodebook,
    rng: np.random.Generator,
    mode: str = "svam",
    trial_index: int = 0,
) -> TrialRecord:
    """Known-gain hierarchical alignment over all snapshot blocks.

    mode "svam" slides a length-m codeword across the aperture within each
    block; mode "repeat" uses a full-length codeword for the whole block.
    With a block size of one the two are the same controller. The codebook
    passed in must match the codeword length of the chosen mode.
    """
    if mode not in ("svam", "repeat"):
        raise ValueError(f"unknown combining mode {mode!r}")
    if len(channel.paths) != 1:
        raise ValueError("known-gain controller assumes a single path")
    grid = AngularGrid(config.roi, config.grid_size)
    svam_cfg = config.svam()
    noise_var = _inference_noise(config, channel)
    alpha, truth = channel.paths[0]
    expected_taps = svam_cfg.combiner_length if mode == "svam" else config.n
    if codebook.node(0, 0).beamformer.size != expected_taps:
        raise ValueError(
            f"codebook carries {codebook.node(0, 0).beamformer.size}-tap beams, "
            f"mode {mode!r} needs {expected_taps}"
        )

    pmf = np.full(grid.size, 1.0 / grid.size)
    node = select_codeword_posterior_matching(pmf, codebook, grid.size)
    logs: list[SegmentLog] = []
    for snap in range(config.total_snapshots):
        codeword = codebook.node(node.level, node.index).beamformer
        if mode == "svam":
            w = svam_combiner(codeword, snap, svam_cfg)
        else:
            w = codeword.weights
        x = antenna_snapshot(channel, config.n, rng)
        y = combine(w, x)
        pmf = known_alpha_posterior(
            pmf, y, w, alpha, grid, channel.power, noise_var
        )
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
                node = select_codeword_posterior_matching(pmf, codebook, grid.size)

    return TrialRecord(
        trial_index=trial_index,
        true_angle=truth,
        estimate=float(grid.points[int(np.argmax(pmf))]),
        segments=tuple(logs),
    )
