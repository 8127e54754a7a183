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
  aperture for the block. It too advances a whole batch of trials in
  lockstep.

Both loops draw each trial's noise from that trial's own generator, one
block at a time, in the order a lone run of the trial would, so a batch
row reproduces the lone trial bit for bit. The inference takes the whole
batch at once and checks every row; one bad row rejects the batch. Only
the flexible controller step of run_alignment still runs trial by trial;
the hierarchical search and posterior matching pick all trials' nodes from
one table of node masses.
"""

from __future__ import annotations

import math
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
from .channel import ChannelParams, antenna_blocks, combine, noiseless_snapshot
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
        if not (0.0 < self.noise_scale < math.inf):  # NaN compares false
            raise ValueError(
                f"noise scale must be positive and finite, got {self.noise_scale}"
            )
        if self.hier_start_offset < 0:
            raise ValueError("start offset must be nonnegative")
        bw = self.beamwidth_initial
        if bw is None:
            object.__setattr__(self, "beamwidth_initial", self.roi.width)
        elif bw < self.roi.width:
            raise ValueError("initial beam must cover the region of interest")
        BeamSpec(self.roi.center, self.beamwidth_initial)  # the first flexible beam
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
    levels: Sequence[int],
    masses: Sequence[np.ndarray],
    modes: Sequence[int],
    grid_size: int,
    p_thresh: float,
    start_offset: int = 0,
) -> list[HierNode]:
    """Codebook node for each trial's next block: start one level below the
    trial's current one at the node containing its posterior mode, then
    climb to the parent until enough mass is captured. Level 0 always
    terminates the climb.

    levels and modes hold one entry per trial; masses is node_masses of the
    (trials, grid) pmf stack, and the codebook depth is len(masses) - 1.
    Every mass is read from that table, so a node's mass is node_mass's.
    """
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    depth = len(masses) - 1
    count = len(levels)
    if len(modes) != count or any(
        np.shape(m) != (count, 2**level) for level, m in enumerate(masses)
    ):
        raise ValueError("need one level and mode per trial and a mass table row")
    if grid_size % 2**depth:
        raise ValueError(
            f"grid size {grid_size} cannot resolve {2**depth} nodes evenly"
        )
    level = np.minimum(np.asarray(levels, dtype=int) + 1 + start_offset, depth)
    if np.any(level < 0):
        raise ValueError("negative codebook level")
    modes = np.asarray(modes, dtype=int)
    if np.any((modes < 0) | (modes >= grid_size)):
        raise ValueError("posterior mode outside the grid")
    index = (modes * 2**level) // grid_size
    # a climb only goes up, so one sweep from the deepest level settles all
    for at_level in range(depth, 0, -1):
        rows = np.flatnonzero(level == at_level)
        # written so that a NaN mass climbs, as a failed >= test does
        climb = rows[~(masses[at_level][rows, index[rows]] >= p_thresh)]
        level[climb] -= 1
        index[climb] //= 2
    return [HierNode(int(l), int(k)) for l, k in zip(level, index)]


def node_mass(pmf: np.ndarray, node: HierNode, grid_size: int) -> float:
    """Posterior mass inside one dyadic node."""
    per_node = grid_size // 2**node.level
    if per_node * 2**node.level != grid_size:
        raise ValueError("grid does not tile the node's level")
    return float(np.sum(pmf[node.index * per_node : (node.index + 1) * per_node]))


def node_masses(pmf: np.ndarray, depth: int) -> list[np.ndarray]:
    """Posterior mass of every dyadic node from the root down to depth.

    Entry l holds the 2**l masses of level l: (trials, 2**l) for a
    (trials, grid) stack of pmfs. Each is the sum of the node's contiguous
    pmf slice, taken the way node_mass takes it, so the two agree to the bit.
    """
    pmf = np.asarray(pmf, dtype=float)
    if depth < 0 or pmf.shape[-1] % 2**depth:
        raise ValueError("grid does not tile the node's level")
    lead = pmf.shape[:-1]
    return [
        pmf.reshape(lead + (2**level, -1)).sum(axis=-1) for level in range(depth + 1)
    ]


def select_codeword_posterior_matching(masses: Sequence[np.ndarray]) -> list[HierNode]:
    """Known-gain codeword rule, one node per trial: walk down the
    larger-mass child while the mass stays at least 1/2, then choose between
    the deepest such node and its better child whichever mass is closer to
    1/2. masses is node_masses of a (trials, grid) pmf stack; the codebook
    depth is len(masses) - 1."""
    count = len(masses[0])
    if any(np.shape(m) != (count, 2**level) for level, m in enumerate(masses)):
        raise ValueError("need a (trials, 2**level) mass table per level")
    rows = np.arange(count)
    level = np.zeros(count, dtype=int)
    index = np.zeros(count, dtype=int)
    mass = np.ones(count)
    walking = np.ones(count, dtype=bool)
    for depth, below in enumerate(masses[1:], start=1):
        left, right = below[rows, 2 * index], below[rows, 2 * index + 1]
        take_left = left >= right
        child = np.where(take_left, 2 * index, 2 * index + 1)
        child_mass = np.where(take_left, left, right)
        descend = walking & (child_mass >= 0.5)
        # a walk that stops here still ends on the child if it is closer
        moved = descend | (
            walking & ~descend & (np.abs(child_mass - 0.5) < np.abs(mass - 0.5))
        )
        level[moved] = depth
        index[moved] = child[moved]
        mass[descend] = child_mass[descend]
        walking = descend
    return [HierNode(int(l), int(k)) for l, k in zip(level, index)]


def _inference_noise(config: AdaptConfig, channel: ChannelParams) -> float:
    return max(config.noise_scale * channel.noise_variance, NOISELESS_VAR_FLOOR)


def _batch_inputs(
    config: AdaptConfig, channels: Sequence[ChannelParams], rngs: Sequence
) -> tuple[float, float, list[float], np.ndarray, list[BeamCache]]:
    """Check a batch for one generator per channel and a shared transmit power
    and noise variance; return those two, each trial's true (first-path)
    angle, the noiseless snapshots and a |beta(truth)|^2 cache per trial."""
    if len(channels) < 1 or len(rngs) != len(channels):
        raise ValueError("need at least one channel and one generator per channel")
    power, noise = channels[0].power, channels[0].noise_variance
    if any(c.power != power or c.noise_variance != noise for c in channels):
        raise ValueError("trials of one batch must share power and noise variance")
    truths = [channel.paths[0][1] for channel in channels]
    signals = np.stack([noiseless_snapshot(channel, config.n) for channel in channels])
    gains = [BeamCache(lambda w, u=u: abs(beam_gain(w, u)) ** 2) for u in truths]
    return power, noise, truths, signals, gains


def _records(
    grid: AngularGrid, truths: list[float], modes: np.ndarray, logs: list
) -> list[TrialRecord]:
    """Records numbered by batch position; each estimate is the final mode."""
    return [
        TrialRecord(index, truth, float(grid.points[mode]), tuple(log))
        for index, (truth, mode, log) in enumerate(zip(truths, modes, logs))
    ]


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
    axis, so inference and the hierarchical search run once per block for
    the whole batch; only the flexible controller step is taken trial by
    trial. A single trial is a batch of one. The trials must share transmit
    power and noise variance.

    The dominant (first) path angle of each channel is the ground truth for
    its per-segment gain log and each final estimate is the posterior
    argmax. Records are numbered by their position in the batch.
    """
    count = len(channels)
    power, channel_noise, truths, signals, gains = _batch_inputs(config, channels, rngs)
    grid = AngularGrid(config.roi, config.grid_size)
    svam_cfg = config.svam()
    m = svam_cfg.combiner_length
    noise_var = _inference_noise(config, channels[0])

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
    history = MeasurementHistory(svam_cfg, trials=count)
    logs: list[list[SegmentLog]] = [[] for _ in range(count)]
    for t in range(config.segments):
        x = antenna_blocks(signals, channel_noise, rngs, config.n_v)
        # combine gives every row the bits a lone trial's product has
        values = combine(np.stack([combiners(beam) for beam in beams]), x)
        history.append(SegmentMeasurement(values, t), beams, grid)
        gamma = gamma_mle(history, grid, power, noise_var)
        post = alpha_posterior(history, grid, gamma, power, noise_var)
        pmf = posterior_pmf(
            approx_log_likelihood(history, grid, post, power, noise_var)
        )
        modes = np.argmax(pmf, axis=-1)

        if hierarchical:
            masses = node_masses(pmf, codebook.depth)
            nodes = hier_beam_search(
                levels, masses, modes, grid.size, config.p_thresh,
                config.hier_start_offset,
            )
            peaks = [
                float(masses[node.level][i, node.index])
                for i, node in enumerate(nodes)
            ]
        else:
            picks = [
                select_next_beam(
                    pmf[i], widths[i], config.p_thresh, grid, config.beamwidth_initial
                )
                for i in range(count)
            ]
            peaks = [peak_prob for _, peak_prob in picks]

        for i, beam in enumerate(beams):
            logs[i].append(
                SegmentLog(
                    beam=beam.spec,
                    gain_at_truth=gains[i](beam),
                    mode_index=int(modes[i]),
                    peak_prob=peaks[i],
                )
            )
        if t == config.segments - 1:
            break  # the beams chosen after the last block are never used
        if hierarchical:
            levels = [node.level for node in nodes]
            beams = [codebook.node(node.level, node.index).beamformer for node in nodes]
        else:
            widths = [spec.beamwidth for spec, _ in picks]
            beams = [design_beamformer(spec, m) for spec, _ in picks]

    return _records(grid, truths, modes, logs)


def run_hiepm_known_alpha(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
    codebook: HierarchicalCodebook,
    mode: str = "svam",
) -> list[TrialRecord]:
    """Known-gain hierarchical alignment of a batch of trials over all
    snapshot blocks.

    mode "svam" slides a length-m codeword across the aperture within each
    block; mode "repeat" uses a full-length codeword for the whole block.
    With a block size of one the two are the same controller. The codebook
    passed in must match the codeword length of the chosen mode.

    The trials advance in lockstep. Trial i observes channels[i] and draws
    only from rngs[i], one noise block per segment, in the order a lone run
    of that trial would. The Bayes update still runs once per snapshot, in
    time order, but for the whole batch at once: each row of the
    (trials, grid) posterior is the lone trial's, and every input check
    applies to each row. Posterior matching then picks one codeword per
    trial from the node masses of all trials. A single trial is a batch of
    one. The trials must share transmit power and noise variance and have a
    single path each. Records are numbered by their position in the batch.
    """
    if mode not in ("svam", "repeat"):
        raise ValueError(f"unknown combining mode {mode!r}")
    count = len(channels)
    power, channel_noise, truths, signals, gains = _batch_inputs(config, channels, rngs)
    if any(len(channel.paths) != 1 for channel in channels):
        raise ValueError("known-gain controller assumes a single path")
    grid = AngularGrid(config.roi, config.grid_size)
    svam_cfg = config.svam()
    noise_var = _inference_noise(config, channels[0])
    alphas = np.array([channel.paths[0][0] for channel in channels])
    expected_taps = svam_cfg.combiner_length if mode == "svam" else config.n
    if codebook.node(0, 0).beamformer.size != expected_taps:
        raise ValueError(
            f"codebook carries {codebook.node(0, 0).beamformer.size}-tap beams, "
            f"mode {mode!r} needs {expected_taps}"
        )
    manifold = grid.manifold(config.n)

    def block_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one block's full-length combiners and, by the product a lone
        # update takes, each combiner's response over the grid
        if mode == "svam":
            rows = block_combiners(weights, svam_cfg)
        else:
            rows = np.tile(weights, (config.n_v, 1))
        return rows, np.stack([row.conj() @ manifold for row in rows])

    blocks = BeamCache(block_rows)
    pmf = np.full((count, grid.size), 1.0 / grid.size)
    nodes = select_codeword_posterior_matching(node_masses(pmf, codebook.depth))
    logs: list[list[SegmentLog]] = [[] for _ in range(count)]
    for t in range(config.segments):
        codewords = [codebook.node(nd.level, nd.index).beamformer for nd in nodes]
        cached = [blocks(codeword) for codeword in codewords]
        combiners = np.stack([rows for rows, _ in cached])
        responses = np.stack([response for _, response in cached])
        x = antenna_blocks(signals, channel_noise, rngs, config.n_v)
        # one vdot per row, and one update per snapshot in time order:
        # merging a block's log-likelihoods would round differently
        values = combine(combiners, x)
        for r in range(config.n_v):
            pmf = known_alpha_posterior(
                pmf, values[:, r], combiners[:, r], alphas, grid, power, noise_var,
                response=responses[:, r],
            )
        masses = node_masses(pmf, codebook.depth)
        modes = np.argmax(pmf, axis=-1)
        for i, (node, codeword) in enumerate(zip(nodes, codewords)):
            logs[i].append(
                SegmentLog(
                    beam=codeword.spec,
                    gain_at_truth=gains[i](codeword),
                    mode_index=int(modes[i]),
                    peak_prob=float(masses[node.level][i, node.index]),
                )
            )
        if t < config.segments - 1:
            nodes = select_codeword_posterior_matching(masses)

    return _records(grid, truths, modes, logs)
