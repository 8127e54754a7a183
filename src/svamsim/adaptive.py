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
row reproduces the lone trial bit for bit. Each trial's channel carries
its own received path gain; run_alignment also lets each trial have its
own noise variance, so one batch can hold every SNR of a sweep point. The
inference takes the whole batch at once and checks every row; one bad row
rejects the batch. No step runs trial by trial. The flexible step takes all
trials' pmfs and widths and returns arrays of directions, widths and
masses; the hierarchical search and posterior matching pick all trials'
nodes, as arrays of levels and indices, from one table of node masses. A
block designs each distinct (direction, width) pair once and looks each
distinct beam up once for its combiners and response rows. The one
per-trial call left in a block is the flexible step's np.convolve of each
trial's pmf, once per width tried: its dot order fixes the bits of windows
of 16 points and up. Both loops return one Trials outcome, a row per
trial in batch order; gains at the truth are computed only when asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .arrays import AngularGrid, RegionOfInterest, check_integer
from .beams import (
    Beamformer,
    BeamSpec,
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
from .sensing import BeamCache, MeasurementHistory, block_combiners

# Noiseless channels are allowed as a sentinel (infinite SNR); the Gaussian
# scoring still needs a positive variance, so inference falls back to this
# floor. Large enough that closed-form cancellation noise stays harmless.
NOISELESS_VAR_FLOOR = 1e-12

CODEBOOK_MODES = ("flexible", "hierarchical")


def check_blocks(n: int, n_v: int, total_snapshots: int) -> None:
    """Reject a block layout that cannot run: n_v outside [1, n], no
    snapshot, or blocks of n_v that do not tile the snapshots."""
    if not (1 <= n_v <= n):
        raise ValueError(f"virtual size {n_v} outside [1, aperture {n}]")
    if total_snapshots < 1:
        raise ValueError("need at least one snapshot")
    if total_snapshots % n_v:
        raise ValueError(f"block size {n_v} must divide {total_snapshots} snapshots")


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
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("n", "n_v", "grid_size", "total_snapshots"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        check_blocks(self.n, self.n_v, self.total_snapshots)
        if self.grid_size < 1:
            raise ValueError(f"grid size must be positive, got {self.grid_size}")
        if not (0.0 < self.p_thresh < 1.0):
            raise ValueError("confidence threshold must lie in (0, 1)")
        if self.codebook not in CODEBOOK_MODES:
            raise ValueError(f"unknown codebook mode {self.codebook!r}")
        if not (0.0 < self.noise_scale < math.inf):  # NaN compares false
            raise ValueError(
                f"noise scale must be positive and finite, got {self.noise_scale}"
            )
        if self.codebook == "hierarchical" and self.grid_size % 2 ** self.depth():
            raise ValueError(
                f"grid size {self.grid_size} cannot resolve "
                f"{2 ** self.depth()} nodes evenly"
            )

    @property
    def segments(self) -> int:
        return self.total_snapshots // self.n_v

    @property
    def combiner_length(self) -> int:
        """Taps m = n - n_v + 1 of the sliding sub-aperture combiner."""
        return self.n - self.n_v + 1

    def depth(self) -> int:
        """Levels of the hierarchical codebook: log2 of the grid size."""
        return int(np.log2(self.grid_size))


@dataclass(frozen=True, eq=False)
class Trials:
    """What a batch of trials did and saw, a row per trial in batch order.

    true_angle and estimate (the final posterior mode) hold one angle per
    trial; mode_index and peak_prob are (trials, blocks) arrays of each
    block's posterior mode and the mass its chosen beam or node captured;
    beams[i][t] is the Beamformer trial i sensed block t with.
    """

    true_angle: np.ndarray
    estimate: np.ndarray
    mode_index: np.ndarray
    peak_prob: np.ndarray
    beams: tuple[tuple[Beamformer, ...], ...]

    def __getitem__(self, rows: slice) -> Trials:
        """The outcome of the trials in the given row slice."""
        return Trials(*(getattr(self, f.name)[rows] for f in fields(self)))

    def gain_at_truth(self) -> np.ndarray:
        """(trials, blocks) linear gain |beta_t(u_true)|^2 of each block's
        beam at the trial's true angle.

        One beam_gain of all stacked beams, each row bit-equal to one vdot;
        |beta|^2 is taken on Python complex numbers, as a lone trial takes it.
        """
        weights = np.stack([[beam.weights for beam in row] for row in self.beams])
        beta = beam_gain(weights, self.true_angle[:, None])
        return np.array([[abs(b) ** 2 for b in row] for row in beta.tolist()])


def _check_widths(widths: np.ndarray, trials: int) -> np.ndarray:
    """One positive, finite beamwidth per trial, as a float array."""
    widths = np.asarray(widths, dtype=float)
    if widths.shape != (trials,):
        raise ValueError(f"need one beamwidth per trial, got shape {widths.shape}")
    # written so that a NaN width, which compares false, is rejected too
    bad = ~((widths > 0) & (widths < math.inf))
    if bad.any():
        raise ValueError(f"beamwidth must be positive and finite, got {widths[bad]}")
    return widths


def cumul_peak(
    pmf: np.ndarray, widths: np.ndarray, grid: AngularGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Best windowed posterior mass around each trial's mode.

    pmf is the (trials, grid) stack and widths holds one beamwidth per
    trial. Trial i slides a window of round(widths[i]/spacing) grid points
    (at least one; placements may hang off the grid edges, where they
    collect nothing) over its pmf and keeps only placements containing its
    mode. Returns the winning masses and the beam directions, one per trial:
    each direction is the midpoint of the winning window's grid points,
    clamped so a beam of that width stays inside the region.

    Each trial's window sums are one np.convolve(pmf[i], ones(window)): its
    dot order fixes the bits of windows of 16 points and up, where a
    left-to-right running sum would round differently.
    """
    pmf = np.asarray(pmf, dtype=float)
    if pmf.ndim != 2 or pmf.shape[1] != grid.size:
        raise ValueError("need a (trials, grid) pmf stack on the grid")
    widths = _check_widths(widths, len(pmf))
    windows = np.maximum(np.rint(widths / grid.spacing).astype(int), 1)
    modes = np.argmax(pmf, axis=-1)
    # candidates[i, k]: the window of trial i ending k points past its mode
    longest = windows.max(initial=1)
    candidates = np.full((len(pmf), longest), -np.inf)
    ones = np.ones(longest)
    for row, p, window, mode in zip(candidates, pmf, windows.tolist(), modes.tolist()):
        row[:window] = np.convolve(p, ones[:window])[mode : mode + window]
    k = np.argmax(candidates, axis=-1)  # ties: widest overlap to the left wins
    peaks = candidates[np.arange(len(pmf)), k]
    end = modes + k
    start = end - windows + 1
    center = grid.roi.u_left + 0.5 * (start + end) * grid.spacing
    low = grid.roi.u_left + 0.5 * widths
    high = grid.roi.u_right - 0.5 * widths
    directions = np.where(
        low > high, grid.roi.center, np.minimum(np.maximum(center, low), high)
    )
    return peaks, directions


def select_next_beam(
    pmf: np.ndarray,
    widths: np.ndarray,
    p_thresh: float,
    grid: AngularGrid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick each trial's next flexible beam: try half its current width and
    double until the windowed mass clears the threshold; at the region's
    width the search gives up and resets to the region-wide beam.

    pmf is the (trials, grid) stack and widths holds each trial's current
    beamwidth. Returns the directions, widths and windowed masses, one per
    trial. Every try takes all trials still searching at once.
    """
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    pmf = np.asarray(pmf, dtype=float)
    widest = grid.roi.width
    bw = 0.5 * _check_widths(widths, len(pmf))
    peaks = np.empty(len(bw))
    directions = np.empty(len(bw))
    searching = np.flatnonzero(bw < widest)
    while searching.size:
        peak, direction = cumul_peak(pmf[searching], bw[searching], grid)
        won = peak >= p_thresh
        peaks[searching[won]] = peak[won]
        directions[searching[won]] = direction[won]
        lost = searching[~won]  # a NaN mass fails the test too
        bw[lost] *= 2.0
        searching = lost[bw[lost] < widest]
    # every try failed, or the first was already as wide as the region
    reset = np.flatnonzero(bw >= widest)
    if reset.size:
        bw[reset] = widest
        peaks[reset], directions[reset] = cumul_peak(pmf[reset], bw[reset], grid)
    return directions, bw, peaks


def hier_beam_search(
    levels: Sequence[int],
    masses: Sequence[np.ndarray],
    modes: Sequence[int],
    grid_size: int,
    p_thresh: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Codebook node (level, index) for each trial's next block: start one
    level below the trial's current one at the node containing its posterior
    mode, then climb to the parent until enough mass is captured. Level 0
    always terminates the climb.

    levels and modes hold one entry per trial; masses is node_masses of the
    (trials, grid) pmf stack, and the codebook depth is len(masses) - 1.
    Every mass is read from that table, so a node's mass is node_mass's.
    Returns the levels and the indices as integer arrays, one entry per trial.
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
    level = np.minimum(np.asarray(levels, dtype=int) + 1, depth)
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
    return level, index


def node_mass(pmf: np.ndarray, level: int, index: int) -> float:
    """Posterior mass inside dyadic node (level, index) of the pmf's grid."""
    if level < 0 or not (0 <= index < 2**level):
        raise ValueError(f"node ({level}, {index}) is not dyadic")
    per_node = len(pmf) // 2**level
    if per_node * 2**level != len(pmf):
        raise ValueError("grid does not tile the node's level")
    return float(np.sum(pmf[index * per_node : (index + 1) * per_node]))


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


def select_codeword_posterior_matching(
    masses: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Known-gain codeword rule, one (level, index) per trial: walk down the
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
    return level, index


def _inference_noise(config: AdaptConfig, noise_variance: np.ndarray) -> np.ndarray:
    """Each trial's noise variance as the inference assumes it."""
    return np.maximum(config.noise_scale * noise_variance, NOISELESS_VAR_FLOOR)


def _batch_inputs(
    config: AdaptConfig, channels: Sequence[ChannelParams], rngs: Sequence
) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Check a batch for one generator per channel; return each trial's
    noise variance and true angle (its path's) and the noiseless snapshots."""
    if len(channels) < 1 or len(rngs) != len(channels):
        raise ValueError("need at least one channel and one generator per channel")
    noise = np.array([channel.noise_variance for channel in channels])
    truths = [channel.u for channel in channels]
    signals = np.stack([noiseless_snapshot(channel, config.n) for channel in channels])
    return noise, truths, signals


def _beam_per_trial(
    first: np.ndarray, second: np.ndarray, beam: Callable[..., Beamformer]
) -> list[Beamformer]:
    """beam(first[i], second[i]) for every trial i, called once per distinct
    pair: a (direction, width) to design or a (level, index) to look up."""
    keys = list(zip(first.tolist(), second.tolist()))
    beams = {key: beam(*key) for key in dict.fromkeys(keys)}
    return [beams[key] for key in keys]


def _node_peaks(
    masses: Sequence[np.ndarray], levels: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Each trial's mass of its (level, index) node, gathered from the
    node_masses tables laid side by side: node (l, k) is column 2**l - 1 + k."""
    table = np.concatenate(masses, axis=-1)
    return table[np.arange(len(table)), 2**levels - 1 + indices]


def _trials(grid: AngularGrid, truths: list[float], beams, modes, peaks) -> Trials:
    """The outcome from a run's per-block lists of beams, posterior modes and
    captured masses; each estimate is the final mode."""
    return Trials(
        np.array(truths), grid.points[modes[-1]], np.stack(modes, axis=-1),
        np.stack(peaks, axis=-1), tuple(zip(*beams)),
    )


def run_alignment(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
) -> Trials:
    """Unknown-gain alignment of a batch of trials over all snapshot blocks.

    The trials advance in lockstep. Trial i observes channels[i] and draws
    only from rngs[i], one noise block per segment, in the order a lone run
    of that trial would. The history and the posterior carry a leading trial
    axis, so inference, the controller step, beam design and every lookup
    run once per block for the whole batch. A single trial is a batch of
    one. Each trial may have its own
    noise variance, and a noiseless trial draws nothing from its generator.

    Each channel's path angle is the trial's true angle, and each final
    estimate is the posterior argmax. The flexible controller starts
    from, and resets to, the region-wide beam; the hierarchical one climbs a
    codebook log2(grid size) levels deep.
    """
    count = len(channels)
    channel_noise, truths, signals = _batch_inputs(config, channels, rngs)
    grid = AngularGrid(config.roi, config.grid_size)
    m = config.combiner_length
    noise_var = _inference_noise(config, channel_noise)[:, None]

    hierarchical = config.codebook == "hierarchical"
    if hierarchical:
        codebook = build_hierarchical_codebook(
            config.roi, config.depth(), m, grid_size=config.grid_size
        )
        levels = [0] * count
        beams = [codebook.node(0, 0).beamformer] * count
    else:
        widths = np.full(count, config.roi.width)
        beams = [
            design_beamformer(BeamSpec(config.roi.center, config.roi.width), m)
        ] * count

    combiners = BeamCache(lambda w: block_combiners(w, config.n))
    history = MeasurementHistory(config.n_v, grid, count)
    block_modes, block_peaks = [], []
    for t in range(config.segments):
        x = antenna_blocks(signals, channel_noise, rngs, config.n_v)
        # combine gives every row the bits a lone trial's product has
        values = combine(combiners.stack(beams), x)
        history.append(values, beams)
        gamma = gamma_mle(history, noise_var)
        post = alpha_posterior(history, gamma, noise_var)
        pmf = posterior_pmf(approx_log_likelihood(history, post, noise_var))
        modes = np.argmax(pmf, axis=-1)

        if hierarchical:
            masses = node_masses(pmf, codebook.depth)
            levels, indices = hier_beam_search(
                levels, masses, modes, grid.size, config.p_thresh
            )
            peaks = _node_peaks(masses, levels, indices)
        else:
            directions, widths, peaks = select_next_beam(
                pmf, widths, config.p_thresh, grid
            )

        block_modes.append(modes)
        block_peaks.append(peaks)
        if t == config.segments - 1:
            break  # the beams chosen after the last block are never used
        if hierarchical:
            beams = _beam_per_trial(
                levels, indices, lambda level, k: codebook.node(level, k).beamformer
            )
        else:
            beams = _beam_per_trial(
                directions, widths, lambda u, bw: design_beamformer(BeamSpec(u, bw), m)
            )

    return _trials(grid, truths, history.beamformers, block_modes, block_peaks)


def run_hiepm_known_alpha(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
    codebook: HierarchicalCodebook,
    mode: str = "svam",
) -> Trials:
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
    one. The trials must share their noise variance. The codebook must
    cover the config's region.
    """
    if mode not in ("svam", "repeat"):
        raise ValueError(f"unknown combining mode {mode!r}")
    count = len(channels)
    channel_noise, truths, signals = _batch_inputs(config, channels, rngs)
    # one shared variance keeps the snapshot and Bayes updates on scalars
    if (channel_noise != channel_noise[0]).any():
        raise ValueError("trials of one batch must share noise variance")
    noise_var = float(_inference_noise(config, channel_noise)[0])
    channel_noise = float(channel_noise[0])
    grid = AngularGrid(config.roi, config.grid_size)
    alphas = np.array([channel.alpha for channel in channels])
    taps = config.combiner_length if mode == "svam" else config.n
    region = (config.roi.u_left, config.roi.u_right)
    root = codebook.node(0, 0)
    if (root.beamformer.size, root.span) != (taps, region):
        raise ValueError(
            f"codebook of {root.beamformer.size}-tap beams over {root.span}; "
            f"mode {mode!r} needs {taps} taps over the region {region}"
        )
    manifold = grid.manifold(config.n)

    def block_rows(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # one block's full-length combiners and, by the product a lone
        # update takes, each combiner's response over the grid; every row
        # carries the codeword's taps, so one norm check covers the block
        norm = np.linalg.norm(weights)
        if norm > 1.0 + 1e-9:
            raise ValueError(f"codeword norm {norm} exceeds 1")
        if mode == "svam":
            rows = block_combiners(weights, config.n)
        else:
            rows = np.tile(weights, (config.n_v, 1))
        return rows, np.matmul(rows.conj()[..., None, :], manifold)[..., 0, :]

    blocks = BeamCache(block_rows)
    pmf = np.full((count, grid.size), 1.0 / grid.size)
    masses = node_masses(pmf, codebook.depth)
    levels, indices = select_codeword_posterior_matching(masses)
    block_codewords, block_modes, block_peaks = [], [], []
    for t in range(config.segments):
        codewords = _beam_per_trial(
            levels, indices, lambda level, k: codebook.node(level, k).beamformer
        )
        cached = [blocks(codeword) for codeword in codewords]
        combiners = np.stack([rows for rows, _ in cached])
        responses = np.stack([response for _, response in cached])
        x = antenna_blocks(signals, channel_noise, rngs, config.n_v)
        # one vdot per row, and one update per snapshot in time order:
        # merging a block's log-likelihoods would round differently
        values = combine(combiners, x)
        for r in range(config.n_v):
            pmf = known_alpha_posterior(
                pmf, values[:, r], alphas, responses[:, r], noise_var
            )
        masses = node_masses(pmf, codebook.depth)
        block_codewords.append(codewords)
        block_modes.append(np.argmax(pmf, axis=-1))
        block_peaks.append(_node_peaks(masses, levels, indices))
        if t < config.segments - 1:
            levels, indices = select_codeword_posterior_matching(masses)

    return _trials(grid, truths, block_codewords, block_modes, block_peaks)
