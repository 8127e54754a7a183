"""Closed-loop beam controllers driving the posterior toward the path angle.

One loop runs every alignment. Each block senses a batch of trials in
lockstep, appends the outputs to the measurement history, scores the grid
with the fitted gain or each channel's known gain, and takes a controller
step. The step is an argument of the loop, apart from the score: flexible
(re-design a beam around the posterior mass, halving or doubling its width
against a confidence threshold), hierarchical (climb a dyadic codebook from
the node holding the mode) or posterior matching (the codebook node whose
mass is closest to 1/2). run_alignment fits the gain and takes one of the
first two; run_hiepm_known_alpha, the known-gain hiePM case study, takes the
third with codewords that slide across the aperture within a block
(n - n_v + 1 taps) or, with n taps and so one shift, repeat.

A batch row reproduces a lone run of its trial bit for bit; one bad row
rejects the batch. The noise is drawn once per run, not per block: each
distinct noisy generator draws all its snapshots' normals up front
(channel.BatchNoise, total_snapshots * 2 * n floats per generator), and
each block scales its slice; a run on the last run's generator states,
as in a paired comparison, reuses its draw. Each beam's block combiners
and grid responses are built once per run into a table (sensing.BeamTable)
that every block reads by row: node (l, k) of a codebook is row
2**l - 1 + k, and the flexible controller numbers its designs as it makes
them. A block keeps its beams as those rows. What still runs row by row in
a block is the flexible controller's lookup of each trial's (direction,
width) row and the flexible step's np.convolve of each trial's pmf, once
per width tried, whose dot order fixes the bits of windows of 16 points
and up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .arrays import AngularGrid, RegionOfInterest, check_integer, check_roi
from .beams import (
    Beamformer,
    BeamSpec,
    HierarchicalCodebook,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)
from .channel import BatchNoise, ChannelParams, combine, noiseless_snapshot
from .inference import (
    AlphaPosterior,
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    posterior_pmf,
)
from .sensing import BeamTable, MeasurementHistory

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
        check_roi(self.roi)
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
    block's posterior mode and the mass its step recorded (flexible and
    hierarchical: the next beam's or node's; posterior matching: the sensed
    node's); beams is the (trials, blocks) object array whose entry
    beams[i, t] is the Beamformer trial i sensed block t with.
    """

    true_angle: np.ndarray
    estimate: np.ndarray
    mode_index: np.ndarray
    peak_prob: np.ndarray
    beams: np.ndarray

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

    Halved widths stop at 2^-52, the narrowest width whose band edges stay
    distinct floats at every direction in [-1, 1); a physical floor (grid
    spacing or beam design's 2/m) would change recorded outputs.
    """
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    pmf = np.asarray(pmf, dtype=float)
    widest = grid.roi.width
    bw = np.maximum(0.5 * _check_widths(widths, len(pmf)), np.finfo(float).eps)
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


def _mass_table(masses: Sequence[np.ndarray]) -> tuple[int, int]:
    """(trials, depth) of a node_masses table: (trials, 2**l) masses per level l."""
    if not len(masses):
        raise ValueError("mass table is missing the root level's masses")
    count = len(masses[0])
    if any(np.shape(m) != (count, 2**level) for level, m in enumerate(masses)):
        raise ValueError("need a (trials, 2**level) mass table per level")
    return count, len(masses) - 1


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
    count, depth = _mass_table(masses)
    if len(levels) != count or len(modes) != count:
        raise ValueError("need one level and mode per trial of the mass table")
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
    larger-mass child (the left one on ties) while the mass stays at least
    1/2, then choose between the deepest such node and its better child
    whichever mass is closer to 1/2; the root counts as mass 1. masses is
    node_masses of a (trials, grid) pmf stack; the codebook depth is
    len(masses) - 1.

    The whole batch at once: the larger-child path is followed to the
    leaves with one gather per level, then each trial stops at the deepest
    level whose path masses all stay at least 1/2 and makes one closer test.
    """
    count, depth = _mass_table(masses)
    rows = np.arange(count)
    # at: the path node's position row * 2**level + k in its level's table
    at = rows
    path, mass = [at], [np.ones(count)]
    for level in range(1, depth + 1):
        nodes = masses[level].reshape(-1)
        left, right = nodes.reshape(-1, 2)[at].T
        at = 2 * at + ~(left >= right)  # a NaN pair takes the right child
        path.append(at)
        mass.append(nodes[at])
    # below the leaves a NaN mass, which fails both tests below, as a NaN
    # mass on the path does
    mass.append(np.full(count, np.nan))
    path, mass = np.array(path), np.array(mass)
    level = (mass[1:] >= 0.5).argmin(axis=0)
    # a walk that stops above the leaves still ends on the child if it is closer
    level += np.abs(mass[level + 1, rows] - 0.5) < np.abs(mass[level, rows] - 0.5)
    return level, path[level, rows] - (rows << level)


def _node_rows(levels: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Row 2**l - 1 + k of node (l, k) in the levels laid side by side."""
    return 2**levels - 1 + indices


def _node_peaks(masses: Sequence[np.ndarray], levels, indices) -> np.ndarray:
    """Mass of node (levels[i], indices[i]) in row i of a node_masses table."""
    table = np.concatenate(masses, axis=-1)
    return table[np.arange(len(table)), _node_rows(levels, indices)]


def _codebook_beams(book: HierarchicalCodebook) -> list[Beamformer]:
    """The codebook's beams in node-row order (_node_rows)."""
    return [node.beamformer for level in book.levels for node in level]


def _align(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
    gains: np.ndarray | None,
    keys: tuple[np.ndarray, np.ndarray],
    locate: Callable[..., np.ndarray],
    beams: Sequence[Beamformer],
    step: Callable[..., tuple],
) -> Trials:
    """The one alignment loop. The controller is keys, each trial's first
    beam key as two arrays; locate(*keys) -> each trial's row of beams, the
    run's row-numbered beam list, which locate may extend; and step(pmf,
    modes, keys) -> (peaks, next keys). Trials.beams is the beam list
    indexed by the blocks' rows, once, after the last block.
    Known gains score as AlphaPosterior(gain, 0), the known-gain Gaussian
    log density; else each block fits the gain."""
    count = len(channels)
    if count < 1 or len(rngs) != count:
        raise ValueError("need at least one channel and one generator per channel")
    channel_noise = np.array([channel.noise_variance for channel in channels])
    signals = np.stack([noiseless_snapshot(channel, config.n) for channel in channels])
    # the variance the inference assumes
    noise_var = np.maximum(config.noise_scale * channel_noise, NOISELESS_VAR_FLOOR)
    grid = AngularGrid(config.roi, config.grid_size)
    noise = BatchNoise(rngs, channel_noise, config.total_snapshots, config.n)
    table = BeamTable(beams, config.n, config.n_v, grid)
    history = MeasurementHistory(config.n, config.n_v, grid, count, noise_var)
    block_rows, block_modes, block_peaks = [], [], []
    for start in range(0, config.total_snapshots, config.n_v):
        # located here, so no beam is designed after the last block
        rows = locate(*keys)
        combiners, responses = table.gather(rows)
        x = noise.observe(signals, start, start + config.n_v)
        # combine gives every row the bits a lone trial's product has
        values = combine(combiners, x)
        history.append(values, responses, table.taps)
        if gains is None:
            post = alpha_posterior(history, gamma_mle(history))
        else:
            post = AlphaPosterior(mean=gains[:, None], variance=0.0)
        pmf = posterior_pmf(approx_log_likelihood(history, post))
        modes = np.argmax(pmf, axis=-1)
        peaks, keys = step(pmf, modes, keys)
        block_rows.append(rows)
        block_modes.append(modes)
        block_peaks.append(peaks)
    return Trials(
        np.array([channel.u for channel in channels]),
        grid.points[block_modes[-1]],  # each estimate is the final mode
        np.stack(block_modes, axis=-1),
        np.stack(block_peaks, axis=-1),
        np.array(beams, dtype=object)[np.stack(block_rows, axis=-1)],
    )


def run_alignment(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
) -> Trials:
    """Unknown-gain alignment of a batch of trials over all snapshot blocks.

    Trial i observes channels[i] with its own noise variance and draws only
    from rngs[i]: one standard_normal((total_snapshots, 2, n)) before the
    first block, the numbers a lone run of that trial draws block by block;
    a noiseless trial draws nothing. Rows that hold the same generator
    object share its draw (BatchNoise), as a sweep's rows of one trial at
    several SNRs do: the generator moves total_snapshots observations per
    run, and each row sees the numbers a lone run on a fresh copy of it
    sees. The draw holds total_snapshots * 2 * n floats per distinct noisy
    generator; a later run whose generators stand where this run's stood
    reuses it, with the same bits and end states. A single trial is a
    batch of one. The flexible controller starts from, and resets to, the
    region-wide beam; the hierarchical one climbs a codebook log2(grid
    size) levels deep from its root. Each records the mass of the beam or
    node it picks for the next block.
    """
    count, m, p_thresh = len(channels), config.combiner_length, config.p_thresh
    if config.codebook == "flexible":
        grid = AngularGrid(config.roi, config.grid_size)

        def flexible(pmf, modes, keys):
            u, bw, peaks = select_next_beam(pmf, keys[1], p_thresh, grid)
            return peaks, (u, bw)

        region = (np.full(count, config.roi.center), np.full(count, config.roi.width))
        designed: list[Beamformer] = []
        row_of: dict[tuple[float, float], int] = {}  # (direction, width) -> row

        def design(u, bw):
            rows = []
            for key in zip(u.tolist(), bw.tolist()):
                if key not in row_of:
                    row_of[key] = len(designed)
                    designed.append(design_beamformer(BeamSpec(*key), m))
                rows.append(row_of[key])
            return np.array(rows)

        return _align(
            config, channels, rngs, None, region, design, designed, flexible
        )

    book = build_hierarchical_codebook(config.roi, config.depth(), m)

    def hierarchical(pmf, modes, keys):
        masses = node_masses(pmf, book.depth)
        nodes = hier_beam_search(keys[0], masses, modes, config.grid_size, p_thresh)
        return _node_peaks(masses, *nodes), nodes

    root = np.zeros(count, dtype=int)
    return _align(
        config, channels, rngs, None, (root, root), _node_rows,
        _codebook_beams(book), hierarchical,
    )


def run_hiepm_known_alpha(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    rngs: Sequence[np.random.Generator],
    codebook: HierarchicalCodebook,
) -> Trials:
    """Known-gain hierarchical alignment (hiePM) of a batch of trials over
    all snapshot blocks: the loop of run_alignment, scored with each
    channel's gain and stepped by posterior matching over the codebook from
    the node a uniform pmf picks. Each block records the mass of the node it
    sensed with.

    The codewords' tap count sets the combining: m = n - n_v + 1 taps slide
    across the aperture within each block, n taps are repeated at full
    aperture for the whole block. With a block size of one the two are the
    same. Any other tap count is rejected, and so is a codebook that mixes
    tap counts, whose root does not span the config's region or that has
    a codeword of norm above 1. Each trial may have its own noise variance.
    """
    root = codebook.node(0, 0)
    taps = root.beamformer.size
    region = (config.roi.u_left, config.roi.u_right)
    if taps not in (config.combiner_length, config.n) or root.span != region:
        raise ValueError(
            f"codebook of {taps}-tap beams over {root.span}; blocks of "
            f"{config.n_v} on {config.n} elements need {config.combiner_length} "
            f"(sliding) or {config.n} (repeated) taps over the region {region}"
        )
    beams = _codebook_beams(codebook)
    other = {f.size for f in beams} - {taps}
    if other:
        raise ValueError(f"codebook mixes {taps}-tap and {min(other)}-tap codewords")
    norm = np.linalg.norm(np.stack([f.weights for f in beams]), axis=-1).max()
    if norm > 1.0 + 1e-9:
        raise ValueError(f"codeword norm {norm} exceeds 1")
    gains = np.array([channel.alpha for channel in channels], dtype=complex)

    def posterior_matching(pmf, modes, keys):
        masses = node_masses(pmf, codebook.depth)
        return _node_peaks(masses, *keys), select_codeword_posterior_matching(masses)

    uniform = np.full((len(channels), config.grid_size), 1.0 / config.grid_size)
    first = select_codeword_posterior_matching(node_masses(uniform, codebook.depth))
    return _align(
        config, channels, rngs, gains, first, _node_rows, beams, posterior_matching
    )
