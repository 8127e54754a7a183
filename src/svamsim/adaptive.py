"""Closed-loop beam controllers driving the posterior toward the path angle.

One loop runs every alignment. Each block senses a batch of trials in
lockstep (sensing.measure_segment), appends the outputs to the measurement
history, scores the grid and takes a controller step. The score and the
step are arguments of the loop. The score is the fitted gain's
(inference.fitted_log_likelihood) or each channel's known gain's
(inference.known_gain_log_likelihood). The step is flexible (re-design a
beam around the posterior mass, halving or doubling its width against a
confidence threshold, up to the region-wide beam, which it takes whatever
its mass), hierarchical (climb a dyadic codebook from the node holding the
mode) or posterior matching (the codebook node whose mass is closest to
1/2). run_alignment is the one run: AdaptConfig.gain picks the score and
AdaptConfig.codebook the step, so any score runs with any step. A codebook
step takes a given codebook, whose codewords slide across the aperture
within a block (n - n_v + 1 taps) or, with n taps and so one shift,
repeat, or builds the sliding one. The known-gain hiePM case study is the
known score with posterior matching.

A batch row reproduces a lone run of its trial bit for bit; one bad row
rejects the batch. Per run, the path signals are one product of the gains
column and the steering rows (channel.noiseless_snapshot), and the noise is
an input: a BatchNoise drawn before the run (channel.draw_noise,
total_snapshots * n complex numbers per trial), whose rows the loop scales
to its channels' variances, each block reading its slice
(channel.antenna_snapshot). The loop draws nothing, so a run is a function
of its inputs, and runs given one draw are paired. Each beam's block
combiners and grid responses are built once per run into a table
(sensing.BeamTable) that every block reads by row with one slot lookup,
building only the beams no block has read yet, in one stacked build: a
codebook's rows are its heap of beams, node (l, k) at row 2**l - 1 + k, and
the flexible controller numbers its designs as it makes them. A block
keeps its beams as those rows. A codebook step keys each trial by its
node's row: it reads the node masses from one node_masses table laid out
the same way, and its public rule (hier_beam_search or
select_codeword_posterior_matching) takes and returns rows, so the rows
are the next block's beams as they stand.
What still runs row by row in a block is the flexible controller's lookup
of each trial's (direction, width) row and the flexible step's np.convolve
of each pmf whose window is wider than one point, once per width tried,
whose dot order fixes the bits of windows of 16 points and up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .arrays import AngularGrid, RegionOfInterest, check_integer, check_roi
from .beams import (
    Beamformer,
    BeamSpec,
    HierarchicalCodebook,
    _heap_depth,
    beam_gain,
    build_hierarchical_codebook,
    design_beamformer,
)
from .channel import BatchNoise, ChannelParams, noiseless_snapshot
from .inference import (
    fitted_log_likelihood,
    known_gain_log_likelihood,
    posterior_pmf,
)
from .sensing import BeamTable, MeasurementHistory, measure_segment

# Noiseless channels are allowed as a sentinel (infinite SNR); the Gaussian
# scoring still needs a positive variance, so inference falls back to this
# floor. Large enough that closed-form cancellation noise stays harmless.
NOISELESS_VAR_FLOOR = 1e-12

# the gain scores and the controller steps a run can take
GAIN_SCORES = ("fitted", "known")
CODEBOOK_MODES = ("flexible", "hierarchical", "posterior_matching")


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
    codebook: str = "flexible"  # one of CODEBOOK_MODES
    noise_scale: float = 1.0
    gain: str = "fitted"  # one of GAIN_SCORES

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
        if self.gain not in GAIN_SCORES:
            raise ValueError(f"unknown gain score {self.gain!r}")
        if not (0.0 < self.noise_scale < math.inf):  # NaN compares false
            raise ValueError(
                f"noise scale must be positive and finite, got {self.noise_scale}"
            )
        if self.codebook != "flexible" and self.grid_size % 2 ** self.depth():
            raise ValueError(
                f"grid size {self.grid_size} cannot resolve "
                f"{2 ** self.depth()} nodes evenly"
            )

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

    A one-point window's only sum is its mode's mass; a wider window's sums
    are one np.convolve(pmf[i], ones(window)), whose dot order fixes the
    bits of windows of 16 points and up, where a left-to-right running sum
    would round differently.
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
    one = windows == 1
    candidates[one, 0] = pmf[one, modes[one]]
    wide = np.flatnonzero(~one)
    for i, w, mode in zip(wide.tolist(), windows[wide].tolist(), modes[wide].tolist()):
        candidates[i, :w] = np.convolve(pmf[i], ones[:w])[mode : mode + w]
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
    double until the windowed mass clears the threshold. Every width is
    clipped at the region's width, and a try at that width, the region-wide
    reset, is accepted whatever its mass.

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
    bw = np.clip(0.5 * _check_widths(widths, len(pmf)), np.finfo(float).eps, widest)
    peaks = np.empty(len(bw))
    directions = np.empty(len(bw))
    searching = np.arange(len(bw))
    while searching.size:
        peak, direction = cumul_peak(pmf[searching], bw[searching], grid)
        # a NaN mass fails the test, so only the reset accepts it
        won = (peak >= p_thresh) | (bw[searching] == widest)
        peaks[searching[won]] = peak[won]
        directions[searching[won]] = direction[won]
        searching = searching[~won]
        bw[searching] = np.minimum(2.0 * bw[searching], widest)
    return directions, bw, peaks


def hier_beam_search(
    nodes: Sequence[int],
    masses: np.ndarray,
    modes: Sequence[int],
    grid_size: int,
    p_thresh: float,
) -> np.ndarray:
    """Codebook node for each trial's next block, as its heap row 2**l - 1 +
    k: start one level below the trial's current node at the node
    containing its posterior mode, then climb to the parent until enough
    mass is captured. Level 0 always terminates the climb.

    nodes holds each trial's current heap row and modes its posterior mode;
    masses is the node_masses table of the (trials, grid) pmf stack, whose
    width sets the codebook depth. Every mass is read from that table, so a
    node's mass is node_mass's. Returns the rows as one integer array.
    """
    if not (0.0 < p_thresh < 1.0):
        raise ValueError("confidence threshold must lie in (0, 1)")
    depth = _heap_depth(np.shape(masses), 2)
    masses = np.asarray(masses, dtype=float)
    grid_size = check_integer("grid size", grid_size)
    if len(nodes) != len(masses) or len(modes) != len(masses):
        raise ValueError("need one node and mode per trial of the mass table")
    if grid_size % 2**depth:
        raise ValueError(
            f"grid size {grid_size} cannot resolve {2**depth} nodes evenly"
        )
    nodes = np.asarray(nodes)
    width = masses.shape[1]
    if nodes.dtype.kind not in "iu" or np.any((nodes < 0) | (nodes >= width)):
        raise ValueError(
            f"codebook nodes must be integer rows in [0, {width}), got {nodes}"
        )
    # row h lies on level frexp(h + 1)[1] - 1, so this is the level below
    level = np.minimum(np.frexp(nodes + 1)[1], depth)
    modes = np.asarray(modes)
    if modes.dtype.kind not in "iu" or np.any((modes < 0) | (modes >= grid_size)):
        raise ValueError(
            f"posterior modes must be integer grid points in [0, {grid_size}), "
            f"got {modes}"
        )
    node = 2**level - 1 + (modes.astype(int) * 2**level) // grid_size
    # a climb only goes up, so one sweep from the deepest level settles all
    for at_level in range(depth, 0, -1):
        rows = np.flatnonzero(level == at_level)
        # written so that a NaN mass climbs, as a failed >= test does
        climb = rows[~(masses[rows, node[rows]] >= p_thresh)]
        level[climb] -= 1
        node[climb] = (node[climb] - 1) // 2
    return node


def node_mass(pmf: np.ndarray, level: int, index: int) -> float:
    """Posterior mass inside dyadic node (level, index) of the pmf's grid."""
    if level < 0 or not (0 <= index < 2**level):
        raise ValueError(f"node ({level}, {index}) is not dyadic")
    per_node = len(pmf) // 2**level
    if per_node * 2**level != len(pmf):
        raise ValueError("grid does not tile the node's level")
    return float(np.sum(pmf[index * per_node : (index + 1) * per_node]))


def node_masses(pmf: np.ndarray, depth: int) -> np.ndarray:
    """Posterior mass of every dyadic node from the root down to depth, as
    one heap table: (trials, 2**(depth+1) - 1) for a (trials, grid) stack
    of pmfs. Node (l, k) is column 2**l - 1 + k, its heap row in the
    codebook, so node h's children are columns 2h + 1 and 2h + 2. Each mass
    is the sum of the node's contiguous pmf slice, taken the way node_mass
    takes it, so the two agree to the bit on every pmf.

    np.add.reduce sums fewer than 8 values left to right from +0.0 and more
    in its pairwise order. A level whose nodes span fewer than 8 points is
    filled left to right from the first point, ((x0 + x1) + x2) + x3 for
    four, one elementwise add per point across all its nodes, which costs
    less than a reduction over such short slices; starting from the first
    point rather than +0.0 differs only for a slice of all -0.0, which no
    pmf holds. A level of wider nodes keeps np.add.reduce, whose pairwise
    order no elementwise loop reproduces.
    """
    pmf = np.asarray(pmf, dtype=float)
    depth = check_integer("codebook depth", depth)
    if depth < 0 or pmf.shape[-1] % 2**depth or not pmf.shape[-1]:
        raise ValueError("grid does not tile the node's level")
    lead = pmf.shape[:-1]
    table = np.empty(lead + (2 ** (depth + 1) - 1,))
    for level in range(depth + 1):
        nodes = pmf.reshape(lead + (2**level, -1))
        masses = table[..., 2**level - 1 : 2 ** (level + 1) - 1]
        if nodes.shape[-1] < 8:
            masses[...] = nodes[..., 0]
            for point in range(1, nodes.shape[-1]):
                masses += nodes[..., point]
        else:
            # the reduction ndarray.sum runs, without its Python wrapper
            masses[...] = np.add.reduce(nodes, axis=-1)
    return table


def select_codeword_posterior_matching(masses: np.ndarray) -> np.ndarray:
    """Known-gain codeword rule, one heap row per trial: walk down the
    larger-mass child (the left one on ties) while the mass stays at least
    1/2, then choose between the deepest such node and its better child
    whichever mass is closer to 1/2; the root counts as mass 1. masses is
    the node_masses table of a (trials, grid) pmf stack, whose width sets
    the codebook depth.

    The whole batch at once: one comparison of all sibling pairs decides
    every node's larger child, the path follows them to the leaves with one
    gather per level, and each trial stops at the deepest level whose path
    masses all stay at least 1/2 and makes one closer test.
    """
    depth = _heap_depth(np.shape(masses), 2)
    masses = np.asarray(masses, dtype=float)
    count, width = masses.shape
    inner = width // 2  # nodes with children
    # child[i * inner + h]: node h's larger child in row i; a NaN pair takes
    # the right one
    child = np.arange(1, 2 * inner, 2) + ~(masses[:, 1::2] >= masses[:, 2::2])
    child = child.reshape(-1)
    rows = np.arange(count)
    path = np.zeros((depth + 1, count), dtype=int)
    for level in range(1, depth + 1):
        path[level] = child[rows * inner + path[level - 1]]
    # the root counts as mass 1; below the leaves a NaN mass, which fails
    # both tests below, as a NaN mass on the path does
    mass = np.empty((depth + 2, count))
    mass[0], mass[-1] = 1.0, np.nan
    mass[1:-1] = masses.reshape(-1)[rows * width + path[1:]]
    level = (mass[1:] >= 0.5).argmin(axis=0)
    # a walk that stops above the leaves still ends on the child if it is closer
    level += np.abs(mass[level + 1, rows] - 0.5) < np.abs(mass[level, rows] - 0.5)
    return path[level, rows]


def _node_peaks(table: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Mass of node nodes[i] in row i of a node_masses table."""
    return table[np.arange(len(table)), nodes]


def _align(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    noise: BatchNoise,
    score: Callable[[MeasurementHistory], np.ndarray],
    keys: np.ndarray | tuple[np.ndarray, np.ndarray],
    locate: Callable[[object], np.ndarray],
    beams: Sequence[Beamformer],
    step: Callable[..., tuple],
) -> Trials:
    """The one alignment loop, without a branch. score(history) -> the
    (trials, grid) log-likelihood of the grid points. The controller is
    keys, each trial's first beam key; locate(keys) -> each trial's row of
    beams, the run's row-numbered beam list, which locate may extend; and
    step(pmf, modes, keys) -> (peaks, next keys). A codebook step's keys
    are its nodes' heap rows, which locate returns as they are.
    Trials.beams is the beam list indexed by the blocks' rows, once, after
    the last block."""
    count = len(channels)
    if count < 1 or noise.slot.shape != (count,):
        raise ValueError("need at least one channel and one noise row per channel")
    if (drawn := noise.normals.shape[1:]) != (config.total_snapshots, config.n):
        raise ValueError(
            f"need {config.total_snapshots} observations of {config.n} "
            f"elements, got a draw of {drawn}"
        )
    channel_noise = np.array([channel.noise_variance for channel in channels])
    signals = noiseless_snapshot(channels, config.n)
    # each row's noise at its channel's variance, a noiseless row's zeros
    noise = BatchNoise(noise.normals, np.where(channel_noise > 0.0, noise.slot, -1))
    scale = np.sqrt(channel_noise / 2.0)
    # the variance the inference assumes
    noise_var = np.maximum(config.noise_scale * channel_noise, NOISELESS_VAR_FLOOR)
    grid = AngularGrid(config.roi, config.grid_size)
    table = BeamTable(beams, config.n, config.n_v, grid)
    history = MeasurementHistory(config.n, config.n_v, grid, count, noise_var)
    block_rows, block_modes, block_peaks = [], [], []
    for start in range(0, config.total_snapshots, config.n_v):
        # located here, so no beam is designed after the last block
        rows = locate(keys)
        values, responses = measure_segment(table, rows, noise, scale, signals, start)
        history.append(values, responses, table.taps)
        pmf = posterior_pmf(score(history))
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


def _codebook_depth(config: AdaptConfig, codebook: HierarchicalCodebook) -> int:
    """Depth of a codebook that the config's blocks can sense with. The
    codewords' tap count sets the combining: m = n - n_v + 1 taps slide
    across the aperture within each block, n taps are repeated at full
    aperture for the whole block; with a block size of one the two are the
    same. Any other tap count is rejected, and so is a codebook that mixes
    tap counts, whose root does not span the config's region or that has a
    codeword of norm above 1."""
    beams, span = codebook.beams, codebook.spans[0]
    taps = beams[0].size
    region = (config.roi.u_left, config.roi.u_right)
    if taps not in (config.combiner_length, config.n) or span != region:
        raise ValueError(
            f"codebook of {taps}-tap beams over {span}; blocks of "
            f"{config.n_v} on {config.n} elements need {config.combiner_length} "
            f"(sliding) or {config.n} (repeated) taps over the region {region}"
        )
    other = {f.size for f in beams} - {taps}
    if other:
        raise ValueError(f"codebook mixes {taps}-tap and {min(other)}-tap codewords")
    norm = np.linalg.norm(np.stack([f.weights for f in beams]), axis=-1).max()
    if norm > 1.0 + 1e-9:
        raise ValueError(f"codeword norm {norm} exceeds 1")
    return codebook.depth


def run_alignment(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    noise: BatchNoise,
    codebook: HierarchicalCodebook | None = None,
) -> Trials:
    """Alignment of a batch of trials over all snapshot blocks, scored with
    the gain config.gain names and stepped by the controller
    config.codebook names.

    Trial i observes channels[i] with its own noise variance through row i
    of noise, a draw of total_snapshots observations of n elements
    (channel.draw_noise), scaled to that variance; a noiseless trial reads
    zeros. Rows that read one slot share its draw, as a sweep's rows of one
    trial at several SNRs do, and each sees the numbers a lone run on that
    slot sees. The run draws nothing: equal inputs give equal outcomes, and
    the draw is never written. A single trial is a batch of one.

    The "fitted" gain scores the grid under the gain fitted to the history
    (inference.fitted_log_likelihood), the "known" gain under each
    channel's alpha (inference.known_gain_log_likelihood). The flexible
    controller starts from, and resets to, the region-wide beam, and takes
    no codebook. The codebook controllers climb the given codebook, whose
    taps set the combining (_codebook_depth), or the m-tap codebook
    log2(grid size) levels deep: the hierarchical one from its root, and
    posterior matching from the node a uniform pmf picks. Flexible and
    hierarchical record the mass of the beam or node they pick for the
    next block, posterior matching the mass of the node the block sensed
    with.
    """
    count, m, p_thresh = len(channels), config.combiner_length, config.p_thresh
    score = fitted_log_likelihood
    if config.gain == "known":
        gains = np.array([[channel.alpha] for channel in channels], dtype=complex)
        score = partial(known_gain_log_likelihood, gains=gains)
    if config.codebook == "flexible":
        if codebook is not None:
            raise ValueError("a flexible run designs its beams and takes no codebook")
        grid = AngularGrid(config.roi, config.grid_size)

        def flexible(pmf, modes, keys):
            u, bw, peaks = select_next_beam(pmf, keys[1], p_thresh, grid)
            return peaks, (u, bw)

        region = (np.full(count, config.roi.center), np.full(count, config.roi.width))
        beams: list[Beamformer] = []
        row_of: dict[tuple[float, float], int] = {}  # (direction, width) -> row

        def design(keys):
            u, bw = keys
            rows = []
            for key in zip(u.tolist(), bw.tolist()):
                if key not in row_of:
                    row_of[key] = len(beams)
                    beams.append(design_beamformer(BeamSpec(*key), m))
                rows.append(row_of[key])
            return np.array(rows)

        return _align(config, channels, noise, score, region, design, beams, flexible)

    book = codebook or build_hierarchical_codebook(config.roi, config.depth(), m)
    depth = _codebook_depth(config, book)

    def hierarchical(pmf, modes, nodes):
        masses = node_masses(pmf, depth)
        nodes = hier_beam_search(nodes, masses, modes, config.grid_size, p_thresh)
        return _node_peaks(masses, nodes), nodes

    def posterior_matching(pmf, modes, nodes):
        masses = node_masses(pmf, depth)
        return _node_peaks(masses, nodes), select_codeword_posterior_matching(masses)

    step, node = hierarchical, 0  # the root
    if config.codebook == "posterior_matching":
        # a uniform pmf picks one node for every trial
        uniform = np.full((1, config.grid_size), 1.0 / config.grid_size)
        step = posterior_matching
        (node,) = select_codeword_posterior_matching(node_masses(uniform, depth))
    keys = np.full(count, node)  # each trial's first node, as its heap row
    return _align(config, channels, noise, score, keys, lambda h: h, book.beams, step)


def run_hiepm_known_alpha(
    config: AdaptConfig,
    channels: Sequence[ChannelParams],
    noise: BatchNoise,
    codebook: HierarchicalCodebook,
) -> Trials:
    """The known-gain hiePM run: run_alignment with the known gain and
    posterior matching over the given codebook. It stays only because the
    benchmark's hiepm workload and tracer name it; ROADMAP item 9, the
    next change to the benchmark, deletes it."""
    known = replace(config, gain="known", codebook="posterior_matching")
    return run_alignment(known, channels, noise, codebook)
