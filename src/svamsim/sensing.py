"""Sliding sub-aperture combining across snapshots.

A length-m combiner f is shifted one element per snapshot across the
n-element physical array. Over a block of n_v = n - m + 1 consecutive
snapshots the scalar outputs then behave, for a single path at angle u and
received gain alpha, like measurements taken by a virtual n_v-element array:

    y_t = alpha * beta_t(u) * phi_{n_v}(u) + noise,

with beta_t(u) = f_t^H phi_m(u). The virtual aperture is what restores
angle sensitivity lost by scalar combining. The functions take the
aperture n and read m from the beam's taps. Snapshot r of a block holds the
beam at shift r mod (n - m + 1): a full-aperture beam (m = n) has one shift
and is repeated for the whole block, whose virtual rows are then all ones.

measure_segment senses one block of a batch of trials that advance in
lockstep, a lone trial being a batch of one: it gathers each trial's beam
from the run's BeamTable, reads the block's observations off the run's
noise draw (channel.antenna_snapshot) and combines them. MeasurementHistory
keeps the blocks. It owns the grid of candidate angles it was built on and
the noise variance the inference assumes, and folds every block's values
and its beams' response rows into running (trials, grid) statistics; it
keeps no beam. The inference reads all of these from the history alone.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .arrays import AngularGrid, check_integer
from .beams import Beamformer, _weights_of
from .channel import BatchNoise, antenna_snapshot, combine


def _virtual_size(taps: int, n: int) -> int:
    """Virtual size n_v = n - m + 1 of an m-tap beam on n elements."""
    if not (1 <= taps <= n):
        raise ValueError(f"a {taps}-tap beam does not fit a {n}-element aperture")
    return n - taps + 1


def svam_combiner(
    f: Beamformer | np.ndarray, snapshot_index: int, n: int
) -> np.ndarray:
    """Full-length combiner for a snapshot: the sub-aperture beamformer
    zero-padded at shift snapshot_index % n_v on an n-element aperture. A
    (..., m) stack of weights gives the (..., n) combiners of every beam."""
    weights = _weights_of(f)
    m = weights.shape[-1]
    shift = snapshot_index % _virtual_size(m, n)
    w = np.zeros(weights.shape[:-1] + (n,), dtype=complex)
    w[..., shift : shift + m] = weights
    return w


def block_combiners(f: Beamformer | np.ndarray, n: int, n_v: int) -> np.ndarray:
    """(n_v, n) full-length combiners of a block of n_v snapshots, one row
    per snapshot, each svam_combiner's; every block takes the same rows. A
    (..., m) stack of weights gives (..., n_v, n), one block per beam."""
    rows = [svam_combiner(f, r, n) for r in range(n_v)]
    # one concatenation and a view: np.stack costs more than the rows
    return np.concatenate(rows, axis=-1).reshape(*rows[0].shape[:-1], n_v, n)


def beam_responses(f: Beamformer | np.ndarray, grid: AngularGrid) -> np.ndarray:
    """(grid,) responses beta(u_i) = f^H phi_m(u_i) of an m-tap beam. A
    (..., m) stack of weights gives (..., grid), each row a lone beam's."""
    w = _weights_of(f)
    # one row-vector product per beam: a matrix product would round differently
    return np.matmul(w.conj()[..., None, :], grid.manifold(w.shape[-1]))[..., 0, :]


def _doubled(a: np.ndarray) -> np.ndarray:
    """a with twice its rows (at least one); the new rows are left unwritten."""
    out = np.empty((max(2 * len(a), 1),) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


class BeamTable:
    """A run's table of what sensing reads from each beam: its (n_v, n)
    block_combiners and its (grid,) beam_responses.

    Row r belongs to beams[r]. The caller may extend beams as a run designs
    new ones, and numbers them so that a beam keeps its row: node (l, k) of
    a codebook is row 2**l - 1 + k. The first time a block reads a row, the
    row is given the slot of its weights array, and the weights arrays a
    gather meets for the first time are built into new slots in one stacked
    build. So each weights array is built once per run, when a block first
    reads it, beams that share one (designs whose bands floor alike) share
    its slot, and every block gathers its rows' slots by index.
    Beams' weights must not change during the run (a Beamformer's are
    read-only). The first weights array built fixes taps, the run's one tap
    count, and a later array of another count is rejected.
    """

    def __init__(self, beams: Sequence[Beamformer], n: int, n_v: int, grid: AngularGrid):
        self._beams = beams
        self._n = n
        self._n_v = n_v
        self._grid = grid
        self._slot = np.full(len(beams), -1)  # -1: not read yet
        # id of a weights array -> its slot; beams holds the arrays, so no
        # id is reused during the run
        self._slot_of: dict[int, int] = {}
        self.taps = 0  # no weights array built yet
        self._combiners = np.empty((0, n_v, n), dtype=complex)
        self._responses = np.empty((0, grid.size), dtype=complex)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (trials, n_v, n) combiners and (trials, grid) responses of
        the beams in the given rows, one row per trial: one read of the
        rows' slots, and a build only for rows no block has read yet."""
        if len(self._beams) > len(self._slot):  # the run designed new beams
            more = len(self._beams) - len(self._slot)
            self._slot = np.concatenate([self._slot, np.full(more, -1)])
        slots = self._slot[rows]
        unread = slots < 0
        if unread.any():
            self._build(rows[unread])
            slots = self._slot[rows]
        return self._combiners[slots], self._responses[slots]

    def _build(self, rows: np.ndarray) -> None:
        """Give each of the unread rows the slot of its weights array,
        building the arrays no earlier block met in one stacked build."""
        new = np.unique(rows)
        weights = [_weights_of(self._beams[row]) for row in new.tolist()]
        fresh = {id(w): w for w in weights if id(w) not in self._slot_of}
        if fresh:
            self.taps = self.taps or next(iter(fresh.values())).size
            other = [w.size for w in fresh.values() if w.size != self.taps]
            if other:
                raise ValueError(
                    f"a {other[0]}-tap beam in a run of {self.taps}-tap beams"
                )
            built = slice(len(self._slot_of), len(self._slot_of) + len(fresh))
            self._slot_of.update(zip(fresh, range(built.start, built.stop)))
            while built.stop > len(self._combiners):
                self._combiners = _doubled(self._combiners)
                self._responses = _doubled(self._responses)
            stack = np.stack(list(fresh.values()))
            self._combiners[built] = block_combiners(stack, self._n, self._n_v)
            self._responses[built] = beam_responses(stack, self._grid)
        self._slot[new] = [self._slot_of[id(w)] for w in weights]


def measure_segment(
    table: BeamTable,
    rows: np.ndarray,
    noise: BatchNoise,
    signals: np.ndarray,
    start: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of a batch: the (trials, n_v) outputs of each trial's beam
    in the given table rows slid across observations start to start + n_v -
    1 of its (n,) signal in the (trials, n) stack, and the (trials, grid)
    responses of those beams. A lone trial is a batch of one.

    combine gives every row the bits a lone trial's snapshot-by-snapshot
    products have.
    """
    combiners, responses = table.gather(rows)
    x = antenna_snapshot(noise, signals, start, start + combiners.shape[-2])
    return combine(combiners, x), responses


class MeasurementHistory:
    """Everything the inference engine needs about past segments of a batch
    of trials advancing in lockstep, scored on one grid.

    The aperture n, the block size, the grid and the number of trials are
    fixed at construction; a lone trial is a batch of one. Each segment
    carries (trials, n_v) values, the (trials, grid) response rows
    beta_t(u_i) of each trial's beam (its beam_responses) and the one tap
    count of the block's beams, and every statistic is (trials, grid) or
    (trials,). The history stores the raw segments, not the beams, plus
    running per-grid statistics that make posterior updates O(grid) per
    segment and trial: the accumulated gain sum |beta|^2, the matched inner
    products sum_t beta_t^*(u_i) v^H y_t (v: phi_{n_v} for a sliding beam,
    ones for a repeated one), and the total measured power.
    noise_var, the noise variance the inference assumes, is one positive
    finite value for all trials or one per trial, kept as a read-only
    (trials, 1) column.
    """

    def __init__(
        self, n: int, n_v: int, grid: AngularGrid, trials: int,
        noise_var: float | np.ndarray,
    ):
        n = check_integer("aperture", n)
        n_v = check_integer("n_v", n_v)
        trials = check_integer("trials", trials)
        if not (1 <= n_v <= n):
            raise ValueError(f"virtual size {n_v} outside [1, aperture {n}]")
        if trials < 1:
            raise ValueError("a batch needs at least one trial")
        noise = np.array(noise_var, dtype=float)  # a copy the caller cannot edit
        if noise.shape not in ((), (trials,)):
            raise ValueError(f"need one noise variance or {trials}, got {noise.shape}")
        if not ((noise > 0) & (noise < math.inf)).all():  # NaN compares false
            raise ValueError("noise variance must be positive and finite in every row")
        self.n = n
        self.n_v = n_v
        self.grid = grid
        self.trials = trials
        self.noise_var = np.broadcast_to(noise[..., None], (trials, 1))  # read-only
        self.segments: list[np.ndarray] = []
        # per-grid sum of |beta_t(u_i)|^2 over all stored segments
        self.cumulative_gain = np.zeros((trials, grid.size))
        # per-grid sum_t beta_t^*(u_i) * v(u_i)^H y_t
        self.matched_statistic = np.zeros((trials, grid.size), dtype=complex)
        # squared norm of all stored measurements
        self.total_power = np.zeros(trials)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def append(
        self, values: np.ndarray, responses: np.ndarray, taps: int
    ) -> MeasurementHistory:
        """Add one block: (trials, n_v) values, the (trials, grid) stack of
        each trial's beam_responses, and the tap count of the block's beams.
        """
        values = np.asarray(values)
        expected = (self.trials, self.n_v)
        if values.shape != expected:
            raise ValueError(
                f"segment values have shape {values.shape}, expected {expected}"
            )
        responses = np.asarray(responses)
        if responses.shape != (self.trials, self.grid.size):
            raise ValueError(f"need ({self.trials}, grid) responses, got {responses.shape}")
        # the phases v the snapshots see: snapshot r holds its beam at shift
        # r mod (n - taps + 1), so v is phi_{n_v}, or ones for n taps
        shifts = _virtual_size(check_integer("taps", taps), self.n)
        # one row-vector product per trial and the power one conjugate-row
        # product per trial: a batch row carries a lone trial's bits at every
        # block size, where a matrix product's rows would differ from a lone
        # vector product's in the last bits
        matched_row = np.matmul(
            values[:, None, :], self.grid.cycled_conjugate(shifts, self.n_v)
        )[:, 0, :]

        self.segments.append(values)
        self.cumulative_gain += np.abs(responses) ** 2
        self.matched_statistic += responses.conj() * matched_row
        self.total_power += combine(values, values).real
        return self

    def stacked(self) -> np.ndarray:
        """(trials, segments * n_v) segment values concatenated in time
        order."""
        if not self.segments:
            raise ValueError("history is empty")
        return np.concatenate(self.segments, axis=-1)
