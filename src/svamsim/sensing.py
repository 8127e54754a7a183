"""Sliding sub-aperture combining across snapshots.

A length-m combiner f is shifted one element per snapshot across the
n-element physical array. Over a block of n_v = n - m + 1 consecutive
snapshots the scalar outputs then behave, for a single path at angle u and
received gain alpha, like measurements taken by a virtual n_v-element array:

    y_t = alpha * beta_t(u) * phi_{n_v}(u) + noise,

with beta_t(u) = f_t^H phi_m(u). The virtual aperture is what restores
angle sensitivity lost by scalar combining. The functions take the
aperture n and read m from the beam's taps.

MeasurementHistory keeps the blocks of a batch of trials that advance in
lockstep, a lone trial being a batch of one. It owns the grid of candidate
angles it was built on and folds every block into running (trials, grid)
statistics, which the inference reads without taking the grid again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .beams import Beamformer, _weights_of
from .channel import ChannelParams, antenna_blocks, combine, noiseless_snapshot

if TYPE_CHECKING:
    from .arrays import AngularGrid


def _virtual_size(taps: int, n: int) -> int:
    """Virtual size n_v = n - m + 1 of an m-tap beam on n elements."""
    if not (1 <= taps <= n):
        raise ValueError(f"a {taps}-tap beam does not fit a {n}-element aperture")
    return n - taps + 1


def svam_combiner(
    f: Beamformer | np.ndarray, snapshot_index: int, n: int
) -> np.ndarray:
    """Full-length combiner for a snapshot: the sub-aperture beamformer
    zero-padded at shift snapshot_index % n_v on an n-element aperture."""
    weights = _weights_of(f)
    m = len(weights)
    shift = snapshot_index % _virtual_size(m, n)
    w = np.zeros(n, dtype=complex)
    w[shift : shift + m] = weights
    return w


def block_combiners(f: Beamformer | np.ndarray, n: int) -> np.ndarray:
    """(n_v, n) full-length combiners of one block, one row per snapshot;
    every block slides the beamformer through the same rows."""
    n_v = _virtual_size(len(_weights_of(f)), n)
    return np.stack([svam_combiner(f, r, n) for r in range(n_v)])


class BeamCache:
    """A value derived from a beam's taps, computed once per distinct beam.

    Entries are keyed by the identity of read-only weight arrays: the design
    cache and codebook nodes hand out the same array every time a beam
    recurs, and the entry holds that array so its identity cannot be
    reused. Writeable arrays could change in place and are rebuilt on every
    call.
    """

    def __init__(self, build: Callable[[np.ndarray], Any]):
        self._build = build
        self._items: dict[int, tuple[np.ndarray, Any]] = {}

    def __call__(self, f: Beamformer | np.ndarray) -> Any:
        weights = _weights_of(f)
        item = self._items.get(id(weights))
        if item is None:
            item = (weights, self._build(weights))
            if not weights.flags.writeable:
                self._items[id(weights)] = item
        return item[1]

    def stack(self, beams: Sequence[Beamformer | np.ndarray]) -> np.ndarray:
        """np.stack of the values of many beams: each distinct weights array
        is looked up once and its value gathered into every row that uses
        it."""
        weights = [_weights_of(f) for f in beams]
        distinct = {id(w): w for w in weights}
        slot = {key: k for k, key in enumerate(distinct)}
        values = np.stack([self(w) for w in distinct.values()])
        return values[[slot[id(w)] for w in weights]]


def measure_segment(
    f: Beamformer | np.ndarray,
    params: ChannelParams,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Slide the combiner across one block of snapshots on an n-element
    aperture and return its (n_v,) outputs: the block of a lone trial, built
    like each trial's block of a batch."""
    w = block_combiners(f, n)
    (x,) = antenna_blocks(
        noiseless_snapshot(params, n)[None], params.noise_variance, [rng], len(w)
    )
    return combine(w, x)


class MeasurementHistory:
    """Everything the inference engine needs about past segments of a batch
    of trials advancing in lockstep, scored on one grid.

    The grid and the number of trials are fixed at construction; a lone
    trial is a batch of one. Each segment carries (trials, n_v) values and
    one beamformer per trial, and every statistic is (trials, grid) or
    (trials,). The history stores the raw segments and beamformer log, plus
    running per-grid statistics that make posterior updates O(grid) per
    segment and trial: the accumulated gain sum |beta|^2, the matched inner
    products sum_t beta_t^*(u_i) phi^H y_t, and the total measured power. A
    response row beta_t(u_i) is computed once per distinct designed beam,
    and a block looks each distinct beam up once.
    """

    def __init__(self, n_v: int, grid: AngularGrid, trials: int):
        if trials < 1:
            raise ValueError("a batch needs at least one trial")
        self.n_v = n_v
        self.grid = grid
        self.trials = trials
        self.segments: list[np.ndarray] = []
        self.beamformers: list[tuple] = []
        # the closure holds the grid, not the history: no reference cycle
        # keeps a finished history alive until the cyclic collector runs
        self._beta = BeamCache(lambda w: w.conj() @ grid.manifold(len(w)))
        # per-grid sum of |beta_t(u_i)|^2 over all stored segments
        self.cumulative_gain = np.zeros((trials, grid.size))
        # per-grid sum_t beta_t^*(u_i) * phi_{n_v}(u_i)^H y_t
        self.matched_statistic = np.zeros((trials, grid.size), dtype=complex)
        # squared norm of all stored measurements
        self.total_power = np.zeros(trials)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    def append(
        self,
        values: np.ndarray,
        beamformers: Sequence[Beamformer | np.ndarray],
    ) -> MeasurementHistory:
        """Add one block: (trials, n_v) values and one beamformer per trial."""
        values = np.asarray(values)
        expected = (self.trials, self.n_v)
        if values.shape != expected:
            raise ValueError(
                f"segment values have shape {values.shape}, expected {expected}"
            )
        beamformers = tuple(beamformers)
        if len(beamformers) != self.trials:
            raise ValueError(
                f"{len(beamformers)} beamformers for {self.trials} trials"
            )
        beta = self._beta.stack(beamformers)
        # one row-vector product per trial, the response rows one product
        # per beam and the power one conjugate-row product per trial: a
        # batch row carries a lone trial's bits at every block size, where a
        # matrix product's rows would differ from a lone vector product's in
        # the last bits
        matched_row = np.matmul(
            values[:, None, :], self.grid.manifold(self.n_v).conj()
        )[:, 0, :]

        self.segments.append(values)
        self.beamformers.append(beamformers)
        self.cumulative_gain += np.abs(beta) ** 2
        self.matched_statistic += beta.conj() * matched_row
        self.total_power += combine(values, values).real
        return self

    @property
    def beta_matrix(self) -> np.ndarray:
        """(trials, segments, grid) response values beta_t(u_i)."""
        rows = [self._beta.stack(fs) for fs in self.beamformers]
        return np.stack(rows, axis=-2)

    def stacked(self) -> np.ndarray:
        """(trials, segments * n_v) segment values concatenated in time
        order."""
        if not self.segments:
            raise ValueError("history is empty")
        return np.concatenate(self.segments, axis=-1)
