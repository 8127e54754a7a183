"""Sliding sub-aperture combining across snapshots.

A length-m combiner f is shifted one element per snapshot across the
physical array. Over a block of n_v consecutive snapshots the scalar
outputs then behave, for a single path at angle u, like measurements taken
by a virtual n_v-element array:

    y_t = sqrt(P) * alpha * beta_t(u) * phi_{n_v}(u) + noise,

with beta_t(u) = f_t^H phi_m(u). The virtual aperture is what restores
angle sensitivity lost by scalar combining.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .beams import Beamformer, _weights_of
from .channel import ChannelParams, antenna_blocks, combine, noiseless_snapshot

if TYPE_CHECKING:
    from .arrays import AngularGrid


@dataclass(frozen=True)
class SvamConfig:
    """Physical aperture n and virtual size n_v of the sliding layout.

    Snapshot r of every block places the length-m combiner at elements
    r..r+m-1 of the aperture, so m = n - n_v + 1 and the block's outputs
    see a contiguous n_v-element virtual array.
    """

    n: int
    n_v: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.n_v < 1:
            raise ValueError("array and virtual sizes must be positive")
        if self.n_v > self.n:
            raise ValueError(f"virtual size {self.n_v} exceeds aperture {self.n}")

    @property
    def combiner_length(self) -> int:
        return self.n - self.n_v + 1


def svam_combiner(
    f: Beamformer | np.ndarray, snapshot_index: int, config: SvamConfig
) -> np.ndarray:
    """Full-length combiner for a snapshot: the sub-aperture beamformer
    zero-padded at shift snapshot_index % n_v."""
    weights = _weights_of(f)
    m = config.combiner_length
    if len(weights) != m:
        raise ValueError(f"beamformer has {len(weights)} taps, the layout needs {m}")
    shift = snapshot_index % config.n_v
    w = np.zeros(config.n, dtype=complex)
    w[shift : shift + m] = weights
    return w


def block_combiners(f: Beamformer | np.ndarray, config: SvamConfig) -> np.ndarray:
    """(n_v, n) full-length combiners of one block, one row per snapshot;
    every block slides the beamformer through the same rows."""
    return np.stack([svam_combiner(f, r, config) for r in range(config.n_v)])


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


@dataclass(frozen=True)
class SegmentMeasurement:
    """Scalar combiner outputs of one n_v-snapshot block; (trials, n_v) for
    a batch of trials."""

    values: np.ndarray
    index: int


def measure_segment(
    f: Beamformer | np.ndarray,
    params: ChannelParams,
    config: SvamConfig,
    segment_index: int,
    rng: np.random.Generator,
) -> SegmentMeasurement:
    """Slide the combiner across one block of snapshots and collect outputs:
    the block of a lone trial, built like each trial's block of a batch."""
    if segment_index < 0:
        raise ValueError("segment index must be nonnegative")
    (x,) = antenna_blocks(
        noiseless_snapshot(params, config.n)[None], params.noise_variance,
        [rng], config.n_v,
    )
    return SegmentMeasurement(
        values=combine(block_combiners(f, config), x), index=segment_index
    )


class MeasurementHistory:
    """Everything the inference engine needs about past segments.

    A history follows one trial, or with trials=k a batch of k trials that
    advance in lockstep: each segment then carries (k, n_v) values and one
    beamformer per trial, and every statistic gains a leading trial axis.
    It stores the raw segments and beamformer log, plus running per-grid
    statistics that make posterior updates O(grid) per segment and trial:
    the accumulated gain sum |beta|^2, the matched inner products
    sum_t beta_t^*(u_i) phi^H y_t, and the total measured power. A response
    row beta_t(u_i) is computed once per distinct designed beam.
    """

    def __init__(self, config: SvamConfig, trials: int | None = None):
        if trials is not None and trials < 1:
            raise ValueError("a batch needs at least one trial")
        self.config = config
        self.batch: tuple[int, ...] = () if trials is None else (trials,)
        self.segments: list[SegmentMeasurement] = []
        self.beamformers: list = []
        self._grid: AngularGrid | None = None
        self._beta: BeamCache | None = None
        self._gain: np.ndarray | None = None
        self._matched: np.ndarray | None = None
        self._power = np.zeros(self.batch)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def n_v(self) -> int:
        return self.config.n_v

    @property
    def grid(self) -> "AngularGrid":
        if self._grid is None:
            raise ValueError("history is empty; no grid bound yet")
        return self._grid

    def append(
        self,
        segment: SegmentMeasurement,
        beamformer: Beamformer | np.ndarray | Sequence[Beamformer | np.ndarray],
        grid: "AngularGrid",
    ) -> "MeasurementHistory":
        """Add one block; a batch takes a sequence with one beamformer per
        trial."""
        values = np.asarray(segment.values)
        expected = self.batch + (self.config.n_v,)
        if values.shape != expected:
            raise ValueError(
                f"segment values have shape {values.shape}, expected {expected}"
            )
        if segment.index != self.segment_count:
            raise ValueError(
                f"segment index {segment.index} out of order, "
                f"expected {self.segment_count}"
            )
        if self._grid is None:
            self._grid = grid
            # the closure holds the grid, not the history: no reference cycle
            # keeps a finished history alive until the cyclic collector runs
            self._beta = BeamCache(lambda w: w.conj() @ grid.manifold(len(w)))
            shape = self.batch + (grid.size,)
            self._gain = np.zeros(shape)
            self._matched = np.zeros(shape, dtype=complex)
        elif grid is not self._grid:
            raise ValueError("history is bound to a different grid")

        if self.batch:
            beamformer = tuple(beamformer)
            if len(beamformer) != len(values):
                raise ValueError(
                    f"{len(beamformer)} beamformers for {len(values)} trials"
                )
            beta = np.stack([self._beta(f) for f in beamformer])
        else:
            beta = self._beta(beamformer)
        # one row-vector product per trial, the response rows one product
        # per beam and the power one vdot per trial: a batch row carries a
        # lone trial's bits at every block size, where a matrix product's
        # rows would differ from a lone vector product's in the last bits
        matched_row = np.matmul(
            values[..., None, :], grid.manifold(self.config.n_v).conj()
        )[..., 0, :]
        power = [np.vdot(v, v).real for v in values.reshape(-1, self.config.n_v)]

        self.segments.append(segment)
        self.beamformers.append(beamformer)
        self._gain += np.abs(beta) ** 2
        self._matched += beta.conj() * matched_row
        self._power = self._power + np.reshape(power, self.batch)
        return self

    @property
    def beta_matrix(self) -> np.ndarray:
        """(segments, grid) response values beta_t(u_i); (trials, segments,
        grid) for a batch."""
        if self.batch:
            rows = [np.stack([self._beta(f) for f in fs]) for fs in self.beamformers]
        else:
            rows = [self._beta(f) for f in self.beamformers]
        return np.stack(rows, axis=-2)

    @property
    def cumulative_gain(self) -> np.ndarray:
        """Per-grid sum of |beta_t(u_i)|^2 over all stored segments."""
        if self._gain is None:
            raise ValueError("history is empty")
        return self._gain

    @property
    def matched_statistic(self) -> np.ndarray:
        """Per-grid sum_t beta_t^*(u_i) * phi_{n_v}(u_i)^H y_t."""
        if self._matched is None:
            raise ValueError("history is empty")
        return self._matched

    @property
    def total_power(self) -> float | np.ndarray:
        """Squared norm of all stored measurements, per trial for a batch."""
        return self._power if self.batch else float(self._power)

    def stacked(self) -> np.ndarray:
        """All segment values concatenated in time order (along the last
        axis for a batch)."""
        if not self.segments:
            raise ValueError("history is empty")
        return np.concatenate([s.values for s in self.segments], axis=-1)
