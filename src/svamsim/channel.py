"""Narrowband single-path snapshots at the antenna array.

A snapshot is alpha * phi_n(u) plus circular Gaussian noise, with alpha the
received path gain: the transmit power P and the fading coefficient enter
every measurement only as the product sqrt(P) * alpha, so the channel holds
that product and nothing else scales it. The noise is the one random step:
BatchNoise draws a run's noise once, a noiseless row reading zeros, and
antenna_snapshot adds any window of it to a batch's signals. A lone trial
is a batch of one.
"""

from __future__ import annotations

import cmath
import math
import pickle
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrays import check_angle, check_integer, ula_manifold


@dataclass(frozen=True)
class ChannelParams:
    """One propagation path: received gain alpha at angle u, and the
    per-element noise power."""

    alpha: complex
    u: float
    noise_variance: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN, which compares false, is rejected too
        if not (0 <= self.noise_variance < math.inf):
            raise ValueError(
                f"noise variance {self.noise_variance} must be finite and nonnegative"
            )
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"path gain {self.alpha} must be finite")
        object.__setattr__(self, "u", check_angle(self.u))


def noiseless_snapshot(channels: Sequence[ChannelParams], n: int) -> np.ndarray:
    """The deterministic part of a batch's observations: the (trials, n)
    stack of each channel's alpha * phi_n(u), one product of the gains
    column and the channels' steering rows. Each row has the bits of its
    channel's own alpha * phi_n(u). A lone trial is a batch of one."""
    gains = np.array([channel.alpha for channel in channels], dtype=complex)
    return gains[:, None] * ula_manifold(n, [channel.u for channel in channels])


@lru_cache(maxsize=1)
def _run_draw(key: tuple, count: int, n: int) -> tuple[np.ndarray, tuple[dict, ...]]:
    """A run's read-only complex (slots, count, n) normals, one slot drawn
    per (bit-generator class, pickled state) pair of key on a generator
    rebuilt from it, then a slot of zeros; and the states the draw leaves
    the rebuilt generators in. Each generator draws standard_normal((count,
    2, n)) into one scratch array whose planes are copied into its slot's
    real and imaginary parts: slot by slot, so no whole draw is held twice.

    Each generator is built from one fixed seed sequence before its state is
    set: kind() alone would first read OS entropy for a state it discards."""
    normals = np.zeros((len(key) + 1, count, n), dtype=complex)
    scratch = np.empty((count, 2, n))
    seed = np.random.SeedSequence(0)
    drawers = [kind(seed) for kind, _ in key]
    for bits, (_, state), out in zip(drawers, key, normals):
        bits.state = pickle.loads(state)
        np.random.Generator(bits).standard_normal(out=scratch)
        out.real, out.imag = scratch[:, 0], scratch[:, 1]
    normals.flags.writeable = False
    return normals, tuple(bits.state for bits in drawers)


class BatchNoise:
    """The noise of count consecutive observations of n elements for each
    trial of a batch, drawn up front; antenna_snapshot adds any run of them
    to the trials' signals.

    noise_variance is one finite, nonnegative variance for the whole batch
    or one per trial. Each distinct generator object among the noisy rows
    draws one standard_normal((count, 2, n)) into its own slot of
    ``normals``: real, then imaginary parts, observation by observation, the
    numbers count lone snapshots would take, each drawing standard_normal(n)
    for the real and then for the imaginary part, and the numbers any split
    of them into consecutive smaller draws takes. Rows that hold the
    same generator read its one slot, each scaled by its own variance, so a
    generator advances count observations however many rows hold it. A
    noiseless row reads the last slot, of zeros, and a generator that only
    noiseless rows hold draws nothing. ``normals`` is laid out complex,
    (slots + 1, count, n), the real and imaginary parts of each observation
    side by side, and ``scale`` holds each row's sqrt(variance / 2) as a
    (trials, 1, 1) column. Distinct generator objects must not share a bit
    generator.

    The last draw is cached (_run_draw), keyed on each drawing bit
    generator's class and pickled state in slot order, count and n: a run
    on generators that stand where the last run's stood, as each scheme of
    a paired comparison does, reuses its read-only ``normals``. Hit or miss,
    each generator is then set to the state the draw left it in.
    """

    def __init__(
        self,
        rngs: Sequence[np.random.Generator],
        noise_variance: float | np.ndarray,
        count: int,
        n: int,
    ):
        if check_integer("observation count", count) < 1:
            raise ValueError(f"need at least one observation, got {count}")
        if check_integer("element count", n) < 1:
            raise ValueError(f"need at least one element, got {n}")
        variance = np.asarray(noise_variance, dtype=float)
        if variance.ndim > 1 or variance.size not in (1, len(rngs)):
            raise ValueError(f"need 1 or {len(rngs)} variances, got {variance.size}")
        variance = np.broadcast_to(variance, len(rngs))
        # written so that NaN, which compares false, is rejected too
        bad = ~((variance >= 0.0) & (variance < math.inf))
        if bad.any():
            raise ValueError(
                f"noise variance {variance[bad][0]} must be finite and nonnegative"
            )
        slots: dict[int, int] = {}  # id of a generator -> its slot
        drawers = []  # the drawing generators' bit generators, in slot order
        self.slot = np.full(len(rngs), -1)  # -1: a noiseless row, the zero slot
        for row, (rng, v) in enumerate(zip(rngs, variance)):
            if v > 0.0:
                if id(rng) not in slots:
                    slots[id(rng)] = len(drawers)
                    drawers.append(rng.bit_generator)
                self.slot[row] = slots[id(rng)]
        key = tuple((type(bits), pickle.dumps(bits.state)) for bits in drawers)
        self.normals, ends = _run_draw(key, count, n)
        for bits, state in zip(drawers, ends):
            bits.state = state
        self.scale = np.sqrt(variance / 2.0)[:, None, None]


def antenna_snapshot(
    noise: BatchNoise, signals: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """(trials, stop - start, n) array observations start to stop - 1 of a
    batch: each trial's (n,) path signal in the (trials, n) stack plus its
    scaled noise from the run's draw. A lone trial is a batch of one.

    A float times a complex number adds an exact zero to each part's
    product, so the sum has the bits of signal + scale * (real + 1j *
    imaginary), noiseless rows included, but for a normal of exactly 0.
    """
    (trials,), (_, count, n) = noise.slot.shape, noise.normals.shape
    if not 0 <= start < stop <= count:
        raise ValueError(f"observations {start}:{stop} lie outside 0:{count}")
    if np.shape(signals) != (trials, n):
        raise ValueError(f"need ({trials}, {n}) signals, got {np.shape(signals)}")
    x = noise.normals[noise.slot, start:stop]  # a copy: fancy indexing
    x *= noise.scale
    x += signals[:, None, :]
    return x


def combine(w: np.ndarray, x: np.ndarray) -> complex | np.ndarray:
    """Scalar combiner output w^H x. Stacked combiners and observations of
    shape (..., n) give one output per row, each the same w^H x that a
    contiguous copy of the row gives."""
    w = np.asarray(w)
    x = np.asarray(x)
    if w.shape != x.shape:
        raise ValueError(f"combiner shape {w.shape} != snapshot shape {x.shape}")
    if w.ndim == 1:
        return complex(np.vdot(w, x))
    # np.vecdot over contiguous rows runs the BLAS dot kernel np.vdot runs
    # on a contiguous row, conjugating w in the kernel, so each output keeps
    # a lone row's bits without a conjugate copy of w; vdot itself can take
    # another kernel on a row that is not contiguous
    w = np.ascontiguousarray(w)
    x = np.ascontiguousarray(x)
    return np.vecdot(w, x)
