"""Narrowband single-path snapshots at the antenna array.

A snapshot is alpha * phi_n(u) plus circular Gaussian noise, with alpha the
received path gain: the transmit power P and the fading coefficient enter
every measurement only as the product sqrt(P) * alpha, so the channel holds
that product and nothing else scales it. The noise is the one random step,
and draw_noise is the only function here that draws: it takes a trial's
standard normals for a whole run from that trial's generator, once. A
BatchNoise holds such a draw and the slot each row of a batch reads, and
antenna_snapshot adds any window of it, scaled row by row, to a batch's
signals. A lone trial is a batch of one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


class BatchNoise(NamedTuple):
    """The drawn noise of a batch and the slot each of its rows reads.

    ``normals`` is the read-only complex (slots + 1, count, n) stack of a
    run's standard normals, real and imaginary parts of each observation
    side by side, a slot per drawn trial and a last slot of zeros; ``slot``
    holds each row's slot, -1 naming the zero slot. Rows that read one slot
    see one draw, as a trial's rows at several SNRs do.
    """

    normals: np.ndarray
    slot: np.ndarray


def draw_noise(
    rngs: Sequence[np.random.Generator], count: int, n: int
) -> BatchNoise:
    """count observations of n elements for each generator, one row each:
    generator i draws standard_normal((count, 2, n)) into slot i, the real
    then imaginary normals observation by observation, the numbers count
    lone snapshots would take, each drawing standard_normal(n) for the real
    and then for the imaginary part. Every draw goes through one scratch
    array, so no whole draw is held twice."""
    if check_integer("observation count", count) < 1:
        raise ValueError(f"need at least one observation, got {count}")
    if check_integer("element count", n) < 1:
        raise ValueError(f"need at least one element, got {n}")
    normals = np.zeros((len(rngs) + 1, count, n), dtype=complex)
    scratch = np.empty((count, 2, n))
    for rng, out in zip(rngs, normals):
        rng.standard_normal(out=scratch)
        out.real, out.imag = scratch[:, 0], scratch[:, 1]
    normals.flags.writeable = False
    return BatchNoise(normals, np.arange(len(rngs)))


def antenna_snapshot(
    noise: BatchNoise, scale: np.ndarray, signals: np.ndarray, start: int, stop: int
) -> np.ndarray:
    """(trials, stop - start, n) array observations start to stop - 1 of a
    batch: each trial's (n,) path signal in the (trials, n) stack plus its
    row's normals times its scale, sqrt(noise variance / 2). A lone trial
    is a batch of one.

    A float times a complex number adds an exact zero to each part's
    product, so the sum has the bits of signal + scale * (real + 1j *
    imaginary), rows of the zero slot included, but for a normal of exactly
    0.
    """
    (trials,), (_, count, n) = noise.slot.shape, noise.normals.shape
    if not 0 <= start < stop <= count:
        raise ValueError(f"observations {start}:{stop} lie outside 0:{count}")
    if np.shape(signals) != (trials, n) or np.shape(scale) != (trials,):
        raise ValueError(
            f"need ({trials}, {n}) signals and {trials} scales, got "
            f"{np.shape(signals)} and {np.shape(scale)}"
        )
    x = noise.normals[noise.slot, start:stop]  # a copy: fancy indexing
    x *= scale[:, None, None]
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
