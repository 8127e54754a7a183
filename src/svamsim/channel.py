"""Narrowband single-path snapshots at the antenna array.

A snapshot is alpha * phi_n(u) plus circular Gaussian noise, with alpha the
received path gain: the transmit power P and the fading coefficient enter
every measurement only as the product sqrt(P) * alpha, so the channel holds
that product and nothing else scales it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
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


def noiseless_snapshot(params: ChannelParams, n: int) -> np.ndarray:
    """The deterministic part of an observation: alpha * phi_n(u)."""
    return params.alpha * ula_manifold(n, params.u)


def antenna_snapshot(
    params: ChannelParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """One length-n array observation: the path plus circular noise.

    Noiseless parameters skip the generator entirely, so the output is
    deterministic and the stream is left untouched.
    """
    x = noiseless_snapshot(params, n)
    if params.noise_variance > 0.0:
        scale = np.sqrt(params.noise_variance / 2.0)
        x += scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return x


class BatchNoise:
    """The noise of count consecutive observations of n elements for each
    trial of a batch, drawn up front; observe() adds any run of them to the
    trials' signals.

    noise_variance is one finite, nonnegative variance for the whole batch
    or one per trial. Each distinct generator object among the noisy rows
    draws one standard_normal((count, 2, n)) into its own slot of
    ``normals``: real, then imaginary parts, observation by observation, the
    numbers count antenna_snapshot calls would take, and the numbers any
    split of them into consecutive smaller draws takes. Rows that hold the
    same generator read its one slot, each scaled by its own variance, so a
    generator advances count observations however many rows hold it. A
    noiseless row reads zeros, and a generator that only noiseless rows
    hold draws nothing. The draw holds slots * count * 2 * n floats.
    Distinct generator objects must not share a bit generator.
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
        variance = np.broadcast_to(np.asarray(noise_variance, dtype=float), len(rngs))
        # written so that NaN, which compares false, is rejected too
        bad = ~((variance >= 0.0) & (variance < math.inf))
        if bad.any():
            raise ValueError(
                f"noise variance {variance[bad][0]} must be finite and nonnegative"
            )
        slots: dict[int, int] = {}  # id of a generator -> its slot
        drawers = []
        self.slot = np.full(len(rngs), -1)  # -1: a noiseless row
        for row, (rng, v) in enumerate(zip(rngs, variance)):
            if v > 0.0:
                if id(rng) not in slots:
                    slots[id(rng)] = len(drawers)
                    drawers.append(rng)
                self.slot[row] = slots[id(rng)]
        self.normals = np.empty((len(drawers), count, 2, n))
        for rng, out in zip(drawers, self.normals):
            rng.standard_normal(out=out)
        self._quiet = self.slot < 0
        self._scale = np.sqrt(variance / 2.0)[:, None, None]

    def observe(self, signals: np.ndarray, start: int, stop: int) -> np.ndarray:
        """(trials, stop - start, n) observations start to stop - 1: each
        trial's (n,) signal in the (trials, n) stack plus its scaled noise.

        The scaled parts are written straight into the output's real and
        imaginary planes before the signal is added; that sum has the bits
        of signal + scale * (real + 1j * imaginary), noiseless rows included.
        """
        if self._quiet.any():
            noise = np.zeros((len(self.slot), stop - start) + self.normals.shape[2:])
            noisy = ~self._quiet
            noise[noisy] = self.normals[self.slot[noisy], start:stop]
        else:
            noise = self.normals[self.slot, start:stop]
        x = np.empty((len(signals), stop - start, signals.shape[1]), dtype=complex)
        np.multiply(self._scale, noise[..., 0, :], out=x.real)
        np.multiply(self._scale, noise[..., 1, :], out=x.imag)
        x += signals[:, None, :]
        return x


def antenna_blocks(
    signals: np.ndarray,
    noise_variance: float | np.ndarray,
    rngs: Sequence[np.random.Generator],
    count: int,
) -> np.ndarray:
    """count consecutive observations for each trial of a batch.

    signals is the (trials, n) stack of the trials' noiseless snapshots; the
    result is (trials, count, n). Trial i's noise is one
    standard_normal((count, 2, n)) draw from rngs[i], shared by every row
    that holds the same generator object, and a trial without noise draws
    nothing (BatchNoise). So every row sees the numbers a lone call on a
    fresh copy of its generator gives it.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2 or len(rngs) != len(signals):
        raise ValueError("need a (trials, n) signal stack and one generator per trial")
    noise = BatchNoise(rngs, noise_variance, count, signals.shape[1])
    return noise.observe(signals, 0, count)


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
    # one batched row-times-column product over contiguous rows runs the
    # BLAS dot kernel np.vdot runs on a contiguous row, so each output keeps
    # a lone row's bits; vdot itself can take another kernel on a row that
    # is not contiguous
    w = np.ascontiguousarray(w)
    x = np.ascontiguousarray(x)
    return np.matmul(w.conj()[..., None, :], x[..., :, None])[..., 0, 0]
