"""Narrowband single-path snapshots at the antenna array.

A snapshot is alpha * phi_n(u) plus circular Gaussian noise, with alpha the
received path gain: the transmit power P and the fading coefficient enter
every measurement only as the product sqrt(P) * alpha, so the channel holds
that product and nothing else scales it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import check_angle, ula_manifold


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


def antenna_blocks(
    signals: np.ndarray,
    noise_variance: float | np.ndarray,
    rngs: Sequence[np.random.Generator],
    count: int,
) -> np.ndarray:
    """count consecutive observations for each trial of a batch.

    signals is the (trials, n) stack of the trials' noiseless snapshots; the
    result is (trials, count, n). noise_variance is one variance for the
    whole batch or one per trial. Trial i's noise is one
    standard_normal((count, 2, n)) draw from rngs[i]: real, then imaginary
    parts, observation by observation, the same numbers count
    antenna_snapshot calls would take. A trial without noise draws nothing
    from its generator.

    The scaled parts are written straight into the output's real and
    imaginary planes before the signal is added; that sum has the bits of
    signal + scale * (real + 1j * imaginary), noiseless rows included.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2 or len(rngs) != len(signals):
        raise ValueError("need a (trials, n) signal stack and one generator per trial")
    variance = np.broadcast_to(np.asarray(noise_variance, dtype=float), len(signals))
    noise = np.zeros((len(signals), count, 2, signals.shape[1]))
    for rng, v, out in zip(rngs, variance, noise):
        if v > 0.0:
            rng.standard_normal(out=out)
    scale = np.sqrt(variance / 2.0)[:, None, None]
    x = np.empty((len(signals), count, signals.shape[1]), dtype=complex)
    np.multiply(scale, noise[..., 0, :], out=x.real)
    np.multiply(scale, noise[..., 1, :], out=x.imag)
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
    # one batched row-times-column product over contiguous rows runs the
    # BLAS dot kernel np.vdot runs on a contiguous row, so each output keeps
    # a lone row's bits; vdot itself can take another kernel on a row that
    # is not contiguous
    w = np.ascontiguousarray(w)
    x = np.ascontiguousarray(x)
    return np.matmul(w.conj()[..., None, :], x[..., :, None])[..., 0, 0]
