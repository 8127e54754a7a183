"""Narrowband multipath snapshots at the antenna array."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import check_angle, ula_manifold


@dataclass(frozen=True)
class ChannelParams:
    """Transmit power, path list (gain, angle) and per-element noise power."""

    power: float
    paths: tuple[tuple[complex, float], ...]
    noise_variance: float

    def __post_init__(self) -> None:
        # written so that NaN, which compares false, is rejected too
        if not self.power >= 0:
            raise ValueError(f"power must be nonnegative, got {self.power}")
        if not self.noise_variance >= 0:
            raise ValueError(
                f"noise variance must be nonnegative, got {self.noise_variance}"
            )
        if len(self.paths) == 0:
            raise ValueError("at least one propagation path is required")
        paths = tuple((complex(a), check_angle(u)) for a, u in self.paths)
        object.__setattr__(self, "paths", paths)

    @classmethod
    def single_path(
        cls, alpha: complex, u: float, power: float = 1.0, noise_variance: float = 0.0
    ) -> "ChannelParams":
        return cls(power=power, paths=((alpha, u),), noise_variance=noise_variance)


def noiseless_snapshot(params: ChannelParams, n: int) -> np.ndarray:
    """The deterministic part of an observation: sqrt(power) times the sum
    of alpha * phi_n(u) over the paths."""
    x = np.zeros(n, dtype=complex)
    for alpha, u in params.paths:
        x += alpha * ula_manifold(n, u)
    x *= np.sqrt(params.power)
    return x


def antenna_snapshot(
    params: ChannelParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    """One length-n array observation: scaled path sum plus circular noise.

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
    noise_variance: float,
    rngs: Sequence[np.random.Generator],
    count: int,
) -> np.ndarray:
    """count consecutive observations for each trial of a batch.

    signals is the (trials, n) stack of the trials' noiseless snapshots; the
    result is (trials, count, n). Trial i's noise is one
    standard_normal((count, 2, n)) draw from rngs[i]: real, then imaginary
    parts, observation by observation, the same numbers count
    antenna_snapshot calls would take. Without noise no generator is used.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2 or len(rngs) != len(signals):
        raise ValueError("need a (trials, n) signal stack and one generator per trial")
    if noise_variance == 0.0:
        return np.repeat(signals[:, None, :], count, axis=1)
    noise = np.empty((len(signals), count, 2, signals.shape[1]))
    for rng, out in zip(rngs, noise):
        rng.standard_normal(out=out)
    scale = np.sqrt(noise_variance / 2.0)
    return signals[:, None, :] + scale * (noise[..., 0, :] + 1j * noise[..., 1, :])


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
