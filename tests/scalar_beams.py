"""Test oracle: beam design without the prototype cache.

This is the design as it ran before the lowpass prototype was cached per
band shape: every passband runs its own equiripple exchange (or
least-squares fallback) and then steers and normalizes the result. It looks
up remez and the fallback through svamsim.beams at call time, so a test
that replaces beams.remez changes the oracle and the cached design alike.
"""

from __future__ import annotations

import numpy as np

from svamsim import beams
from svamsim.arrays import U_MAX, U_MIN


def design_weights(
    band_lo: float, band_hi: float, m: int, params: beams.FirDesignParams
) -> tuple[np.ndarray, str, tuple[float, float]]:
    """Steered, normalized taps for a clipped passband, designed afresh."""
    if m == 1:
        return np.ones(1, dtype=complex), "single-tap", (band_lo, band_hi)

    width = band_hi - band_lo
    floor = min(2.0 / m, U_MAX - U_MIN)
    if width < floor:
        center = 0.5 * (band_lo + band_hi)
        band_lo = max(center - 0.5 * floor, U_MIN)
        band_hi = min(band_lo + floor, U_MAX)
        band_lo = band_hi - floor
        width = floor

    center = 0.5 * (band_lo + band_hi)
    pass_edge = 0.5 * width

    method = "remez"
    if pass_edge >= 1.0 - 1e-9:
        proto = np.zeros(m)
        proto[(m - 1) // 2 if m % 2 else m // 2] = 1.0
        method = "allpass"
    else:
        transition = params.transition_fraction * width
        transition = min(transition, 0.5 * (1.0 - pass_edge))
        stop_edge = pass_edge + transition
        try:
            proto = beams.remez(
                m,
                [0.0, pass_edge, stop_edge, 1.0],
                [1.0, 0.0],
                fs=2.0,
                maxiter=params.max_remez_iterations,
                grid_density=params.grid_density,
            )
            if not np.all(np.isfinite(proto)) or np.linalg.norm(proto) < 1e-12:
                raise ValueError("degenerate equiripple solution")
        except Exception:
            proto = beams._ls_lowpass(m, pass_edge, stop_edge)
            method = "least-squares"

    taps = proto * np.exp(1j * np.pi * center * np.arange(m))
    taps = taps / np.linalg.norm(taps)
    return taps, method, (band_lo, band_hi)
