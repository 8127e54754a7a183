"""Linear-phase FIR beamformers and the hierarchical codebook built from them.

A beam with direction u_c and beamwidth bw is realized by designing a real
equiripple lowpass prototype with passband half-width bw/2 in u-units,
modulating it entrywise by exp(j*pi*n*u_c), and normalizing to unit norm.
The response a combiner f presents to an incoming angle u is

    beta(u) = f^H phi_m(u),

so the prototype's amplitude response directly shapes the beam pattern and
the unit-norm constraint fixes the mean passband power gain near 2/bw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.signal import remez

from .arrays import U_MAX, U_MIN, RegionOfInterest, check_integer, ula_manifold
from .channel import combine


# Prototype design: transition band as a fraction of the beamwidth, exchange
# grid density, and exchange iterations before the least-squares fallback.
_TRANSITION_FRACTION = 0.2
_GRID_DENSITY = 16
_MAX_REMEZ_ITERATIONS = 40


@dataclass(frozen=True)
class BeamSpec:
    """Requested beam: center direction and total width, both in u-units."""

    direction: float
    beamwidth: float

    def __post_init__(self) -> None:
        if not (0.0 < self.beamwidth <= U_MAX - U_MIN):
            raise ValueError(f"beamwidth {self.beamwidth} outside (0, 2]")
        lo, hi = self.passband()
        if not (hi - lo > 0.0):  # a NaN direction compares false
            raise ValueError(
                f"beam at {self.direction} width {self.beamwidth} misses [-1, 1)"
            )

    def passband(self) -> tuple[float, float]:
        """Requested band clipped to the physical angle range."""
        lo = max(self.direction - 0.5 * self.beamwidth, U_MIN)
        hi = min(self.direction + 0.5 * self.beamwidth, U_MAX)
        return lo, hi


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Designed unit-norm combiner together with its provenance.

    method is one of "remez", "least-squares", "allpass", "single-tap".
    weights are read-only.
    """

    weights: np.ndarray
    spec: BeamSpec
    method: str

    @property
    def size(self) -> int:
        return len(self.weights)


def _ls_lowpass(m: int, pass_edge: float, stop_edge: float) -> np.ndarray:
    """Weighted least-squares linear-phase lowpass, either tap parity.

    Solves for the amplitude response on a dense band grid; the band between
    pass_edge and stop_edge is left unconstrained, matching the equiripple
    band spec it replaces.
    """
    bands = [(0.0, pass_edge, 1.0), (stop_edge, 1.0, 0.0)]
    omegas, targets = [], []
    for lo, hi, level in bands:
        count = max(16, int(np.ceil((hi - lo) * 8 * m)))
        w = np.linspace(lo * np.pi, hi * np.pi, count)
        omegas.append(w)
        targets.append(np.full(count, level))
    omega = np.concatenate(omegas)
    target = np.concatenate(targets)

    if m % 2:  # type I: A(w) = c0 + sum 2*ck*cos(k w)
        mid = (m - 1) // 2
        basis = np.empty((len(omega), mid + 1))
        basis[:, 0] = 1.0
        for k in range(1, mid + 1):
            basis[:, k] = 2.0 * np.cos(k * omega)
        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
        h = np.empty(m)
        h[mid] = coef[0]
        for k in range(1, mid + 1):
            h[mid - k] = h[mid + k] = coef[k]
    else:  # type II: A(w) = sum 2*ck*cos((k - 1/2) w)
        mid = m // 2
        basis = np.empty((len(omega), mid))
        for k in range(1, mid + 1):
            basis[:, k - 1] = 2.0 * np.cos((k - 0.5) * omega)
        coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
        h = np.empty(m)
        for k in range(1, mid + 1):
            h[mid - k] = h[mid - 1 + k] = coef[k - 1]
    return h


@lru_cache(maxsize=None)
def _prototype(m: int, pass_edge: float, stop_edge: float) -> tuple[np.ndarray, str]:
    """Real lowpass prototype for one band shape, and the method that made it.

    The prototype does not depend on the beam direction, so every beam of a
    given tap count, passband half-width and transition shares one exchange.
    The taps are read-only.
    """
    try:
        proto = remez(
            m,
            [0.0, pass_edge, stop_edge, 1.0],
            [1.0, 0.0],
            fs=2.0,
            maxiter=_MAX_REMEZ_ITERATIONS,
            grid_density=_GRID_DENSITY,
        )
        if not np.all(np.isfinite(proto)) or np.linalg.norm(proto) < 1e-12:
            raise ValueError("degenerate equiripple solution")
        method = "remez"
    except Exception:
        proto = _ls_lowpass(m, pass_edge, stop_edge)
        method = "least-squares"
    proto.flags.writeable = False
    return proto, method


def _design_band(
    band_lo: float, band_hi: float, m: int
) -> tuple[float, float, float]:
    """The band a length-m design realizes for a clipped passband, and its
    width."""
    width = band_hi - band_lo
    # Passbands narrower than the aperture resolution 2/m are unrealizable;
    # the minimax compromise then spreads energy into the stopband and the
    # in-band gain collapses, so the design band is floored there.
    floor = min(2.0 / m, U_MAX - U_MIN)
    if m > 1 and width < floor:
        center = 0.5 * (band_lo + band_hi)
        band_lo = max(center - 0.5 * floor, U_MIN)
        band_hi = min(band_lo + floor, U_MAX)
        band_lo = band_hi - floor
        width = floor
    return band_lo, band_hi, width


@lru_cache(maxsize=None)
def _design_weights(
    band_lo: float, band_hi: float, width: float, m: int
) -> tuple[np.ndarray, str]:
    """Design the steered, normalized taps for a design band of _design_band.

    Keyed on the design band, so every requested band that floors to the
    same one shares one read-only taps array.
    """
    if m == 1:
        taps = np.ones(1, dtype=complex)
        taps.flags.writeable = False
        return taps, "single-tap"

    center = 0.5 * (band_lo + band_hi)
    pass_edge = 0.5 * width

    if pass_edge >= 1.0 - 1e-9:
        # Full-space beam: a centered unit impulse is exactly allpass.
        proto = np.zeros(m)
        proto[(m - 1) // 2 if m % 2 else m // 2] = 1.0
        method = "allpass"
    else:
        transition = _TRANSITION_FRACTION * width
        transition = min(transition, 0.5 * (1.0 - pass_edge))
        proto, method = _prototype(m, pass_edge, pass_edge + transition)

    taps = proto * np.exp(1j * np.pi * center * np.arange(m))
    taps = taps / np.linalg.norm(taps)
    taps.flags.writeable = False
    return taps, method


def design_beamformer(spec: BeamSpec, m: int) -> Beamformer:
    """Design a unit-norm length-m combiner realizing the requested beam.

    Parameters
    ----------
    spec : BeamSpec
        Beam direction and width; the band is clipped to [-1, 1).
    m : int
        Number of taps.

    Returns
    -------
    Beamformer
        Steered, normalized taps plus the method actually used ("remez",
        or "least-squares" when the exchange fails to converge).
    """
    m = check_integer("tap count", m)
    if m < 1:
        raise ValueError(f"tap count must be positive, got {m}")
    band_lo, band_hi, width = _design_band(*spec.passband(), m)
    weights, method = _design_weights(band_lo, band_hi, width, m)
    return Beamformer(weights=weights, spec=spec, method=method)


def _weights_of(f: Beamformer | np.ndarray) -> np.ndarray:
    return f.weights if isinstance(f, Beamformer) else np.asarray(f)


def beam_gain(
    f: Beamformer | np.ndarray, u: float | np.ndarray
) -> complex | np.ndarray:
    """Complex response beta(u) = f^H phi(u) of a combiner at angle u.

    A (..., m) stack of weights gives one response per row, each with the
    bits of that row's own vdot; u is one angle for every row, or angles
    that broadcast against the stack's leading axes.
    """
    w = _weights_of(f)
    return combine(w, np.broadcast_to(ula_manifold(w.shape[-1], u), w.shape))


@dataclass(frozen=True, eq=False)
class CodebookNode:
    level: int
    index: int
    span: tuple[float, float]
    beamformer: Beamformer


class HierarchicalCodebook:
    """Dyadic beam hierarchy over a region of interest.

    Level l splits the region into 2^l equal spans; node (l, k) covers the
    k-th span and carries a beam of matching width centered on it.
    """

    def __init__(self, levels: list[list[CodebookNode]]):
        self.levels = levels

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def node(self, level: int, index: int) -> CodebookNode:
        if not (0 <= level <= self.depth):
            raise ValueError(f"level {level} outside [0, {self.depth}]")
        row = self.levels[level]
        if not (0 <= index < len(row)):
            raise ValueError(f"node index {index} outside level {level}")
        return row[index]


def build_hierarchical_codebook(
    roi: RegionOfInterest,
    depth: int,
    m: int,
    grid_size: int | None = None,
) -> HierarchicalCodebook:
    """Design beams for every node of a depth-level dyadic partition.

    Node boundaries are computed with exact rational arithmetic so the spans
    of each level tile the region without gaps or overlap. When grid_size is
    given, the deepest level must still be resolvable on that grid.
    """
    depth = check_integer("depth", depth)
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    if grid_size is not None and 2**depth > grid_size:
        raise ValueError(
            f"depth {depth} needs {2**depth} leaf nodes but the grid has "
            f"only {grid_size} points"
        )
    left = Fraction(roi.u_left)
    width = Fraction(roi.u_right) - left
    levels: list[list[CodebookNode]] = []
    for level in range(depth + 1):
        count = 2**level
        nodes = []
        for k in range(count):
            lo = left + width * k / count
            hi = left + width * (k + 1) / count
            spec = BeamSpec(float((lo + hi) / 2), float(width / count))
            nodes.append(
                CodebookNode(
                    level=level,
                    index=k,
                    span=(float(lo), float(hi)),
                    beamformer=design_beamformer(spec, m),
                )
            )
        levels.append(nodes)
    return HierarchicalCodebook(levels)
