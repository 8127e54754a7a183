"""Uniform linear array steering vectors, angular regions and grids.

Angles are expressed throughout as u = sin(theta) for a half-wavelength
element spacing, so the spatial frequency of an N-element array sweeps
exp(j*pi*n*u) for n = 0..N-1 and u lives in [-1, 1).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

U_MIN = -1.0
U_MAX = 1.0


def check_angle(u: float) -> float:
    """Validate a spatial angle u = sin(theta); must lie in [-1, 1)."""
    u = float(u)
    if not (U_MIN <= u < U_MAX):
        raise ValueError(f"spatial angle u={u} outside [{U_MIN}, {U_MAX})")
    return u


def check_integer(name: str, value) -> int:
    """The int value of a size, count or seed: numpy integers pass; a bool
    (n_v=True is no block size) or a float such as 16.0 raises."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_size(n: int) -> int:
    n = check_integer("array size", n)
    if n < 1:
        raise ValueError(f"array size must be positive, got {n}")
    return n


@dataclass(frozen=True)
class RegionOfInterest:
    """Angular sector [u_left, u_right) the alignment procedure searches."""

    u_left: float
    u_right: float

    def __post_init__(self) -> None:
        if not (U_MIN <= self.u_left < self.u_right <= U_MAX):
            raise ValueError(
                f"region [{self.u_left}, {self.u_right}) must satisfy "
                f"{U_MIN} <= u_left < u_right <= {U_MAX}"
            )

    @property
    def width(self) -> float:
        return self.u_right - self.u_left

    @property
    def center(self) -> float:
        return 0.5 * (self.u_left + self.u_right)


def check_roi(roi) -> RegionOfInterest:
    """Reject a region that is not a RegionOfInterest, such as a (u_left,
    u_right) tuple, which would fail later on a missing attribute."""
    if not isinstance(roi, RegionOfInterest):
        raise ValueError(f"roi must be a RegionOfInterest, got {roi!r}")
    return roi


def ula_manifold(n: int, u: float | np.ndarray) -> np.ndarray:
    """Steering vector of an n-element half-wavelength ULA at angle u.

    Entry k is exp(j*pi*k*u). An array of angles gives one row per angle,
    each with the bits of that angle's own steering vector.
    """
    n = _check_size(n)
    return np.exp(1j * np.pi * np.asarray(u, dtype=float)[..., None] * np.arange(n))


def manifold_matrix(n: int, us: np.ndarray) -> np.ndarray:
    """Stack steering vectors for many angles into an (n, len(us)) matrix."""
    n = _check_size(n)
    us = np.asarray(us, dtype=float)
    return np.exp(1j * np.pi * np.outer(np.arange(n), us))


class AngularGrid:
    """Uniform grid of candidate angles tiling a region of interest.

    Points follow the left-edge convention u_i = u_left + i*spacing with
    spacing = width/size, so every point lies inside the region and node
    boundaries of dyadic partitions land exactly on grid points.
    """

    def __init__(self, roi: RegionOfInterest, size: int):
        size = _check_size(size)
        self.roi = check_roi(roi)
        self.size = size
        self.spacing = roi.width / size
        points = roi.u_left + self.spacing * np.arange(size)
        points.flags.writeable = False
        self.points = points
        self._manifolds: dict[int, np.ndarray] = {}
        self._cycled: dict[tuple[int, int], np.ndarray] = {}

    def manifold(self, m: int) -> np.ndarray:
        """Cached (m, size) matrix of steering vectors over the grid."""
        mat = self._manifolds.get(m)
        if mat is None:
            mat = manifold_matrix(m, self.points)
            mat.flags.writeable = False
            self._manifolds[m] = mat
        return mat

    def cycled_conjugate(self, m: int, rows: int) -> np.ndarray:
        """Cached read-only (rows, size) matrix whose row r is the conjugate
        of manifold(m)'s row r mod m."""
        mat = self._cycled.get((m, rows))
        if mat is None:
            mat = self.manifold(m)[np.arange(rows) % m].conj()
            mat.flags.writeable = False
            self._cycled[m, rows] = mat
        return mat

    def __len__(self) -> int:
        return self.size
