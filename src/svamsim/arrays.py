"""Uniform and sparse linear array geometry and steering vectors.

Angles are expressed throughout as u = sin(theta) for a half-wavelength
element spacing, so the spatial frequency of an N-element array sweeps
exp(j*pi*n*u) for n = 0..N-1 and u lives in [-1, 1).
"""

from __future__ import annotations

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


def _check_size(n: int) -> int:
    if int(n) != n or n < 1:
        raise ValueError(f"array size must be a positive integer, got {n}")
    return int(n)


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


@dataclass(frozen=True)
class SlaGeometry:
    """Sparse linear array on a half-wavelength grid.

    positions are integer element offsets in half wavelengths; the first
    element anchors the array at zero and positions increase strictly.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        pos = tuple(int(p) for p in self.positions)
        if len(pos) == 0:
            raise ValueError("sparse geometry needs at least one element")
        if pos[0] != 0:
            raise ValueError("sparse geometry must be anchored at position 0")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("element positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.positions)


def ula_manifold(n: int, u: float) -> np.ndarray:
    """Steering vector of an n-element half-wavelength ULA at angle u.

    Entry k is exp(j*pi*k*u).
    """
    n = _check_size(n)
    return np.exp(1j * np.pi * u * np.arange(n))


def ula_manifold_derivative(n: int, u: float) -> np.ndarray:
    """Entrywise derivative of ula_manifold with respect to u."""
    n = _check_size(n)
    k = np.arange(n)
    return 1j * np.pi * k * np.exp(1j * np.pi * u * k)


def manifold_matrix(n: int, us: np.ndarray) -> np.ndarray:
    """Stack steering vectors for many angles into an (n, len(us)) matrix."""
    n = _check_size(n)
    us = np.asarray(us, dtype=float)
    return np.exp(1j * np.pi * np.outer(np.arange(n), us))


def manifold_complement_and_projector(m: int, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Centered-derivative companion of the steering vector and the projector
    onto the plane it spans with the steering vector itself.

    The companion vector has entries (k - (m-1)/2) * exp(j*pi*k*u); it is
    orthogonal to the steering vector, carries squared norm m*(m^2-1)/12,
    and satisfies

        d(phi_m)/du = j*pi*((m-1)/2 * phi_m + companion).

    Requires m >= 2 (a single element has no usable derivative direction).
    """
    m = _check_size(m)
    if m < 2:
        raise ValueError("derivative decomposition needs at least 2 elements")
    phi = ula_manifold(m, u)
    offsets = np.arange(m) - (m - 1) / 2.0
    companion = offsets * phi
    # Orthogonal pair, so the projector splits into two rank-one terms.
    proj = np.outer(phi, phi.conj()) / m
    proj += np.outer(companion, companion.conj()) * (12.0 / (m * (m * m - 1)))
    proj = 0.5 * (proj + proj.conj().T)
    return companion, proj


class AngularGrid:
    """Uniform grid of candidate angles tiling a region of interest.

    Points follow the left-edge convention u_i = u_left + i*spacing with
    spacing = width/size, so every point lies inside the region and node
    boundaries of dyadic partitions land exactly on grid points.
    """

    def __init__(self, roi: RegionOfInterest, size: int):
        size = _check_size(size)
        self.roi = roi
        self.size = size
        self.spacing = roi.width / size
        points = roi.u_left + self.spacing * np.arange(size)
        points.flags.writeable = False
        self.points = points
        self._manifolds: dict[int, np.ndarray] = {}

    def manifold(self, m: int) -> np.ndarray:
        """Cached (m, size) matrix of steering vectors over the grid."""
        mat = self._manifolds.get(m)
        if mat is None:
            mat = manifold_matrix(m, self.points)
            mat.flags.writeable = False
            self._manifolds[m] = mat
        return mat

    def __len__(self) -> int:
        return self.size
