"""Estimation-variance lower bounds for angle estimation through combiners.

All bounds share the prefactor noise_var / 2; what differs is the Fisher
denominator each combining scheme produces. noise_var is the per-element
noise power relative to the received path gain's power P|alpha|^2: the
measurements carry transmit power and fading only as sqrt(P) * alpha, so
the bounds depend on them only through that ratio. Singular geometries
(no angle information in the measurements) yield an infinite bound,
reported explicitly rather than raised.

Every bound and the certificate take the angle u as a float or as a 1-D
array of angles, and return values shaped like u: numpy scalars for a
float, arrays of its length for an array. One call computes all its
angles at once, with each angle's bits: every projection is a batched
matrix-vector product and every Gram product a batched dot
(channel.combine); one matrix-matrix product would round differently.
The steering rows of one tap count and angle array are built once and
shared by every call on them (_steering_rows). A squared modulus that
reaches a printed bound or a verdict is
np.float_power(np.hypot(re, im), 2.0): one complex number's abs and one
float's ** 2 (libm pow); np.abs, x * x and np.power round differently.

A practical caveat: the adaptive estimators in this package pick the
posterior argmax on a finite grid and are therefore biased; for them these
variance bounds are indicative rather than binding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .arrays import check_integer, ula_manifold
from .channel import combine

# Relative level below which a Fisher denominator is considered exactly
# singular: rank-deficient geometries hit zero only up to roundoff.
_SINGULAR_RTOL = 1e-12

# Angles per _responses call: glibc maps a 128 KiB or larger array afresh and
# faults its pages in on every call. 128 angles of a 120-segment bank take
# 240 KiB, a block of 32 angles 60 KiB, which stays on the heap.
_ANGLE_BLOCK = 32


@dataclass(frozen=True)
class CrbResult:
    """Variance bound, infinite iff the Fisher denominator vanishes, shaped
    like the angles u: a numpy scalar for a float, an array for an array.

    gain_term carries the virtual-aperture contribution for the sliding
    scheme and is None otherwise.
    """

    bound: np.ndarray
    gain_term: np.ndarray | None = None


def _check_noise_terms(noise_var: float) -> float:
    if not (0 < noise_var < math.inf):  # NaN compares false
        raise ValueError(f"noise variance {noise_var} must be positive and finite")
    return noise_var / 2.0


def _finish(prefactor: float, denominator: np.ndarray, scale: np.ndarray,
            shape: tuple, gain_term: np.ndarray | None = None) -> CrbResult:
    singular = denominator <= _SINGULAR_RTOL * np.maximum(scale, 1e-300)
    bound = np.full(len(denominator), math.inf)
    np.divide(prefactor, denominator, out=bound, where=~singular)
    gains = None if gain_term is None else _shaped(gain_term, shape)
    return CrbResult(_shaped(bound, shape), gains)


def _bank(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2:  # a 1-D beam is a column, w[:, None], not a row of 1-tap beams
        raise ValueError(f"bank must be a 2-D (taps, segments) array, not {w.shape}")
    return w


def _angles(u) -> tuple[np.ndarray, tuple]:
    """The angles as a 1-D array, and u's shape."""
    us = np.asarray(u, dtype=float)
    if us.ndim > 1:
        raise ValueError("angles must be a float or a 1-D array")
    return us.reshape(-1), us.shape


def _shaped(values: np.ndarray, shape: tuple):
    """One value per angle, shaped like u: a numpy scalar for a float."""
    return values.reshape(shape)[()]


# keyed on the angles' bytes, so each angle keeps its bits and -0.0 is not
# 0.0; four entries hold the benchmark grid's full-aperture rows and its
# three sub-aperture tap counts
@lru_cache(maxsize=4)
def _steering_rows(m: int, angles: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Length-m steering vectors and their u-derivatives, one row per angle
    of the float64 bytes `angles`, built once per (m, angles) and shared
    read-only by every bound and the certificate.

    Row g of phi is ula_manifold(m, us[g]), and row g of the derivative is
    j*pi*k times it, entry by entry; manifold_matrix rounds its phases
    differently.
    """
    phi = ula_manifold(m, np.frombuffer(angles))
    d = (1j * np.pi * np.arange(m)) * phi
    phi.flags.writeable = d.flags.writeable = False
    return phi, d


def _responses(bank: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(angles, segments) bank^H row for every row: one matmul of the rows
    as stacked column vectors runs one matrix-vector product per row, with
    the bits of that row's own bank^H @ row. One matrix-matrix product would
    round differently, and crb_unknown_alpha's cancellation would carry
    that into the printed bounds.
    """
    return np.matmul(bank.conj().T, rows[..., None])[..., 0]


def _in_angle_blocks(terms: Callable[[slice], tuple], count: int) -> list[np.ndarray]:
    """terms(rows) on row slices of _ANGLE_BLOCK of the count angles, each
    of its per-angle outputs joined over the slices."""
    blocks = [terms(slice(i, i + _ANGLE_BLOCK)) for i in range(0, count, _ANGLE_BLOCK)]
    return [np.concatenate(term) for term in zip(*blocks)]


def _grams(bank: np.ndarray, x: np.ndarray, y: np.ndarray | None = None) -> tuple:
    """Per row, ||a||^2 of a = bank^H x and, given rows y, ||b||^2 and a^H b
    of b = bank^H y."""
    a = _responses(bank, x)
    if y is None:
        return (combine(a, a).real,)
    b = _responses(bank, y)
    return combine(a, a).real, combine(b, b).real, combine(a, b)


def _known_gain_bounds(
    bank: np.ndarray, repeats: int, u, noise_var: float
) -> CrbResult:
    """Known-gain bound of full-length combiners, each column held for
    `repeats` snapshots, at the angle(s) u: the repetition multiplies the
    projected derivative energy."""
    bank = _bank(bank)
    prefactor = _check_noise_terms(noise_var)
    us, shape = _angles(u)
    _, d = _steering_rows(bank.shape[0], us.tobytes())
    energy = float(np.sum(np.abs(bank) ** 2))
    denom = repeats * _in_angle_blocks(lambda rows: _grams(bank, d[rows]), len(us))[0]
    scale = repeats * combine(d, d).real * energy
    return _finish(prefactor, denom, scale, shape)


def crb_general(w: np.ndarray, u, noise_var: float) -> CrbResult:
    """Bound for an arbitrary bank of full-length combiners (known gain).

    Parameters
    ----------
    w : (n, L) array
        One combiner per snapshot, stacked as columns.
    u : float or 1-D array
        True angle(s) the derivative is evaluated at.
    noise_var : float
        Per-element noise power relative to the received path gain's power.
    """
    return _known_gain_bounds(w, 1, u, noise_var)


def crb_benchmark(
    f: np.ndarray,
    n_v: int,
    u,
    noise_var: float,
) -> CrbResult:
    """Bound for full-aperture combining with each beamformer held for n_v
    snapshots, at the angle(s) u. Works on the per-segment beamformers
    directly; the block repetition contributes the factor n_v."""
    n_v = check_integer("block size", n_v)
    if n_v < 1:
        raise ValueError("block size must be positive")
    return _known_gain_bounds(f, n_v, u, noise_var)


def _svam_gram_terms(
    f: np.ndarray, us: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gram products of the sub-aperture bank against the length-m manifold,
    one entry per angle: derivative energy, steering energy, their cross
    term, and the squared norm of the derivative itself."""
    phi, d = _steering_rows(f.shape[0], us.tobytes())
    grams = _in_angle_blocks(lambda rows: _grams(f, d[rows], phi[rows]), len(us))
    return (*grams, combine(d, d).real)


def _virtual_gain(
    n_v: int, steering_energy: np.ndarray, cross: np.ndarray
) -> np.ndarray:
    """Virtual-aperture contribution to the sliding-scheme Fisher denominator:

        pi^2 (n_v-1)(2 n_v-1)/6 * ||F^H phi||^2
            - pi (n_v-1) * Im{ (d phi)^H F F^H phi }.

    Can be negative for adversarial beamformers; see
    gain_condition_sufficient for a certificate of nonnegativity.
    """
    quad = np.pi**2 * (n_v - 1) * (2 * n_v - 1) / 6.0 * steering_energy
    return quad - np.pi * (n_v - 1) * cross.imag


def crb_svam(
    f: np.ndarray,
    n_v: int,
    u,
    noise_var: float,
) -> CrbResult:
    """Bound for the sliding sub-aperture scheme (known gain) at the angle(s) u.

    f stacks the per-segment length-m beamformers as columns. Equals
    crb_general on the expanded full-length combiner bank, but is computed
    from m-sized Gram products without materializing the expansion. The
    result's gain_term is the virtual-aperture contribution to the Fisher
    denominator at each angle (see _virtual_gain).
    """
    f = _bank(f)
    n_v = check_integer("block size", n_v)
    if n_v < 1:
        raise ValueError("block size must be positive")
    prefactor = _check_noise_terms(noise_var)
    us, shape = _angles(u)
    m = f.shape[0]
    f_energy = float(np.sum(np.abs(f) ** 2))
    derivative_energy, steering_energy, cross, d_scale = _svam_gram_terms(f, us)
    g = _virtual_gain(n_v, steering_energy, cross)
    denom = n_v * (derivative_energy + g)
    scale = n_v * (d_scale + np.pi**2 * n_v**2 * m) * f_energy
    return _finish(prefactor, denom, scale, shape, gain_term=g)


def gain_condition_sufficient(
    f: np.ndarray, u
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certificate that the virtual-aperture term is nonnegative.

    Returns (holds, lhs, rhs), each shaped like u, for the test

        ||F^H phi||^2 / ||phi||^2  >=  lambda_max(F^H P F) / 4,

    with P the projector onto span{phi, centered-derivative companion c}.
    The condition is sufficient: when it holds the gain term cannot be
    negative, but beams violating it may still have a nonnegative term.

    c has entries (k - (m-1)/2) * phi_k. It is orthogonal to phi, has
    squared norm m(m^2-1)/12, and d(phi)/du = j pi ((m-1)/2 phi + c).
    P has rank two, phi phi^H / m + kappa c c^H with kappa = 12/(m(m^2-1)),
    so F^H P F = A A^H for the two columns A = [F^H phi / sqrt(m),
    sqrt(kappa) F^H c]. Its top eigenvalue is that of the 2 x 2 matrix
    A^H A = [[p, r], [r*, q]]: (p+q)/2 + sqrt(((p-q)/2)^2 + |r|^2), for any
    bank F (p is lhs). A single element (m = 1) has c = 0, so rhs = lhs / 4 and the
    certificate holds.
    """
    f = _bank(f)
    us, shape = _angles(u)
    m = f.shape[0]
    phi, _ = _steering_rows(m, us.tobytes())
    taps = np.arange(m) - (m - 1) / 2.0  # the companion rows are taps * phi
    kappa = 12.0 / (m * (m * m - 1)) if m > 1 else 0.0
    # slack keeps boundary cases (lhs = rhs = 0 in exact arithmetic) holding
    slack = 1e-12 * float(np.sum(np.abs(f) ** 2))
    lhs, q, cross = _in_angle_blocks(
        lambda rows: _grams(f, phi[rows], taps * phi[rows]), len(us)
    )
    lhs, q = lhs / m, kappa * q
    r = np.hypot(cross.real, cross.imag) * math.sqrt(kappa / m)
    top = 0.5 * (lhs + q) + np.sqrt(np.float_power(0.5 * (lhs - q), 2.0) + r * r)
    rhs = top / 4.0
    holds = lhs >= rhs - slack
    return _shaped(holds, shape), _shaped(lhs, shape), _shaped(rhs, shape)


def crb_unknown_alpha(w: np.ndarray, u, noise_var: float) -> CrbResult:
    """Bound for the angle(s) u when the complex path gain must be estimated too.

    The gain nuisance removes the component of the derivative response that
    is parallel to the steering response; a single snapshot or a rank-one
    combiner bank then carries no angle information and the bound is
    infinite (reported, not raised).

    The removal cancels most of the derivative energy. On the expanded
    repeated-beam bank of crb_table and crb_sweep at n=64, n_v=2, that
    energy is about 3970 times the denominator (795 at n_v=4, 190 at
    n_v=8), so about 3.6 digits are lost and the bound's relative rounding
    error is near 1e-12. The last of the 12 digits the CSVs print is
    therefore not trustworthy: summing the same products in another order
    changes it.
    """
    w = _bank(w)
    prefactor = _check_noise_terms(noise_var)
    us, shape = _angles(u)
    n = w.shape[0]
    phi, d = _steering_rows(n, us.tobytes())
    blind_level = _SINGULAR_RTOL * float(np.sum(np.abs(w) ** 2)) * n
    steering_energy, derivative_energy, cross = _in_angle_blocks(
        lambda rows: _grams(w, phi[rows], d[rows]), len(us)
    )
    # combiners blind to the steering vector: the projection is vacuous
    explained = np.zeros(len(us))
    np.divide(np.float_power(np.hypot(cross.real, cross.imag), 2.0), steering_energy,
              out=explained, where=steering_energy > blind_level)
    denom = derivative_energy - explained
    return _finish(prefactor, denom, derivative_energy, shape)
