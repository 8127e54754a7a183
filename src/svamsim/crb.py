"""Estimation-variance lower bounds for angle estimation through combiners.

All bounds share the prefactor noise_var / 2; what differs is the Fisher
denominator each combining scheme produces. noise_var is the per-element
noise power relative to the received path gain's power P|alpha|^2: the
measurements carry transmit power and fading only as sqrt(P) * alpha, so
the bounds depend on them only through that ratio. Singular geometries
(no angle information in the measurements) yield an infinite bound,
reported explicitly rather than raised.

Every bound and the certificate take the angle u as a float or as a 1-D
array of angles. A float returns one result, an array a list with one
result per angle. One call builds the steering vectors and derivatives of
all its angles once, and the bank's energy once.

A practical caveat: the adaptive estimators in this package pick the
posterior argmax on a finite grid and are therefore biased; for them these
variance bounds are indicative rather than binding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ula_manifold

# Relative level below which a Fisher denominator is considered exactly
# singular: rank-deficient geometries hit zero only up to roundoff.
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class CrbResult:
    """Variance bound, infinite iff the Fisher denominator vanishes.

    gain_term carries the virtual-aperture contribution for the sliding
    scheme and is None otherwise.
    """

    bound: float
    gain_term: float | None = None


def _check_noise_terms(noise_var: float) -> float:
    if not (0 < noise_var < math.inf):  # NaN compares false
        raise ValueError(f"noise variance {noise_var} must be positive and finite")
    return noise_var / 2.0


def _finish(prefactor: float, denominator: float, scale: float,
            gain_term: float | None = None) -> CrbResult:
    if denominator <= _SINGULAR_RTOL * max(scale, 1e-300):
        return CrbResult(bound=math.inf, gain_term=gain_term)
    return CrbResult(bound=prefactor / denominator, gain_term=gain_term)


def _bank(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim != 2:  # a 1-D beam is a column, w[:, None], not a row of 1-tap beams
        raise ValueError(f"bank must be a 2-D (taps, segments) array, not {w.shape}")
    return w


def _angles(u) -> tuple[np.ndarray, bool]:
    """The angles as a 1-D array, and whether u was a single angle."""
    us = np.asarray(u, dtype=float)
    if us.ndim > 1:
        raise ValueError("angles must be a float or a 1-D array")
    return us.reshape(-1), us.ndim == 0


def _per_angle(results: list, single: bool):
    return results[0] if single else results


def _steering_rows(m: int, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Length-m steering vectors and their u-derivatives, one row per angle.

    Row g of phi is ula_manifold(m, us[g]), and row g of the derivative is
    j*pi*k times it, entry by entry; manifold_matrix rounds its phases
    differently.
    """
    phi = ula_manifold(m, us)
    return phi, (1j * np.pi * np.arange(m)) * phi


def _responses(bank: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
    """bank^H row for every row, one matrix-vector product each.

    One matrix-matrix product over all rows would round differently, and
    crb_unknown_alpha's cancellation would carry that into the printed bounds.
    """
    bank_h = bank.conj().T
    return [bank_h @ row for row in rows]


def _known_gain_bounds(
    bank: np.ndarray, repeats: int, u, noise_var: float
) -> CrbResult | list[CrbResult]:
    """Known-gain bound of full-length combiners, each column held for
    `repeats` snapshots, at the angle(s) u: the repetition multiplies the
    projected derivative energy."""
    bank = _bank(bank)
    prefactor = _check_noise_terms(noise_var)
    us, single = _angles(u)
    _, d = _steering_rows(bank.shape[0], us)
    energy = float(np.sum(np.abs(bank) ** 2))
    results = []
    for d_row, projected in zip(d, _responses(bank, d)):
        denom = repeats * float(np.vdot(projected, projected).real)
        scale = repeats * float(np.vdot(d_row, d_row).real) * energy
        results.append(_finish(prefactor, denom, scale))
    return _per_angle(results, single)


def crb_general(w: np.ndarray, u, noise_var: float) -> CrbResult | list[CrbResult]:
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
) -> CrbResult | list[CrbResult]:
    """Bound for full-aperture combining with each beamformer held for n_v
    snapshots, at the angle(s) u. Works on the per-segment beamformers
    directly; the block repetition contributes the factor n_v."""
    if n_v < 1:
        raise ValueError("block size must be positive")
    return _known_gain_bounds(f, n_v, u, noise_var)


def _svam_gram_terms(
    f: np.ndarray, us: np.ndarray
) -> list[tuple[float, float, complex, float]]:
    """Gram products of the sub-aperture bank against the length-m manifold,
    per angle: derivative energy, steering energy, their cross term, and the
    squared norm of the derivative itself."""
    phi, d = _steering_rows(f.shape[0], us)
    return [
        (
            float(np.vdot(fd, fd).real),
            float(np.vdot(fp, fp).real),
            complex(np.vdot(fd, fp)),
            float(np.vdot(d_row, d_row).real),
        )
        for d_row, fd, fp in zip(d, _responses(f, d), _responses(f, phi))
    ]


def _virtual_gain(n_v: int, steering_energy: float, cross: complex) -> float:
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
) -> CrbResult | list[CrbResult]:
    """Bound for the sliding sub-aperture scheme (known gain) at the angle(s) u.

    f stacks the per-segment length-m beamformers as columns. Equals
    crb_general on the expanded full-length combiner bank, but is computed
    from m-sized Gram products without materializing the expansion. Each
    result's gain_term is the virtual-aperture contribution in its Fisher
    denominator (see _virtual_gain).
    """
    f = _bank(f)
    if n_v < 1:
        raise ValueError("block size must be positive")
    prefactor = _check_noise_terms(noise_var)
    us, single = _angles(u)
    m = f.shape[0]
    f_energy = float(np.sum(np.abs(f) ** 2))
    results = []
    for derivative_energy, steering_energy, cross, d_scale in _svam_gram_terms(f, us):
        g = _virtual_gain(n_v, steering_energy, cross)
        denom = n_v * (derivative_energy + g)
        scale = n_v * (d_scale + np.pi**2 * n_v**2 * m) * f_energy
        results.append(_finish(prefactor, denom, scale, gain_term=float(g)))
    return _per_angle(results, single)


def gain_condition_sufficient(
    f: np.ndarray, u
) -> tuple[bool, float, float] | list[tuple[bool, float, float]]:
    """Certificate that the virtual-aperture term is nonnegative.

    Returns (holds, lhs, rhs) at the angle(s) u for the test

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
    us, single = _angles(u)
    m = f.shape[0]
    phi, _ = _steering_rows(m, us)
    companion = (np.arange(m) - (m - 1) / 2.0) * phi
    kappa = 12.0 / (m * (m * m - 1)) if m > 1 else 0.0
    # slack keeps boundary cases (lhs = rhs = 0 in exact arithmetic) holding
    slack = 1e-12 * float(np.sum(np.abs(f) ** 2))
    results = []
    for fp, fc in zip(_responses(f, phi), _responses(f, companion)):
        lhs = float(np.vdot(fp, fp).real) / m
        q = kappa * float(np.vdot(fc, fc).real)
        r = abs(complex(np.vdot(fp, fc))) * math.sqrt(kappa / m)
        top = 0.5 * (lhs + q) + math.sqrt((0.5 * (lhs - q)) ** 2 + r * r)
        rhs = top / 4.0
        results.append((lhs >= rhs - slack, lhs, rhs))
    return _per_angle(results, single)


def crb_unknown_alpha(
    w: np.ndarray, u, noise_var: float
) -> CrbResult | list[CrbResult]:
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
    us, single = _angles(u)
    n = w.shape[0]
    phi, d = _steering_rows(n, us)
    blind_level = _SINGULAR_RTOL * float(np.sum(np.abs(w) ** 2)) * n
    results = []
    for a, b in zip(_responses(w, phi), _responses(w, d)):
        steering_energy = float(np.vdot(a, a).real)
        derivative_energy = float(np.vdot(b, b).real)
        if steering_energy <= blind_level:
            # combiners blind to the steering vector: projection is vacuous
            denom = derivative_energy
        else:
            denom = derivative_energy - abs(np.vdot(a, b)) ** 2 / steering_energy
        results.append(_finish(prefactor, denom, derivative_energy))
    return _per_angle(results, single)
