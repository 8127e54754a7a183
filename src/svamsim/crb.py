"""Estimation-variance lower bounds for angle estimation through combiners.

All bounds share the prefactor noise_var / (2 * power * |alpha|^2); what
differs is the Fisher denominator each combining scheme produces. Singular
geometries (no angle information in the measurements) yield an infinite
bound, reported explicitly rather than raised.

A practical caveat: the adaptive estimators in this package pick the
posterior argmax on a finite grid and are therefore biased; for them these
variance bounds are indicative rather than binding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import (
    manifold_complement_and_projector,
    ula_manifold,
    ula_manifold_derivative,
)

# Relative level below which a Fisher denominator is considered exactly
# singular: rank-deficient geometries hit zero only up to roundoff.
_SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class CrbResult:
    """Variance bound plus the pieces it was assembled from.

    bound = prefactor / fisher_denominator, infinite iff the denominator
    vanishes. gain_term carries the virtual-aperture contribution for the
    sliding scheme and is None otherwise.
    """

    bound: float
    fisher_denominator: float
    prefactor: float
    gain_term: float | None = None

    @property
    def is_singular(self) -> bool:
        return math.isinf(self.bound)


def _check_noise_terms(power: float, alpha_sq: float, noise_var: float) -> float:
    if power <= 0 or alpha_sq <= 0:
        raise ValueError("power and |alpha|^2 must be positive")
    if noise_var <= 0:
        raise ValueError("noise variance must be positive for a finite bound")
    return noise_var / (2.0 * power * alpha_sq)


def _finish(prefactor: float, denominator: float, scale: float,
            gain_term: float | None = None) -> CrbResult:
    if denominator <= _SINGULAR_RTOL * max(scale, 1e-300):
        return CrbResult(
            bound=math.inf,
            fisher_denominator=0.0,
            prefactor=prefactor,
            gain_term=gain_term,
        )
    return CrbResult(
        bound=prefactor / denominator,
        fisher_denominator=denominator,
        prefactor=prefactor,
        gain_term=gain_term,
    )


def crb_general(
    w: np.ndarray, u: float, power: float, alpha_sq: float, noise_var: float
) -> CrbResult:
    """Bound for an arbitrary bank of full-length combiners (known gain).

    Parameters
    ----------
    w : (n, L) array
        One combiner per snapshot, stacked as columns.
    u : float
        True angle the derivative is evaluated at.
    power, alpha_sq, noise_var : float
        Transmit power, squared path-gain magnitude, per-element noise power.
    """
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    if w.ndim != 2:
        raise ValueError("combiner bank must be a 2-D array")
    prefactor = _check_noise_terms(power, alpha_sq, noise_var)
    d = ula_manifold_derivative(w.shape[0], u)
    projected = w.conj().T @ d
    denom = float(np.vdot(projected, projected).real)
    scale = float(np.vdot(d, d).real) * float(np.sum(np.abs(w) ** 2))
    return _finish(prefactor, denom, scale)


def crb_benchmark(
    f: np.ndarray,
    n_v: int,
    u: float,
    power: float,
    alpha_sq: float,
    noise_var: float,
) -> CrbResult:
    """Bound for full-aperture combining with each beamformer held for n_v
    snapshots. Works on the per-segment beamformers directly; the block
    repetition contributes the factor n_v."""
    f = np.atleast_2d(np.asarray(f, dtype=complex))
    if n_v < 1:
        raise ValueError("block size must be positive")
    prefactor = _check_noise_terms(power, alpha_sq, noise_var)
    d = ula_manifold_derivative(f.shape[0], u)
    projected = f.conj().T @ d
    denom = n_v * float(np.vdot(projected, projected).real)
    scale = n_v * float(np.vdot(d, d).real) * float(np.sum(np.abs(f) ** 2))
    return _finish(prefactor, denom, scale)


def _svam_gram_terms(f: np.ndarray, u: float) -> tuple[float, float, complex, float]:
    """Gram products of the sub-aperture bank against the length-m manifold:
    derivative energy, steering energy, their cross term, and the squared
    norm of the derivative itself."""
    m = f.shape[0]
    phi = ula_manifold(m, u)
    d = ula_manifold_derivative(m, u)
    fd = f.conj().T @ d
    fp = f.conj().T @ phi
    derivative_energy = float(np.vdot(fd, fd).real)
    steering_energy = float(np.vdot(fp, fp).real)
    cross = complex(np.vdot(fd, fp))
    return derivative_energy, steering_energy, cross, float(np.vdot(d, d).real)


def _virtual_gain(n_v: int, steering_energy: float, cross: complex) -> float:
    quad = np.pi**2 * (n_v - 1) * (2 * n_v - 1) / 6.0 * steering_energy
    return quad - np.pi * (n_v - 1) * cross.imag


def gain_term(f: np.ndarray, n_v: int, u: float) -> float:
    """Virtual-aperture contribution to the sliding-scheme Fisher denominator:

        pi^2 (n_v-1)(2 n_v-1)/6 * ||F^H phi||^2
            - pi (n_v-1) * Im{ (d phi)^H F F^H phi }.

    Can be negative for adversarial beamformers; see
    gain_condition_sufficient for a certificate of nonnegativity.
    """
    f = np.atleast_2d(np.asarray(f, dtype=complex))
    _, steering_energy, cross, _ = _svam_gram_terms(f, u)
    return _virtual_gain(n_v, steering_energy, cross)


def crb_svam(
    f: np.ndarray,
    n_v: int,
    u: float,
    power: float,
    alpha_sq: float,
    noise_var: float,
) -> CrbResult:
    """Bound for the sliding sub-aperture scheme (known gain).

    f stacks the per-segment length-m beamformers as columns. Equals
    crb_general on the expanded full-length combiner bank, but is computed
    from m-sized Gram products without materializing the expansion.
    """
    f = np.atleast_2d(np.asarray(f, dtype=complex))
    if n_v < 1:
        raise ValueError("block size must be positive")
    prefactor = _check_noise_terms(power, alpha_sq, noise_var)
    derivative_energy, steering_energy, cross, d_scale = _svam_gram_terms(f, u)
    g = _virtual_gain(n_v, steering_energy, cross)
    denom = n_v * (derivative_energy + g)
    m = f.shape[0]
    scale = n_v * (d_scale + np.pi**2 * n_v**2 * m) * float(np.sum(np.abs(f) ** 2))
    return _finish(prefactor, denom, scale, gain_term=float(g))


def gain_condition_sufficient(f: np.ndarray, u: float) -> tuple[bool, float, float]:
    """Certificate that the virtual-aperture term is nonnegative.

    Returns (holds, lhs, rhs) for the test

        ||F^H phi||^2 / ||phi||^2  >=  lambda_max(F^H P F) / 4,

    with P the projector onto span{phi, centered-derivative companion}.
    The condition is sufficient: when it holds the gain term cannot be
    negative, but beams violating it may still have a nonnegative term.
    """
    f = np.atleast_2d(np.asarray(f, dtype=complex))
    m = f.shape[0]
    _, proj = manifold_complement_and_projector(m, u)
    phi = ula_manifold(m, u)
    fp = f.conj().T @ phi
    lhs = float(np.vdot(fp, fp).real) / m
    inner = f.conj().T @ proj @ f
    inner = 0.5 * (inner + inner.conj().T)
    rhs = float(np.linalg.eigvalsh(inner)[-1]) / 4.0
    # slack keeps boundary cases (lhs = rhs = 0 in exact arithmetic) holding
    slack = 1e-12 * float(np.sum(np.abs(f) ** 2))
    return lhs >= rhs - slack, lhs, rhs


def crb_unknown_alpha(
    w: np.ndarray, u: float, power: float, alpha_sq: float, noise_var: float
) -> CrbResult:
    """Bound for the angle when the complex path gain must be estimated too.

    The gain nuisance removes the component of the derivative response that
    is parallel to the steering response; a single snapshot or a rank-one
    combiner bank then carries no angle information and the bound is
    infinite (reported, not raised).
    """
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    prefactor = _check_noise_terms(power, alpha_sq, noise_var)
    n = w.shape[0]
    a = w.conj().T @ ula_manifold(n, u)
    b = w.conj().T @ ula_manifold_derivative(n, u)
    steering_energy = float(np.vdot(a, a).real)
    derivative_energy = float(np.vdot(b, b).real)
    if steering_energy <= _SINGULAR_RTOL * float(np.sum(np.abs(w) ** 2)) * n:
        # combiners blind to the steering vector: projection is vacuous
        denom = derivative_energy
    else:
        denom = derivative_energy - abs(np.vdot(a, b)) ** 2 / steering_energy
    return _finish(prefactor, denom, derivative_energy)
