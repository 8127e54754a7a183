"""Test oracles: the bound functions as they ran one angle at a time.

Every call builds the length-m steering vector and derivative at its angle
and projects the bank with one gemv each. The certificate forms the m x m
projector onto span{phi, companion} and takes the top eigenvalue of
F^H P F with eigvalsh. The grid forms in svamsim.crb must reproduce these
bounds exactly at every angle, and the certificate's verdict.
grid_and_oracle runs both on the bank crb_table builds.
"""

from __future__ import annotations

import numpy as np

from svamsim import crb
from svamsim.arrays import ula_manifold, ula_manifold_derivative
from svamsim.crb import _SINGULAR_RTOL, CrbResult, _check_noise_terms, _finish
from svamsim.harness import expanded_combiners, noise_variance_from_snr, region_beam_bank


def manifold_complement_and_projector(m: int, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Centered-derivative companion of the steering vector and the projector
    onto the plane it spans with the steering vector itself.

    The companion vector has entries (k - (m-1)/2) * exp(j*pi*k*u); it is
    orthogonal to the steering vector, carries squared norm m*(m^2-1)/12,
    and satisfies

        d(phi_m)/du = j*pi*((m-1)/2 * phi_m + companion).

    Requires m >= 2 (a single element has no usable derivative direction).
    """
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


def crb_general(
    w: np.ndarray, u: float, power: float, alpha_sq: float, noise_var: float
) -> CrbResult:
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
    """The certificate through the m x m projector and eigvalsh; m >= 2."""
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


# scheme -> (grid form in the package, one-angle oracle here)
_BOUNDS = {
    "svam": (crb.crb_svam, crb_svam),
    "benchmark": (crb.crb_benchmark, crb_benchmark),
    "general": (crb.crb_general, crb_general),
    "unknown-alpha": (crb.crb_unknown_alpha, crb_unknown_alpha),
}


def grid_and_oracle(scheme, n, n_v, total_snapshots, grid, snr_db, beam):
    """The bank crb_table builds for the scheme, the scheme's bound over the
    whole grid in one svamsim.crb call, and this module's bound at each
    grid point."""
    noise_var = noise_variance_from_snr(snr_db)
    m = n if scheme == "benchmark" else n - n_v + 1
    bank = region_beam_bank(beam, m, total_snapshots // n_v)
    fast, slow = _BOUNDS[scheme]
    us = [float(u) for u in grid.points]
    if scheme in ("svam", "benchmark"):
        on_grid = fast(bank, n_v, grid.points, 1.0, 1.0, noise_var)
        return bank, on_grid, [slow(bank, n_v, u, 1.0, 1.0, noise_var) for u in us]
    w = expanded_combiners(bank, n, n_v)
    on_grid = fast(w, grid.points, 1.0, 1.0, noise_var)
    return bank, on_grid, [slow(w, u, 1.0, 1.0, noise_var) for u in us]
