"""Posterior computation over a grid of candidate angles.

The path gain is modeled per candidate angle as zero-mean complex Gaussian
with an unknown prior variance. Each update first fits that variance by
maximum likelihood from the accumulated measurements, then forms the
Gaussian posterior of the gain, and finally scores every candidate with a
Gaussian marginal likelihood whose rank-one-plus-identity structure keeps
all per-candidate work closed-form. Likelihoods are handled in the log
domain throughout; the pmf is produced by max-subtracted exponentiation.

Every per-candidate array has the shape of the history's statistics: (grid,)
for one trial, (trials, grid) for a batch advancing in lockstep. The
formulas are elementwise, so a batch row equals the lone trial's vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import AngularGrid, manifold_matrix, ula_manifold
from .sensing import MeasurementHistory

__all__ = [
    "AlphaPosterior",
    "LikelihoodTerms",
    "gamma_mle",
    "alpha_posterior",
    "likelihood_terms",
    "approx_log_likelihood",
    "posterior_pmf",
    "known_alpha_posterior",
]


@dataclass(frozen=True)
class AlphaPosterior:
    """Per-candidate Gaussian posterior of the path gain."""

    mean: np.ndarray
    variance: np.ndarray
    prior_variance: np.ndarray


@dataclass(frozen=True)
class LikelihoodTerms:
    """Log marginal likelihood per candidate plus its two ingredients."""

    log_likelihood: np.ndarray
    log_det: np.ndarray
    quad_form: np.ndarray


def _check_history(history: MeasurementHistory, grid: AngularGrid) -> None:
    if history.segment_count == 0:
        raise ValueError("history is empty")
    if history.grid is not grid:
        raise ValueError("history was accumulated on a different grid")


def _check_noise(power: float, noise_var: float) -> None:
    if power <= 0:
        raise ValueError("power must be positive")
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")


def gamma_mle(
    history: MeasurementHistory,
    grid: AngularGrid,
    power: float,
    noise_var: float,
) -> np.ndarray:
    """Maximum-likelihood prior variance of the path gain per candidate.

    With g the accumulated beam gain at a candidate and v the matched unit
    vector of its stacked response, the estimate is

        max{0, (|v^H y|^2 - noise_var) / (power * g * n_v)},

    clipped at zero because a variance cannot be negative. Candidates the
    beams have never illuminated (g = 0) stay at zero.
    """
    _check_history(history, grid)
    _check_noise(power, noise_var)
    n_v = history.n_v
    g = history.cumulative_gain
    s = history.matched_statistic
    gamma = np.zeros(g.shape)
    lit = g > 0
    energy = np.abs(s[lit]) ** 2 / (g[lit] * n_v)
    gamma[lit] = np.maximum(0.0, (energy - noise_var) / (power * g[lit] * n_v))
    return gamma


def alpha_posterior(
    history: MeasurementHistory,
    grid: AngularGrid,
    gamma: np.ndarray,
    power: float,
    noise_var: float,
) -> AlphaPosterior:
    """Gaussian posterior of the gain under the fitted prior variance.

    mean = sqrt(power) * gamma * v^H y / D and variance = gamma * noise / D
    with D = power * gamma * g * n_v + noise; the variance never exceeds the
    prior variance (strictly smaller wherever data actually arrived).
    """
    _check_history(history, grid)
    _check_noise(power, noise_var)
    g = history.cumulative_gain
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != g.shape or np.any(gamma < 0):
        raise ValueError("gamma must be a nonnegative per-candidate vector")
    s = history.matched_statistic
    denom = power * gamma * g * history.n_v + noise_var
    mean = np.sqrt(power) * gamma * s / denom
    variance = gamma * noise_var / denom
    return AlphaPosterior(mean=mean, variance=variance, prior_variance=gamma)


def likelihood_terms(
    history: MeasurementHistory,
    grid: AngularGrid,
    posterior: AlphaPosterior,
    power: float,
    noise_var: float,
) -> LikelihoodTerms:
    """Score every candidate with the Gaussian approximate marginal.

    The approximating covariance is a rank-one update of the scaled
    identity, power * var * (b b^H kron phi phi^H) + noise * I, so both the
    determinant and the quadratic form of the residual collapse to scalar
    expressions in the cached history statistics:

        log det = log(power*var*g*n_v + noise) + (T*n_v - 1) log noise
        quad    = ||e||^2 / noise
                  - power*var/noise * |v_e|^2 / (power*var*g*n_v + noise)

    with e the stacked residual and v_e its matched inner product.
    """
    _check_history(history, grid)
    _check_noise(power, noise_var)
    total = history.segment_count * history.n_v
    g = history.cumulative_gain
    s = history.matched_statistic
    mean = posterior.mean
    var = posterior.variance

    gain_energy = power * var * g * history.n_v
    log_det = np.log(gain_energy + noise_var) + (total - 1) * np.log(noise_var)

    root_power = np.sqrt(power)
    residual_sq = (
        np.expand_dims(history.total_power, -1)
        - 2.0 * root_power * (mean.conj() * s).real
        + power * np.abs(mean) ** 2 * g * history.n_v
    )
    residual_sq = np.maximum(residual_sq, 0.0)
    matched_residual = s - root_power * mean * g * history.n_v
    quad = residual_sq / noise_var - (power * var / noise_var) * np.abs(
        matched_residual
    ) ** 2 / (gain_energy + noise_var)
    quad = np.maximum(quad, 0.0)

    log_likelihood = -total * np.log(np.pi) - log_det - quad
    return LikelihoodTerms(
        log_likelihood=log_likelihood, log_det=log_det, quad_form=quad
    )


def approx_log_likelihood(
    history: MeasurementHistory,
    grid: AngularGrid,
    posterior: AlphaPosterior,
    power: float,
    noise_var: float,
) -> np.ndarray:
    return likelihood_terms(history, grid, posterior, power, noise_var).log_likelihood


def posterior_pmf(log_likelihood: np.ndarray) -> np.ndarray:
    """Normalize log scores into a pmf via max subtraction, along the last
    axis: a (trials, grid) stack gives one pmf per row.

    Rejects inputs where any row has no usable mass (all -inf) or a NaN.
    """
    ll = np.asarray(log_likelihood, dtype=float)
    if ll.size == 0:
        raise ValueError("empty likelihood vector")
    # array methods, not np.max/np.any: the known-gain loop calls this once
    # per snapshot, where the function wrappers' overhead shows
    if np.isnan(ll).any():
        raise ValueError("likelihoods contain NaN")
    top = ll.max(axis=-1, keepdims=True)
    if (top == -np.inf).any():
        raise ValueError("all likelihoods are zero; nothing to normalize")
    weights = np.exp(ll - top)
    return weights / weights.sum(axis=-1, keepdims=True)


def known_alpha_posterior(
    prior: np.ndarray,
    y: complex,
    w: np.ndarray,
    alpha: complex,
    grid: AngularGrid,
    power: float,
    noise_var: float,
) -> np.ndarray:
    """Exact single-snapshot Bayes update when the path gain is known.

    posterior(i) is proportional to prior(i) * CN(y; sqrt(power) * alpha *
    w^H phi(u_i), noise_var); computed in the log domain and renormalized.
    """
    _check_noise(power, noise_var)
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (grid.size,):
        raise ValueError("prior length must match the grid")
    if np.any(prior < 0) or prior.sum() <= 0:
        raise ValueError("prior must be a nonnegative vector with mass")
    w = np.asarray(w)
    norm = np.linalg.norm(w)
    if norm > 1.0 + 1e-9:
        raise ValueError(f"combiner norm {norm} exceeds 1")
    response = w.conj() @ grid.manifold(len(w))
    predicted = np.sqrt(power) * alpha * response
    log_lik = -np.abs(y - predicted) ** 2 / noise_var
    with np.errstate(divide="ignore"):
        log_post = np.log(prior) + log_lik
    return posterior_pmf(log_post)
