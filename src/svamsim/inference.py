"""Posterior computation over a grid of candidate angles.

The gain is the received path gain sqrt(P) * alpha, the only form in
which transmit power and fading enter the measurements. It is modeled per
candidate angle as zero-mean complex Gaussian with an unknown prior
variance. Each update first fits that variance by maximum likelihood from
the accumulated measurements, then forms the Gaussian posterior of the
gain, and finally scores every candidate with a Gaussian marginal
likelihood whose rank-one-plus-identity structure keeps all per-candidate
work closed-form. Likelihoods are handled in the log domain throughout;
the pmf is produced by max-subtracted exponentiation.

The unknown-gain functions take no grid: they read the block size and the
running statistics of a history, which owns its grid. Those statistics are
(trials, grid) for a batch advancing in lockstep, a lone trial being a
batch of one, and every per-candidate array has that shape. The noise
variance is one scalar, or a (trials, 1) column that gives each trial its
own. The formulas are elementwise, so a batch row equals the lone trial's
vector, and a history whose statistics are (grid,) rows works unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Per-candidate Gaussian posterior of the path gain; its prior variance
    is the gamma the caller fitted and passed in."""

    mean: np.ndarray
    variance: np.ndarray


@dataclass(frozen=True)
class LikelihoodTerms:
    """Log marginal likelihood per candidate plus its two ingredients."""

    log_likelihood: np.ndarray
    log_det: np.ndarray
    quad_form: np.ndarray


def _check_history(history: MeasurementHistory) -> None:
    if history.segment_count == 0:
        raise ValueError("history is empty")


def _check_noise(noise_var: float | np.ndarray, shape: tuple[int, ...] = ()) -> None:
    """noise_var is a scalar or, for a (trials, grid) batch of the given
    shape, a (trials, 1) column. One row that is not positive and finite
    rejects the batch."""
    # no np.ndim here: the known-gain loop passes a float once per snapshot
    if not isinstance(noise_var, np.ndarray) or noise_var.ndim == 0:
        if not (0 < noise_var < math.inf):  # NaN compares false
            raise ValueError(f"noise variance {noise_var} must be positive and finite")
        return
    if len(shape) != 2 or noise_var.shape != (shape[0], 1):
        raise ValueError("need one noise variance per trial as a (trials, 1) column")
    if not ((noise_var > 0) & (noise_var < math.inf)).all():
        raise ValueError("noise variance must be positive and finite in every row")


def gamma_mle(
    history: MeasurementHistory, noise_var: float | np.ndarray
) -> np.ndarray:
    """Maximum-likelihood prior variance of the path gain per candidate.

    With g the accumulated beam gain at a candidate and v the matched unit
    vector of its stacked response, the estimate is

        max{0, (|v^H y|^2 - noise_var) / (g * n_v)},

    clipped at zero because a variance cannot be negative. Candidates the
    beams have never illuminated (g = 0) stay at zero. A batch may pass
    noise_var as a (trials, 1) column, one variance per trial.
    """
    _check_history(history)
    n_v = history.n_v
    g = history.cumulative_gain
    _check_noise(noise_var, g.shape)
    s = history.matched_statistic
    gamma = np.zeros(g.shape)
    lit = g > 0
    energy = np.abs(s[lit]) ** 2 / (g[lit] * n_v)
    noise = np.broadcast_to(noise_var, g.shape)[lit]
    gamma[lit] = np.maximum(0.0, (energy - noise) / (g[lit] * n_v))
    return gamma


def alpha_posterior(
    history: MeasurementHistory,
    gamma: np.ndarray,
    noise_var: float | np.ndarray,
) -> AlphaPosterior:
    """Gaussian posterior of the gain under the fitted prior variance.

    mean = gamma * v^H y / D and variance = gamma * noise / D with
    D = gamma * g * n_v + noise; the variance never exceeds the
    prior variance (strictly smaller wherever data actually arrived).
    A batch may pass noise_var as a (trials, 1) column, one variance per trial.
    """
    _check_history(history)
    g = history.cumulative_gain
    _check_noise(noise_var, g.shape)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != g.shape or np.any(gamma < 0):
        raise ValueError("gamma must be a nonnegative per-candidate vector")
    s = history.matched_statistic
    denom = gamma * g * history.n_v + noise_var
    mean = gamma * s / denom
    variance = gamma * noise_var / denom
    return AlphaPosterior(mean=mean, variance=variance)


def likelihood_terms(
    history: MeasurementHistory,
    posterior: AlphaPosterior,
    noise_var: float | np.ndarray,
) -> LikelihoodTerms:
    """Score every candidate with the Gaussian approximate marginal.

    The approximating covariance is a rank-one update of the scaled
    identity, var * (b b^H kron phi phi^H) + noise * I, so both the
    determinant and the quadratic form of the residual collapse to scalar
    expressions in the cached history statistics:

        log det = log(var*g*n_v + noise) + (T*n_v - 1) log noise
        quad    = ||e||^2 / noise - var/noise * |v_e|^2 / (var*g*n_v + noise)

    with e the stacked residual and v_e its matched inner product.
    A batch may pass noise_var as a (trials, 1) column, one variance per trial.
    """
    _check_history(history)
    total = history.segment_count * history.n_v
    g = history.cumulative_gain
    _check_noise(noise_var, g.shape)
    s = history.matched_statistic
    mean = posterior.mean
    var = posterior.variance

    gain_energy = var * g * history.n_v
    log_det = np.log(gain_energy + noise_var) + (total - 1) * np.log(noise_var)

    residual_sq = (
        np.expand_dims(history.total_power, -1)
        - 2.0 * (mean.conj() * s).real
        + np.abs(mean) ** 2 * g * history.n_v
    )
    residual_sq = np.maximum(residual_sq, 0.0)
    matched_residual = s - mean * g * history.n_v
    quad = residual_sq / noise_var - (var / noise_var) * np.abs(
        matched_residual
    ) ** 2 / (gain_energy + noise_var)
    quad = np.maximum(quad, 0.0)

    log_likelihood = -total * np.log(np.pi) - log_det - quad
    return LikelihoodTerms(
        log_likelihood=log_likelihood, log_det=log_det, quad_form=quad
    )


def approx_log_likelihood(
    history: MeasurementHistory,
    posterior: AlphaPosterior,
    noise_var: float | np.ndarray,
) -> np.ndarray:
    """The log_likelihood of likelihood_terms; a batch may pass noise_var
    as a (trials, 1) column, one variance per trial."""
    return likelihood_terms(history, posterior, noise_var).log_likelihood


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
    y: complex | np.ndarray,
    alpha: complex | np.ndarray,
    response: np.ndarray,
    noise_var: float,
) -> np.ndarray:
    """Exact single-snapshot Bayes update when the path gain is known.

    posterior(i) is proportional to prior(i) * CN(y; alpha * w^H phi(u_i),
    noise_var); computed in the log domain and renormalized. response holds
    the values w^H phi(u_i) of the snapshot's combiner w over the grid,
    shaped like the prior; the caller checks that ||w|| <= 1.

    A (trials, grid) prior updates a batch of trials at once: y and alpha
    then hold one value per trial, and response one row per trial, and each
    row of the result equals that trial's lone update. Every check applies
    to each row; one bad row rejects the whole batch.
    """
    _check_noise(noise_var)
    prior = np.asarray(prior, dtype=float)
    if prior.ndim not in (1, 2):
        raise ValueError("prior must be a vector or a (trials, grid) stack")
    if np.shape(response) != prior.shape:
        raise ValueError("need one response row per trial over the grid")
    batch = prior.shape[:-1]
    if (prior < 0).any() or (prior.sum(axis=-1) <= 0).any():
        raise ValueError("prior must be a nonnegative vector with mass")
    y = np.asarray(y)
    alpha = np.asarray(alpha)
    if y.shape != batch or alpha.shape != batch:
        raise ValueError("need one measurement and gain per trial")
    predicted = alpha[..., None] * response
    log_lik = -np.abs(y[..., None] - predicted) ** 2 / noise_var
    with np.errstate(divide="ignore"):
        log_post = np.log(prior) + log_lik
    return posterior_pmf(log_post)
