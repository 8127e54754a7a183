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

The alignment loop takes its score as an argument, a function of the
history alone that returns the (trials, grid) log-likelihood:
fitted_log_likelihood is the paper's chain above, and a known gain scores
with known_gain_log_likelihood, the same Gaussian density at zero
posterior variance, where only the terms that stay nonzero are computed.

The unknown-gain functions take the history alone: its block size, its
running statistics and the (trials, 1) column of noise variances it was
built with, one per trial. The statistics are (trials, grid) for a batch
advancing in lockstep, a lone trial being a batch of one, and every
per-candidate array has that shape. The formulas are elementwise, so a
batch row equals the lone trial's vector, and a history whose statistics
are (grid,) rows and whose noise variance is a scalar works unchanged.
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


def gamma_mle(history: MeasurementHistory) -> np.ndarray:
    """Maximum-likelihood prior variance of the path gain per candidate.

    With g the accumulated beam gain at a candidate and v the matched unit
    vector of its stacked response, the estimate is

        max{0, (|v^H y|^2 - noise_var) / (g * n_v)},

    clipped at zero because a variance cannot be negative. Candidates the
    beams have never illuminated (g = 0) stay at zero. noise_var is the
    history's.
    """
    _check_history(history)
    g = history.cumulative_gain
    # every point, unlit ones too (0/0 there), then unlit points set to zero
    with np.errstate(divide="ignore", invalid="ignore"):
        energy = np.abs(history.matched_statistic) ** 2 / (g * history.n_v)
        gamma = np.maximum(0.0, (energy - history.noise_var) / (g * history.n_v))
    return np.where(g > 0, gamma, 0.0)


def alpha_posterior(history: MeasurementHistory, gamma: np.ndarray) -> AlphaPosterior:
    """Gaussian posterior of the gain under the fitted prior variance.

    mean = gamma * v^H y / D and variance = gamma * noise / D with
    D = gamma * g * n_v + noise; the variance never exceeds the
    prior variance (strictly smaller wherever data actually arrived).
    noise is the history's noise_var.
    """
    _check_history(history)
    g = history.cumulative_gain
    noise_var = history.noise_var
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != g.shape or np.any(gamma < 0):
        raise ValueError("gamma must be a nonnegative per-candidate vector")
    s = history.matched_statistic
    denom = gamma * g * history.n_v + noise_var
    mean = gamma * s / denom
    variance = gamma * noise_var / denom
    return AlphaPosterior(mean=mean, variance=variance)


def _residual_power(history: MeasurementHistory, mean: np.ndarray) -> np.ndarray:
    """max(P - 2 Re(conj(mean) s) + |mean|^2 g n_v, 0) for every candidate:
    the measured power left once mean times each candidate's response is
    taken out, with P the total power, s the matched statistic and g the
    accumulated gain, clipped at zero against rounding."""
    residual_sq = (
        np.expand_dims(history.total_power, -1)
        - 2.0 * (mean.conj() * history.matched_statistic).real
        + np.abs(mean) ** 2 * history.cumulative_gain * history.n_v
    )
    return np.maximum(residual_sq, 0.0)


def likelihood_terms(
    history: MeasurementHistory, posterior: AlphaPosterior
) -> LikelihoodTerms:
    """Score every candidate with the Gaussian approximate marginal.

    The approximating covariance is a rank-one update of the scaled
    identity, var * (b b^H kron phi phi^H) + noise * I, so both the
    determinant and the quadratic form of the residual collapse to scalar
    expressions in the cached history statistics:

        log det = log(var*g*n_v + noise) + (T*n_v - 1) log noise
        quad    = ||e||^2 / noise - var/noise * |v_e|^2 / (var*g*n_v + noise)

    with e the stacked residual, v_e its matched inner product and noise the
    history's noise_var. A known gain is a posterior of zero variance: the
    score is then the Gaussian log density of the measurements given that
    gain, which known_gain_log_likelihood computes without the zero terms.
    """
    _check_history(history)
    total = history.segment_count * history.n_v
    g = history.cumulative_gain
    noise_var = history.noise_var
    s = history.matched_statistic
    mean = posterior.mean
    var = posterior.variance

    spread = var * g * history.n_v + noise_var
    log_det = np.log(spread) + (total - 1) * np.log(noise_var)

    residual_sq = _residual_power(history, mean)
    matched_residual = s - mean * g * history.n_v
    quad = residual_sq / noise_var - (var / noise_var) * np.abs(
        matched_residual
    ) ** 2 / spread
    quad = np.maximum(quad, 0.0)

    log_likelihood = -total * np.log(np.pi) - log_det - quad
    return LikelihoodTerms(
        log_likelihood=log_likelihood, log_det=log_det, quad_form=quad
    )


def approx_log_likelihood(
    history: MeasurementHistory, posterior: AlphaPosterior
) -> np.ndarray:
    """The log_likelihood of likelihood_terms."""
    return likelihood_terms(history, posterior).log_likelihood


def fitted_log_likelihood(history: MeasurementHistory) -> np.ndarray:
    """The unknown-gain score: approx_log_likelihood under the posterior of
    the gain whose prior variance gamma_mle fits to the history."""
    posterior = alpha_posterior(history, gamma_mle(history))
    return approx_log_likelihood(history, posterior)


def known_gain_log_likelihood(
    history: MeasurementHistory, gains: np.ndarray
) -> np.ndarray:
    """The known-gain score: likelihood_terms' log_likelihood under
    AlphaPosterior(gains, 0), bit for bit, from only the terms that stay
    nonzero at zero posterior variance.

    gains holds each trial's gain as a (trials, 1) column, or as anything
    else that broadcasts against the statistics as AlphaPosterior's mean
    does. With P the total power, s the matched statistic and g the
    accumulated gain,

        log det = log noise + (T*n_v - 1) log noise, one value per trial
        quad    = max(max(P - 2 Re(conj(alpha) s) + |alpha|^2 g n_v, 0) / noise, 0)

    evaluated in likelihood_terms' order, whose rank-one terms are exact
    zeros here.
    """
    _check_history(history)
    total = history.segment_count * history.n_v
    noise_var = history.noise_var
    log_noise = np.log(noise_var)
    log_det = log_noise + (total - 1) * log_noise
    quad = np.maximum(_residual_power(history, gains) / noise_var, 0.0)
    return -total * np.log(np.pi) - log_det - quad


def posterior_pmf(log_likelihood: np.ndarray) -> np.ndarray:
    """Normalize log scores into a pmf via max subtraction, along the last
    axis: a (trials, grid) stack gives one pmf per row.

    Rejects inputs where any row has no usable mass (all -inf), a NaN or a
    +inf, which would normalize to NaN.
    """
    ll = np.asarray(log_likelihood, dtype=float)
    if ll.size == 0:
        raise ValueError("empty likelihood vector")
    top = ll.max(axis=-1, keepdims=True)  # NaN if the row holds one
    if not np.isfinite(top).all():
        # in this order over all rows: a NaN anywhere names NaN
        if np.isnan(top).any():
            raise ValueError("likelihoods contain NaN")
        if (top == -np.inf).any():
            raise ValueError("all likelihoods are zero; nothing to normalize")
        raise ValueError("a likelihood is infinite; nothing to normalize")
    weights = np.exp(ll - top)
    return weights / weights.sum(axis=-1, keepdims=True)


# No run calls this: the alignment loop scores a known gain through the
# history. It stays for perfbench/tracer.py's inference.known_alpha layer
# until that layer is dropped (ROADMAP item 9).
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
    if not (0 < noise_var < math.inf):  # NaN compares false
        raise ValueError(f"noise variance {noise_var} must be positive and finite")
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
