import math

import numpy as np
import pytest

from history_helpers import append_beams
from scalar_alignment import columns, measure_segment_scalar
from svamsim import adaptive
from svamsim.adaptive import NOISELESS_VAR_FLOOR, AdaptConfig
from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.channel import ChannelParams
from svamsim.harness import run_adaptive_trials
from svamsim.inference import (
    AlphaPosterior,
    alpha_posterior,
    approx_log_likelihood,
    fitted_log_likelihood,
    gamma_mle,
    known_alpha_posterior,
    known_gain_log_likelihood,
    likelihood_terms,
    posterior_pmf,
)
from svamsim.sensing import MeasurementHistory, block_combiners


def unit(m, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


def make_history(
    n=12,
    n_v=3,
    grid_size=16,
    segments=4,
    path_index=5,
    alpha=np.exp(0.4j),
    noise=0.4,
    seed=0,
    noise_var=None,
):
    """A lone trial's history on a channel of the given noise, its grid and
    the (1, segments, grid) response rows of its beams; the history assumes
    noise_var, by default the channel's."""
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), grid_size)
    params = ChannelParams(alpha, grid.points[path_index], noise_variance=noise)
    rng = np.random.default_rng(seed)
    assumed = noise if noise_var is None else noise_var
    hist = MeasurementHistory(n, n_v, grid, 1, assumed)
    beta = []
    for t in range(segments):
        f = unit(n - n_v + 1, 100 + t)
        values = measure_segment_scalar(f, params, n, rng)[None]
        beta.append(append_beams(hist, values, [f]))
    return hist, grid, np.stack(beta, axis=-2)


def stacked_response(hist, beta, i):
    """Candidate i's stacked noiseless direction in a batch of one:
    kron(beta column, phi)."""
    phi = ula_manifold(hist.n_v, hist.grid.points[i])
    return np.kron(beta[0, :, i], phi)


def assert_batch_matches_dense_solve(hist, beta, points):
    """Every trial's closed-form log-det and quadratic form at the given grid
    points against a dense slogdet and solve on its whole stacked record,
    under the noise variance the history assumes for that trial; beta holds
    the (trials, segments, grid) response rows of the trials' beams. Returns
    the fitted gain prior."""
    gamma = gamma_mle(hist)
    post = alpha_posterior(hist, gamma)
    terms = likelihood_terms(hist, post)
    y = hist.stacked()
    for k in range(len(y)):
        sigma2 = hist.noise_var[k, 0]
        for i in points:
            v = np.kron(beta[k, :, i], ula_manifold(hist.n_v, hist.grid.points[i]))
            cov = post.variance[k, i] * np.outer(v, v.conj()) + sigma2 * np.eye(len(v))
            resid = y[k] - post.mean[k, i] * v
            sign, logdet = np.linalg.slogdet(cov)
            assert sign > 0
            quad = float(np.vdot(resid, np.linalg.solve(cov, resid)).real)
            assert terms.log_det[k, i] == pytest.approx(logdet, rel=1e-10)
            assert terms.quad_form[k, i] == pytest.approx(quad, rel=1e-10)
    return gamma


def test_every_unknown_gain_step_rejects_an_empty_history():
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
    hist = MeasurementHistory(3, 2, grid, 1, 0.5)
    zeros = np.zeros((1, grid.size))
    with pytest.raises(ValueError, match="empty"):
        gamma_mle(hist)
    with pytest.raises(ValueError, match="empty"):
        alpha_posterior(hist, zeros)
    with pytest.raises(ValueError, match="empty"):
        likelihood_terms(hist, AlphaPosterior(zeros, zeros))


class TestGammaMle:
    def test_zero_measurements_give_zero(self):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        hist = MeasurementHistory(8, 2, grid, 1, 0.5)
        for t in range(3):  # 7 taps on 8 elements: blocks of 2
            append_beams(hist, np.zeros((1, 2), dtype=complex), [unit(7, t)])
        np.testing.assert_array_equal(gamma_mle(hist), 0.0)

    def test_noiseless_matched_closed_form(self):
        alpha, sigma2 = np.sqrt(2.0) * (0.8 - 0.3j), 0.25
        hist, _, _ = make_history(alpha=alpha, noise=0.0, seed=1, noise_var=sigma2)
        (gamma,) = gamma_mle(hist)
        i = 5
        g = hist.cumulative_gain[0, i]
        expected = abs(alpha) ** 2 - sigma2 / (g * hist.n_v)
        assert gamma[i] == pytest.approx(expected, rel=1e-10)

    def test_unlit_candidate_stays_zero(self):
        # difference beam nulls broadside exactly, so candidate 0 (u = 0)
        # accumulates exactly zero gain and must keep a zero variance
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 4)
        f = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hist = MeasurementHistory(2, 1, grid, 1, 0.1)
        append_beams(hist, np.ones((1, 1), dtype=complex), [f])
        assert hist.cumulative_gain[0, 0] == 0.0
        gamma = gamma_mle(hist)
        assert gamma[0, 0] == 0.0

    def test_unlit_points_are_zero_and_lit_ones_keep_the_masked_bits(self):
        # a difference beam nulls u = 0 exactly; trial 2 senses with it only,
        # trial 0 never, so rows hold zero, one or all unlit blocks
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        rng = np.random.default_rng(3)
        hist = MeasurementHistory(3, 2, grid, 3, np.array([0.1, 0.4, 2.0]))
        null = np.array([1.0, -1.0]) / np.sqrt(2.0)
        for t in range(4):
            beams = [unit(2, t), null if t % 2 else unit(2, 10 + t), null]
            values = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            append_beams(hist, values, beams)
        g, s = hist.cumulative_gain, hist.matched_statistic
        lit = g > 0
        assert lit[0].all() and lit[1].all() and not lit[2, 0]
        # the masked formula: unlit points never reach the division
        want = np.zeros(g.shape)
        energy = np.abs(s[lit]) ** 2 / (g[lit] * hist.n_v)
        noise = np.broadcast_to(hist.noise_var, g.shape)[lit]
        want[lit] = np.maximum(0.0, (energy - noise) / (g[lit] * hist.n_v))
        gamma = gamma_mle(hist)
        assert gamma.shape == g.shape and gamma.tobytes() == want.tobytes()

    def test_monotone_in_measurement_scale(self):
        hist, grid, beta = make_history(noise=0.5, seed=7)
        gamma = gamma_mle(hist)
        scaled = MeasurementHistory(hist.n, hist.n_v, grid, 1, 0.5)
        for t, values in enumerate(hist.segments):
            scaled.append(3.0 * values, beta[:, t], hist.n - hist.n_v + 1)
        gamma_scaled = gamma_mle(scaled)
        assert np.all(gamma_scaled >= gamma - 1e-15)


class TestAlphaPosterior:
    def test_zero_prior_variance_pins_gain_to_zero(self):
        hist, grid, _ = make_history(seed=2)
        post = alpha_posterior(hist, np.zeros((1, grid.size)))
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_array_equal(post.variance, 0.0)

    def test_variance_contracts_below_prior(self):
        hist, _, _ = make_history(noise=0.3, seed=3)
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        lit = (gamma > 0) & (hist.cumulative_gain > 0)
        assert np.all(post.variance[lit] < gamma[lit])
        assert np.all(post.variance <= gamma + 1e-15)

    def test_noiseless_limit_recovers_alpha(self):
        alpha = 0.9 * np.exp(1.1j)
        hist, _, _ = make_history(alpha=alpha, noise=0.0, seed=4, noise_var=1e-9)
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        assert post.mean[0, 5] == pytest.approx(alpha, rel=1e-6)

    def test_matches_brute_force_integration(self):
        hist, grid, beta = make_history(segments=2, noise=0.5, seed=5)
        sigma2 = 0.5
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        (gamma,), (post_mean,), (post_var,) = gamma, post.mean, post.variance
        (y,) = hist.stacked()
        for i in (4, 5, 6):
            if gamma[i] == 0:
                continue
            v = stacked_response(hist, beta, i)
            half = 6.0 * np.sqrt(gamma[i])
            axis = np.linspace(-half, half, 401)
            re, im = np.meshgrid(axis, axis, indexing="ij")
            a = re + 1j * im
            # scalar expansion of ||y - a v||^2 keeps this cheap
            cross = np.vdot(v, y)
            log_w = (
                -np.abs(a) ** 2 / gamma[i]
                - (
                    np.linalg.norm(y) ** 2
                    - 2 * (np.conj(a) * cross).real
                    + np.abs(a) ** 2 * np.linalg.norm(v) ** 2
                )
                / sigma2
            )
            w = np.exp(log_w - log_w.max())
            w /= w.sum()
            mean = np.sum(w * a)
            var = np.sum(w * np.abs(a - mean) ** 2)
            assert abs(mean - post_mean[i]) <= 1e-3 * max(abs(post_mean[i]), 1e-12)
            assert abs(var - post_var[i]) <= 1e-3 * post_var[i]

    def test_rejects_negative_gamma(self):
        hist, grid, _ = make_history()
        bad = np.full((1, grid.size), -0.1)
        with pytest.raises(ValueError):
            alpha_posterior(hist, bad)


class TestLikelihoodTerms:
    def _dense_reference(self, hist, beta, post, i):
        sigma2 = hist.noise_var[0, 0]
        (y,) = hist.stacked()
        v = stacked_response(hist, beta, i)
        cov = post.variance[0, i] * np.outer(v, v.conj()) + sigma2 * np.eye(len(y))
        mean = post.mean[0, i] * v
        resid = y - mean
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        quad = float(np.vdot(resid, np.linalg.solve(cov, resid)).real)
        return logdet, quad

    def test_closed_forms_match_dense_linear_algebra(self):
        alpha, sigma2 = np.sqrt(1.3) * np.exp(0.4j), 0.45
        hist, grid, beta = make_history(alpha=alpha, noise=sigma2, seed=6)
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        terms = likelihood_terms(hist, post)
        for i in range(grid.size):
            logdet, quad = self._dense_reference(hist, beta, post, i)
            assert terms.log_det[0, i] == pytest.approx(logdet, rel=1e-10)
            assert terms.quad_form[0, i] == pytest.approx(quad, rel=1e-8, abs=1e-9)

    def test_long_batched_run_matches_dense_solve(self):
        # 120 segments of running statistics against one dense slogdet and
        # solve on the whole stacked record: the O(grid) updates do not drift
        sigma2, segments = 0.5, 120
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 64)
        rng = np.random.default_rng(120)
        channels = [
            ChannelParams(
                np.exp(2j * np.pi * rng.uniform()), grid.points[k],
                noise_variance=sigma2,
            )
            for k in (11, 40)
        ]
        hist = MeasurementHistory(64, 4, grid, 2, sigma2)
        beta = []
        for t in range(segments):  # 61 taps on 64 elements: blocks of 4
            beams = [unit(61, 2 * t + k) for k in range(2)]
            values = np.stack([
                measure_segment_scalar(f, c, 64, rng) for f, c in zip(beams, channels)
            ])
            beta.append(append_beams(hist, values, beams))
        assert hist.stacked().shape == (2, segments * 4)
        beta = np.stack(beta, axis=-2)
        gamma = assert_batch_matches_dense_solve(hist, beta, (0, 11, 40, 63))
        assert np.all(gamma[[0, 1], [11, 40]] > 0)

    @pytest.mark.parametrize("codebook", ["flexible", "hierarchical"])
    def test_controller_driven_run_matches_dense_solve_every_block(
        self, codebook, monkeypatch
    ):
        # the same check after every block of a run whose beams the
        # controller picks, through a history that checks itself on append
        snr_db = -5.0
        cfg = AdaptConfig(
            n=16, n_v=2, total_snapshots=80, roi=RegionOfInterest(0.0, 1.0),
            grid_size=16, p_thresh=0.6, codebook=codebook,
        )
        checked = []

        class DenseCheckedHistory(adaptive.MeasurementHistory):
            beta = ()  # the response rows appended so far

            def append(self, values, responses, taps):
                super().append(values, responses, taps)
                self.beta += (responses,)
                points = (0, 5, 10, 15)
                assert_batch_matches_dense_solve(
                    self, np.stack(self.beta, axis=-2), points
                )
                checked.append(self.segment_count)

        plain = run_adaptive_trials(cfg, snr_db, trials=2, seed=0)
        monkeypatch.setattr(adaptive, "MeasurementHistory", DenseCheckedHistory)
        checked_run = run_adaptive_trials(cfg, snr_db, trials=2, seed=0)
        assert columns(checked_run) == columns(plain)
        assert checked == list(range(1, cfg.total_snapshots // cfg.n_v + 1))

    def test_zero_data_scores_all_candidates_equally(self):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        hist = MeasurementHistory(10, 2, grid, 1, 0.5)
        for t in range(2):  # 9 taps on 10 elements: blocks of 2
            append_beams(hist, np.zeros((1, 2), dtype=complex), [unit(9, t)])
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        ll = approx_log_likelihood(hist, post)
        np.testing.assert_allclose(ll, ll[0, 0], atol=1e-12)
        np.testing.assert_allclose(posterior_pmf(ll), 1.0 / 8, atol=1e-12)

    def test_full_pipeline_peaks_at_true_angle(self):
        hist, _, _ = make_history(
            n=24, n_v=4, grid_size=32, segments=6, path_index=11, noise=0.01, seed=8
        )
        gamma = gamma_mle(hist)
        post = alpha_posterior(hist, gamma)
        pmf = posterior_pmf(approx_log_likelihood(hist, post))
        assert np.argmax(pmf[0]) == 11


def scored(hist):
    """Every array the unknown-gain chain computes from a history."""
    gamma = gamma_mle(hist)
    post = alpha_posterior(hist, gamma)
    terms = likelihood_terms(hist, post)
    return (
        gamma, post.mean, post.variance,
        terms.log_likelihood, terms.log_det, terms.quad_form,
    )


class TestNoiseColumn:
    """A batch whose trials each carry their own noise variance."""

    NOISE = np.array([0.05, 0.4, 2.0, 1e-12])

    def _batch(self, noise=NOISE, segments=4):
        """The batch and its beams, one per block, which every trial shares;
        the last trial is noiseless and scored at the inference floor."""
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 16)
        channels = [
            ChannelParams(
                np.sqrt(1.3) * np.exp(0.4j * k), grid.points[3 + 2 * k],
                noise_variance=0.0 if k == 3 else float(v),
            )
            for k, v in enumerate(self.NOISE)
        ]
        rngs = [np.random.default_rng(30 + k) for k in range(len(channels))]
        batch = MeasurementHistory(12, 3, grid, len(channels), noise)
        beams = [unit(10, 100 + t) for t in range(segments)]
        for f in beams:  # 10 taps on 12 elements: blocks of 3
            values = np.stack([
                measure_segment_scalar(f, c, 12, rng) for c, rng in zip(channels, rngs)
            ])
            append_beams(batch, values, [f] * len(channels))
        return batch, beams

    def test_rows_equal_scalar_calls_bit_for_bit(self):
        batch, beams = self._batch()
        assert batch.noise_var.shape == (4, 1)
        assert not batch.noise_var.flags.writeable
        got = scored(batch)
        assert (got[0] == 0).any() and (got[0] > 0).any()
        for i, noise in enumerate(self.NOISE):
            lone = MeasurementHistory(12, 3, batch.grid, 1, noise)
            for values, f in zip(batch.segments, beams):
                append_beams(lone, values[i : i + 1], [f])
            for batch_array, lone_array in zip(got, scored(lone)):
                assert (batch_array[i] == lone_array[0]).all()

    def test_one_value_equals_that_value_per_trial(self):
        shared = scored(self._batch(0.4)[0])
        for got, want in zip(shared, scored(self._batch(np.full(4, 0.4))[0])):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bad", [0.0, -0.1, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_one_bad_row_rejects_the_batch(self, bad):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 16)
        noise = self.NOISE.copy()
        noise[2] = bad
        for value in (bad, noise):  # one value for all trials, or one per trial
            with pytest.raises(ValueError, match="positive and finite"):
                MeasurementHistory(12, 3, grid, 4, value)

    def test_rejects_variances_of_the_wrong_length(self):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 16)
        for noise in (self.NOISE[1:], np.append(self.NOISE, 0.4), self.NOISE[:, None]):
            with pytest.raises(ValueError, match="need one noise variance"):
                MeasurementHistory(12, 3, grid, 4, noise)


class TestPosteriorPmf:
    def test_uniform_for_equal_scores(self):
        pmf = posterior_pmf(np.full(5, -3.7))
        np.testing.assert_allclose(pmf, 0.2, atol=1e-15)

    def test_huge_dynamic_range_is_stable(self):
        pmf = posterior_pmf(np.array([-1e6, -2e6, -1e6 + np.log(2)]))
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf[2] == pytest.approx(2 * pmf[0], rel=1e-9)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            posterior_pmf(np.array([]))
        with pytest.raises(ValueError):
            posterior_pmf(np.array([-np.inf, -np.inf]))
        with pytest.raises(ValueError):
            posterior_pmf(np.array([0.0, np.nan]))

    def test_names_the_first_failed_check_over_all_rows(self):
        # NaN before all -inf before +inf, whichever row holds each
        nan, dead, infinite = [0.0, np.nan], [-np.inf, -np.inf], [0.0, np.inf]
        with pytest.raises(ValueError, match="NaN"):
            posterior_pmf(np.array([dead, nan]))
        with pytest.raises(ValueError, match="all likelihoods are zero"):
            posterior_pmf(np.array([infinite, dead]))
        with pytest.raises(ValueError, match="infinite"):
            posterior_pmf(np.array([[0.0, -1.0], infinite]))

    def test_permutation_of_segments_is_irrelevant(self):
        hist, grid, beta = make_history(segments=5, noise=0.6, seed=9)
        sigma2 = 0.6
        perm = [3, 0, 4, 2, 1]
        reordered = MeasurementHistory(hist.n, hist.n_v, grid, 1, sigma2)
        for old in perm:
            reordered.append(hist.segments[old], beta[:, old], hist.n - hist.n_v + 1)

        def pipeline(h):
            gamma = gamma_mle(h)
            post = alpha_posterior(h, gamma)
            return posterior_pmf(approx_log_likelihood(h, post))

        np.testing.assert_allclose(pipeline(hist), pipeline(reordered), atol=1e-12)


def response(w, grid):
    """The combiner's response w^H phi(u_i) over the grid."""
    return w.conj() @ grid.manifold(len(w))


def known_gain_history(n, n_v, taps, segments=3, seed=0, noise=(0.3, 0.6, 1.0)):
    """Three trials sensing random taps-tap beams on n elements in blocks of
    n_v: the history, the trials' gains, one noise variance per trial as a
    column, and the dense (trials, snapshots, grid) responses w_s^H phi_n(u)
    of every snapshot's full-length combiner. A noiseless trial is scored at
    the inference floor, as the alignment loop scores it."""
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), 16)
    rng = np.random.default_rng(seed)
    noise = np.array(noise)[:, None]
    gains = np.sqrt(1.5) * np.exp(2j * np.pi * rng.uniform(size=3))
    truths = grid.points[rng.integers(grid.size, size=3)]
    floored = np.maximum(noise[:, 0], NOISELESS_VAR_FLOOR)
    hist = MeasurementHistory(n, n_v, grid, 3, floored)
    dense = []
    for t in range(segments):
        beams = [unit(taps, 10 * t + k + seed) for k in range(3)]
        rows = [block_combiners(f, n, n_v) for f in beams]
        x = gains[:, None, None] * ula_manifold(n, truths)[:, None, :] + np.sqrt(
            noise[:, :, None] / 2
        ) * (rng.standard_normal((3, n_v, n)) + 1j * rng.standard_normal((3, n_v, n)))
        append_beams(hist, np.einsum("krn,krn->kr", np.conj(rows), x), beams)
        dense.append(np.conj(rows) @ grid.manifold(n))
    return hist, gains, noise, np.concatenate(dense, axis=1)


# sliding (n - n_v + 1 taps), repeated (n taps), and one snapshot per block
KNOWN_GAIN_LAYOUTS = [(8, 3, 6), (16, 4, 13), (8, 3, 8), (16, 4, 16), (12, 1, 12)]


class TestKnownGainScore:
    """The known-gain score is likelihood_terms under AlphaPosterior(gain, 0),
    built from the history's running statistics."""

    @pytest.mark.parametrize(
        "noise", [(0.3, 0.6, 1.0), (0.5, 0.0, 2.0)], ids=["per_trial", "floor"]
    )
    @pytest.mark.parametrize("segments", [1, 3])
    @pytest.mark.parametrize("n, n_v, taps", KNOWN_GAIN_LAYOUTS)
    def test_closed_form_has_the_bits_of_the_zero_variance_terms(
        self, n, n_v, taps, segments, noise
    ):
        # a noiseless trial at the 1e-12 floor scores without a warning,
        # which the test settings turn into an error
        hist, gains, _, _ = known_gain_history(n, n_v, taps, segments, noise=noise)
        known = AlphaPosterior(gains[:, None], 0.0)
        want = likelihood_terms(hist, known).log_likelihood
        assert np.array_equal(known_gain_log_likelihood(hist, gains[:, None]), want)

    def test_fitted_score_is_the_paper_chain(self):
        hist, _, _, _ = known_gain_history(16, 4, 13)
        posterior = alpha_posterior(hist, gamma_mle(hist))
        want = approx_log_likelihood(hist, posterior)
        assert np.array_equal(fitted_log_likelihood(hist), want)

    @pytest.mark.parametrize("n, n_v, taps", KNOWN_GAIN_LAYOUTS)
    def test_equals_the_dense_gaussian_log_density(self, n, n_v, taps):
        hist, gains, noise, dense = known_gain_history(n, n_v, taps)
        terms = likelihood_terms(hist, AlphaPosterior(gains[:, None], 0.0))
        y = hist.stacked()
        misfit = np.abs(y[:, :, None] - gains[:, None, None] * dense) ** 2
        # -||y - alpha r||^2 / noise plus one constant per trial
        expected = -misfit.sum(axis=1) / noise - y.shape[1] * np.log(np.pi * noise)
        np.testing.assert_allclose(terms.log_likelihood, expected, rtol=1e-10)

    @pytest.mark.parametrize("n, n_v, taps", KNOWN_GAIN_LAYOUTS)
    def test_pmf_equals_the_per_snapshot_chain(self, n, n_v, taps):
        hist, gains, noise, dense = known_gain_history(n, n_v, taps, seed=5)
        known = AlphaPosterior(gains[:, None], 0.0)
        pmf = posterior_pmf(approx_log_likelihood(hist, known))
        y = hist.stacked()
        for k in range(len(y)):
            chain = np.full(hist.grid.size, 1.0 / hist.grid.size)
            for s in range(y.shape[1]):
                chain = known_alpha_posterior(
                    chain, y[k, s], gains[k], dense[k, s], float(noise[k, 0])
                )
            np.testing.assert_allclose(pmf[k], chain, rtol=1e-12, atol=0)


class TestKnownAlphaPosterior:
    def _grid(self, size=16):
        return AngularGrid(RegionOfInterest(0.0, 1.0), size)

    def test_uninformative_combiner_preserves_prior(self):
        grid = self._grid()
        prior = np.arange(1.0, grid.size + 1)
        prior /= prior.sum()
        w = np.zeros(8, dtype=complex)
        w[0] = 1.0  # responds identically to every candidate
        post = known_alpha_posterior(prior, 1.2 - 0.3j, 1.0, response(w, grid), 0.5)
        np.testing.assert_allclose(post, prior, atol=1e-12)

    def test_delta_prior_is_fixed_point(self):
        grid = self._grid()
        prior = np.zeros(grid.size)
        prior[3] = 1.0
        w = unit(8, 1)
        post = known_alpha_posterior(prior, 0.1 + 0.2j, 1.0, response(w, grid), 0.5)
        np.testing.assert_allclose(post, prior, atol=1e-15)

    def test_matched_snapshot_raises_mass_at_truth(self):
        grid = self._grid()
        i = 9
        u = grid.points[i]
        alpha = np.exp(0.3j)
        w = ula_manifold(8, u) / np.sqrt(8)
        y = complex(alpha * np.vdot(w, ula_manifold(8, u)))
        prior = np.full(grid.size, 1.0 / grid.size)
        post = known_alpha_posterior(prior, y, alpha, response(w, grid), 0.05)
        assert np.argmax(post) == i
        assert post[i] > prior[i]

    def test_sequential_equals_joint(self):
        # two snapshots applied one at a time match a single joint update
        grid = self._grid(8)
        alpha = np.sqrt(2.0) * (0.7 + 0.1j)
        rng = np.random.default_rng(12)
        snaps = []
        for seed in (1, 2):
            w = unit(6, seed)
            u_true = grid.points[2]
            y = alpha * np.vdot(w, ula_manifold(6, u_true))
            y += 0.1 * (rng.standard_normal() + 1j * rng.standard_normal())
            snaps.append((w, complex(y)))
        uniform = np.full(grid.size, 1.0 / grid.size)
        seq = uniform
        for w, y in snaps:
            seq = known_alpha_posterior(seq, y, alpha, response(w, grid), 0.3)
        joint_log = np.zeros(grid.size)
        for w, y in snaps:
            resp = np.array(
                [np.vdot(w, ula_manifold(6, u)) for u in grid.points]
            )
            joint_log += -np.abs(y - alpha * resp) ** 2 / 0.3
        joint = posterior_pmf(np.log(uniform) + joint_log)
        np.testing.assert_allclose(seq, joint, atol=1e-12)

    def test_validation(self):
        grid = self._grid(4)
        ok_prior = np.full(4, 0.25)
        w = unit(4, 0)
        rows = response(w, grid)
        with pytest.raises(ValueError):
            known_alpha_posterior(np.zeros(4), 0j, 1.0, rows, 0.5)
        with pytest.raises(ValueError):
            known_alpha_posterior(ok_prior, 0j, 1.0, rows, 0.0)
        with pytest.raises(ValueError):  # one response value per candidate
            known_alpha_posterior(ok_prior, 0j, 1.0, rows[:-1], 0.5)
        with pytest.raises(ValueError):  # one measurement per trial
            known_alpha_posterior(ok_prior, np.zeros(2, complex), 1.0, rows, 0.5)
