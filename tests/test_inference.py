import math

import numpy as np
import pytest

from svamsim import adaptive
from svamsim.adaptive import AdaptConfig
from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.channel import ChannelParams
from svamsim.harness import noise_variance_from_snr, run_adaptive_trials
from svamsim.inference import (
    AlphaPosterior,
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    known_alpha_posterior,
    likelihood_terms,
    posterior_pmf,
)
from svamsim.sensing import MeasurementHistory, measure_segment


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
):
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), grid_size)
    params = ChannelParams(alpha, grid.points[path_index], noise_variance=noise)
    rng = np.random.default_rng(seed)
    hist = MeasurementHistory(n_v, grid, 1)
    for t in range(segments):
        f = unit(n - n_v + 1, 100 + t)
        hist.append(measure_segment(f, params, n, rng)[None], [f])
    return hist, grid, params


def stacked_response(hist, grid, i):
    """Candidate i's stacked noiseless direction in a batch of one:
    kron(beta column, phi)."""
    phi = ula_manifold(hist.n_v, grid.points[i])
    return np.kron(hist.beta_matrix[0, :, i], phi)


def assert_batch_matches_dense_solve(hist, sigma2, points):
    """Every trial's closed-form log-det and quadratic form at the given grid
    points against a dense slogdet and solve on its whole stacked record.
    Returns the fitted gain prior."""
    gamma = gamma_mle(hist, sigma2)
    post = alpha_posterior(hist, gamma, sigma2)
    terms = likelihood_terms(hist, post, sigma2)
    y, beta = hist.stacked(), hist.beta_matrix
    for k in range(len(y)):
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
    hist = MeasurementHistory(2, grid, 1)
    zeros = np.zeros((1, grid.size))
    with pytest.raises(ValueError, match="empty"):
        gamma_mle(hist, 0.5)
    with pytest.raises(ValueError, match="empty"):
        alpha_posterior(hist, zeros, 0.5)
    with pytest.raises(ValueError, match="empty"):
        likelihood_terms(hist, AlphaPosterior(zeros, zeros), 0.5)


class TestGammaMle:
    def test_zero_measurements_give_zero(self):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        hist = MeasurementHistory(2, grid, 1)
        for t in range(3):  # 7 taps on 8 elements: blocks of 2
            hist.append(np.zeros((1, 2), dtype=complex), [unit(7, t)])
        np.testing.assert_array_equal(gamma_mle(hist, 0.5), 0.0)

    def test_noiseless_matched_closed_form(self):
        alpha, sigma2 = np.sqrt(2.0) * (0.8 - 0.3j), 0.25
        hist, _, _ = make_history(alpha=alpha, noise=0.0, seed=1)
        (gamma,) = gamma_mle(hist, sigma2)
        i = 5
        g = hist.cumulative_gain[0, i]
        expected = abs(alpha) ** 2 - sigma2 / (g * hist.n_v)
        assert gamma[i] == pytest.approx(expected, rel=1e-10)

    def test_unlit_candidate_stays_zero(self):
        # difference beam nulls broadside exactly, so candidate 0 (u = 0)
        # accumulates exactly zero gain and must keep a zero variance
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 4)
        f = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hist = MeasurementHistory(1, grid, 1)
        hist.append(np.ones((1, 1), dtype=complex), [f])
        assert hist.cumulative_gain[0, 0] == 0.0
        gamma = gamma_mle(hist, 0.1)
        assert gamma[0, 0] == 0.0

    def test_monotone_in_measurement_scale(self):
        hist, grid, _ = make_history(noise=0.5, seed=7)
        gamma = gamma_mle(hist, 0.5)
        scaled = MeasurementHistory(hist.n_v, grid, 1)
        for values, beams in zip(hist.segments, hist.beamformers):
            scaled.append(3.0 * values, beams)
        gamma_scaled = gamma_mle(scaled, 0.5)
        assert np.all(gamma_scaled >= gamma - 1e-15)

    def test_requires_positive_noise(self):
        hist, _, _ = make_history()
        for noise_var in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                gamma_mle(hist, noise_var)


class TestAlphaPosterior:
    def test_zero_prior_variance_pins_gain_to_zero(self):
        hist, grid, _ = make_history(seed=2)
        post = alpha_posterior(hist, np.zeros((1, grid.size)), 0.5)
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_array_equal(post.variance, 0.0)

    def test_variance_contracts_below_prior(self):
        hist, _, _ = make_history(noise=0.3, seed=3)
        gamma = gamma_mle(hist, 0.3)
        post = alpha_posterior(hist, gamma, 0.3)
        lit = (gamma > 0) & (hist.cumulative_gain > 0)
        assert np.all(post.variance[lit] < gamma[lit])
        assert np.all(post.variance <= gamma + 1e-15)

    def test_noiseless_limit_recovers_alpha(self):
        alpha = 0.9 * np.exp(1.1j)
        hist, _, _ = make_history(alpha=alpha, noise=0.0, seed=4)
        gamma = gamma_mle(hist, 1e-9)
        post = alpha_posterior(hist, gamma, 1e-9)
        assert post.mean[0, 5] == pytest.approx(alpha, rel=1e-6)

    def test_matches_brute_force_integration(self):
        hist, grid, _ = make_history(segments=2, noise=0.5, seed=5)
        sigma2 = 0.5
        gamma = gamma_mle(hist, sigma2)
        post = alpha_posterior(hist, gamma, sigma2)
        (gamma,), (post_mean,), (post_var,) = gamma, post.mean, post.variance
        (y,) = hist.stacked()
        for i in (4, 5, 6):
            if gamma[i] == 0:
                continue
            v = stacked_response(hist, grid, i)
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
            alpha_posterior(hist, bad, 0.5)


class TestLikelihoodTerms:
    def _dense_reference(self, hist, grid, post, sigma2, i):
        (y,) = hist.stacked()
        v = stacked_response(hist, grid, i)
        cov = post.variance[0, i] * np.outer(v, v.conj()) + sigma2 * np.eye(len(y))
        mean = post.mean[0, i] * v
        resid = y - mean
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        quad = float(np.vdot(resid, np.linalg.solve(cov, resid)).real)
        return logdet, quad

    def test_closed_forms_match_dense_linear_algebra(self):
        alpha, sigma2 = np.sqrt(1.3) * np.exp(0.4j), 0.45
        hist, grid, _ = make_history(alpha=alpha, noise=sigma2, seed=6)
        gamma = gamma_mle(hist, sigma2)
        post = alpha_posterior(hist, gamma, sigma2)
        terms = likelihood_terms(hist, post, sigma2)
        for i in range(grid.size):
            logdet, quad = self._dense_reference(hist, grid, post, sigma2, i)
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
        hist = MeasurementHistory(4, grid, 2)
        for t in range(segments):  # 61 taps on 64 elements: blocks of 4
            beams = [unit(61, 2 * t + k) for k in range(2)]
            values = np.stack([
                measure_segment(f, c, 64, rng) for f, c in zip(beams, channels)
            ])
            hist.append(values, beams)
        assert hist.stacked().shape == (2, segments * 4)
        gamma = assert_batch_matches_dense_solve(hist, sigma2, (0, 11, 40, 63))
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
        sigma2 = noise_variance_from_snr(snr_db)
        checked = []

        class DenseCheckedHistory(adaptive.MeasurementHistory):
            def append(self, values, beamformers):
                super().append(values, beamformers)
                points = (0, 5, 10, 15)
                assert_batch_matches_dense_solve(self, sigma2, points)
                checked.append(self.segment_count)

        plain = run_adaptive_trials(cfg, snr_db, trials=2, seed=0)
        monkeypatch.setattr(adaptive, "MeasurementHistory", DenseCheckedHistory)
        assert run_adaptive_trials(cfg, snr_db, trials=2, seed=0) == plain
        assert checked == list(range(1, cfg.segments + 1))

    def test_zero_data_scores_all_candidates_equally(self):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        hist = MeasurementHistory(2, grid, 1)
        for t in range(2):  # 9 taps on 10 elements: blocks of 2
            hist.append(np.zeros((1, 2), dtype=complex), [unit(9, t)])
        gamma = gamma_mle(hist, 0.5)
        post = alpha_posterior(hist, gamma, 0.5)
        ll = approx_log_likelihood(hist, post, 0.5)
        np.testing.assert_allclose(ll, ll[0, 0], atol=1e-12)
        np.testing.assert_allclose(posterior_pmf(ll), 1.0 / 8, atol=1e-12)

    def test_full_pipeline_peaks_at_true_angle(self):
        hist, _, _ = make_history(
            n=24, n_v=4, grid_size=32, segments=6, path_index=11, noise=0.01, seed=8
        )
        gamma = gamma_mle(hist, 0.01)
        post = alpha_posterior(hist, gamma, 0.01)
        pmf = posterior_pmf(approx_log_likelihood(hist, post, 0.01))
        assert np.argmax(pmf[0]) == 11

    def test_rejects_zero_noise(self):
        hist, _, _ = make_history()
        gamma = gamma_mle(hist, 0.5)
        post = alpha_posterior(hist, gamma, 0.5)
        for noise_var in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                likelihood_terms(hist, post, noise_var)


class TestNoiseColumn:
    """A batch whose trials each carry their own noise variance."""

    NOISE = np.array([[0.05], [0.4], [2.0], [1e-12]])

    def _batch(self, segments=4):
        # the last trial is noiseless and scored at the inference floor
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 16)
        channels = [
            ChannelParams(
                np.sqrt(1.3) * np.exp(0.4j * k), grid.points[3 + 2 * k],
                noise_variance=0.0 if k == 3 else float(v),
            )
            for k, v in enumerate(self.NOISE[:, 0])
        ]
        rngs = [np.random.default_rng(30 + k) for k in range(len(channels))]
        batch = MeasurementHistory(3, grid, len(channels))
        for t in range(segments):  # 10 taps on 12 elements: blocks of 3
            f = unit(10, 100 + t)
            values = np.stack([
                measure_segment(f, c, 12, rng) for c, rng in zip(channels, rngs)
            ])
            batch.append(values, [f] * len(channels))
        return batch

    def test_rows_equal_scalar_calls_bit_for_bit(self):
        batch = self._batch()
        gamma = gamma_mle(batch, self.NOISE)
        post = alpha_posterior(batch, gamma, self.NOISE)
        terms = likelihood_terms(batch, post, self.NOISE)
        assert (gamma == 0).any() and (gamma > 0).any()
        for i, noise in enumerate(self.NOISE[:, 0]):
            noise = float(noise)
            gamma_i = gamma_mle(batch, noise)
            post_i = alpha_posterior(batch, gamma_i, noise)
            terms_i = likelihood_terms(batch, post_i, noise)
            assert (gamma[i] == gamma_i[i]).all()
            assert (post.mean[i] == post_i.mean[i]).all()
            assert (post.variance[i] == post_i.variance[i]).all()
            assert (terms.log_likelihood[i] == terms_i.log_likelihood[i]).all()
            assert (terms.log_det[i] == terms_i.log_det[i]).all()
            assert (terms.quad_form[i] == terms_i.quad_form[i]).all()

    @pytest.mark.parametrize(
        "bad", [0.0, -0.1, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"]
    )
    def test_one_bad_row_rejects_the_batch(self, bad):
        batch = self._batch()
        gamma = gamma_mle(batch, self.NOISE)
        post = alpha_posterior(batch, gamma, self.NOISE)
        noise = self.NOISE.copy()
        noise[2, 0] = bad
        with pytest.raises(ValueError):
            gamma_mle(batch, noise)
        with pytest.raises(ValueError):
            alpha_posterior(batch, gamma, noise)
        with pytest.raises(ValueError):
            likelihood_terms(batch, post, noise)

    def test_rejects_a_column_of_the_wrong_shape(self):
        batch = self._batch()
        with pytest.raises(ValueError):  # a row, not a column
            gamma_mle(batch, self.NOISE[:, 0])
        with pytest.raises(ValueError):  # one variance short
            gamma_mle(batch, self.NOISE[1:])


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

    def test_permutation_of_segments_is_irrelevant(self):
        hist, grid, _ = make_history(segments=5, noise=0.6, seed=9)
        sigma2 = 0.6
        perm = [3, 0, 4, 2, 1]
        reordered = MeasurementHistory(hist.n_v, grid, 1)
        for old in perm:
            reordered.append(hist.segments[old], hist.beamformers[old])

        def pipeline(h):
            gamma = gamma_mle(h, sigma2)
            post = alpha_posterior(h, gamma, sigma2)
            return posterior_pmf(approx_log_likelihood(h, post, sigma2))

        np.testing.assert_allclose(pipeline(hist), pipeline(reordered), atol=1e-12)


def response(w, grid):
    """The combiner's response w^H phi(u_i) over the grid."""
    return w.conj() @ grid.manifold(len(w))


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
