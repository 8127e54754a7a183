import numpy as np
import pytest

from svamsim.arrays import AngularGrid, RegionOfInterest, ula_manifold
from svamsim.channel import ChannelParams
from svamsim.inference import (
    alpha_posterior,
    approx_log_likelihood,
    gamma_mle,
    known_alpha_posterior,
    likelihood_terms,
    posterior_pmf,
)
from svamsim.sensing import MeasurementHistory, SegmentMeasurement, SvamConfig, measure_segment


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
    power=1.0,
    noise=0.4,
    seed=0,
):
    cfg = SvamConfig(n=n, n_v=n_v)
    grid = AngularGrid(RegionOfInterest(0.0, 1.0), grid_size)
    params = ChannelParams.single_path(
        alpha, grid.points[path_index], power=power, noise_variance=noise
    )
    rng = np.random.default_rng(seed)
    hist = MeasurementHistory(cfg)
    for t in range(segments):
        f = unit(cfg.combiner_length, 100 + t)
        hist.append(measure_segment(f, params, cfg, t, rng), f, grid)
    return hist, grid, params


def stacked_response(hist, grid, i):
    """Candidate i's stacked noiseless direction: kron(beta column, phi)."""
    phi = ula_manifold(hist.n_v, grid.points[i])
    return np.kron(hist.beta_matrix[:, i], phi)


class TestGammaMle:
    def test_zero_measurements_give_zero(self):
        cfg = SvamConfig(n=8, n_v=2)
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        hist = MeasurementHistory(cfg)
        for t in range(3):
            seg = SegmentMeasurement(np.zeros(2, dtype=complex), t)
            hist.append(seg, unit(cfg.combiner_length, t), grid)
        np.testing.assert_array_equal(gamma_mle(hist, grid, 1.0, 0.5), 0.0)

    def test_noiseless_matched_closed_form(self):
        alpha, power, sigma2 = 0.8 - 0.3j, 2.0, 0.25
        hist, grid, _ = make_history(alpha=alpha, power=power, noise=0.0, seed=1)
        gamma = gamma_mle(hist, grid, power, sigma2)
        i = 5
        g = hist.cumulative_gain[i]
        expected = abs(alpha) ** 2 - sigma2 / (power * g * hist.n_v)
        assert gamma[i] == pytest.approx(expected, rel=1e-10)

    def test_unlit_candidate_stays_zero(self):
        # difference beam nulls broadside exactly, so candidate 0 (u = 0)
        # accumulates exactly zero gain and must keep a zero variance
        cfg = SvamConfig(n=2, n_v=1)
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 4)
        f = np.array([1.0, -1.0]) / np.sqrt(2.0)
        hist = MeasurementHistory(cfg)
        seg = SegmentMeasurement(np.ones(1, dtype=complex), 0)
        hist.append(seg, f, grid)
        assert hist.cumulative_gain[0] == 0.0
        gamma = gamma_mle(hist, grid, 1.0, 0.1)
        assert gamma[0] == 0.0

    def test_monotone_in_measurement_scale(self):
        hist, grid, _ = make_history(noise=0.5, seed=7)
        gamma = gamma_mle(hist, grid, 1.0, 0.5)
        scaled = MeasurementHistory(hist.config)
        for t, seg in enumerate(hist.segments):
            scaled.append(
                SegmentMeasurement(3.0 * seg.values, t), hist.beamformers[t], grid
            )
        gamma_scaled = gamma_mle(scaled, grid, 1.0, 0.5)
        assert np.all(gamma_scaled >= gamma - 1e-15)

    def test_requires_positive_noise(self):
        hist, grid, _ = make_history()
        with pytest.raises(ValueError):
            gamma_mle(hist, grid, 1.0, 0.0)


class TestAlphaPosterior:
    def test_zero_prior_variance_pins_gain_to_zero(self):
        hist, grid, _ = make_history(seed=2)
        post = alpha_posterior(hist, grid, np.zeros(grid.size), 1.0, 0.5)
        np.testing.assert_array_equal(post.mean, 0.0)
        np.testing.assert_array_equal(post.variance, 0.0)

    def test_variance_contracts_below_prior(self):
        hist, grid, _ = make_history(noise=0.3, seed=3)
        gamma = gamma_mle(hist, grid, 1.0, 0.3)
        post = alpha_posterior(hist, grid, gamma, 1.0, 0.3)
        lit = (gamma > 0) & (hist.cumulative_gain > 0)
        assert np.all(post.variance[lit] < gamma[lit])
        assert np.all(post.variance <= gamma + 1e-15)

    def test_noiseless_limit_recovers_alpha(self):
        alpha = 0.9 * np.exp(1.1j)
        hist, grid, _ = make_history(alpha=alpha, noise=0.0, seed=4)
        gamma = gamma_mle(hist, grid, 1.0, 1e-9)
        post = alpha_posterior(hist, grid, gamma, 1.0, 1e-9)
        assert post.mean[5] == pytest.approx(alpha, rel=1e-6)

    def test_matches_brute_force_integration(self):
        hist, grid, _ = make_history(segments=2, noise=0.5, seed=5)
        power, sigma2 = 1.0, 0.5
        gamma = gamma_mle(hist, grid, power, sigma2)
        post = alpha_posterior(hist, grid, gamma, power, sigma2)
        y = hist.stacked()
        for i in (4, 5, 6):
            if gamma[i] == 0:
                continue
            v = stacked_response(hist, grid, i)
            half = 6.0 * np.sqrt(gamma[i])
            axis = np.linspace(-half, half, 401)
            re, im = np.meshgrid(axis, axis, indexing="ij")
            a = re + 1j * im
            # scalar expansion of ||y - sqrt(P) a v||^2 keeps this cheap
            cross = np.vdot(v, y)
            log_w = (
                -np.abs(a) ** 2 / gamma[i]
                - (
                    np.linalg.norm(y) ** 2
                    - 2 * np.sqrt(power) * (np.conj(a) * cross).real
                    + power * np.abs(a) ** 2 * np.linalg.norm(v) ** 2
                )
                / sigma2
            )
            w = np.exp(log_w - log_w.max())
            w /= w.sum()
            mean = np.sum(w * a)
            var = np.sum(w * np.abs(a - mean) ** 2)
            assert abs(mean - post.mean[i]) <= 1e-3 * max(abs(post.mean[i]), 1e-12)
            assert abs(var - post.variance[i]) <= 1e-3 * post.variance[i]

    def test_rejects_negative_gamma(self):
        hist, grid, _ = make_history()
        bad = np.full(grid.size, -0.1)
        with pytest.raises(ValueError):
            alpha_posterior(hist, grid, bad, 1.0, 0.5)


class TestLikelihoodTerms:
    def _dense_reference(self, hist, grid, post, power, sigma2, i):
        y = hist.stacked()
        v = stacked_response(hist, grid, i)
        cov = power * post.variance[i] * np.outer(v, v.conj()) + sigma2 * np.eye(
            len(y)
        )
        mean = np.sqrt(power) * post.mean[i] * v
        resid = y - mean
        sign, logdet = np.linalg.slogdet(cov)
        assert sign > 0
        quad = float(np.vdot(resid, np.linalg.solve(cov, resid)).real)
        return logdet, quad

    def test_closed_forms_match_dense_linear_algebra(self):
        power, sigma2 = 1.3, 0.45
        hist, grid, _ = make_history(power=power, noise=sigma2, seed=6)
        gamma = gamma_mle(hist, grid, power, sigma2)
        post = alpha_posterior(hist, grid, gamma, power, sigma2)
        terms = likelihood_terms(hist, grid, post, power, sigma2)
        for i in range(grid.size):
            logdet, quad = self._dense_reference(hist, grid, post, power, sigma2, i)
            assert terms.log_det[i] == pytest.approx(logdet, rel=1e-10)
            assert terms.quad_form[i] == pytest.approx(quad, rel=1e-8, abs=1e-9)

    def test_long_batched_run_matches_dense_solve(self):
        # 120 segments of running statistics against one dense slogdet and
        # solve on the whole stacked record: the O(grid) updates do not drift
        power, sigma2, segments = 1.0, 0.5, 120
        cfg = SvamConfig(n=64, n_v=4)
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 64)
        rng = np.random.default_rng(120)
        channels = [
            ChannelParams.single_path(
                np.exp(2j * np.pi * rng.uniform()), grid.points[k],
                power=power, noise_variance=sigma2,
            )
            for k in (11, 40)
        ]
        hist = MeasurementHistory(cfg, trials=2)
        for t in range(segments):
            beams = [unit(cfg.combiner_length, 2 * t + k) for k in range(2)]
            values = np.stack([
                measure_segment(f, c, cfg, t, rng).values
                for f, c in zip(beams, channels)
            ])
            hist.append(SegmentMeasurement(values, t), beams, grid)
        gamma = gamma_mle(hist, grid, power, sigma2)
        post = alpha_posterior(hist, grid, gamma, power, sigma2)
        terms = likelihood_terms(hist, grid, post, power, sigma2)
        y, beta = hist.stacked(), hist.beta_matrix
        assert y.shape == (2, segments * cfg.n_v)
        for k in range(2):
            for i in (0, 11, 40, 63):
                v = np.kron(beta[k, :, i], ula_manifold(cfg.n_v, grid.points[i]))
                cov = power * post.variance[k, i] * np.outer(
                    v, v.conj()
                ) + sigma2 * np.eye(len(v))
                resid = y[k] - np.sqrt(power) * post.mean[k, i] * v
                sign, logdet = np.linalg.slogdet(cov)
                assert sign > 0
                quad = float(np.vdot(resid, np.linalg.solve(cov, resid)).real)
                assert terms.log_det[k, i] == pytest.approx(logdet, rel=1e-10)
                assert terms.quad_form[k, i] == pytest.approx(quad, rel=1e-10)
        assert np.all(gamma[[0, 1], [11, 40]] > 0)

    def test_zero_data_scores_all_candidates_equally(self):
        cfg = SvamConfig(n=10, n_v=2)
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 8)
        hist = MeasurementHistory(cfg)
        for t in range(2):
            seg = SegmentMeasurement(np.zeros(2, dtype=complex), t)
            hist.append(seg, unit(cfg.combiner_length, t), grid)
        gamma = gamma_mle(hist, grid, 1.0, 0.5)
        post = alpha_posterior(hist, grid, gamma, 1.0, 0.5)
        ll = approx_log_likelihood(hist, grid, post, 1.0, 0.5)
        np.testing.assert_allclose(ll, ll[0], atol=1e-12)
        np.testing.assert_allclose(posterior_pmf(ll), 1.0 / 8, atol=1e-12)

    def test_full_pipeline_peaks_at_true_angle(self):
        hist, grid, params = make_history(
            n=24, n_v=4, grid_size=32, segments=6, path_index=11, noise=0.01, seed=8
        )
        gamma = gamma_mle(hist, grid, 1.0, 0.01)
        post = alpha_posterior(hist, grid, gamma, 1.0, 0.01)
        pmf = posterior_pmf(approx_log_likelihood(hist, grid, post, 1.0, 0.01))
        assert np.argmax(pmf) == 11

    def test_rejects_zero_noise(self):
        hist, grid, _ = make_history()
        gamma = gamma_mle(hist, grid, 1.0, 0.5)
        post = alpha_posterior(hist, grid, gamma, 1.0, 0.5)
        with pytest.raises(ValueError):
            likelihood_terms(hist, grid, post, 1.0, 0.0)


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
        power, sigma2 = 1.0, 0.6
        perm = [3, 0, 4, 2, 1]
        reordered = MeasurementHistory(hist.config)
        for new_index, old in enumerate(perm):
            seg = SegmentMeasurement(hist.segments[old].values, new_index)
            reordered.append(seg, hist.beamformers[old], grid)

        def pipeline(h):
            gamma = gamma_mle(h, grid, power, sigma2)
            post = alpha_posterior(h, grid, gamma, power, sigma2)
            return posterior_pmf(approx_log_likelihood(h, grid, post, power, sigma2))

        np.testing.assert_allclose(pipeline(hist), pipeline(reordered), atol=1e-12)


class TestKnownAlphaPosterior:
    def _grid(self, size=16):
        return AngularGrid(RegionOfInterest(0.0, 1.0), size)

    def test_uninformative_combiner_preserves_prior(self):
        grid = self._grid()
        prior = np.arange(1.0, grid.size + 1)
        prior /= prior.sum()
        w = np.zeros(8, dtype=complex)
        w[0] = 1.0  # responds identically to every candidate
        post = known_alpha_posterior(prior, 1.2 - 0.3j, w, 1.0, grid, 1.0, 0.5)
        np.testing.assert_allclose(post, prior, atol=1e-12)

    def test_delta_prior_is_fixed_point(self):
        grid = self._grid()
        prior = np.zeros(grid.size)
        prior[3] = 1.0
        post = known_alpha_posterior(
            prior, 0.1 + 0.2j, unit(8, 1), 1.0, grid, 1.0, 0.5
        )
        np.testing.assert_allclose(post, prior, atol=1e-15)

    def test_matched_snapshot_raises_mass_at_truth(self):
        grid = self._grid()
        i = 9
        u = grid.points[i]
        alpha = np.exp(0.3j)
        w = ula_manifold(8, u) / np.sqrt(8)
        y = complex(np.sqrt(1.0) * alpha * np.vdot(w, ula_manifold(8, u)))
        prior = np.full(grid.size, 1.0 / grid.size)
        post = known_alpha_posterior(prior, y, w, alpha, grid, 1.0, 0.05)
        assert np.argmax(post) == i
        assert post[i] > prior[i]

    def test_sequential_equals_joint(self):
        # two snapshots applied one at a time match a single joint update
        grid = self._grid(8)
        alpha = 0.7 + 0.1j
        rng = np.random.default_rng(12)
        snaps = []
        for seed in (1, 2):
            w = unit(6, seed)
            u_true = grid.points[2]
            y = np.sqrt(2.0) * alpha * np.vdot(w, ula_manifold(6, u_true))
            y += 0.1 * (rng.standard_normal() + 1j * rng.standard_normal())
            snaps.append((w, complex(y)))
        uniform = np.full(grid.size, 1.0 / grid.size)
        seq = uniform
        for w, y in snaps:
            seq = known_alpha_posterior(seq, y, w, alpha, grid, 2.0, 0.3)
        joint_log = np.zeros(grid.size)
        for w, y in snaps:
            resp = np.array(
                [np.vdot(w, ula_manifold(6, u)) for u in grid.points]
            )
            joint_log += -np.abs(y - np.sqrt(2.0) * alpha * resp) ** 2 / 0.3
        joint = posterior_pmf(np.log(uniform) + joint_log)
        np.testing.assert_allclose(seq, joint, atol=1e-12)

    def test_validation(self):
        grid = self._grid(4)
        ok_prior = np.full(4, 0.25)
        with pytest.raises(ValueError):
            known_alpha_posterior(
                np.zeros(4), 0j, unit(4, 0), 1.0, grid, 1.0, 0.5
            )
        with pytest.raises(ValueError):
            known_alpha_posterior(
                ok_prior, 0j, 2.0 * unit(4, 0), 1.0, grid, 1.0, 0.5
            )
        with pytest.raises(ValueError):
            known_alpha_posterior(ok_prior, 0j, unit(4, 0), 1.0, grid, 1.0, 0.0)
