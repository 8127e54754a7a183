import math

import numpy as np
import pytest

from svamsim.arrays import ula_manifold
from svamsim.crb import (
    crb_benchmark,
    crb_general,
    crb_svam,
    crb_unknown_alpha,
    gain_condition_sufficient,
)


def random_bank(m, cols, seed, unit_columns=True):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((m, cols)) + 1j * rng.standard_normal((m, cols))
    if unit_columns:
        f /= np.linalg.norm(f, axis=0, keepdims=True)
    return f


def expand_sliding(f, n_v, n):
    """Oracle route: materialize the full-length combiner bank by zero-padded
    shifts, one block of n_v snapshots per sub-aperture beamformer."""
    m, cols = f.shape
    assert m + n_v - 1 == n
    out = np.zeros((n, cols * n_v), dtype=complex)
    for j in range(cols):
        for r in range(n_v):
            out[r : r + m, j * n_v + r] = f[:, j]
    return out


def expand_repeated(f, n_v):
    """Oracle route for the full-aperture reference: each column held n_v
    snapshots in a row."""
    return np.repeat(f, n_v, axis=1)


def fisher_by_finite_difference(w, u, alpha, noise_var, step=1e-5):
    """Independent oracle: second difference of the analytically averaged
    Gaussian log-likelihood of the combined measurements, for the received
    path gain alpha and the absolute noise power."""
    n = w.shape[0]

    def mean_vec(v):
        return alpha * (w.conj().T @ ula_manifold(n, v))

    mu = mean_vec(u)
    up = np.linalg.norm(mu - mean_vec(u + step)) ** 2
    dn = np.linalg.norm(mu - mean_vec(u - step)) ** 2
    return (up + dn) / (noise_var * step**2)


class TestGeneralBound:
    def test_noise_scaling_is_linear(self):
        w = random_bank(8, 3, 0)
        a = crb_general(w, 0.3, 0.5)
        b = crb_general(w, 0.3, 1.0)
        assert b.bound == pytest.approx(2 * a.bound, rel=1e-12)

    def test_first_element_combiner_is_blind(self):
        w = np.zeros((6, 1), dtype=complex)
        w[0, 0] = 1.0
        res = crb_general(w, 0.2, 1.0)
        assert math.isinf(res.bound)

    def test_matches_finite_difference_fisher(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = int(rng.integers(4, 24))
            cols = int(rng.integers(1, 6))
            w = random_bank(n, cols, int(rng.integers(1 << 30)))
            u = rng.uniform(-0.9, 0.9)
            power = rng.uniform(0.5, 2.0)
            alpha_sq = rng.uniform(0.5, 2.0)
            noise = rng.uniform(0.2, 2.0)
            # the bound sees the noise relative to the received gain's power
            res = crb_general(w, u, noise / (power * alpha_sq))
            alpha = np.sqrt(power * alpha_sq)
            fisher = fisher_by_finite_difference(w, u, alpha, noise)
            assert res.bound == pytest.approx(1.0 / fisher, rel=1e-4)

    def test_extra_combiner_never_raises_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(3, 16))
            w = random_bank(n, 3, int(rng.integers(1 << 30)))
            u = rng.uniform(-0.9, 0.9)
            full = crb_general(w, u, 1.0).bound
            partial = crb_general(w[:, :2], u, 1.0).bound
            assert full <= partial * (1 + 1e-12)

    def test_invalid_parameters_rejected(self):
        w = random_bank(4, 1, 1)
        # a NaN noise once gave a NaN bound, and an infinite one an infinite
        # bound that reads as a singular geometry
        bounds = (
            lambda v: crb_general(w, 0.1, v),
            lambda v: crb_unknown_alpha(w, 0.1, v),
            lambda v: crb_benchmark(w, 2, 0.1, v),
            lambda v: crb_svam(w, 2, 0.1, v),
        )
        for noise_var in (0.0, -1.0, math.nan, math.inf):
            for bound in bounds:
                with pytest.raises(ValueError, match="positive and finite"):
                    bound(noise_var)


class TestRepeatedBound:
    def test_equals_expanded_general(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.choice([8, 16, 32]))
            n_v = int(rng.choice([1, 2, 4]))
            cols = int(rng.choice([2, 8]))
            f = random_bank(n, cols, int(rng.integers(1 << 30)))
            u = rng.uniform(-0.95, 0.95)
            via_gram = crb_benchmark(f, n_v, u, 1.0)
            via_expansion = crb_general(expand_repeated(f, n_v), u, 1.0)
            assert via_gram.bound == pytest.approx(via_expansion.bound, rel=1e-9)

    def test_doubling_block_size_halves_bound(self):
        f = random_bank(16, 4, 11)
        b2 = crb_benchmark(f, 2, 0.4, 1.0).bound
        b4 = crb_benchmark(f, 4, 0.4, 1.0).bound
        assert b4 == pytest.approx(b2 / 2, rel=1e-12)

    def test_unit_block_equals_general(self):
        f = random_bank(12, 3, 13)
        assert crb_benchmark(f, 1, -0.2, 1.0).bound == pytest.approx(
            crb_general(f, -0.2, 1.0).bound, rel=1e-12
        )


def test_both_gram_forms_reject_an_empty_block():
    f = random_bank(8, 2, 3)
    for bound in (crb_svam, crb_benchmark):
        with pytest.raises(ValueError, match="block size"):
            bound(f, 0, 0.1, 1.0)


class TestSlidingBound:
    def test_equals_expanded_general(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.choice([8, 16, 32]))
            n_v = int(rng.choice([2, 3, 4]))
            cols = int(rng.choice([1, 2, 8]))
            f = random_bank(n - n_v + 1, cols, int(rng.integers(1 << 30)))
            u = rng.uniform(-0.95, 0.95)
            via_gram = crb_svam(f, n_v, u, 1.0)
            w = expand_sliding(f, n_v, n)
            via_expansion = crb_general(w, u, 1.0)
            assert via_gram.bound == pytest.approx(via_expansion.bound, rel=1e-9)

    def test_unit_block_degenerates_to_repeated(self):
        f = random_bank(10, 4, 19)
        res = crb_svam(f, 1, 0.6, 1.0)
        assert res.gain_term == pytest.approx(0.0, abs=1e-12)
        assert res.bound == pytest.approx(
            crb_benchmark(f, 1, 0.6, 1.0).bound, rel=1e-12
        )

    def test_matched_beam_has_positive_gain_term(self):
        m, u = 13, 0.25
        f = (ula_manifold(m, u) / np.sqrt(m)).reshape(-1, 1)
        res = crb_svam(f, 4, u, 1.0)
        assert res.gain_term is not None and res.gain_term > 0

    def test_gain_term_can_be_negative_but_bound_stays_valid(self):
        # adversarial beams may push the term negative; the total Fisher
        # denominator still matches the expanded bank and stays nonnegative
        rng = np.random.default_rng(23)
        found_negative = False
        for _ in range(200):
            f = random_bank(6, 1, int(rng.integers(1 << 30)))
            u = rng.uniform(-0.9, 0.9)
            res = crb_svam(f, 3, u, 1.0)
            if res.gain_term < 0:
                found_negative = True
                w = expand_sliding(f, 3, 8)
                ref = crb_general(w, u, 1.0)
                assert res.bound == pytest.approx(ref.bound, rel=1e-9)
        assert found_negative


class TestGainCondition:
    def test_matched_beam_certificate(self):
        m, u = 13, 0.3
        f = (ula_manifold(m, u) / np.sqrt(m)).reshape(-1, 1)
        holds, lhs, rhs = gain_condition_sufficient(f, u)
        assert holds
        assert lhs == pytest.approx(1.0, rel=1e-12)
        assert rhs == pytest.approx(0.25, rel=1e-12)

    def test_orthogonal_bank_sits_on_boundary(self):
        m, u = 9, -0.4
        phi = ula_manifold(m, u)
        from scalar_bounds import manifold_complement_and_projector

        companion, _ = manifold_complement_and_projector(m, u)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3))
        for v in (phi, companion):
            f -= np.outer(v, (v.conj() @ f) / np.vdot(v, v).real)
        holds, lhs, rhs = gain_condition_sufficient(f, u)
        assert holds
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert crb_svam(f, 4, u, 1.0).gain_term == pytest.approx(0.0, abs=1e-9)

    def test_certificate_implies_nonnegative_term(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            m = int(rng.integers(3, 20))
            n_v = int(rng.integers(2, 6))
            f = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
            u = rng.uniform(-0.95, 0.95)
            holds, _, _ = gain_condition_sufficient(f, u)
            if holds:
                assert crb_svam(f, n_v, u, 1.0).gain_term >= -1e-9

    def test_gaussian_banks_mostly_nonnegative(self):
        rng = np.random.default_rng(31)
        hits = 0
        trials = 1000
        for _ in range(trials):
            f = rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8))
            u = rng.uniform(-0.95, 0.95)
            if crb_svam(f, 4, u, 1.0).gain_term >= 0:
                hits += 1
        assert hits / trials > 0.9


class TestUnknownGainBound:
    def test_single_snapshot_is_singular(self):
        w = random_bank(8, 1, 37)
        res = crb_unknown_alpha(w, 0.3, 1.0)
        assert math.isinf(res.bound)

    def test_rank_one_bank_is_singular(self):
        f = random_bank(8, 1, 41)
        w = np.tile(f, (1, 5))
        res = crb_unknown_alpha(w, -0.1, 1.0)
        assert math.isinf(res.bound)

    def test_bank_blind_to_the_steering_vector_keeps_the_full_derivative(self):
        # columns projected orthogonal to phi(u): the gain nuisance removes
        # nothing, so the bound is the known-gain one
        import scalar_bounds

        n, u = 8, 0.3
        w = random_bank(n, 5, 47)
        phi = ula_manifold(n, u)[:, None]
        w = w - phi @ (phi.conj().T @ w) / n
        res = crb_unknown_alpha(w, u, 1.0)
        assert math.isfinite(res.bound)
        assert res.bound == crb_general(w, u, 1.0).bound
        assert res.bound == scalar_bounds.crb_unknown_alpha(w, u, 1.0).bound

    def test_two_distinct_shifts_are_informative(self):
        from svamsim.sensing import svam_combiner

        f = random_bank(15, 1, 43)[:, 0]  # blocks of n_v = 2 on 16 elements
        w = np.stack([svam_combiner(f, 0, 16), svam_combiner(f, 1, 16)], axis=1)
        res = crb_unknown_alpha(w, 0.2, 1.0)
        assert math.isfinite(res.bound)
        assert res.bound > 0

    def test_never_below_known_gain_bound(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            cols = int(rng.integers(2, 6))
            w = random_bank(n, cols, int(rng.integers(1 << 30)))
            u = rng.uniform(-0.9, 0.9)
            known = crb_general(w, u, 1.0).bound
            unknown = crb_unknown_alpha(w, u, 1.0).bound
            assert unknown >= known * (1 - 1e-12)
