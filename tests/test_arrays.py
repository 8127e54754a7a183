import numpy as np
import pytest

from scalar_bounds import manifold_complement_and_projector, ula_manifold_derivative
from svamsim.arrays import (
    AngularGrid,
    RegionOfInterest,
    check_angle,
    manifold_matrix,
    ula_manifold,
)


def finite_difference_derivative(n, u, step=1e-7):
    """Independent central-difference oracle for the manifold derivative."""
    return (ula_manifold(n, u + step) - ula_manifold(n, u - step)) / (2 * step)


class TestUlaManifold:
    def test_broadside_is_all_ones(self):
        assert np.array_equal(ula_manifold(4, 0.0), np.ones(4))

    def test_rows_of_many_angles_equal_lone_vectors_bit_for_bit(self):
        rng = np.random.default_rng(3)
        us = np.concatenate([rng.uniform(-1, 1, 200), np.arange(-64, 64) / 64])
        for n in (1, 7, 61, 64):
            rows = ula_manifold(n, us)
            assert rows.shape == (len(us), n)
            for row, u in zip(rows, us.tolist()):
                assert row.tobytes() == ula_manifold(n, u).tobytes()
                assert row.tobytes() == np.exp(1j * np.pi * u * np.arange(n)).tobytes()

    def test_known_quarter_turn_entries(self):
        phi = ula_manifold(3, 0.5)
        expected = np.array([1.0, 1j, -1.0])
        np.testing.assert_allclose(phi, expected, atol=1e-12)

    def test_endfire_alternates_sign(self):
        np.testing.assert_allclose(ula_manifold(2, -1.0), [1.0, -1.0], atol=1e-12)

    def test_entries_unit_modulus(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            u = rng.uniform(-1, 1)
            np.testing.assert_allclose(np.abs(ula_manifold(n, u)), 1.0, atol=1e-12)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            ula_manifold(0, 0.1)
        # a bool or a float is no size, even when it equals a valid one
        for size in (True, 16.0):
            with pytest.raises(ValueError, match="must be an integer"):
                ula_manifold(size, 0.1)
            with pytest.raises(ValueError, match="must be an integer"):
                manifold_matrix(size, [0.1])
            with pytest.raises(ValueError, match="must be an integer"):
                AngularGrid(RegionOfInterest(0.0, 1.0), size)

    def test_matrix_matches_columns(self):
        us = np.array([-0.4, 0.0, 0.7])
        mat = manifold_matrix(5, us)
        for j, u in enumerate(us):
            np.testing.assert_allclose(mat[:, j], ula_manifold(5, u), atol=1e-12)


class TestManifoldDerivative:
    def test_broadside_values(self):
        d = ula_manifold_derivative(3, 0.0)
        np.testing.assert_allclose(d, [0.0, 1j * np.pi, 2j * np.pi], atol=1e-12)

    def test_single_element_has_no_sensitivity(self):
        np.testing.assert_allclose(ula_manifold_derivative(1, 0.3), [0.0])

    def test_against_finite_differences(self):
        for n, u in [(8, 0.3), (16, -0.55), (3, 0.9), (32, 0.01)]:
            analytic = ula_manifold_derivative(n, u)
            numeric = finite_difference_derivative(n, u)
            err = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert err < 1e-6


class TestComplementAndProjector:
    def test_broadside_companion_entries(self):
        companion, _ = manifold_complement_and_projector(3, 0.0)
        np.testing.assert_allclose(companion, [-1.0, 0.0, 1.0], atol=1e-12)

    def test_orthogonal_to_steering_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            m = int(rng.integers(2, 50))
            u = rng.uniform(-1, 1)
            companion, _ = manifold_complement_and_projector(m, u)
            phi = ula_manifold(m, u)
            assert abs(np.vdot(phi, companion)) < 1e-12 * m

    def test_squared_norm_closed_form(self):
        companion, _ = manifold_complement_and_projector(2, 0.7)
        np.testing.assert_allclose(np.linalg.norm(companion) ** 2, 0.5, rtol=1e-12)
        for m in (3, 10, 33):
            companion, _ = manifold_complement_and_projector(m, -0.2)
            np.testing.assert_allclose(
                np.linalg.norm(companion) ** 2, m * (m * m - 1) / 12.0, rtol=1e-12
            )

    def test_derivative_split_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            m = int(rng.integers(2, 40))
            u = rng.uniform(-1, 1)
            companion, _ = manifold_complement_and_projector(m, u)
            phi = ula_manifold(m, u)
            rebuilt = 1j * np.pi * ((m - 1) / 2.0 * phi + companion)
            np.testing.assert_allclose(
                rebuilt, ula_manifold_derivative(m, u), atol=1e-10
            )

    def test_projector_idempotent_and_hermitian(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = int(rng.integers(2, 30))
            u = rng.uniform(-1, 1)
            _, proj = manifold_complement_and_projector(m, u)
            np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
            np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)

    def test_projector_reproduces_its_span(self):
        m, u = 9, 0.37
        companion, proj = manifold_complement_and_projector(m, u)
        phi = ula_manifold(m, u)
        np.testing.assert_allclose(proj @ phi, phi, atol=1e-10)
        np.testing.assert_allclose(proj @ companion, companion, atol=1e-10)

    def test_single_element_rejected(self):
        with pytest.raises(ValueError):
            manifold_complement_and_projector(1, 0.0)


class TestAngles:
    def test_valid_range_half_open(self):
        assert check_angle(-1.0) == -1.0
        assert check_angle(0.999) == 0.999
        for bad in (1.0, 1.5, -1.0001):
            with pytest.raises(ValueError):
                check_angle(bad)


class TestAngularGrid:
    def test_unit_interval_grid(self):
        grid = AngularGrid(RegionOfInterest(0.0, 1.0), 64)
        assert grid.spacing == 1.0 / 64
        assert grid.points[0] == 0.0
        assert grid.points[-1] == 63.0 / 64
        assert np.all((grid.points >= 0.0) & (grid.points < 1.0))

    def test_manifold_cache_returns_consistent_matrix(self):
        grid = AngularGrid(RegionOfInterest(-0.5, 0.5), 8)
        mat = grid.manifold(6)
        assert mat.shape == (6, 8)
        assert grid.manifold(6) is mat
        np.testing.assert_allclose(mat[:, 3], ula_manifold(6, grid.points[3]))

    @pytest.mark.parametrize("m, rows", [(4, 4), (1, 4), (3, 7), (6, 2)])
    def test_cycled_conjugate_is_a_cached_read_only_gather(self, m, rows):
        grid = AngularGrid(RegionOfInterest(-0.5, 0.5), 8)
        mat = grid.cycled_conjugate(m, rows)
        want = grid.manifold(m)[np.arange(rows) % m].conj()
        assert mat.shape == (rows, 8) and mat.tobytes() == want.tobytes()
        assert grid.cycled_conjugate(m, rows) is mat
        assert not mat.flags.writeable

    def test_region_validation(self):
        with pytest.raises(ValueError):
            RegionOfInterest(0.5, 0.5)
        with pytest.raises(ValueError):
            RegionOfInterest(-1.2, 0.0)
        with pytest.raises(ValueError):
            RegionOfInterest(0.0, 1.1)

    def test_rejects_a_region_that_is_not_a_region_of_interest(self):
        with pytest.raises(ValueError, match="roi must be a RegionOfInterest"):
            AngularGrid((0.0, 1.0), 8)
