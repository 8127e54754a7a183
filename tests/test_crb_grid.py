"""Grid bounds: one call over every angle against the one-angle oracles in
scalar_bounds, and the rank-two certificate against eigvalsh."""

import math

import numpy as np
import pytest

import scalar_bounds
from svamsim.arrays import AngularGrid, RegionOfInterest
from svamsim.beams import BeamSpec
from svamsim.crb import crb_general, crb_svam, gain_condition_sufficient, gain_term
from svamsim.harness import CRB_SCHEMES, crb_table, region_beam_bank

ROI = RegionOfInterest(0.0, 1.0)
N, SNAPSHOTS, SNR_DB = 32, 24, -10.0  # every block size below divides 24
GRID = AngularGrid(ROI, 32)


@pytest.mark.parametrize(
    "beam", [BeamSpec(ROI.center, ROI.width), BeamSpec(0.25, 0.5)],
    ids=["roi_beam", "offset_beam"],
)
@pytest.mark.parametrize("n_v", [1, 2, 4, 8])
@pytest.mark.parametrize("scheme", CRB_SCHEMES)
def test_grid_bounds_equal_the_oracle_at_every_point(scheme, n_v, beam):
    bank, grid, oracle = scalar_bounds.grid_and_oracle(
        scheme, N, n_v, SNAPSHOTS, GRID, SNR_DB, beam
    )
    assert grid == oracle
    if scheme == "unknown-alpha" and n_v == 1:
        assert all(math.isinf(res.bound) for res in grid)
    rows = crb_table(scheme, N, n_v, SNAPSHOTS, GRID, SNR_DB, beam)
    assert [row["bound"] for row in rows] == [res.bound for res in oracle]
    assert [row["g_term"] for row in rows] == [res.gain_term for res in oracle]
    if scheme != "svam":
        assert all(row["condition_holds"] is None for row in rows)
        return
    us = [float(u) for u in GRID.points]
    assert gain_term(bank, n_v, GRID.points) == [
        scalar_bounds.gain_term(bank, n_v, u) for u in us
    ]
    certificates = gain_condition_sufficient(bank, GRID.points)
    expected = [scalar_bounds.gain_condition_sufficient(bank, u) for u in us]
    assert [row["condition_holds"] for row in rows] == [c[0] for c in expected]
    for (holds, lhs, rhs), (ref_holds, ref_lhs, ref_rhs) in zip(certificates, expected):
        assert (holds, lhs) == (ref_holds, ref_lhs)
        assert rhs == pytest.approx(ref_rhs, rel=1e-13)


def test_single_angle_returns_one_result():
    bank = region_beam_bank(BeamSpec(0.5, 1.0), 13, 3)
    many = crb_svam(bank, 4, [0.3], 1.0, 1.0, 0.5)
    one = crb_svam(bank, 4, 0.3, 1.0, 1.0, 0.5)
    assert many == [one] and one == scalar_bounds.crb_svam(bank, 4, 0.3, 1.0, 1.0, 0.5)
    assert gain_condition_sufficient(bank, np.float64(0.3)) == (
        gain_condition_sufficient(bank, [0.3])[0]
    )
    with pytest.raises(ValueError):
        crb_general(bank, np.zeros((2, 2)), 1.0, 1.0, 1.0)


def test_rank_two_certificate_matches_eigvalsh_on_general_banks():
    rng = np.random.default_rng(53)
    shapes = [(int(rng.integers(2, 41)), int(rng.integers(1, 31))) for _ in range(150)]
    shapes += [(2, 1), (40, 1), (2, 30), (40, 30)]
    verdicts = set()
    for m, segments in shapes:
        f = rng.standard_normal((m, segments)) + 1j * rng.standard_normal((m, segments))
        us = rng.uniform(-1.0, 1.0, 3)
        for u, (holds, lhs, rhs) in zip(us, gain_condition_sufficient(f, us)):
            ref_holds, ref_lhs, ref_rhs = scalar_bounds.gain_condition_sufficient(f, u)
            assert (holds, lhs) == (ref_holds, ref_lhs)
            assert rhs == pytest.approx(ref_rhs, rel=1e-13)
            verdicts.add(holds)
    assert verdicts == {True, False}
