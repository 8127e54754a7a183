"""Property test: on small random sizes, regions and SNRs, and on the
benchmark's bound banks, crb_table and the grid bounds equal the one-angle
oracles in scalar_bounds at every point, and every bound is exactly
proportional to the noise variance."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import scalar_bounds  # noqa: E402
from svamsim.arrays import AngularGrid, RegionOfInterest  # noqa: E402
from svamsim.beams import BeamSpec  # noqa: E402
from svamsim.harness import (  # noqa: E402
    CRB_COLUMNS,
    CRB_SCHEMES,
    crb_table,
    noise_variance_from_snr,
)

# the crb benchmark workload: N=64, L=120, -10 dB on a 128-point grid
WORKLOAD_GRID = AngularGrid(RegionOfInterest(0.0, 1.0), 128)
WORKLOAD_CASES = [(64, n_v, 120, WORKLOAD_GRID, -10.0) for n_v in (1, 2, 4, 8)]


@st.composite
def bound_tables(draw):
    n = draw(st.integers(1, 16))
    n_v = draw(st.integers(1, n))
    segments = draw(st.integers(1, 4))
    left = draw(st.integers(-32, 31))
    right = draw(st.integers(left + 1, 32))
    grid = AngularGrid(RegionOfInterest(left / 32, right / 32), draw(st.integers(1, 16)))
    snr_db = draw(st.sampled_from([-15.0, 0.0, 20.0]))
    return n, n_v, n_v * segments, grid, snr_db


# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch,
# and that import warns; with warnings as errors the warning would abort the
# session instead of reporting the failing example.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
# few, fixed examples: tier-1 wall time counts, and a run must not differ
# from the last one
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(bound_tables())
@example(WORKLOAD_CASES[0])
@example(WORKLOAD_CASES[1])
@example(WORKLOAD_CASES[2])
@example(WORKLOAD_CASES[3])
def test_grid_tables_equal_the_oracle(case):
    n, n_v, total_snapshots, grid, snr_db = case
    beam = BeamSpec(grid.roi.center, grid.roi.width)
    noise_var = noise_variance_from_snr(snr_db)
    for scheme in CRB_SCHEMES:
        bank, on_grid, oracle = scalar_bounds.grid_and_oracle(
            scheme, n, n_v, total_snapshots, grid, snr_db, beam
        )
        assert scalar_bounds.bits(on_grid) == scalar_bounds.bits(oracle)
        assert (on_grid.bound > 0).all()  # inf included
        # noise_var is the noise relative to P|alpha|^2, and each bound is
        # noise_var / 2 over a denominator free of it; scaling by a power of
        # two is exact in floating point, so the products must match to the bit
        for k in (0.5, 2.0, 4.0):
            scaled = scalar_bounds.grid_bounds(
                scheme, bank, n, n_v, grid.points, k * noise_var
            )
            assert scaled.bound.tolist() == (k * on_grid.bound).tolist()
        table = dict(zip(CRB_COLUMNS, zip(*crb_table(
            scheme, n, n_v, total_snapshots, grid, snr_db
        ))))
        assert list(table["bound"]) == oracle.bound.tolist()
        if scheme != "svam":
            assert set(table["g_term"]) == set(table["condition_holds"]) == {None}
            continue
        assert list(table["g_term"]) == oracle.gain_term.tolist()
        holds = list(table["condition_holds"])
        if bank.shape[0] == 1:  # the projector oracle needs two taps
            assert all(holds)
        else:
            assert holds == [
                scalar_bounds.gain_condition_sufficient(bank, float(u))[0]
                for u in grid.points
            ]
