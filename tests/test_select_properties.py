"""Property test: on random, peaky, tied and edge-mode (trials, grid) pmfs,
the batched select_next_beam picks the beam the one-trial oracle picks for
every trial, with the oracle's bits in direction, width and mass. Current
widths give first windows of 1 to 64 grid points, on both sides of the 15
points up to which np.convolve's dot order equals a running sum, and the
region-wide fallback is drawn too."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scalar_alignment import cumul_peak_scalar, select_next_beam_scalar  # noqa: E402
from svamsim.adaptive import select_next_beam  # noqa: E402
from svamsim.arrays import AngularGrid, RegionOfInterest  # noqa: E402

REGIONS = [
    RegionOfInterest(0.0, 1.0),
    RegionOfInterest(-1.0, 1.0),
    RegionOfInterest(-0.3, 0.45),
]


@st.composite
def select_cases(draw):
    grid = AngularGrid(
        draw(st.sampled_from(REGIONS)), draw(st.sampled_from([8, 16, 33, 64, 80]))
    )
    trials = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["counts", "random", "peaky", "edge"]))
    if kind == "counts":  # small integer weights: exact mass ties
        row = st.lists(st.integers(0, 3), min_size=grid.size, max_size=grid.size)
        weights = np.array(
            draw(st.lists(row, min_size=trials, max_size=trials)), dtype=float
        )
        weights[weights.sum(axis=1) == 0, 0] = 1.0
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.random((trials, grid.size)) ** (1 if kind == "random" else 30)
        if kind == "edge":  # the mode on the first or the last grid point
            edge = draw(st.lists(st.sampled_from([0, -1]), min_size=trials, max_size=trials))
            weights[np.arange(trials), edge] = weights.sum(axis=1)
    pmf = weights / weights.sum(axis=1, keepdims=True)
    # the first try is half the current width: its window is the drawn one
    window = st.integers(1, 64).map(lambda w: 2 * w * grid.spacing)
    jittered = st.tuples(window, st.floats(0.8, 1.2)).map(lambda p: p[0] * p[1])
    # at or beyond twice the region's width the first try is the fallback
    fallback = st.sampled_from([2 * grid.roi.width, 4.0])
    tiny = st.floats(1e-9, grid.spacing)
    widths = draw(
        st.lists(
            window | jittered | fallback | tiny, min_size=trials, max_size=trials
        )
    )
    # a threshold equal to a mass trial 0 finds puts an exact tie on the
    # test that ends its search
    first_try = 0.5 * widths[0]
    thresholds = st.floats(0.01, 0.999)
    ties = []
    if first_try < grid.roi.width:
        peak, _ = cumul_peak_scalar(pmf[0], first_try, grid)
        ties = [peak] if 0.0 < peak < 1.0 else []
    p_thresh = draw(st.sampled_from(ties) | thresholds if ties else thresholds)
    return pmf, widths, p_thresh, grid


# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch,
# and that import warns; with warnings as errors the warning would abort the
# session instead of reporting the failing example.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
# few, fixed examples: tier-1 wall time counts, and a run must not differ
# from the last one
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(select_cases())
def test_batched_step_equals_the_oracle(case):
    pmf, widths, p_thresh, grid = case
    directions, got_widths, peaks = select_next_beam(pmf, widths, p_thresh, grid)
    for i, (row, width) in enumerate(zip(pmf, widths)):
        spec, peak = select_next_beam_scalar(row, width, p_thresh, grid)
        assert directions[i] == spec.direction
        assert got_widths[i] == spec.beamwidth
        assert peaks[i] == peak
