"""Property test: on random, peaky and tied (trials, grid) pmfs, the batched
hier_beam_search picks the node the one-trial oracle picks for every trial,
and the mass read from the node_masses table has node_mass's bits."""

import types

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from scalar_alignment import hier_beam_search_scalar  # noqa: E402
from svamsim.adaptive import hier_beam_search, node_mass, node_masses  # noqa: E402


@st.composite
def search_cases(draw):
    depth = draw(st.integers(0, 5))
    grid_size = 2**depth * draw(st.integers(1, 3))
    trials = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["counts", "random", "peaky"]))
    if kind == "counts":  # small integer weights: exact mass ties
        row = st.lists(st.integers(0, 3), min_size=grid_size, max_size=grid_size)
        weights = np.array(
            draw(st.lists(row, min_size=trials, max_size=trials)), dtype=float
        )
        weights[weights.sum(axis=1) == 0, 0] = 1.0
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        weights = rng.random((trials, grid_size)) ** (1 if kind == "random" else 30)
    pmf = weights / weights.sum(axis=1, keepdims=True)
    levels = draw(st.lists(st.integers(0, depth), min_size=trials, max_size=trials))
    start_offset = draw(st.integers(0, depth + 2))  # up to and past the depth
    # a threshold equal to the mass of a node on trial 0's climb puts an
    # exact tie on the test that ends the climb
    masses = node_masses(pmf, depth)
    start = min(levels[0] + 1 + start_offset, depth)
    index = int(np.argmax(pmf[0])) * 2**start // grid_size
    climb = [float(masses[l][0, index >> (start - l)]) for l in range(start, -1, -1)]
    thresholds = st.floats(0.001, 0.999)
    ties = [mass for mass in climb if 0.0 < mass < 1.0]
    p_thresh = draw(st.sampled_from(ties) | thresholds if ties else thresholds)
    return pmf, depth, levels, start_offset, p_thresh


# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch,
# and that import warns; with warnings as errors the warning would abort the
# session instead of reporting the failing example.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
# few, fixed examples: tier-1 wall time counts, and a run must not differ
# from the last one
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(search_cases())
def test_batched_search_equals_the_oracle(case):
    pmf, depth, levels, start_offset, p_thresh = case
    grid_size = pmf.shape[1]
    masses = node_masses(pmf, depth)
    nodes = hier_beam_search(
        levels, masses, np.argmax(pmf, axis=-1), grid_size, p_thresh, start_offset
    )
    book = types.SimpleNamespace(depth=depth)
    want = [
        hier_beam_search_scalar(level, row, grid_size, p_thresh, book, start_offset)
        for level, row in zip(levels, pmf)
    ]
    assert nodes == want
    for i, (row, node) in enumerate(zip(pmf, want)):
        peak = float(masses[node.level][i, node.index])
        assert peak == node_mass(row, node, grid_size)
