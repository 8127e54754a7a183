"""Property test: a run's noise from a warm draw cache has the bits, and
leaves the generators in the states, of the same run from a cleared cache.

Batches mix rows that share a generator, noiseless rows and generators of
four bit-generator types, and the warm cache holds either the run's own
draw (a hit) or another batch's (a miss).
"""

import pickle

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from svamsim import channel  # noqa: E402
from svamsim.channel import BatchNoise  # noqa: E402

KINDS = [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]


@st.composite
def batches(draw):
    rows = draw(st.integers(1, 5))
    seeds = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=4, max_size=4))
    variances = draw(
        st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=rows, max_size=rows)
    )
    return seeds, kinds, np.array(variances), draw(st.integers(1, 6)), draw(
        st.integers(1, 5)
    )


def _run(seeds, kinds, variances, count, n):
    """The batch's observations on fresh generators, and their end states."""
    made = {seed: np.random.Generator(kinds[seed](seed)) for seed in set(seeds)}
    rngs = [made[seed] for seed in seeds]
    signals = np.arange(len(seeds) * n).reshape(len(seeds), n) * (1 + 1j)
    x = BatchNoise(rngs, variances, count, n).observe(signals, 0, count)
    return x.tobytes(), [pickle.dumps(rng.bit_generator.state) for rng in rngs]


# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch,
# and that import warns; with warnings as errors the warning would abort the
# session instead of reporting the failing example.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
# few, fixed examples: tier-1 wall time counts, and a run must not differ
# from the last one
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(batches(), batches(), st.booleans())
def test_warm_cache_equals_cleared_cache(batch, other, own):
    channel._run_draw.cache_clear()
    cleared = _run(*batch)
    _run(*(batch if own else other))
    assert _run(*batch) == cleared
    channel._run_draw.cache_clear()
