"""Property test: every accepted alignment config runs to the end.

Configs are drawn small (n up to 16) but long, with at least 54 blocks, the
count at which repeated halving used to shrink a flexible beam to nothing.
Both controllers, regions touching -1 and +1, SNRs from -40 dB to noiseless
and noise scales from 1e-6 to 1e6 are drawn. Each run must finish with
every estimate on the grid and every captured mass finite and within
[0, 1] up to rounding.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from svamsim.adaptive import AdaptConfig  # noqa: E402
from svamsim.arrays import AngularGrid, RegionOfInterest  # noqa: E402
from svamsim.harness import run_adaptive_trials  # noqa: E402

REGIONS = [
    RegionOfInterest(-1.0, 1.0),
    RegionOfInterest(-1.0, -0.5),
    RegionOfInterest(0.5, 1.0),
    RegionOfInterest(0.0, 1.0),
]


@st.composite
def long_runs(draw):
    codebook = draw(st.sampled_from(["flexible", "hierarchical"]))
    n = draw(st.integers(2, 16))
    n_v = draw(st.integers(1, min(n, 4)))
    sizes = [4, 8, 16] if codebook == "hierarchical" else [4, 8, 12, 16]
    config = AdaptConfig(
        n=n,
        n_v=n_v,
        total_snapshots=n_v * draw(st.integers(54, 64)),
        roi=draw(st.sampled_from(REGIONS)),
        grid_size=draw(st.sampled_from(sizes)),
        p_thresh=draw(st.floats(0.05, 0.95)),
        codebook=codebook,
        noise_scale=10.0 ** draw(st.floats(-6.0, 6.0)),
    )
    snr_db = draw(st.floats(-40.0, 40.0) | st.just(math.inf))
    return config, snr_db, draw(st.integers(1, 3)), draw(st.integers(0, 2**16))


# On a failure, hypothesis's pytest plugin imports libcst to suggest a patch,
# and that import warns; with warnings as errors the warning would abort the
# session instead of reporting the failing example.
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"
)
# few, fixed examples: tier-1 wall time counts, and a run must not differ
# from the last one
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(long_runs())
def test_accepted_config_runs_to_the_end(case):
    config, snr_db, trials, seed = case
    out = run_adaptive_trials(config, snr_db, trials, seed)
    grid = AngularGrid(config.roi, config.grid_size)
    assert np.isin(out.estimate, grid.points).all()
    assert out.peak_prob.shape == (trials, config.total_snapshots // config.n_v)
    assert np.isfinite(out.peak_prob).all()
    # a pmf summed in another order may exceed 1 by a few ulps
    assert (out.peak_prob >= 0).all() and (out.peak_prob <= 1 + 1e-12).all()
