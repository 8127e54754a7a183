"""The benchmark's recorded output bytes, checked on every test run.

perfbench/digests.json records the SHA-256 of each workload's CSV bytes at
its default size. A change meant to keep every byte would otherwise be
checked only when the benchmark is run by hand. This test runs one
repetition of the align and hiepm workloads at seeds 0 and 2 through
perfbench/run.py and compares its digest with the recorded one; a cold
run of the crb workload, which draws nothing and so has one digest for
every seed, is checked the same way by perfbench/test_perfbench.py. A
second test runs each of the three workloads at seed 0 twice in one
process, without clearing caches between the runs, and checks both runs'
bytes. It only reads perfbench/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402

run._load_package()
import workloads  # noqa: E402
from svamsim import crb, harness  # noqa: E402


@pytest.mark.parametrize(
    "name, seed",
    [
        pytest.param(name, seed, id=name if seed == 0 else f"{name}-seed{seed}")
        for seed in (0, 2)
        for name in ("align", "hiepm")
    ],
)
def test_default_size_output_matches_the_recorded_digest(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed)
    rep = run.run_rep(wl, tmp_path)
    assert rep["problems"] == []
    assert rep["digest"] == run.recorded_digest(wl)


# per workload, the cache a rerun finds warm and the misses it takes when
# cold: one trial set-up (paths and noise) per run, and crb's steering rows
# for one 128-point grid at 64 taps and the sub-aperture taps of n_v 2, 4
# and 8
_WARM_CACHES = {
    "align": (harness._trial_setup, 1),
    "hiepm": (harness._trial_setup, 1),
    "crb": (crb._steering_rows, 4),
}


@pytest.mark.parametrize("name, calls", [("align", 2), ("hiepm", 8), ("crb", 32)])
def test_warm_cache_rerun_matches_the_recorded_digest(name, calls, tmp_path):
    # the second run finds every cache as the first left it: each of its
    # calls reuses what the same call made before
    cache, misses = _WARM_CACHES[name]
    wl = workloads.WORKLOADS[name](0)
    workloads.clear_caches()
    for run_count in (1, 2):
        paths = wl.run(tmp_path)
        assert cache.cache_info()[:2] == (run_count * calls - misses, misses)
        blobs = [path.read_bytes() for path in paths]
        assert wl.check(blobs) == []
        assert run._digest(blobs) == run.recorded_digest(wl)
