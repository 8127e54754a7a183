"""The benchmark's recorded output bytes, checked on every test run.

perfbench/digests.json records the SHA-256 of each workload's CSV bytes at
its default size. A change meant to keep every byte would otherwise be
checked only when the benchmark is run by hand. This test runs one
repetition of the align and hiepm workloads at seeds 0 and 2 through
perfbench/run.py and compares its digest with the recorded one; the crb
workload is checked by perfbench/test_perfbench.py. A second test runs
align and hiepm at seed 0 twice in one process, without clearing caches
between the runs, and checks the second run's bytes too. It only reads
perfbench/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402

run._load_package()
import workloads  # noqa: E402
from svamsim import channel  # noqa: E402


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


@pytest.mark.parametrize("name, draws", [("align", 2), ("hiepm", 8)])
def test_warm_cache_rerun_matches_the_recorded_digest(name, draws, tmp_path):
    # the second run finds every cache as the first left it: each of its
    # runs reuses the noise draw the same generators made before
    wl = workloads.WORKLOADS[name](0)
    workloads.clear_caches()
    wl.run(tmp_path)
    assert channel._run_draw.cache_info()[:2] == (draws - 1, 1)  # hits, misses
    paths = wl.run(tmp_path)
    assert channel._run_draw.cache_info()[:2] == (2 * draws - 1, 1)
    blobs = [path.read_bytes() for path in paths]
    assert wl.check(blobs) == []
    assert run._digest(blobs) == run.recorded_digest(wl)
