"""The benchmark's recorded output bytes, checked on every test run.

perfbench/digests.json records the SHA-256 of each workload's CSV bytes at
its default size. A change meant to keep every byte would otherwise be
checked only when the benchmark is run by hand. This test runs one
repetition of the align and hiepm workloads at seeds 0 and 2 through
perfbench/run.py and compares its digest with the recorded one; the crb
workload is checked by perfbench/test_perfbench.py. It only reads
perfbench/.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402

run._load_package()
import workloads  # noqa: E402


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
