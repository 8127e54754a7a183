"""The benchmark's recorded output bytes, checked on every test run.

perfbench/digests.json records the SHA-256 of each workload's CSV bytes at
its default size. A change meant to keep every byte would otherwise be
checked only when the benchmark is run by hand. This test runs one
repetition of the align and hiepm workloads at seed 0 through
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


@pytest.mark.parametrize("name", ["align", "hiepm"])
def test_default_size_output_matches_the_recorded_digest(name, tmp_path):
    wl = workloads.WORKLOADS[name](0)
    rep = run.run_rep(wl, tmp_path)
    assert rep["problems"] == []
    assert rep["digest"] == run.recorded_digest(wl)
