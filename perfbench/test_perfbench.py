"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import re

import pytest

import run
import tracer as tracing

run._load_package()
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def small(name: str):
    """A workload instance small enough for a unit test (crb is fixed-size)."""
    cls = workloads.WORKLOADS[name]
    return cls(0, trials=2) if cls.seeded else cls(0)


@pytest.fixture(scope="module")
def align_reps(tmp_path_factory):
    out = tmp_path_factory.mktemp("align")
    wl = small("align")
    tracer = tracing.Tracer()
    reps = [run.run_rep(wl, out), run.run_rep(wl, out, tracer), run.run_rep(wl, out, tracer)]
    for rep in reps:
        rep["reference_s"] = run.REFERENCE_NOMINAL_S
    return wl, tracer, reps


def test_every_wrapper_is_removed_after_a_traced_run(align_reps):
    _, tracer, reps = align_reps
    assert tracer.missing == []
    assert tracing.installed_wrappers() == []
    assert reps[1]["stats"]["calls"]["beams.design"] > 0

    import svamsim.adaptive
    import svamsim.beams
    import svamsim.sensing

    assert svamsim.adaptive.design_beamformer is svamsim.beams.design_beamformer
    assert not hasattr(svamsim.sensing.MeasurementHistory.append, tracing.WRAPPER_MARK)


@pytest.mark.parametrize("name", ["align", "hiepm", "crb"])
def test_traced_and_untraced_runs_give_the_same_output(name, tmp_path):
    wl = small(name)
    plain = run.run_rep(wl, tmp_path)
    traced = run.run_rep(wl, tmp_path, tracing.Tracer())
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["digest"] == traced["digest"]


def test_self_times_add_up_to_the_traced_wall_time(align_reps):
    _, _, reps = align_reps
    for rep in reps[1:]:
        total = sum(rep["stats"]["self_s"].values())
        assert total == pytest.approx(rep["wall_s"], rel=0.02)


def test_exact_counters_repeat_and_a_difference_is_flagged(align_reps):
    wl, _, reps = align_reps
    first, second = (run.exact_counters(r["stats"]) for r in reps[1:])
    assert first == second
    tampered = [dict(r, problems=[]) for r in reps]
    tampered[2]["stats"] = dict(tampered[2]["stats"], design_distinct=-1)
    run.cross_check(wl, tampered)
    assert tampered[1]["problems"] == []
    assert any("exact counters" in p for p in tampered[2]["problems"])


def test_output_check_rejects_a_changed_value(tmp_path):
    wl = small("hiepm")
    blob = wl.run(tmp_path)[0].read_bytes()
    assert wl.check([blob]) == []
    head, _, last = blob.rstrip(b"\n").rpartition(b",")
    assert wl.check([head + b",nan\n"])
    assert wl.check([head + b",1.5\n"])


def test_recorded_digest_is_checked(tmp_path):
    wl = workloads.Crb(123)
    reps = [run.run_rep(wl, tmp_path)]
    run.cross_check(wl, reps)
    assert reps[0]["problems"] == []
    reps[0]["digest"] = "0" * 64
    run.cross_check(wl, reps)
    assert any("recorded" in p for p in reps[0]["problems"])


def test_metric_names_and_counts_match_the_spec(align_reps):
    wl, _, reps = align_reps
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert len(e2e) == len(SPEC["end_to_end"]) <= 16
    assert len(layers) == len(SPEC["per_layer"]) <= 128
    assert all(NAME.fullmatch(n) for n in [*e2e, *layers])
    setups = [{"setup_s": 1.0, "import_s": 0.9, "inputs_s": 0.1}]
    got = run.end_to_end_metrics(wl, reps, setups)
    assert {k: u for k, (_, u) in got.items()} == e2e
    got = run.per_layer_metrics(wl, reps, setups)
    assert {k: u for k, (_, u) in got.items()} == layers
