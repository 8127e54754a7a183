"""The names the package exports and the ones the benchmark tracer wraps
must all exist: a deleted function would otherwise leave a benchmark layer
reading zero while every other test passes."""

import importlib.util
import inspect
from pathlib import Path

import svamsim
import svamsim.cli  # noqa: F401  (the tracer looks in every loaded module)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exported_name_resolves():
    missing = [name for name in svamsim.__all__ if not hasattr(svamsim, name)]
    assert missing == []
    assert len(set(svamsim.__all__)) == len(svamsim.__all__)


def test_every_tracer_layer_target_resolves():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []


# Lower this ceiling whenever a knob goes. Raise it only for a new option
# that two callers outside the tests (the harness, the CLI, a config key, the
# benchmark) need with different values; a value only tests set is a constant.
SETTABLE_VALUE_CEILING = 214


def test_settable_values_stay_under_the_ceiling():
    # every parameter of every exported callable (a class counts its
    # constructor's), plus the two bank helpers the bound dispatch shares
    from svamsim import harness

    targets = [getattr(svamsim, name) for name in svamsim.__all__]
    targets += [harness.region_beam_bank, harness.expanded_combiners]
    count = sum(
        len(inspect.signature(target).parameters)
        for target in targets
        if callable(target)
    )
    assert count <= SETTABLE_VALUE_CEILING
