"""Outside-in layer tracer for the svamsim benchmark.

The tracer replaces public functions of the package with timing wrappers at
every place a caller looks them up: each ``svamsim`` module namespace that
binds the function (``from .beams import design_beamformer`` makes a second
binding in ``svamsim.adaptive``) and, for methods, the owning class. No file
under ``src/`` changes, and ``uninstall`` puts every original object back.

Spans are aggregated in memory as they close instead of being stored one by
one: a traced ``align`` repetition opens a few hundred thousand spans, and
per-layer self time, call counts and parent->child edge time are all the
benchmark reports. A layer's self time is its span time minus the time of the
child spans it caused. A call into a layer from inside the same layer (for
example ``approx_log_likelihood`` calling ``likelihood_terms``) folds into the
outer span, so ``calls`` counts entries into the layer.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> "module.attribute" or "module.Class.method" of the public
# functions that make up the layer. The root span of every repetition is
# harness.sweep, so the self times of all layers add up to the traced wall time.
LAYERS: dict[str, tuple[str, ...]] = {
    "beams.design": ("beams.design_beamformer",),
    "beams.codebook": ("beams.build_hierarchical_codebook",),
    "channel.snapshot": ("channel.antenna_snapshot",),
    "channel.combine": ("channel.combine",),
    "sensing.measure": ("sensing.measure_segment",),
    "sensing.combiner": ("sensing.svam_combiner",),
    "sensing.history": ("sensing.MeasurementHistory.append",),
    "inference.gamma": ("inference.gamma_mle",),
    "inference.alpha": ("inference.alpha_posterior",),
    "inference.likelihood": (
        "inference.approx_log_likelihood",
        "inference.likelihood_terms",
    ),
    "inference.pmf": ("inference.posterior_pmf",),
    "inference.known_alpha": ("inference.known_alpha_posterior",),
    "adaptive.controller": (
        "adaptive.select_next_beam",
        "adaptive.cumul_peak",
        "adaptive.hier_beam_search",
        "adaptive.select_codeword_posterior_matching",
        "adaptive.node_mass",
    ),
    "adaptive.loop": ("adaptive.run_alignment", "adaptive.run_hiepm_known_alpha"),
    "adaptive.beam_gain": ("beams.beam_gain",),
    "arrays.manifold": ("arrays.manifold_matrix",),
    "crb.svam": ("crb.crb_svam",),
    "crb.benchmark": ("crb.crb_benchmark",),
    "crb.general": ("crb.crb_general",),
    "crb.unknown_alpha": ("crb.crb_unknown_alpha",),
    "crb.certificate": ("crb.gain_condition_sufficient",),
    "harness.expanded_combiners": ("harness.expanded_combiners",),
    "harness.trial_setup": ("harness.trial_generator", "harness.draw_channel"),
    "harness.sweep": (
        "harness.run_experiment",
        "harness.run_adaptive_trials",
        "harness.run_hiepm_trials",
        "harness.records_rmse",
        "harness.region_beam_bank",
        "harness.crb_table",
    ),
    "harness.emit_csv": ("harness.emit_csv", "harness.write_crb_csv"),
}

PACKAGE = "svamsim"
ROOT_LAYER = "harness.sweep"
DESIGN_LAYER = "beams.design"
WRAPPER_MARK = "_perfbench_layer"


def package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class _Layer:
    """Running totals of one layer; spans update them as they close."""

    __slots__ = ("name", "self_s", "calls", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.self_s = 0.0
        self.calls = 0
        self.child_s: dict[str, float] = {}


class Tracer:
    """Installs layer wrappers and accumulates per-layer span statistics."""

    def __init__(self):
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._layers = {name: _Layer(name) for name in LAYERS}
        self.reset()

    def reset(self) -> None:
        for layer in self._layers.values():
            layer.self_s, layer.calls = 0.0, 0
            layer.child_s.clear()
        self.design_keys: set = set()
        self.design_fallbacks: set = set()

    def snapshot(self) -> dict:
        """Statistics gathered since the last reset, as plain data."""
        layers = self._layers.values()
        return {
            "self_s": {layer.name: layer.self_s for layer in layers},
            "calls": {layer.name: layer.calls for layer in layers},
            "edges_s": {
                f"{layer.name}>{child}": t
                for layer in layers
                for child, t in sorted(layer.child_s.items())
            },
            "design_distinct": len(self.design_keys),
            "design_fallbacks": len(self.design_fallbacks),
        }

    def _observe_design(self, beam) -> None:
        # keyed like a per-passband design cache: requested (clipped) band
        # and tap count; Beamformer.method is public provenance
        key = (beam.spec.passband(), beam.size)
        self.design_keys.add(key)
        if beam.method == "least-squares":
            self.design_fallbacks.add(key)

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the named layer."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        layer = self._layers[name]
        stack = self._stack
        clock = time.perf_counter
        observe = self._observe_design if name == DESIGN_LAYER else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                layer.self_s += elapsed - frame[1]
                layer.calls += 1
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edges = parent[0].child_s
                    edges[name] = edges.get(name, 0.0) + elapsed
            if observe is not None:
                observe(result)
            return result

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        self.missing = []
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, _, rest = target.partition(".")
                owner = by_name.get(f"{PACKAGE}.{mod_name}")
                path = rest.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                attr = path[-1]
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(layer, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                # every module namespace that binds the same function object
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        return self

    def _patch(self, owner, name: str, wrapper) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._stack.clear()


def installed_wrappers() -> list[str]:
    """Every tracer wrapper still reachable from the package's namespaces."""
    found = []
    for mod in package_modules():
        for name, value in vars(mod).items():
            if hasattr(value, WRAPPER_MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, WRAPPER_MARK):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found
