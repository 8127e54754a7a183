"""The names the package exports and the ones the benchmark tracer wraps
must all exist: a deleted function would otherwise leave a benchmark layer
reading zero while every other test passes."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import symtable
from functools import partial
from pathlib import Path

import numpy as np

import svamsim
import svamsim.cli  # noqa: F401  (the tracer looks in every loaded module)
from svamsim.channel import draw_noise

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"
TRACER_PATH = BENCH_DIR / "tracer.py"
PACKAGE_DIR = ROOT / "src" / "svamsim"
TESTS_DIR = ROOT / "tests"


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


# Exported names that nothing outside the tests reads yet, each with the
# reason it stays exported. Empty this list rather than grow it.
EXPORTED_WITHOUT_A_CALLER = {
    # the interval the run record of ROADMAP item 6 will report
    "bootstrap_rmse_interval",
}

# Public properties and methods of exported classes that nothing outside the
# tests reads yet, each with the reason it stays. Empty this list rather
# than grow it.
MEMBERS_WITHOUT_A_CALLER = {
    # the fine-grid rescoring of ROADMAP item 2 reads the stored values
    # through this, and so do the dense-solve oracles
    "MeasurementHistory.stacked",
}

# Public members that src/ or perfbench/ reads only off a receiver whose
# class the member check cannot resolve, each with where it is read.
MEMBERS_READ_UNRESOLVED = {
    # MeasurementHistory.append reads it off self.grid, an instance attribute
    "AngularGrid.cycled_conjugate",
    # read only off the elements of beam lists: a codebook's beams (adaptive,
    # harness) and the beams the tracer counts (perfbench/tracer.py)
    "Beamformer.size",
    # read off the roi attribute of a grid or a config (adaptive, harness)
    "RegionOfInterest.center",
}


# what `from svamsim import ...` or `from . import ...` may bind to a module
MODULE_NAMES = {"svamsim"} | {path.stem for path in PACKAGE_DIR.glob("*.py")}


def _global_reads(table: symtable.SymbolTable) -> set[str]:
    """Names read at module level, or read in a nested scope that resolves
    them to the module's globals; a parameter or local of the same
    spelling does not count."""
    names = {
        symbol.get_name()
        for symbol in table.get_symbols()
        if symbol.is_referenced()
        and (table.get_type() == "module" or symbol.is_global())
    }
    return names.union(*(_global_reads(child) for child in table.get_children()))


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names a module binds to an imported module."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                alias.asname or alias.name.split(".")[0] for alias in node.names
            }
        elif isinstance(node, ast.ImportFrom):
            aliases |= {
                alias.asname or alias.name
                for alias in node.names
                if alias.name in MODULE_NAMES
            }
    return aliases


def _names_read(path: Path) -> set[str]:
    """Every global name a module reads, and every attribute it reads off an
    imported module (harness.crb_table); an attribute of any other object
    (res.gain_term) is not a read of the exported name."""
    source = path.read_text()
    tree = ast.parse(source)
    aliases = _module_aliases(tree)
    attributes = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }
    return _global_reads(symtable.symtable(source, str(path), "exec")) | attributes


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a public name only tests read belongs in the test oracles; the tracer's
    # target strings do not count as reads
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    read = set().union(
        *(_names_read(path) for path in paths if path != PACKAGE_DIR / "__init__.py")
    )
    unread = set(svamsim.__all__) - read - EXPORTED_WITHOUT_A_CALLER
    assert sorted(unread) == []
    assert sorted(EXPORTED_WITHOUT_A_CALLER - set(svamsim.__all__)) == []


def _private_names(table: symtable.SymbolTable) -> set[str]:
    """Module-level names a module binds itself with a leading underscore:
    its private functions, classes and constants, not its imports."""
    return {
        symbol.get_name()
        for symbol in table.get_symbols()
        if symbol.is_assigned()
        and not symbol.is_imported()
        and symbol.get_name().startswith("_")
        and not symbol.get_name().startswith("__")
    }


def test_every_private_module_name_is_read_in_src():
    # a private helper that only its own definition reads is a leftover: a
    # loop refactor that stops calling it would otherwise keep it for good
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    unread = []
    for path in paths:
        table = symtable.symtable(path.read_text(), str(path), "exec")
        read = set().union(*(_names_read(other) for other in paths if other != path))
        read |= {s.get_name() for s in table.get_symbols() if s.is_referenced()}
        for name in _private_names(table):
            bodies = [c for c in table.get_children() if c.get_name() != name]
            if name not in read.union(*map(_global_reads, bodies)):
                unread.append(f"{path.stem}.{name}")
    assert sorted(unread) == []


def _attributes_read(path: Path) -> set[str]:
    """Every attribute name a module reads, off any object."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _class_named(node: ast.expr | None, classes: set[str]) -> str | None:
    """The class of the given names that an annotation or a constructor
    names as Cls or module.Cls; None for anything else."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in classes else None


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(body: list[ast.stmt]):
    """Every node of the statements outside the scopes nested in them."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _member_reads(tree: ast.Module, classes: set[str]) -> set[str]:
    """"Class.member" for every attribute a module reads off a receiver of
    one of the given classes, counted only where the receiver's class
    resolves: self, the first parameter of a method of the class; a
    parameter annotated with the class; a constructor call of the class; or
    a name that the same scope binds to such a call. A nested function sees
    the names of the scopes around it."""
    reads = set()

    def constructed(body: list[ast.stmt]) -> dict[str, str]:
        return {
            node.targets[0].id: cls
            for node in _own_nodes(body)
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and (cls := _class_named(node.value.func, classes))
        }

    def visit(node: ast.AST, names: dict[str, str], owner: str | None = None):
        if isinstance(node, ast.ClassDef):
            owner = node.name if node.name in classes else None
            for child in node.body:
                visit(child, names, owner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [arg for arg in (args.vararg, args.kwarg) if arg]
            shadowed = {arg.arg for arg in params}
            names = {k: v for k, v in names.items() if k not in shadowed}
            for i, arg in enumerate(params):
                cls = _class_named(arg.annotation, classes)
                if i == 0 and owner:
                    cls = owner
                if cls:
                    names[arg.arg] = cls
            body = node.body if isinstance(node.body, list) else [node.body]
            names |= constructed(body)
            for child in body:
                visit(child, names)
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in names:
                reads.add(f"{names[receiver.id]}.{node.attr}")
            elif isinstance(receiver, ast.Call):
                if cls := _class_named(receiver.func, classes):
                    reads.add(f"{cls}.{node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child, names)

    visit(tree, constructed(tree.body))
    return reads


def test_every_public_member_of_an_exported_class_has_a_caller_outside_the_tests():
    # a property or method only tests read is test code; dataclass fields
    # are the constructor's parameters, which the ceiling below counts. A
    # read counts only off a receiver whose class resolves, so a member of
    # one class is not kept by a read of another's member of that name
    classes = [
        obj for obj in map(svamsim.__dict__.get, svamsim.__all__) if inspect.isclass(obj)
    ]
    names = {cls.__name__ for cls in classes}
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    read = set().union(*(_member_reads(ast.parse(p.read_text()), names) for p in paths))
    members = {
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and (
            isinstance(value, (property, staticmethod, classmethod))
            or inspect.isfunction(value)
        )
    }
    allowed = MEMBERS_WITHOUT_A_CALLER | MEMBERS_READ_UNRESOLVED
    assert sorted(members - read - allowed) == []
    assert sorted(allowed - members) == []
    assert sorted(allowed & read) == []  # a listed member that gained a read
    assert not MEMBERS_WITHOUT_A_CALLER & MEMBERS_READ_UNRESOLVED


def test_the_member_check_resolves_receivers():
    # the same spelling off an unresolved receiver is no read
    source = (
        "h = MeasurementHistory(1, 1, g, 1, 1.0)\n"
        "class AdaptConfig:\n"
        "    def check(self): return self.depth()\n"
        "def f(config: AdaptConfig, anything, grid: svamsim.AngularGrid):\n"
        "    def inner(): return config.combiner_length\n"
        "    return h.stacked(), anything.segment_count, grid.manifold\n"
        "def g(h):\n"
        "    return h.append, Trials(1).gain_at_truth(), lambda self: self.adapt\n"
        "class Other:\n"
        "    def size(self): return self.passband\n"
    )
    classes = {"MeasurementHistory", "AdaptConfig", "AngularGrid", "Trials", "BeamSpec"}
    assert _member_reads(ast.parse(source), classes) == {
        "AdaptConfig.depth",
        "AdaptConfig.combiner_length",
        "MeasurementHistory.stacked",
        "AngularGrid.manifold",
        "Trials.gain_at_truth",
    }


# Tracer targets that no code in src/ or perfbench/ calls: the benchmark
# layer of each reads zero calls on every workload. ROADMAP item 9 moves
# them into the test oracles and drops them from the tracer. Empty this
# list rather than grow it.
TRACER_TARGETS_WITHOUT_A_CALLER = {
    "adaptive.node_mass",  # ROADMAP item 9
    # the alignment loop scores a known gain through the history
    "inference.known_alpha_posterior",  # ROADMAP item 9
}


def test_every_tracer_target_is_on_a_live_path():
    # the tracer's target strings are not reads; a target nothing calls
    # leaves its layer reading zero while the workloads run other code
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    read = set().union(
        *(
            _names_read(path) | _attributes_read(path)
            for path in paths
            if path != PACKAGE_DIR / "__init__.py"
        )
    )
    targets = {
        target for targets in _load_tracer().LAYERS.values() for target in targets
    }
    unread = {target for target in targets if target.rpartition(".")[2] not in read}
    assert sorted(unread - TRACER_TARGETS_WITHOUT_A_CALLER) == []
    assert sorted(TRACER_TARGETS_WITHOUT_A_CALLER - unread) == []


BLOCKS = 3


def _traced_calls() -> dict[str, dict[str, int]]:
    """Each layer's traced calls in a 2-trial, BLOCKS-block run of each
    controller step."""
    roi = svamsim.RegionOfInterest(0.0, 1.0)
    flexible = svamsim.AdaptConfig(8, 2, 2 * BLOCKS, roi, 8, 0.6)
    hierarchical = dataclasses.replace(flexible, codebook="hierarchical")
    book = svamsim.build_hierarchical_codebook(roi, 3, 7, grid_size=8)
    channels = [svamsim.ChannelParams(1.0, 0.3, noise_variance=0.5)] * 2
    matching = dataclasses.replace(
        flexible, codebook="posterior_matching", gain="known"
    )
    runs = {
        "flexible": partial(svamsim.run_alignment, flexible),
        "hierarchical": partial(svamsim.run_alignment, hierarchical),
        "posterior matching": partial(svamsim.run_alignment, matching, codebook=book),
    }
    tracer = _load_tracer().Tracer()
    calls = {}
    try:
        tracer.install()
        for step, run in runs.items():
            tracer.reset()
            rngs = [np.random.default_rng(seed) for seed in (0, 1)]
            run(channels, draw_noise(rngs, 2 * BLOCKS, 8))
            calls[step] = tracer.snapshot()["calls"]
    finally:
        tracer.uninstall()
    return calls


def test_the_tracer_counts_one_controller_call_per_block():
    # each controller step calls its public rule, which the tracer wraps
    # in adaptive.controller; a step that bypasses it reads fewer calls.
    # Posterior matching chooses its first node before the first block
    extra = {"flexible": 0, "hierarchical": 0, "posterior matching": 1}
    for step, calls in _traced_calls().items():
        assert calls["adaptive.controller"] == BLOCKS + extra[step], step


def test_the_tracer_counts_one_sensing_call_per_block():
    # every block senses through sensing.measure_segment, which reads its
    # observations through channel.antenna_snapshot; a loop that inlines
    # either leaves its layer reading fewer calls
    for step, calls in _traced_calls().items():
        assert calls["sensing.measure"] == BLOCKS, step
        assert calls["channel.snapshot"] == BLOCKS, step


# the names that build a numpy generator, and the attributes that build one
# or draw from one
GENERATOR_BUILDERS = {"default_rng", "Generator", "SeedSequence"}
GENERATOR_ATTRIBUTES = GENERATOR_BUILDERS | {
    "standard_normal", "integers", "uniform", "bit_generator",
}
# the modules that hold the package's randomness: the trial set-up and the
# noise draw it calls
DRAWING_MODULES = {"harness", "channel"}


def _generator_uses(tree: ast.Module) -> list[str]:
    """"name (line n)" for every generator a module builds or draws from: a
    builder read as a name, a builder or draw read as an attribute of
    anything, and any name imported from numpy.random. A local variable
    named uniform is no draw."""
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            uses += [f"{alias.name} (line {node.lineno})" for alias in node.names]
        elif isinstance(node, ast.Name) and node.id in GENERATOR_BUILDERS:
            uses.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr in GENERATOR_ATTRIBUTES:
            uses.append(f"{node.attr} (line {node.lineno})")
    return uses


def test_only_the_trial_set_up_draws():
    # the loop, the sensing and the inference take their noise as an input:
    # a generator anywhere else would decide on its own which runs share a
    # draw, and paired comparisons would stop being paired
    drawing = {
        path.stem: uses
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem not in DRAWING_MODULES
        and (uses := _generator_uses(ast.parse(path.read_text())))
    }
    assert drawing == {}
    # the check sees a generator built, an attribute draw and an import
    source = (
        "import numpy as np\n"
        "from numpy.random import PCG64\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.standard_normal(3) + rng.bit_generator.state['state']['state']\n"
        "uniform = x.uniform\n"
    )
    assert sorted(_generator_uses(ast.parse(source))) == [
        "PCG64 (line 2)", "bit_generator (line 4)", "default_rng (line 3)",
        "standard_normal (line 4)", "uniform (line 5)",
    ]
    assert {"harness", "channel"} == {
        path.stem
        for path in PACKAGE_DIR.glob("*.py")
        if _generator_uses(ast.parse(path.read_text()))
    }


def _readers(tree: ast.Module, name: str) -> set[str]:
    """The top-level function or class of a module in which each read of
    name sits, as a name read or an attribute of anything; <module> for a
    read outside them."""
    readers = set()
    for top in tree.body:
        owner = top.name if isinstance(top, SCOPES) else "<module>"
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)
            ) or (isinstance(node, ast.Attribute) and node.attr == name):
                readers.add(owner)
    return readers


def test_the_alignment_loop_has_one_caller():
    # every alignment, whatever its gain score and controller step, is a
    # run_alignment call; a second caller of the loop would be a second run
    # whose checks and set-up could drift from the first
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    callers = {
        f"{path.stem}.{owner}"
        for path in paths
        for owner in _readers(ast.parse(path.read_text()), "_align")
    }
    assert callers == {"adaptive.run_alignment"}
    # the check sees a call, a partial and a read at module level
    source = (
        "def _align(): pass\n"
        "def run(): return _align()\n"
        "def other(): return partial(adaptive._align, 1)\n"
        "loop = _align\n"
    )
    assert _readers(ast.parse(source), "_align") == {"run", "other", "<module>"}


# Lower this ceiling whenever a knob goes. Raise it only for a new option
# that two callers outside the tests (the harness, the CLI, a config key, the
# benchmark) need with different values; a value only tests set is a constant.
SETTABLE_VALUE_CEILING = 147


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
    assert count == SETTABLE_VALUE_CEILING, "lower the ceiling to the count"


# the functools decorators whose cache_clear() clear_caches() calls
FUNCTOOLS_CACHES = {"cache", "lru_cache"}


def _misplaced_caches(tree: ast.Module) -> list[int]:
    """Lines that name a functools cache anywhere but in the decorators of a
    module-level function."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {
                alias.asname or alias.name
                for alias in node.names
                if alias.name in FUNCTOOLS_CACHES
            }
        elif isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name
                for alias in node.names
                if alias.name == "functools"
            }
    placed = {
        id(inner)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
        for inner in ast.walk(decorator)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in placed
        and (
            (isinstance(node, ast.Name) and node.id in names)
            or (
                isinstance(node, ast.Attribute)
                and node.attr in FUNCTOOLS_CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            )
        )
    )


def test_every_functools_cache_sits_on_a_module_level_function():
    # the benchmark's clear_caches() empties the caches it finds in module
    # namespaces, so each repetition starts cold; a cache on a method or a
    # closure would outlive the clear and inflate throughput
    misplaced = {
        path.stem: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := _misplaced_caches(ast.parse(path.read_text())))
    }
    assert misplaced == {}
    # the check sees a cache on a method and one made inside a function
    method = "from functools import lru_cache\nclass A:\n  @lru_cache\n  def f(s): pass"
    closure = "import functools\ndef g():\n    return functools.cache(len)"
    assert _misplaced_caches(ast.parse(method)) == [3]
    assert _misplaced_caches(ast.parse(closure)) == [3]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads, in code, in a string
    annotation or in its __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation or an __all__ entry
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_no_module_imports_a_name_it_does_not_use():
    # the package's __init__.py imports only to re-export, which its __all__
    # test covers
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(TESTS_DIR.glob("*.py"))
    unused = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if path != PACKAGE_DIR / "__init__.py"
        and (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert unused == {}


# what importing the package may add to the top-level scipy package's own
# modules: the compiled Parks-McClellan exchange and nothing else
SCIPY_MODULES_ALLOWED = {"scipy.signal._sigtools"}


def test_import_loads_no_scipy_subpackage():
    # scipy.signal pulls in scipy.stats and scipy.special, most of the
    # start-up time; a helper that needs one imports it inside the function
    code = (
        "import json, sys\n"
        "def loaded(): return {n for n in sys.modules if n.split('.')[0] == 'scipy'}\n"
        "import scipy\n"
        "own = loaded()\n"
        "import svamsim, svamsim.cli\n"
        "print(json.dumps([sorted(own), sorted(loaded())]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    own, loaded = map(set, json.loads(result.stdout))
    assert not {"scipy.signal", "scipy.stats", "scipy.special"} & loaded
    assert sorted(loaded - own - SCIPY_MODULES_ALLOWED) == []
