"""The names the package exports and the ones the benchmark tracer wraps
must all exist: a deleted function would otherwise leave a benchmark layer
reading zero while every other test passes."""

import ast
import importlib.util
import inspect
import symtable
from pathlib import Path

import svamsim
import svamsim.cli  # noqa: F401  (the tracer looks in every loaded module)

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
    # the fine-grid rescoring of ROADMAP item 2 reads the stored history
    # through these, and so do the dense-solve oracles
    "MeasurementHistory.beta_matrix",
    "MeasurementHistory.stacked",
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


def _attributes_read(path: Path) -> set[str]:
    """Every attribute name a module reads, off any object."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_member_of_an_exported_class_has_a_caller_outside_the_tests():
    # a property or method only tests read is test code; dataclass fields
    # are the constructor's parameters, which the ceiling below counts
    paths = sorted(PACKAGE_DIR.glob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    read = set().union(*(_attributes_read(path) for path in paths))
    classes = [
        obj for obj in map(svamsim.__dict__.get, svamsim.__all__) if inspect.isclass(obj)
    ]
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
    unread = {m for m in members if m.split(".")[1] not in read}
    assert sorted(unread - MEMBERS_WITHOUT_A_CALLER) == []
    assert sorted(MEMBERS_WITHOUT_A_CALLER - members) == []


# Lower this ceiling whenever a knob goes. Raise it only for a new option
# that two callers outside the tests (the harness, the CLI, a config key, the
# benchmark) need with different values; a value only tests set is a constant.
SETTABLE_VALUE_CEILING = 168


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
