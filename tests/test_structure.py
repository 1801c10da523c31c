"""Which modules own which decisions, checked on the source.

An additive row's scaled-int encoding belongs to model.AdditiveInstance,
which builds scales and ints once; ordering, the envy-graph kernel, the
lift and the exact oracle read them from the instance. The submodular
valuations scale their own weights. No other module may scale rows itself.

Code that only the tests call (lemma checks, reference implementations,
analysis tools) lives under tests/, not in the package.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import mmsfair

PACKAGE = Path(mmsfair.__file__).resolve().parent


def _names(tree: ast.AST) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.FunctionDef):
            out.add(node.name)
    return out


def test_only_model_and_valuations_scale_to_ints():
    users = {
        path.relative_to(PACKAGE).as_posix()
        for path in PACKAGE.rglob("*.py")
        if "scale_to_ints" in _names(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert users == {"model.py", "submodular/valuations.py"}


def _perfbench_names() -> set[str]:
    """Function and method names that perfbench/tracer.py's SPANS and HOT
    tuples wrap by name, read as literals from the file."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    names: set[str] = set()
    for node in ast.parse(tracer.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id in ("SPANS", "HOT"):
            names.update(entry[-2] for entry in ast.literal_eval(node.value))
    return names


# Public defs that no src/ code uses, kept on purpose: name (Class.method
# for a method) -> reason. Empty: everything that only the tests call lives
# under tests/.
TEST_ONLY_ALLOWED: dict[str, str] = {}


def _references(tree: ast.AST, kinds=(ast.Name, ast.Attribute)) -> Counter:
    """How often each name is read as a variable or an attribute (or only
    as what kinds names)."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds)
    )


def _public(body: list) -> list:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def test_no_test_only_code_in_src():
    """Every public module-level function or class in src/, and every public
    method of a src/ class, is used by other src/ code, exported from the
    package namespace (mmsfair.__all__), wrapped by the benchmark's tracer,
    or allowlisted; code that only the tests call belongs with the tests.
    A subpackage's __all__ earns nothing: its names need a src/ user too. A
    method counts as used when some src/ code outside it reads an attribute
    of its name."""
    trees = {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.rglob("*.py")
    }
    references = sum(map(_references, trees.values()), Counter())
    attributes = sum((_references(t, ast.Attribute) for t in trees.values()), Counter())
    kept = set(mmsfair.__all__) | _perfbench_names()
    unused = {
        node.name: name
        for name, tree in trees.items()
        for node in _public(tree.body)
        if node.name not in kept and references[node.name] == _references(node)[node.name]
    }
    unused.update(
        (f"{cls.name}.{node.name}", name)
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in _public(cls.body)
        if node.name not in kept
        and attributes[node.name] == _references(node, ast.Attribute)[node.name]
    )
    assert unused.keys() == TEST_ONLY_ALLOWED.keys(), unused


def test_tracer_targets_resolve():
    """Every (module, function) of perfbench/tracer.py's SPANS and every
    (module, class, method) of its HOT names something in src/: install()
    getattrs each one, so a renamed or deleted target breaks every traced
    benchmark run."""
    tracer = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and node.targets[0].id in ("SPANS", "HOT")
    }
    assert tables["SPANS"] and tables["HOT"]
    for module, function, _ in tables["SPANS"]:
        assert callable(getattr(importlib.import_module(module), function, None)), function
    for module, cls, method, _ in tables["HOT"]:
        owner = getattr(importlib.import_module(module), cls, None)
        assert callable(getattr(owner, method, None)), f"{cls}.{method}"
