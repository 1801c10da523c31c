"""Which modules own which decisions, checked on the source.

An additive row's scaled-int encoding belongs to model.AdditiveInstance,
which builds scales and ints once; ordering, the envy-graph kernel, the
lift and the exact oracle read them from the instance. The submodular
valuations scale their own weights. No other module may scale rows itself.

Code that only the tests call (lemma checks, reference implementations,
analysis tools) lives under tests/, not in the package.
"""

import ast
from collections import Counter
from pathlib import Path

import mmsfair
import mmsfair.submodular

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


# Public defs that no src/ code uses, kept on purpose: name -> reason.
TEST_ONLY_ALLOWED = {
    "lpt_chores_partition": "chores.py's exact pairing for at most 2n chores, "
    "a standalone helper that README documents and the chores demo runs",
}


def _references(tree: ast.AST) -> Counter:
    """How often each name is read as a variable or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_no_test_only_code_in_src():
    """Every public module-level function or class in src/ is used by other
    src/ code, exported, wrapped by the benchmark's tracer, or allowlisted;
    code that only the tests call belongs with the tests."""
    trees = {
        path.relative_to(PACKAGE).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.rglob("*.py")
    }
    references = sum(map(_references, trees.values()), Counter())
    kept = set(mmsfair.__all__) | set(mmsfair.submodular.__all__) | _perfbench_names()
    unused = {
        node.name: name
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in kept
        and references[node.name] == _references(node)[node.name]
    }
    assert unused.keys() == TEST_ONLY_ALLOWED.keys(), unused
