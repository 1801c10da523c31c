"""Which modules own which decisions, checked on the source.

An additive row's scaled-int encoding belongs to model.AdditiveInstance,
which builds scales and ints once; ordering, the envy-graph kernel, the
lift and the exact oracle read them from the instance. The submodular
valuations scale their own weights. No other module may scale rows itself.
"""

import ast
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
