"""Which modules own which decisions, checked on the source.

An additive row's scaled-int encoding belongs to model.AdditiveInstance,
which builds scales and ints once; ordering, the envy-graph kernel, the
lift and the exact oracle read them from the instance. The submodular
valuations scale their own data, taking entries as given, with no
Fraction coercion first. No other module may scale rows itself.

Code that only the tests call (lemma checks, reference implementations,
analysis tools), and constants that only they read, live under tests/, not
in the package. Every command-line option is read by the command that
accepts it, and cli.py has one output path: one function reads --format,
and every document's version comes from the io module's writer. No
object or module keeps a memo past the call that built it, and no function
calls itself, beyond one listed exception.
"""

import argparse
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


def test_no_fraction_per_entry_on_the_way_in():
    """File entries and valuation data go to scale_to_ints as given: neither
    the parser nor the valuations coerce them to Fractions first."""
    for name in ("io.py", "submodular/valuations.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        assert "as_value" not in _names(tree), name


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


def _constants(body: list) -> list[tuple[str, ast.AST]]:
    """Each public UPPER_CASE name a module assigns at top level, with the
    statement that assigns it."""
    return [
        (target.id, node)
        for node in body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper() and not target.id.startswith("_")
    ]


def test_no_test_only_code_in_src():
    """Every public module-level function, class or UPPER_CASE constant in
    src/, and every public method of a src/ class, is used by other src/
    code, exported from the package namespace (mmsfair.__all__), wrapped by
    the benchmark's tracer, or allowlisted; code and constants that only the
    tests read belong with the tests. A subpackage's __all__ earns nothing:
    its names need a src/ user too. A method counts as used when some src/
    code outside it reads an attribute of its name."""
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
        (constant, name)
        for name, tree in trees.items()
        for constant, node in _constants(tree.body)
        if constant not in kept and references[constant] == _references(node)[constant]
    )
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


def test_no_floats_outside_cli():
    """Solvers, oracles, the audit and the file format run on ints and
    Fractions: only cli.py, which prints ratios, may name float. No other
    module has a float literal or imports from math anything but lcm."""
    offenders = []
    for path in PACKAGE.rglob("*.py"):
        name = path.relative_to(PACKAGE).as_posix()
        if name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Name) and node.id == "float"
                or isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                or isinstance(node, ast.Import) and any(a.name == "math" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "math"
                and any(a.name != "lcm" for a in node.names)
            ):
                offenders.append((name, node.lineno))
    assert not offenders


def _is_memo_decorator(node: ast.AST) -> bool:
    """node is functools' cache, lru_cache or cached_property, bare, dotted
    or called (lru_cache(maxsize=...))."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache", "cached_property")


def test_no_lifetime_memo_in_src():
    """src/ keeps no memo that outlives a call: nothing is named _cache (no
    slot, attribute or variable), and a memoizing decorator sits only on a
    function of no parameters, whose one result is built once (the command
    line parser). A memo built by calling cache(...) inside a function is
    dropped with that call's locals and the object it is stored on."""
    decorated, offenders = [], []
    for path in PACKAGE.rglob("*.py"):
        name = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Attribute) and node.attr == "_cache"
                or isinstance(node, ast.Name) and node.id == "_cache"
                or isinstance(node, ast.Constant) and node.value == "_cache"
            ):
                offenders.append((name, node.lineno))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_is_memo_decorator, node.decorator_list)
            ):
                decorated.append((name, node.name))
                params = node.args
                if (params.posonlyargs or params.args or params.kwonlyargs
                        or params.vararg or params.kwarg):
                    offenders.append((name, node.lineno))
    assert not offenders
    assert ("cli.py", "build_parser") in decorated  # the scan sees the one memo kept


def _args_read(functions: dict[str, ast.FunctionDef], name: str) -> set[str]:
    """The fields read as args.<field> or getattr(args, "<field>") by the
    cli.py function name and by every cli.py function it calls, transitively."""
    fields: set[str] = set()
    seen, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        for node in ast.walk(functions[current]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "args":
                    fields.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                call = node.func.id
                if call == "getattr" and isinstance(node.args[0], ast.Name):
                    if node.args[0].id == "args":
                        fields.add(node.args[1].value)
                elif call in functions:
                    todo.append(call)
    return fields


def test_every_cli_option_is_read():
    """Each subcommand's handler reads every option that subcommand accepts,
    itself or through a cli.py function it calls: an option that nothing
    reads would be accepted and silently ignored."""
    from mmsfair import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, sub in commands.choices.items():
        fields = _args_read(functions, sub.get_default("handler").__name__)
        unread += [
            f"{command} {action.option_strings[0]}"
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction) and action.dest not in fields
        ]
    assert not unread


def test_one_output_path_in_cli():
    """Exactly one cli.py function reads args.format, and cli.py spells no
    "version" key: each command hands its result to that one writer, and
    every document gets its version from io."""
    from mmsfair import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    readers = [
        function.name
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute) and node.attr == "format"
            and isinstance(node.value, ast.Name) and node.value.id == "args"
            for node in ast.walk(function)
        )
    ]
    assert len(readers) == 1, readers
    assert not [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value == "version"
    ]


# Functions of src/ allowed to call themselves by name: module.function ->
# why the recursion stays shallow.
SELF_CALLS_ALLOWED: dict[str, str] = {
    "io._construct": "its nested call scans a single entry and passes no entries on",
}


def test_no_function_calls_itself():
    """No function in src/ calls itself by plain name, nested functions
    included, beyond the allowlist: a search that recursed once per good or
    per level would end in a RecursionError at sizes that its budget allows,
    so each deep walk is a loop over an explicit stack."""
    calls = set()
    for path in PACKAGE.rglob("*.py"):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == function.name
                for node in ast.walk(function)
            ):
                calls.add(f"{module}.{function.name}")
    assert calls == SELF_CALLS_ALLOWED.keys()
