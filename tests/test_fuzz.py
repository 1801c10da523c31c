"""No instance, allocation or sweep file makes a command end in a traceback.

Hypothesis properties write the JSON of a valid file with a few mutations:
keys or list entries deleted, values swapped for others, and one key
written twice. Instance files are small generated instances of any of the
six generator kinds, with a float, null, a bool, a list, a 4,300-digit int,
"1e5000" or "1e-5000" swapped in; every solve-* command, mms-exact and
mms-approx runs on them. Allocation files are what a solver writes for such
an instance, with the same swaps or a small int; verify audits them. Sweep
configs swap in only null, a bool, a float, a string, a list, an int up to
9 or "1/2", so that every sweep stays small; sweep runs them. Every run
goes through cli.main, with a small oracle budget where the command takes
one, and must return 0, 1 or 2 and raise nothing: whatever is wrong with a
file is one error line.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsfair.chores import solve_chores
from mmsfair.cli import main
from mmsfair.envy_graph import solve_additive
from mmsfair.generators import ADDITIVE_KINDS, SUBMODULAR_KINDS, GeneratorSpec, generate
from mmsfair.io import kind_of, serialize_allocation, serialize_instance
from mmsfair.submodular.allocate import alg_sub

# Python writes ints of up to 4,300 digits: this one reads, and sums of it do not write
HUGE = 10**4300 - 1
SWAPS = st.sampled_from((HUGE, "1e5000", "1e-5000", 1.5, None, True, [], [1, 2]))
CONFIG_SWAPS = st.sampled_from((None, True, 1.5, "x", [0, 9], "1/2")) | st.integers(0, 9)

SPECS = st.builds(
    GeneratorSpec,
    kind=st.sampled_from(ADDITIVE_KINDS + SUBMODULAR_KINDS),
    n=st.integers(1, 3),
    m=st.integers(0, 5),
    seed=st.integers(0, 3),
)
SOLVERS = {
    "additive-goods": solve_additive,
    "additive-chores": solve_chores,
    "submodular": lambda agents: alg_sub(agents)[0],
}
SWEEP = {"sweeps": [
    {"bound": "additive-goods", "count": 2, "n": [1, 2], "m": [2, 4], "oracle-budget": 500},
    {"bound": "submodular", "kind": "coverage", "count": 1, "n": 2, "m": 3, "delta": "1/2",
     "oracle-budget": 500},
]}

GOODS = {"version": 1, "kind": "additive-goods", "m": 2}

COMMANDS = (
    ["solve-additive", "--oracle-budget", "500"],
    ["solve-chores", "--oracle-budget", "500"],
    ["solve-submodular", "--oracle-budget", "500"],
    ["mms-exact", "--oracle-budget", "500"],
    ["mms-approx"],
)


def _slots(node):
    """Every (container, key) in node's tree, each parent before its children."""
    if isinstance(node, dict):
        entries = list(node.items())
    elif isinstance(node, list):
        entries = list(enumerate(node))
    else:
        return
    for key, child in entries:
        yield node, key
        yield from _slots(child)


def _text(node, twice) -> str:
    """node as JSON; twice = (obj, key, value) writes key again in obj, with value."""
    if isinstance(node, dict):
        pairs = list(node.items())
        if twice is not None and twice[0] is node:
            pairs.append(twice[1:])
        return "{" + ", ".join(f"{json.dumps(k)}: {_text(v, twice)}" for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(_text(v, twice) for v in node) + "]"
    return json.dumps(node)


def _mutated(draw, doc, swaps) -> str:
    """doc as JSON after one or two mutations, each value swapped in drawn from swaps."""
    twice = None
    # mostly one mutation, mostly a swap, mostly of a list's scalar entry (a
    # value or an index), so that runs get past the parse as well
    for _ in range(draw(st.sampled_from((1, 1, 2)))):
        slots = list(_slots(doc))
        entries = [(c, k) for c, k in slots if isinstance(c, list) and not isinstance(c[k], list)]
        op = draw(st.sampled_from(("swap", "swap", "delete", "twice")))
        if op == "twice" and twice is None:
            obj = draw(st.sampled_from([doc] + [c[k] for c, k in slots if isinstance(c[k], dict)]))
            if obj:
                key = draw(st.sampled_from(sorted(obj)))
                twice = (obj, key, draw(st.one_of(st.just(obj[key]), swaps)))
        elif slots:
            pool = entries if entries and draw(st.sampled_from((True, True, False))) else slots
            container, key = draw(st.sampled_from(pool))
            if op == "delete":
                del container[key]
            else:
                container[key] = copy.deepcopy(draw(swaps))  # never a shared list
    return _text(doc, twice)


@st.composite
def mutated_instances(draw) -> str:
    return _mutated(draw, json.loads(serialize_instance(generate(draw(SPECS)))), SWAPS)


@st.composite
def mutated_allocations(draw) -> tuple[str, str]:
    """An instance, and its solver's allocation file mutated."""
    instance = generate(draw(SPECS))
    doc = json.loads(serialize_allocation(SOLVERS[kind_of(instance)](instance)))
    swaps = SWAPS | st.integers(-1, 6)
    return serialize_instance(instance), _mutated(draw, doc, swaps)


@st.composite
def mutated_configs(draw) -> str:
    return _mutated(draw, copy.deepcopy(SWEEP), CONFIG_SWAPS)


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# two goods of 4,300 digits each, for one agent and for two: every bundle
# holding both is worth a 4,301-digit int, which no report can write
@example(text=_text({**GOODS, "n": 1, "values": [[HUGE, HUGE]]}, None), table=False)
@example(text=_text({**GOODS, "n": 2, "values": [[HUGE, HUGE], [1, 1]]}, None), table=True)
@settings(max_examples=100)
@given(text=mutated_instances(), table=st.booleans())
def test_no_traceback_on_a_mutated_instance(fuzz_dir, text, table):
    instance_path = fuzz_dir / "instance.json"
    instance_path.write_text(text, encoding="utf-8")
    fmt = ["--format", "table" if table else "json"]
    for command in COMMANDS:
        assert _run([*command, "--input", str(instance_path), *fmt]) in (0, 1, 2), command


@settings(max_examples=100)
@given(files=mutated_allocations(), table=st.booleans())
def test_no_traceback_on_a_mutated_allocation(fuzz_dir, files, table):
    instance_path, allocation_path = fuzz_dir / "instance.json", fuzz_dir / "allocation.json"
    instance_path.write_text(files[0], encoding="utf-8")
    allocation_path.write_text(files[1], encoding="utf-8")
    argv = ["verify", "--oracle-budget", "500", "--input", str(instance_path),
            "--allocation", str(allocation_path), "--format", "table" if table else "json"]
    assert _run(argv) in (0, 1, 2)


@settings(max_examples=60)
@given(text=mutated_configs(), table=st.booleans())
def test_no_traceback_on_a_mutated_sweep_config(fuzz_dir, text, table):
    config_path = fuzz_dir / "sweep.json"
    config_path.write_text(text, encoding="utf-8")
    argv = ["sweep", "--config", str(config_path), "--format", "table" if table else "json"]
    assert _run(argv) in (0, 1, 2)
