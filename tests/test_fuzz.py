"""No instance file makes a command end in a traceback.

A hypothesis property writes the JSON of a small generated instance of any
of the six generator kinds with a few mutations: keys or list entries
deleted, values swapped for a float, null, a bool, a list, a 4,300-digit
int, "1e5000" or "1e-5000", and one key written twice. It runs every
solve-* command, mms-exact and mms-approx on the file through cli.main,
with a small oracle budget where the command takes one. Each run must
return 0, 1 or 2 and raise nothing: whatever is wrong with the file is one
error line.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmsfair.cli import main
from mmsfair.generators import ADDITIVE_KINDS, SUBMODULAR_KINDS, GeneratorSpec, generate
from mmsfair.io import serialize_instance

# Python writes ints of up to 4,300 digits: this one reads, and sums of it do not write
HUGE = 10**4300 - 1
SWAPS = (HUGE, "1e5000", "1e-5000", 1.5, None, True, [], [1, 2])

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


@st.composite
def mutated_instances(draw) -> str:
    spec = GeneratorSpec(
        kind=draw(st.sampled_from(ADDITIVE_KINDS + SUBMODULAR_KINDS)),
        n=draw(st.integers(1, 3)),
        m=draw(st.integers(0, 5)),
        seed=draw(st.integers(0, 3)),
    )
    doc = json.loads(serialize_instance(generate(spec)))
    swaps = st.sampled_from(SWAPS)
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
                container[key] = draw(swaps)
    return _text(doc, twice)


@pytest.fixture(scope="module")
def instance_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "instance.json"


# two goods of 4,300 digits each, for one agent and for two: every bundle
# holding both is worth a 4,301-digit int, which no report can write
@example(text=_text({**GOODS, "n": 1, "values": [[HUGE, HUGE]]}, None), table=False)
@example(text=_text({**GOODS, "n": 2, "values": [[HUGE, HUGE], [1, 1]]}, None), table=True)
@settings(max_examples=100)
@given(text=mutated_instances(), table=st.booleans())
def test_no_traceback_on_a_mutated_instance(instance_path, text, table):
    instance_path.write_text(text, encoding="utf-8")
    fmt = ["--format", "table" if table else "json"]
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([*command, "--input", str(instance_path), *fmt])
        assert code in (0, 1, 2), command
