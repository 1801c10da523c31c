"""The integer allocator and the cursor lift against their reference versions.

Drawn instances mix ties, zeros, per-row denominators and pre-sorted rows;
the fast paths must return the same allocations, the same traces (every
step's item, agent and rotated cycles) and the same lifted bundles. The
scaled int rows they all read must encode the Fraction values exactly.
A few seeded instances of the benchmark's size, drawn without hypothesis,
check the allocator too: a disagreement there fails in seconds, with
nothing to shrink.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import reference_allocate_ordered, reference_lift

from mmsfair.chores import chores_envy_graph_allocate, solve_chores
from mmsfair.envy_graph import envy_graph_allocate, solve_additive
from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.ordering import lift_allocation, to_ordered

KINDS = (GOODS, CHORES)
PICK = {GOODS: "source", CHORES: "sink"}
ALLOCATE = {GOODS: envy_graph_allocate, CHORES: chores_envy_graph_allocate}
SOLVE = {GOODS: solve_additive, CHORES: solve_chores}


@st.composite
def value_rows(draw, m, sign):
    q = draw(st.integers(1, 9))  # this row's denominator
    hi = draw(st.sampled_from((0, 1, 3, 40)))  # narrow ranges give ties and zeros
    numerators = draw(st.lists(st.integers(0, hi * q), min_size=m, max_size=m))
    row = [Fraction(sign * p, q) for p in numerators]
    if draw(st.booleans()):
        row.sort(key=abs, reverse=True)  # already in to_ordered's order
    return row


@st.composite
def instances(draw, kind):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(0, 40))
    sign = 1 if kind == GOODS else -1
    return AdditiveInstance([draw(value_rows(m, sign)) for _ in range(n)], kind=kind)


def allocations(n, m):
    owners = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return owners.map(
        lambda owner: Allocation(
            [[g for g in range(m) if owner[g] == i] for i in range(n)], m
        )
    )


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_int_rows_encode_values(kind, data):
    inst = data.draw(instances(kind))
    for i, row in enumerate(inst.values):
        scale = inst.scales[i]
        assert scale == lcm(*(v.denominator for v in row))
        assert [Fraction(x, scale) for x in inst.ints[i]] == list(row)
        mask = data.draw(st.lists(st.booleans(), min_size=inst.m, max_size=inst.m))
        bundle = [g for g in range(inst.m) if mask[g]]
        value = inst.value(i, bundle)
        assert type(value) is Fraction
        assert value == sum((row[g] for g in bundle), Fraction(0))
    # the permuted copy skips validation; the validating constructor agrees
    ordered = to_ordered(inst)
    rebuilt = AdditiveInstance(ordered.values, kind)
    assert (ordered.kind, ordered.n, ordered.m) == (rebuilt.kind, rebuilt.n, rebuilt.m)
    assert ordered.values == rebuilt.values
    assert ordered.ints == rebuilt.ints
    assert ordered.scales == rebuilt.scales


# (seed, kind, n, m, value range, largest denominator: 1 for int rows, else
# "p/q" rows); the n = 70 cases rotate cycles through agents past bit 63
SIZED = [
    (0, GOODS, 10, 200, 100, 1),
    (1, GOODS, 20, 100, 3, 1),
    (2, GOODS, 15, 150, 40, 9),
    (3, CHORES, 20, 120, 100, 1),
    (4, CHORES, 12, 180, 2, 1),
    (5, CHORES, 16, 140, 30, 7),
    (7, GOODS, 70, 100, 6, 5),
    (8, CHORES, 70, 100, 30, 1),
]


def sized_instance(seed, kind, n, m, hi, q):
    rng = random.Random(seed)
    sign = 1 if kind == GOODS else -1
    rows = []
    for _ in range(n):
        if q == 1:
            rows.append([sign * rng.randint(0, hi) for _ in range(m)])
        else:
            d = rng.randint(2, q)
            rows.append([f"{sign * rng.randint(0, hi * d)}/{d}" for _ in range(m)])
    return AdditiveInstance(rows, kind=kind)


@pytest.mark.parametrize(
    "case", SIZED, ids=[f"{kind}-n{n}-m{m}" for _, kind, n, m, _, _ in SIZED]
)
def test_allocator_matches_reference_at_size(case):
    kind, n = case[1], case[2]
    ordered = to_ordered(sized_instance(*case))
    alloc, trace = ALLOCATE[kind](ordered)
    assert (alloc, trace) == reference_allocate_ordered(ordered, PICK[kind])
    rotated = {a for step in trace.steps for cycle in step.cycles for a in cycle}
    assert rotated, "the case should exercise the cycle search"
    assert n <= 64 or max(rotated) >= 64


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_allocator_matches_reference(kind, data):
    ordered = to_ordered(data.draw(instances(kind)))
    alloc, trace = ALLOCATE[kind](ordered)
    ref_alloc, ref_trace = reference_allocate_ordered(ordered, PICK[kind])
    assert alloc == ref_alloc
    assert trace == ref_trace
    assert repr(trace) == repr(ref_trace)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_cursor_lift_matches_reference(kind, data):
    inst = data.draw(instances(kind))
    oalloc = data.draw(allocations(inst.n, inst.m))
    assert lift_allocation(inst, oalloc) == reference_lift(inst, oalloc)


@pytest.mark.parametrize("kind", KINDS)
@given(data=st.data())
def test_solver_matches_reference_pipeline(kind, data):
    inst = data.draw(instances(kind))
    ordered = to_ordered(inst)
    ref_alloc, _ = reference_allocate_ordered(ordered, PICK[kind])
    assert SOLVE[kind](inst) == reference_lift(inst, ref_alloc)

