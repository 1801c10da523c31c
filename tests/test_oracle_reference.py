"""The exact maximin oracles and their branch and bound against brute force.

Drawn additive rows (goods and chores, ties, zeros, per-row denominators)
and drawn coverage and budget-additive valuations must give the maximin
value and the lexicographically least witness that enumerating all n^m
assignments gives, and a goods row must give the same value and witness
through both oracles, as an additive row and as a budget-additive valuation
whose cap never binds. The engine itself must also never try two bundles
with the same key at one node, in the value pass and in the search run in
index order from one below the optimum, and from any start pair and start
keys it must end where the reference engine, one call per node, ends: with
the same best and on the same leaf, whatever node limit it starts its memo
of dead states at. At sizes past brute force, the witness that the oracles
fix good by good must be the leaf where that index-order search stops,
whatever the node limit and the memo's cap in its checks.
"""

import operator
from fractions import Fraction
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_branch_and_bound, reference_max_min

from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair import oracles
from mmsfair.oracles import (
    _branch_and_bound,
    mms_exact_additive,
    mms_exact_submodular,
)
from mmsfair.submodular.valuations import BudgetAdditive, WeightedCoverage


def allocation_of(assign, n, m):
    bundles = [[] for _ in range(n)]
    for g, k in enumerate(assign):
        bundles[k].append(g)
    return Allocation(bundles, m)


def row_value(row):
    return lambda mask: sum((v for g, v in enumerate(row) if mask >> g & 1), Fraction(0))


@st.composite
def additive_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8))
    sign = draw(st.sampled_from((1, -1)))
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        q = draw(st.integers(1, 6))  # this row's denominator
        hi = draw(st.sampled_from((1, 3, 6)))  # narrow ranges give ties and zeros
        numerators = draw(st.lists(st.integers(0, hi), min_size=m, max_size=m))
        rows.append([Fraction(sign * p, q) for p in numerators])
    agent = draw(st.integers(0, len(rows) - 1))
    return AdditiveInstance(rows, kind=GOODS if sign > 0 else CHORES), agent, n


@st.composite
def submodular_cases(draw, ns=st.integers(1, 4), ms=st.integers(0, 7)):
    n = draw(ns)
    m = draw(ms)
    q = draw(st.integers(1, 4))
    if draw(st.booleans()):
        u = m + draw(st.integers(1, 3))
        weights = [Fraction(draw(st.integers(0, 9)), q) for _ in range(u)]
        covers = [
            draw(st.lists(st.integers(0, u - 1), min_size=1, max_size=3, unique=True))
            for _ in range(m)
        ]
        return WeightedCoverage(m, weights, covers), n
    weights = [Fraction(draw(st.integers(0, 9)), q) for _ in range(m)]
    cap = draw(st.integers(0, 9 * m))
    return BudgetAdditive(weights, cap), n


# greedy splits 3,3,2,2,2 into 5 + 7 while 6 + 6 exists: the value pass has
# to search on to the total over n
@given(additive_cases())
@example((AdditiveInstance([[3, 3, 2, 2, 2]]), 0, 2))
def test_additive_oracle_matches_brute_force(case):
    instance, agent, n = case
    value, witness = reference_max_min(n, instance.m, row_value(instance.values[agent]))
    row = instance.values[agent]
    cert = mms_exact_additive(AdditiveInstance([row] * n, kind=instance.kind), 0)
    assert cert.value == value
    assert cert.witness == allocation_of(witness, n, instance.m)


@given(submodular_cases())
@example((BudgetAdditive([3, 3, 2, 2, 2], 12), 2))
def test_submodular_oracle_matches_brute_force(case):
    f, n = case
    value, witness = reference_max_min(n, f.m, f.value_mask)
    cert = mms_exact_submodular(f, n)
    assert cert.value == value
    assert cert.witness == allocation_of(witness, n, f.m)


@given(
    st.integers(1, 4),
    st.integers(1, 6).flatmap(
        lambda q: st.lists(st.integers(0, 9).map(lambda p: Fraction(p, q)), max_size=9)
    ),
)
def test_additive_and_submodular_routes_agree(n, row):
    # one engine, two routes: an int load per bundle, or a bitmask valued by
    # a budget-additive valuation whose cap never binds
    additive = mms_exact_additive(AdditiveInstance([row] * n), 0)
    submodular = mms_exact_submodular(BudgetAdditive(row, sum(row)), n)
    assert (additive.value, additive.witness) == (submodular.value, submodular.witness)


def distinct_keys_per_node(records):
    """True iff no node tried two bundles with the same key.

    records holds (t, key) per child, in call order: item t went into a
    bundle whose key was key. Consecutive depth-t records belong to one node
    until a shallower record opens another path.
    """
    tried = {}
    for t, key in records:
        for d in [d for d in tried if d > t]:
            del tried[d]
        seen = tried.setdefault(t, set())
        if key in seen:
            return False
        seen.add(key)
    return True


@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 6), max_size=8),
    st.sampled_from((1, -1)),
)
def test_engine_passes_against_brute_force(n, numerators, sign):
    # items are good indices in index order, so a record's item is its depth
    w = [sign * p for p in numerators]
    m = len(w)
    value, witness = reference_max_min(n, m, row_value(w))
    records = []

    def add(key, g):
        records.append((g, key))
        return key + w[g]

    caps = [max(0, x) for x in w]
    start = sum(w) if n == 1 else min(sum(w), 0)  # every good in bundle 0
    if start < sum(w) // n:
        best, _ = _branch_and_bound(n, range(m), caps, add, None, start, sum(w) // n)
        assert best == value
        assert distinct_keys_per_node(records)
    else:
        assert start == value
    records.clear()
    _, assign = _branch_and_bound(n, range(m), caps, add, None, int(value) - 1, int(value))
    assert assign == witness
    assert distinct_keys_per_node(records)


@st.composite
def engine_calls(draw):
    """The arguments of one engine call: an additive row's ints, in half the
    calls with mixed signs, which no oracle passes but the engine allows, or
    a submodular valuation's masks, as items in a drawn order, a start pair
    (best, stop) at, around or far from the optimum, and, in half the calls,
    start keys: the loads or masks of bundles that already hold the first
    items of the order, which the call then leaves out. A best far above the
    optimum leaves the root pruned outright, and a stop above a low best has
    the incumbent rise several times, as in the value pass."""
    if draw(st.booleans()):
        instance, agent, n = draw(additive_cases())
        row = instance.ints[agent]
        if draw(st.booleans()):
            row = [x * draw(st.sampled_from((1, -1))) for x in row]
        items, caps, add, value = row, [max(0, x) for x in row], operator.add, None
        floor = sum(x for x in row if x < 0) - 1  # below every bundle's load
    else:
        f, n = draw(submodular_cases())
        items = [1 << g for g in range(f.m)]
        caps = [max(0, f.value_int(mask)) for mask in items]
        add, value, floor = operator.or_, f.value_int, -1
    order = draw(st.permutations(range(len(items))))
    items, caps = [items[g] for g in order], [caps[g] for g in order]
    start = None
    if draw(st.booleans()):
        placed = draw(st.integers(0, len(items)))
        start = [0] * n
        for item in items[:placed]:
            k = draw(st.integers(0, n - 1))
            start[k] = add(start[k], item)
        items, caps = items[placed:], caps[placed:]
    vals = [0] if start is None else start if value is None else list(map(value, start))
    # no bundle can end above max(vals) + sum(caps), so opt + 2 <= top, and a
    # best of top leaves a deficit past every headroom: a pruned root
    top = max(vals) + sum(caps) + 2
    opt, _ = reference_branch_and_bound(n, items, caps, add, value, floor, top, start)
    near = st.integers(-3, 2).map(opt.__add__)
    best = draw(st.one_of(near, st.integers(floor, top)))
    stop = draw(st.one_of(near, st.integers(best, top), st.integers(floor, top)))
    return n, items, caps, add, value, best, stop, start


# the same search, not just the same optimum: from any start pair and any
# start keys the engine must end where the one-call-per-node reference
# ends, on the same leaf, whether that leaf was the optimum, an early stop
# or none at all; the examples take the engine's default, empty bundles
@given(engine_calls())
@example((2, [3, 3, 2, 2, 2], [3, 3, 2, 2, 2], operator.add, None, 4, 6))  # the value pass
@example((2, [0, 0, 1, 1, 2], [0, 0, 1, 1, 2], operator.add, None, 0, 3))  # best rises twice
@example((3, [], [], operator.add, None, -1, 0))  # m = 0: the root is the leaf
@example((2, [3, 1], [3, 1], operator.add, None, 2, 3))  # the root is pruned
def test_engine_matches_the_per_node_reference(call):
    assert _branch_and_bound(*call) == reference_branch_and_bound(*call)


# past its limit the search memoizes the states it enters, which must change
# neither best nor the leaf that it returns; a limit the search does not
# reach leaves it as it was
@given(engine_calls(), st.integers(0, 40))
# 1 and -1 in one bundle leave the loads of a state two levels up, with
# other items left to place: a state is its depth and its keys
@example((3, [-2, -1, -1, 1, 0], [0, 0, 0, 1, 0], operator.add, None, -3, -1, None), 3)
def test_a_node_limit_never_changes_the_result(call, limit):
    assert _branch_and_bound(*call, limit) == _branch_and_bound(*call)


# a memo dropped at its first state is never read, so the search takes every
# step that it takes with no limit; the example's 0 leaves the same loads in
# two bundles, so a memo kept past its cap would skip the second
@given(engine_calls(), st.integers(0, 8))
@example((3, [1, 0, 2], [1, 0, 2], operator.add, None, -1, 1, None), 0)
def test_a_dropped_memo_changes_no_step(call, limit):
    n, items, caps, add, value, best, stop, start = call

    def steps(limit):
        taken = []

        def step(key, item):
            taken.append((key, item))
            return add(key, item)

        _branch_and_bound(n, items, caps, step, value, best, stop, start, limit)
        return taken

    with mock.patch.object(oracles, "_DEAD_STATES", 1):
        assert steps(limit) == steps(None)


@st.composite
def witness_cases(draw):
    """An agent past brute-force sizes and its bundle count: an additive
    goods or chores row as an instance of n equal rows (n 2-5, m 0-12;
    values in 0-1 or 0-3, heavy with ties and zeros, or in 0-10^6), or a
    coverage or budget-additive valuation (n 2-4, m 0-10). Half the sizes
    are drawn from the top of the range, past what brute force enumerates."""
    if draw(st.booleans()):
        n, m = draw(st.integers(2, 5)), draw(st.one_of(st.integers(0, 12), st.integers(9, 12)))
        sign = draw(st.sampled_from((1, -1)))
        hi = draw(st.sampled_from((1, 3, 10**6)))
        row = [sign * p for p in draw(st.lists(st.integers(0, hi), min_size=m, max_size=m))]
        return AdditiveInstance([row] * n, kind=GOODS if sign > 0 else CHORES), n
    return draw(submodular_cases(st.integers(2, 4), st.one_of(st.integers(0, 10), st.integers(8, 10))))


# the witness is fixed good by good, each check searching the unplaced goods
# by descending size and memoizing its dead states past its node limit; it
# must still be the leaf where the engine, run on the goods in index order
# from one below the share to the share, stops. A limit of 1 or 8 makes
# checks memoize on many draws, and a cap of 1 or 8 states drops the memo
@settings(max_examples=200)
@given(
    witness_cases(),
    st.sampled_from((1, 8, oracles._WITNESS_NODE_LIMIT)),
    st.sampled_from((1, 8, oracles._DEAD_STATES)),
)
def test_witness_is_the_index_order_leaf(case, limit, cap):
    source, n = case
    with (
        mock.patch.object(oracles, "_WITNESS_NODE_LIMIT", limit),
        mock.patch.object(oracles, "_DEAD_STATES", cap),
    ):
        if isinstance(source, AdditiveInstance):
            cert = mms_exact_additive(source, 0, budget=5**12)
        else:
            cert = mms_exact_submodular(source, n)
    if isinstance(source, AdditiveInstance):
        items, scale, add, value = source.ints[0], source.scales[0], operator.add, None
    else:
        items, scale = [1 << g for g in range(source.m)], source.scale
        add, value = operator.or_, source.value_int
    caps = [max(0, x if value is None else value(x)) for x in items]
    mu = cert.value * scale
    _, assign = _branch_and_bound(n, items, caps, add, value, mu - 1, mu)
    assert cert.witness == allocation_of(assign, n, len(items))
