"""The exact maximin oracles and their branch and bound against brute force.

Drawn additive rows (goods and chores, ties, zeros, per-row denominators)
and drawn coverage and budget-additive valuations must give the maximin
value and the lexicographically least witness that enumerating all n^m
assignments gives. The engine itself must also never try two bundles with
the same key at one node.
"""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st
from reference import reference_max_min

from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.oracles import _branch_and_bound, mms_exact_additive, mms_exact_submodular
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
def submodular_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 7))
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
    value, witness = reference_max_min(n, instance.m, row_value(instance.row(agent)))
    cert = mms_exact_additive(instance, agent, n=n)
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
    _, assign = _branch_and_bound(n, range(m), caps, add, None, int(value))
    assert assign == witness
    assert distinct_keys_per_node(records)
