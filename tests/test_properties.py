"""Property tests, with shrinking, of every solver floor and of the file format.

Each solver's per-agent floor is checked against reference_max_min, the
maximin share by brute force over all n^m assignments, not against the
branch and bound of the exact oracles: n is 1 to 3 and m at most 6. And
parse_instance(serialize_instance(x)) gives back x for drawn instances of
every kind: additive goods and chores, coverage, budget-additive and
explicit tables.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from reference import reference_max_min, reference_value

from mmsfair.chores import solve_chores
from mmsfair.envy_graph import solve_additive
from mmsfair.io import parse_instance, serialize_instance
from mmsfair.model import CHORES, GOODS, AdditiveInstance
from mmsfair.submodular.allocate import alg_sub
from mmsfair.submodular.valuations import BudgetAdditive, ExplicitTable, WeightedCoverage


def row_mu(instance, agent, n):
    row = instance.row(agent)

    def value(mask):
        return sum((v for g, v in enumerate(row) if mask >> g & 1), Fraction(0))

    return reference_max_min(n, instance.m, value)[0]


def valuation_mu(f, n):
    return reference_max_min(n, f.m, lambda mask: reference_value(f, mask))[0]


@st.composite
def additive_instances(draw, kind, max_m=6):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, max_m))
    sign = 1 if kind == GOODS else -1
    rows = []
    for _ in range(n):
        q = draw(st.integers(1, 6))  # this row's denominator
        hi = draw(st.sampled_from((1, 4, 20)))  # narrow ranges give ties and zeros
        numerators = draw(st.lists(st.integers(0, hi), min_size=m, max_size=m))
        rows.append([Fraction(sign * p, q) for p in numerators])
    return AdditiveInstance(rows, kind=kind)


@st.composite
def coverage(draw, m):
    u = m + draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    weights = [Fraction(draw(st.integers(0, 9)), q) for _ in range(u)]
    covers = [
        draw(st.lists(st.integers(0, u - 1), min_size=1, max_size=3, unique=True))
        for _ in range(m)
    ]
    return WeightedCoverage(m, weights, covers)


@st.composite
def budget_additive(draw, m):
    q = draw(st.integers(1, 4))
    weights = [Fraction(draw(st.integers(0, 9)), q) for _ in range(m)]
    return BudgetAdditive(weights, Fraction(draw(st.integers(0, 9 * m)), q))


@st.composite
def explicit(draw, m):
    """The full table of a drawn coverage or budget-additive valuation."""
    f = draw(st.one_of(coverage(m), budget_additive(m)))
    return ExplicitTable(m, [f.value_mask(mask) for mask in range(1 << m)])


@st.composite
def submodular_instances(draw, families, max_m=6):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, max_m))
    return [draw(st.one_of(*(family(m) for family in families))) for _ in range(n)]


@given(additive_instances(GOODS))
def test_goods_floor_against_brute_force(instance):
    n = instance.n
    allocation = solve_additive(instance)
    for i in range(n):
        value = instance.value(i, allocation.bundles[i])
        assert value * (3 * n - 1) >= 2 * n * row_mu(instance, i, n)


@given(additive_instances(CHORES))
def test_chores_floor_against_brute_force(instance):
    n = instance.n
    allocation = solve_chores(instance)
    for i in range(n):
        value = instance.value(i, allocation.bundles[i])
        assert value * 3 * n >= (4 * n - 1) * row_mu(instance, i, n)


@given(
    submodular_instances((coverage, budget_additive)),
    st.sampled_from((Fraction(1, 20), Fraction(1, 2), Fraction(2))),
)
def test_alg_sub_floor_against_brute_force(valuations, delta):
    n = len(valuations)
    allocation, _ = alg_sub(valuations, delta=delta)
    for i, f in enumerate(valuations):
        value = f.evaluate(allocation.bundles[i])
        assert value * 10 * (1 + delta) >= valuation_mu(f, n)


def public_data(f):
    """A valuation's family and the data its file entry carries."""
    if isinstance(f, ExplicitTable):
        return "explicit", f.m, f.table
    if isinstance(f, WeightedCoverage):
        return "coverage", f.m, f.weights, f.covers
    return "budget-additive", f.m, f.weights, f.cap


@given(st.one_of(additive_instances(GOODS), additive_instances(CHORES)))
def test_additive_files_round_trip(instance):
    parsed = parse_instance(serialize_instance(instance))
    assert parsed == instance


@given(submodular_instances((coverage, budget_additive, explicit), max_m=5))
def test_submodular_files_round_trip(valuations):
    parsed = parse_instance(serialize_instance(valuations))
    assert list(map(public_data, parsed)) == list(map(public_data, valuations))
