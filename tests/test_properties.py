"""Property tests, with shrinking, of every solver floor, the exact oracles
and the file format.

Each solver's per-agent floor is checked against reference_max_min, the
maximin share by brute force over all n^m assignments, not against the
branch and bound of the exact oracles: n is 1 to 3 and m at most 6. The
exact oracles' value-only mode must give the full certificate's value and
the brute-force one, and the full certificate's witness, from the same
search run in index order from one below the optimum, must be the
lexicographically least optimal assignment. The greedy-start bound that the
audit reports past the oracle's budget never exceeds the brute-force share,
and is positive exactly when the share is; the caps built from the mean and
from the n - 1 largest goods never fall below it, for additive goods and
chores and monotone submodular agents, and at solver sizes (n up to 20, m
up to 200 additive; n up to 8, m up to 60 coverage and budget-additive)
that bound stays below those caps; and past the budget the audit calls
a share exact only when it is, on tables with negative entries too. And
parse_instance(serialize_instance(x)) gives back x for drawn instances of
every kind: additive goods and chores, coverage, budget-additive and
explicit tables; a submodular valuation built from ints, "p/q" strings and
Fractions keeps its scale, scaled ints and value_int answers through the
round trip. alg_sub, on any table that ExplicitTable accepts, monotone
or not, allocates or raises InvalidInstanceError, and on monotone tables it
allocates.
"""

import operator
from fractions import Fraction
from functools import partial

from hypothesis import example, given
from hypothesis import strategies as st
from reference import reference_max_min, reference_value

from mmsfair.chores import solve_chores
from mmsfair.errors import InvalidInstanceError
from mmsfair.envy_graph import solve_additive
from mmsfair.io import (
    MU_CERTIFIED,
    MU_EXACT,
    _mms_submodular,
    parse_instance,
    serialize_instance,
)
from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.oracles import (
    _greedy_start,
    mms_exact_additive,
    mms_exact_submodular,
    mms_greedy_submodular,
)
from mmsfair.submodular.allocate import alg_sub
from mmsfair.submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    WeightedCoverage,
    detect_positive_mms,
)


def row_max_min(instance, agent, n):
    """The brute-force maximin value of one additive row and its
    lexicographically least optimal assignment."""
    row = instance.values[agent]

    def value(mask):
        return sum((v for g, v in enumerate(row) if mask >> g & 1), Fraction(0))

    return reference_max_min(n, instance.m, value)


def row_mu(instance, agent, n):
    return row_max_min(instance, agent, n)[0]


def valuation_max_min(f, n):
    return reference_max_min(n, f.m, lambda mask: reference_value(f, mask))


def valuation_mu(f, n):
    return valuation_max_min(f, n)[0]


def additive_cap(w, n, kind):
    """A cap on the share of the int row w: the mean, floored, and for goods
    the total without the n - 1 largest goods (some bundle misses them all),
    for chores the worst chore (its bundle is no better)."""
    if kind == GOODS:
        cap = sum(w) - sum(sorted(w, reverse=True)[: n - 1])
    else:
        cap = min(w, default=0)
    return min(sum(w) // n, cap)


def submodular_cap(f, n):
    """A cap on scale * mu for monotone f: f(all), the singletons' mean,
    floored, and f of all but the n - 1 largest singletons (some bundle
    misses them all, so it is worth at most f of the rest)."""
    singles = [f.value_int(1 << g) for g in range(f.m)]
    rest = (1 << f.m) - 1
    for g in sorted(range(f.m), key=lambda g: -singles[g])[: n - 1]:
        rest ^= 1 << g
    return min(f.value_int((1 << f.m) - 1), sum(singles) // n, f.value_int(rest))


def allocation_of(assign, n, m):
    bundles = [[] for _ in range(n)]
    for g, k in enumerate(assign):
        bundles[k].append(g)
    return Allocation(bundles, m)


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


@st.composite
def accepted_tables(draw, m):
    """Any int table over -3..8 that ExplicitTable accepts, monotone or not:
    entry by entry, f(S) for |S| >= 2 is drawn at most f(S - g) + max(0,
    f({g})) for every g in S, the constructor's one check. Half the draws
    also keep f(S) at least every f(S - g), so they are monotone."""
    monotone = draw(st.booleans())
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        below = [mask ^ (1 << g) for g in range(m) if mask >> g & 1]
        lo = max(table[s] for s in below) if monotone else -3
        hi = 8 if below == [0] else min(table[s] + max(0, table[mask ^ s]) for s in below)
        table[mask] = draw(st.integers(lo, min(8, hi)))
    return table


def is_monotone(table, m):
    return all(table[s] <= table[s | 1 << g] for s in range(1 << m) for g in range(m))


@given(st.data())
def test_alg_sub_on_any_accepted_table(data):
    """alg_sub allocates or raises InvalidInstanceError on any table the
    constructor accepts, and never raises on monotone ones."""
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 5))
    tables = [data.draw(accepted_tables(m)) for _ in range(n)]
    try:
        allocation, _ = alg_sub([ExplicitTable(m, t) for t in tables])
    except InvalidInstanceError:
        assert not all(is_monotone(t, m) for t in tables)
    else:
        assert allocation.is_complete()


@given(st.one_of(additive_instances(GOODS), additive_instances(CHORES)), st.data())
def test_additive_oracle_value_only_and_witness(instance, data):
    agent = data.draw(st.integers(0, instance.n - 1))
    n = instance.n
    mu, assign = row_max_min(instance, agent, n)
    cert = mms_exact_additive(instance, agent)
    value_only = mms_exact_additive(instance, agent, witness=False)
    assert value_only.value == cert.value == mu
    assert value_only.witness is None
    assert cert.witness == allocation_of(assign, n, instance.m)


@given(
    st.integers(1, 3),
    st.integers(0, 6).flatmap(lambda m: st.one_of(coverage(m), budget_additive(m))),
)
def test_submodular_oracle_value_only_and_witness(n, f):
    mu, assign = valuation_max_min(f, n)
    cert = mms_exact_submodular(f, n)
    value_only = mms_exact_submodular(f, n, witness=False)
    assert value_only.value == cert.value == mu
    assert value_only.witness is None
    assert cert.witness == allocation_of(assign, n, f.m)


@given(
    st.integers(1, 3),
    st.integers(0, 6).flatmap(lambda m: st.one_of(coverage(m), budget_additive(m))),
)
def test_greedy_bound_never_exceeds_share(n, f):
    bound = mms_greedy_submodular(f, n)
    mu = valuation_mu(f, n)
    assert 0 <= bound <= mu
    assert (bound > 0) == detect_positive_mms(f, n)
    assert mu <= Fraction(submodular_cap(f, n), f.scale)


@given(st.one_of(additive_instances(GOODS), additive_instances(CHORES)))
def test_additive_bounds_bracket_the_share(instance):
    """The greedy start's poorest bundle <= mu <= additive_cap."""
    n = instance.n
    for i, w in enumerate(instance.ints):
        _, _, greedy = _greedy_start(n, w, [abs(x) for x in w], operator.add, None)
        mu = row_mu(instance, i, n) * instance.scales[i]
        assert greedy <= mu <= additive_cap(w, n, instance.kind)


@given(
    st.sampled_from((GOODS, CHORES)),
    st.integers(2, 20),
    st.integers(0, 200),
    st.randoms(use_true_random=True),
)
def test_additive_greedy_bound_below_the_caps_at_solver_sizes(kind, n, m, rng):
    """LB <= cap where no brute force reaches: the greedy start's poorest
    bundle never exceeds additive_cap, on int rows whose value ranges give
    ties, zeros and 40-bit values."""
    sign = 1 if kind == GOODS else -1
    for _ in range(n):
        hi = rng.choice((1, 4, 20, 10**12))
        w = [sign * rng.randint(0, hi) for _ in range(m)]
        _, _, greedy = _greedy_start(n, w, [abs(x) for x in w], operator.add, None)
        assert greedy <= additive_cap(w, n, kind)


@given(st.integers(2, 8), st.integers(0, 60), st.booleans(), st.randoms(use_true_random=True))
def test_submodular_greedy_bound_below_the_caps_at_solver_sizes(n, m, cover, rng):
    """LB <= cap for coverage and budget-additive agents where no brute force
    reaches: mms_greedy_submodular never exceeds submodular_cap."""
    q = rng.randint(1, 6)
    if cover:
        u = m + rng.randint(0, 20)
        weights = [Fraction(rng.randint(0, 9), q) for _ in range(u)]
        covers = [rng.sample(range(u), rng.randint(0, min(u, 5))) for _ in range(m)]
        f = WeightedCoverage(m, weights, covers)
    else:
        weights = [Fraction(rng.randint(0, 9), q) for _ in range(m)]
        f = BudgetAdditive(weights, Fraction(rng.randint(0, 9 * m), rng.randint(1, 6)))
    assert mms_greedy_submodular(f, n) * f.scale <= submodular_cap(f, n)


@given(
    st.integers(2, 3),
    st.integers(0, 5).flatmap(
        lambda m: st.one_of(
            coverage(m), budget_additive(m), accepted_tables(m).map(partial(ExplicitTable, m))
        )
    ),
)
@example(2, ExplicitTable(2, [0, -1, -1, -2]))  # no good is positive, yet mu is -1
def test_audit_share_past_the_budget(n, f):
    """Past the exact oracle's budget, the audit's share is exact only where
    it is the share, and otherwise a lower bound, on tables with negative
    entries too."""
    mu, source = _mms_submodular(f, n, budget=1)
    exact = mms_exact_submodular(f, n, witness=False).value
    if source == MU_EXACT:
        assert mu == exact
    else:
        assert (source, mu <= exact) == (MU_CERTIFIED, True)


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


@st.composite
def spelled_valuations(draw, m):
    """A valuation whose data arrives as ints, "p/q" strings and Fractions
    mixed (one denominator q, each entry spelt one of the ways it allows)."""
    q = draw(st.integers(1, 4))

    def spell(p):
        forms = [Fraction(p, q), f"{p}/{q}"] + ([p // q] if p % q == 0 else [])
        return draw(st.sampled_from(forms))

    def numerators(count, hi=9):
        return draw(st.lists(st.integers(0, hi), min_size=count, max_size=count))

    family = draw(st.sampled_from(("explicit", "coverage", "budget-additive")))
    if family == "coverage":
        u = m + draw(st.integers(1, 3))
        covers = [
            draw(st.lists(st.integers(0, u - 1), min_size=1, max_size=3, unique=True))
            for _ in range(m)
        ]
        return WeightedCoverage(m, list(map(spell, numerators(u))), covers)
    if family == "budget-additive":
        return BudgetAdditive(list(map(spell, numerators(m))), spell(*numerators(1, 9 * m)))
    table = [0]
    for w in numerators(m):  # an additive table, admissible by construction
        table += [t + w for t in table]
    return ExplicitTable(m, list(map(spell, table)))


def int_data(f):
    """A valuation's scaled-int data, beside its scale."""
    if isinstance(f, ExplicitTable):
        return f.ints
    if isinstance(f, WeightedCoverage):
        return f.ints, f.covers
    return f.ints, f.cap_int


@given(
    st.integers(1, 5).flatmap(lambda m: st.lists(spelled_valuations(m), min_size=1, max_size=3)),
    st.data(),
)
def test_submodular_files_keep_scaled_ints(valuations, data):
    parsed = parse_instance(serialize_instance(valuations))
    m = valuations[0].m
    masks = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=8))
    for f, g in zip(valuations, parsed, strict=True):
        assert type(g) is type(f)
        assert (g.scale, int_data(g)) == (f.scale, int_data(f))
        assert [g.value_int(mask) for mask in masks] == [f.value_int(mask) for mask in masks]
