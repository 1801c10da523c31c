"""The integer submodular kernel against its Fraction reference versions.

Drawn coverage, budget-additive, explicit and marginal valuations carry
per-valuation denominators 1-6 (and budget caps their own), so scale > 1
and every int comparison is cross-multiplied; narrow weight ranges give
ties. Values are compared on every mask of up to 7 goods, and on the
empty, the full and drawn masks of coverage and budget-additive valuations
of 8 to 70 goods; each valuation's singles are its one-good values.
Values, the lazy greedy slot solver, round robin, the threshold probe and
its bracket search must return exactly what the references in
tests/reference.py return, and the greedy must reach half of the slot
objective's brute-force optimum.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from multilinear import MarginalValuation
from reference import (
    reference_greedy_matroid_max,
    reference_matroid_max,
    reference_max_min,
    reference_mms_approx_greedy,
    reference_round_robin,
    reference_threshold_probe,
    reference_value,
)

from mmsfair import oracles
from mmsfair.oracles import (
    SlotObjective,
    greedy_matroid_max,
    mms_approx_submodular,
    mms_exact_submodular,
    threshold_probe,
)
from mmsfair.submodular.allocate import round_robin
from mmsfair.submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    WeightedCoverage,
)

FAMILIES = ("coverage", "budget", "explicit", "marginal")


def draw_weights(draw, count):
    q = draw(st.integers(1, 6))  # this valuation's denominator
    hi = draw(st.sampled_from((2, 5, 12)))  # narrow ranges give ties
    return [Fraction(draw(st.integers(0, hi)), q) for _ in range(count)]


def draw_coverage(draw, m, spare=9):
    u = m + draw(st.integers(0, spare))
    weights = draw_weights(draw, u)
    covers = [
        draw(st.lists(st.integers(0, u - 1), max_size=3, unique=True)) if u else []
        for _ in range(m)
    ]
    return WeightedCoverage(m, weights, covers)


def draw_budget(draw, m):
    weights = draw_weights(draw, m)
    cap = Fraction(draw(st.integers(0, 40)), draw(st.integers(1, 6)))
    return BudgetAdditive(weights, cap)


@st.composite
def valuations(draw, m, family=None, contract=False):
    """One valuation over m goods. A marginal valuation contracts a drawn
    base onto a drawn set H when contract is True, else onto nothing (the
    solvers query every good, and a contraction rejects goods of H)."""
    family = family or draw(st.sampled_from(FAMILIES))
    if family == "coverage":
        return draw_coverage(draw, m)
    if family == "budget":
        return draw_budget(draw, m)
    if family == "explicit":
        # a coverage table over its own denominator: submodular, with ties
        base = draw_coverage(draw, m)
        q = draw(st.integers(1, 6))
        return ExplicitTable(m, [reference_value(base, s) / q for s in range(1 << m)])
    base = draw(valuations(m, draw(st.sampled_from(FAMILIES[:3]))))
    h = draw(st.lists(st.integers(0, m - 1), unique=True)) if contract and m else []
    return MarginalValuation(base, h)


def fractions(max_den=9):
    return st.builds(Fraction, st.integers(0, 60), st.integers(1, max_den))


@given(data=st.data())
def test_value_int_is_scale_times_the_fraction_value(data):
    if not data.draw(st.booleans()):
        m = data.draw(st.integers(0, 7))
        f = data.draw(valuations(m, contract=True))
        masks = range(1 << m)
    else:
        # past one byte of goods: widths at byte and 64-bit word edges, and
        # coverage universes of up to 200 elements
        m = data.draw(st.sampled_from((8, 9, 16, 17, 63, 64, 65, 70)) | st.integers(8, 70))
        if data.draw(st.booleans()):
            f = draw_coverage(data.draw, m, spare=130)
        else:
            f = draw_budget(data.draw, m)
        full = (1 << m) - 1
        masks = [0, full, *data.draw(st.lists(st.integers(0, full), max_size=12))]
    h = getattr(f, "h_mask", 0)
    for mask in masks:
        if mask & h:
            continue
        exact = reference_value(f, mask)
        assert type(f.value_int(mask)) is int
        assert f.value_int(mask) == exact * f.scale
        assert f.value_mask(mask) == exact
        assert type(f.value_mask(mask)) is Fraction


@given(data=st.data())
def test_singles_are_the_one_good_values(data):
    """singles[g] == value_int(1 << g) for every good, on every family and
    contraction of up to 7 goods and on coverage and budget-additive
    valuations, contracted or not, of 8 to 70 goods (goods of a contracted
    set H, which queries may not name, read 0)."""
    if data.draw(st.booleans()):
        m = data.draw(st.integers(0, 7))
        f = data.draw(valuations(m, contract=True))
    else:
        m = data.draw(st.sampled_from((63, 64, 65, 70)) | st.integers(8, 70))
        f = draw_coverage(data.draw, m, spare=130) if data.draw(st.booleans()) else draw_budget(
            data.draw, m
        )
        if data.draw(st.booleans()):
            f = MarginalValuation(f, data.draw(st.lists(st.integers(0, m - 1), unique=True)))
    h = getattr(f, "h_mask", 0)
    assert len(f.singles) == m
    for g, single in enumerate(f.singles):
        assert type(single) is int
        assert single == (0 if h >> g & 1 else f.value_int(1 << g)), g


@given(data=st.data())
def test_greedy_matroid_max_matches_reference(data):
    m = data.draw(st.integers(0, 9))
    f = data.draw(valuations(m))
    goods = tuple(g for g in range(m) if data.draw(st.booleans()))
    slots = data.draw(st.integers(1, 5))
    # a cap with its own denominator, around the values it has to cut
    cap = reference_value(f, (1 << m) - 1) * data.draw(fractions(7)) / 12
    objective = SlotObjective(f, cap, slots)
    assert greedy_matroid_max(objective, goods) == reference_greedy_matroid_max(
        objective, goods
    )


@given(data=st.data())
def test_greedy_matroid_max_reaches_half_the_optimum(data):
    m = data.draw(st.integers(0, 6))
    f = data.draw(valuations(m))
    slots = data.draw(st.integers(1, 3))
    cap = reference_value(f, (1 << m) - 1) * data.draw(fractions(7)) / 12
    objective = SlotObjective(f, cap, slots)
    got = objective.evaluate(greedy_matroid_max(objective, range(m)))
    assert 2 * got >= reference_matroid_max(objective, range(m))


@given(data=st.data())
def test_round_robin_matches_reference(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 9))
    agents = [data.draw(valuations(m)) for _ in range(n)]
    # thresholds near ten times the singletons, so phase one goes both ways
    taus = [Fraction(0)] * n
    if m:
        for i, f in enumerate(agents):
            single = reference_value(f, 1 << data.draw(st.integers(0, m - 1)))
            taus[i] = 10 * single * data.draw(fractions(5)) / 20
    assert round_robin(agents, taus) == reference_round_robin(agents, taus)


@given(data=st.data())
def test_threshold_probe_matches_reference(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, 10))
    f = data.draw(valuations(m))
    total = reference_value(f, (1 << m) - 1)
    top = max((reference_value(f, 1 << g) for g in range(m)), default=Fraction(0))
    if data.draw(st.booleans()):
        tau = total * data.draw(fractions(7)) / 20
    else:
        # between nine times the top singleton, above which no good seeds a
        # bundle alone, and 9 total / 4n, above which the slots cannot reach
        # the acceptance line
        step = Fraction(data.draw(st.integers(1, 7)), 7)
        tau = 9 * top + (9 * total / (4 * n) - 9 * top) * step
    assert threshold_probe(f, n, tau) == reference_threshold_probe(f, n, tau)


@st.composite
def flat_valuations(draw, lead=st.just(1)):
    """Eight to ten goods of comparable value, so that the slots rather than
    single goods decide the threshold probe; good 0's weight is multiplied
    by a draw from lead."""
    m = draw(st.integers(8, 10))
    q = draw(st.integers(1, 6))
    weights = [Fraction(draw(st.integers(3, 4)), q) for _ in range(m)]
    weights[0] *= draw(lead)
    if draw(st.booleans()):
        return BudgetAdditive(weights, sum(weights) * Fraction(draw(st.integers(8, 10)), 10))
    covers = [[g] + draw(st.lists(st.integers(0, m - 1), max_size=1)) for g in range(m)]
    return WeightedCoverage(m, weights, covers)


@given(flat_valuations(), st.integers(1, 2), st.integers(1, 10))
def test_threshold_probe_packs_slots_like_reference(f, n, k):
    # from nine times the top singleton up past 9 total / 4n, where the
    # slots can no longer reach the acceptance line
    total = reference_value(f, (1 << f.m) - 1)
    top = max(reference_value(f, 1 << g) for g in range(f.m))
    tau = 9 * top + (9 * total / (4 * n) - 9 * top) * Fraction(k, 7)
    assert threshold_probe(f, n, tau) == reference_threshold_probe(f, n, tau)


@given(data=st.data())
def test_mms_approx_greedy_matches_reference(data):
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        f = data.draw(valuations(data.draw(st.integers(0, 7))))
    else:
        # one good worth far more than the rest: the slots reject f(all),
        # so the search doubles and bisects
        n = data.draw(st.integers(2, 4))
        f = data.draw(flat_valuations(st.integers(10, 1000)))
    result = mms_approx_submodular(f, n)
    bound, allocation = reference_mms_approx_greedy(f, n)
    assert (result.bound, result.allocation) == (bound, allocation)


@given(data=st.data())
def test_exact_oracle_on_scaled_valuations(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, 6))
    f = data.draw(valuations(m))
    value, witness = reference_max_min(n, m, lambda mask: reference_value(f, mask))
    cert = mms_exact_submodular(f, n)
    assert cert.value == value
    owner = {g: k for k, b in enumerate(cert.witness.bundles) for g in b}
    assert [owner[g] for g in range(m)] == witness


@pytest.mark.parametrize(
    "f, n",
    [
        (BudgetAdditive([Fraction(1, 2)] * 3, 5), 2),  # singletons sum to 3/2
        (WeightedCoverage(5, [Fraction(1, 3)] * 5, [[e] for e in range(5)]), 3),
    ],
)
def test_exact_oracle_stops_at_the_floored_bound(monkeypatch, f, n):
    # the greedy warm start already holds the floor of the scaled singleton
    # sum over n, so no value pass (the one call without start keys) runs:
    # only the witness checks, each from one below that floor to the floor
    passes = []
    engine = oracles._branch_and_bound

    def counted(n, items, caps, add, value, best, stop, start=None, limit=None):
        passes.append((best, stop, start is not None))
        return engine(n, items, caps, add, value, best, stop, start, limit)

    monkeypatch.setattr(oracles, "_branch_and_bound", counted)
    cert = mms_exact_submodular(f, n)
    floor = sum(f.value_int(1 << g) for g in range(f.m)) // n
    assert cert.value * f.scale == floor
    assert passes and set(passes) == {(floor - 1, floor, True)}
