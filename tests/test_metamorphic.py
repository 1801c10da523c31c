"""Metamorphic properties of the solvers at solver sizes.

The exact oracles stop near n^m = 10^8, so the floors are checked against
brute force only on tiny instances (tests/test_properties.py). A relation
between two runs needs no oracle and holds at any size. Per-agent
rescaling: multiplying agent i's row by a positive rational c_i leaves the
allocation of solve_additive and of solve_chores unchanged, because the
ordering, the envy comparisons and the lift each compare values within one
agent's row. n is 1 to 20 and m 0 to 200. Rows are drawn from a seeded
generator, so shrinking acts on n, m, the value range, the seed and the
factors; narrow ranges give ties.

The same holds for alg_sub: its thresholds start at each agent's own
total and every comparison, in round robin and in the decay loop, is
within one agent. Its agents are near-identical copies of one drawn
budget-additive or coverage valuation, n 1 to 30 and m n to 3n, so that
most runs decay their thresholds for many rounds.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mmsfair.chores import solve_chores
from mmsfair.envy_graph import solve_additive
from mmsfair.model import CHORES, GOODS, AdditiveInstance
from mmsfair.submodular.allocate import alg_sub
from mmsfair.submodular.valuations import BudgetAdditive, WeightedCoverage

SOLVERS = {GOODS: solve_additive, CHORES: solve_chores}
FACTORS = st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6))


@st.composite
def rows_and_factors(draw):
    """A kind, an n x m value matrix of that kind, and n positive factors."""
    kind = draw(st.sampled_from((GOODS, CHORES)))
    n = draw(st.integers(1, 20))
    m = draw(st.integers(0, 200))
    hi = draw(st.sampled_from((1, 3, 100, 10**6)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sign = 1 if kind == GOODS else -1
    rows = [[sign * rng.randint(0, hi) for _ in range(m)] for _ in range(n)]
    return kind, rows, draw(st.lists(FACTORS, min_size=n, max_size=n))


@given(case=rows_and_factors())
def test_rescaling_an_agent_leaves_the_allocation_unchanged(case):
    kind, rows, factors = case
    scaled = [[c * v for v in row] for c, row in zip(factors, rows)]
    solve = SOLVERS[kind]
    assert solve(AdditiveInstance(scaled, kind=kind)) == solve(AdditiveInstance(rows, kind=kind))


@st.composite
def near_identical_agents(draw):
    """A family, each agent's weights and the shared covers: one drawn base
    row, with up to two goods per agent worth one more, and n positive
    factors."""
    family = draw(st.sampled_from(("budget", "coverage")))
    n = draw(st.integers(1, 30))
    m = draw(st.integers(n, 3 * n))
    hi = draw(st.sampled_from((1, 2, 5)))
    spread = draw(st.integers(0, 2))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = [rng.randint(1, hi) for _ in range(m)]
    covers = [[g] + [rng.randrange(m)] * (rng.random() < 0.3) for g in range(m)]
    rows = []
    for _ in range(n):
        row = list(base)
        for _ in range(spread):
            row[rng.randrange(m)] += 1
        rows.append(row)
    return family, rows, covers, draw(st.lists(FACTORS, min_size=n, max_size=n))


def submodular_agent(family, row, covers, c=1):
    weights = [c * w for w in row]
    if family == "budget":
        return BudgetAdditive(weights, c * sum(row))
    return WeightedCoverage(len(row), weights, covers)


@settings(max_examples=20)
@given(case=near_identical_agents())
def test_rescaling_an_agent_leaves_alg_sub_unchanged(case):
    family, rows, covers, factors = case
    plain = [submodular_agent(family, row, covers) for row in rows]
    scaled = [submodular_agent(family, row, covers, c) for row, c in zip(rows, factors)]
    assert alg_sub(scaled)[0] == alg_sub(plain)[0]
