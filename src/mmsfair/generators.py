"""Seeded instance generators and hand-built fixture instances.

All randomness flows through random.Random(seed), the stdlib Mersenne
Twister, so a (kind, n, m, value range, seed) tuple reproduces the same
instance on any platform. Submodular families draw structure (covers,
weights, caps) rather than raw set values, which keeps every generated
valuation submodular by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInstanceError
from .model import CHORES, GOODS, AdditiveInstance, Allocation
from .submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    SubmodularValuation,
    WeightedCoverage,
)

ADDITIVE_KINDS = ("uniform-additive", "ordered-additive", "chores")
SUBMODULAR_KINDS = ("coverage", "budget-additive", "explicit")


# The integer value range (lo, hi) each kind draws from when none is given
DEFAULT_RANGES = dict.fromkeys(ADDITIVE_KINDS + SUBMODULAR_KINDS, (0, 100)) | {"chores": (-100, 0)}


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: family, shape, int value range (None: the kind's default), seed."""

    kind: str
    n: int
    m: int
    lo: int | None = None
    hi: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ADDITIVE_KINDS + SUBMODULAR_KINDS:
            raise InvalidInstanceError(f"unknown generator kind {self.kind!r}")
        lo, hi = DEFAULT_RANGES[self.kind]
        object.__setattr__(self, "lo", lo if self.lo is None else self.lo)
        object.__setattr__(self, "hi", hi if self.hi is None else self.hi)
        if self.n < 1 or self.m < 0:
            raise InvalidInstanceError("need n >= 1 and m >= 0")
        if self.lo > self.hi:
            raise InvalidInstanceError("empty value range")
        if self.kind == "chores":
            if self.hi > 0:
                raise InvalidInstanceError("chores values must be <= 0")
        elif self.lo < 0:
            raise InvalidInstanceError(f"{self.kind} values must be >= 0")
        elif self.kind in SUBMODULAR_KINDS and self.hi < 1:
            raise InvalidInstanceError(f"{self.kind} weights need hi >= 1")


def generate(spec: GeneratorSpec):
    """Build the instance described by spec.

    Additive kinds return an AdditiveInstance; submodular kinds return a list
    of n SubmodularValuation objects over a shared ground set.
    """
    rng = random.Random(spec.seed)
    if spec.kind in ADDITIVE_KINDS:
        rows = [
            [rng.randint(spec.lo, spec.hi) for _ in range(spec.m)]
            for _ in range(spec.n)
        ]
        if spec.kind == "ordered-additive":
            for row in rows:
                row.sort(reverse=True)
        kind = CHORES if spec.kind == "chores" else GOODS
        return AdditiveInstance(rows, kind=kind)
    return [_submodular_agent(spec, rng) for _ in range(spec.n)]


def _submodular_agent(spec: GeneratorSpec, rng: random.Random) -> SubmodularValuation:
    lo = max(1, spec.lo)  # zero weights would break positivity preconditions
    if spec.kind == "budget-additive":
        weights = [rng.randint(lo, spec.hi) for _ in range(spec.m)]
        total = sum(weights)
        cap = rng.randint(max(1, total // 3), max(1, (2 * total) // 3))
        return BudgetAdditive(weights, cap)
    # coverage structure, returned either as-is or tabulated into an explicit table
    universe = spec.m + rng.randint(1, 3)
    weights = [rng.randint(lo, spec.hi) for _ in range(universe)]
    covers = []
    for _ in range(spec.m):
        size = rng.randint(1, min(3, universe))
        covers.append(sorted(rng.sample(range(universe), size)))
    coverage = WeightedCoverage(spec.m, weights, covers)
    if spec.kind == "coverage":
        return coverage
    if spec.m > 16:
        raise InvalidInstanceError("explicit tables are limited to m <= 16")
    table = [coverage.value_mask(mask) for mask in range(1 << spec.m)]
    return ExplicitTable(spec.m, table)


def fixture_ef1_not_mms(n: int) -> tuple[AdditiveInstance, Allocation]:
    """Identical-valuation instance where an EF1 allocation is far from fair.

    2n-1 goods: n goods worth 1, then n-1 goods worth n, every agent alike.
    The allocation gives agent 0 a single 1-good and pairs each other agent
    with a 1-good and an n-good. It is envy-free up to one good, yet agent 0
    gets value 1 against a maximin share of n: exactly the 1/n ratio that
    envy-based fairness cannot rule out.
    """
    if n < 2:
        raise InvalidInstanceError("needs at least two agents")
    row = [1] * n + [n] * (n - 1)
    instance = AdditiveInstance([row] * n, kind=GOODS)
    bundles = [[0]] + [[k, n + k - 1] for k in range(1, n)]
    return instance, Allocation(bundles, 2 * n - 1)


def fixture_submodular_gap() -> list[ExplicitTable]:
    """Two agents over four goods with maximin shares of 2 each, but no
    allocation giving both more than 3/4 of that.

    Goods 0,1 are one matched pair for agent 0 (and 2,3 the other); agent 1's
    matched pairs are 0,2 and 1,3. A pair completes to value 2 when matched,
    3/2 otherwise; singletons are worth 1, triples 5/2, everything 3. Each
    agent's own matched split witnesses mu = 2, but the two agents disagree
    on which split that is, and the best simultaneous outcome is 3/2 = (3/4) * 2.

    The tables are monotone and subadditive but narrowly miss submodularity:
    adding good 1 to {3} gains 1/2, while adding it to the superset {0,3}
    gains 1. Nothing the gap demonstration computes (maximin shares, the
    exhaustive scan) relies on submodularity.
    """
    half = Fraction(3, 2)
    tables = []
    for pairs in ([{0, 1}, {2, 3}], [{0, 2}, {1, 3}]):
        table = []
        for mask in range(16):
            size = bin(mask).count("1")
            if size == 0:
                table.append(Fraction(0))
            elif size == 1:
                table.append(Fraction(1))
            elif size == 2:
                goods = {g for g in range(4) if mask >> g & 1}
                table.append(Fraction(2) if goods in pairs else half)
            elif size == 3:
                table.append(Fraction(5, 2))
            else:
                table.append(Fraction(3))
        tables.append(ExplicitTable(4, table))
    return tables
