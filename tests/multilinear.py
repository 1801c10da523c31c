"""Multilinear extension of a set function, exact and by Monte Carlo.

The paper proves the 1/10 bound of the round robin through multilinear
extensions; the algorithm never computes one. These are the proof's
analysis tools, kept with the tests that check its inequalities on
concrete valuations.

For a fractional point x in [0,1]^m, F(x) is the expected value of f on the
random bundle that contains each good g independently with probability x_g.
Exact evaluation enumerates the subsets of the fractional support (goods with
0 < x_g < 1; goods at 1 are forced in, goods at 0 are dropped), so it costs
2^support oracle calls and is for desk-scale support sizes.

The expected ordered marginal gamma_j(H, J, x) is the expected gain of good j
on top of H joined with the random lower-indexed part of J: with R drawn as
above, gamma_j = E[f(H + (R cap {j' in J : j' < j}) + j) - f(H + ...)]. These
quantities tie fractional values to integral ones: for x supported inside J,
F_H(x) equals the sum over j in J of gamma_j * x_j, shrinking J never lowers
a marginal, and at the uniform point x = (1/n, ..., 1/n) every agent's
fractional value is at least (1 - 1/e) of its maximin share.

The contraction f_H (MarginalValuation) is the valuation those inequalities
are stated for: what goods add on top of a fixed set H.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Iterator, Sequence

from mmsfair.errors import BudgetExceededError, InvalidInstanceError
from mmsfair.model import Value, ValueLike, as_value
from mmsfair.oracles import ONE_MINUS_INV_E_UPPER
from mmsfair.submodular.valuations import SubmodularValuation, mask_of

_SUPPORT_BUDGET = 20


class MarginalValuation(SubmodularValuation):
    """The contraction f_H(S) = f(H + S) - f(H) of a valuation onto [m] \\ H.

    Shares the base oracle's ground-set indexing: goods in H must not appear
    in queried bundles. Contractions of submodular functions stay normalized,
    non-negative, monotone and submodular.
    """

    __slots__ = ("base", "h_mask")

    def __init__(self, base: SubmodularValuation, h: Iterable[int]):
        super().__init__(base.m, base.scale)
        self.base = base
        self.h_mask = mask_of(h, base.m)

    def _value_int_raw(self, mask: int) -> int:
        if mask & self.h_mask:
            raise InvalidInstanceError("bundle overlaps the contracted set")
        return self.base.value_int(mask | self.h_mask) - self.base.value_int(self.h_mask)


class FractionalAllocation:
    """A point x in [0,1]^m with exact rational coordinates."""

    __slots__ = ("x",)

    def __init__(self, x: Sequence[ValueLike]):
        vals = tuple(as_value(v) for v in x)
        if any(v < 0 or v > 1 for v in vals):
            raise InvalidInstanceError("coordinates must lie in [0,1]")
        self.x = vals

    @property
    def m(self) -> int:
        return len(self.x)

    def support(self) -> frozenset[int]:
        return frozenset(g for g, v in enumerate(self.x) if v != 0)

    def project(self, goods: Iterable[int]) -> "FractionalAllocation":
        """Zero out every coordinate outside the given set."""
        keep = set(goods)
        if any(not 0 <= g < self.m for g in keep):
            raise InvalidInstanceError("projection set addresses goods out of range")
        return FractionalAllocation(
            [v if g in keep else Fraction(0) for g, v in enumerate(self.x)]
        )

    @classmethod
    def uniform(cls, n: int, m: int) -> "FractionalAllocation":
        return cls([Fraction(1, n)] * m)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FractionalAllocation) and self.x == other.x

    def __repr__(self) -> str:
        return f"FractionalAllocation({[str(v) for v in self.x]})"


def _split_point(
    f: SubmodularValuation, x: FractionalAllocation, goods: Iterable[int]
) -> tuple[int, list[int]]:
    """The mask of the goods at 1 (forced in) and the list of fractional ones."""
    if x.m != f.m:
        raise InvalidInstanceError("point dimension does not match the ground set")
    ones = 0
    frac = []
    for g in goods:
        v = x.x[g]
        if v == 1:
            ones |= 1 << g
        elif v != 0:
            frac.append(g)
    return ones, frac


def _outcomes(
    f: SubmodularValuation, x: FractionalAllocation, goods: Iterable[int], base: int, what: str
) -> Iterator[tuple[Value, int]]:
    """Each outcome of the random bundle over goods, joined to base, with its
    probability: goods at 1 always in, at 0 never, the rest independently.

    Enumerates the 2^k subsets of the k fractional goods; k beyond the
    support budget raises BudgetExceededError, named what, on the first step.
    """
    ones, frac = _split_point(f, x, goods)
    k = len(frac)
    if k > _SUPPORT_BUDGET:
        raise BudgetExceededError(what, 1 << k, 1 << _SUPPORT_BUDGET)
    for sub in range(1 << k):
        weight = Fraction(1)
        mask = base | ones
        for t in range(k):
            p = x.x[frac[t]]
            if sub >> t & 1:
                weight *= p
                mask |= 1 << frac[t]
            else:
                weight *= 1 - p
        yield weight, mask


def multilinear_exact(f: SubmodularValuation, x: FractionalAllocation) -> Value:
    """Exact F(x) by enumerating subsets of the fractional support."""
    total = Fraction(0)
    for weight, mask in _outcomes(f, x, range(f.m), 0, "multilinear enumeration"):
        total += weight * f.value_mask(mask)
    return total


def multilinear_mc(
    f: SubmodularValuation,
    x: FractionalAllocation,
    samples: int,
    seed: int,
) -> tuple[Value, float]:
    """Monte Carlo estimate of F(x) with its standard error.

    Draws bundles with independent inclusions from random.Random(seed) (the
    stdlib Mersenne Twister, identical streams on every platform). Returns the
    sample mean as an exact rational and the standard error of the mean as a
    float. A deterministic x (all coordinates 0 or 1) yields the exact value
    with zero error.
    """
    if samples < 1:
        raise InvalidInstanceError("need at least one sample")
    ones, frac = _split_point(f, x, range(f.m))
    rng = random.Random(seed)
    probs = [float(x.x[g]) for g in frac]
    bits = [1 << g for g in frac]

    counts: dict[int, int] = {}
    for _ in range(samples):
        mask = ones
        for p, bit in zip(probs, bits):
            if rng.random() < p:
                mask |= bit
        counts[mask] = counts.get(mask, 0) + 1

    sum_v = Fraction(0)
    sum_sq = Fraction(0)
    for mask, c in counts.items():
        v = f.value_mask(mask)
        sum_v += c * v
        sum_sq += c * v * v
    mean = sum_v / samples
    if samples == 1:
        return mean, 0.0
    var = (sum_sq - samples * mean * mean) / (samples - 1)
    return mean, sqrt(float(var) / samples)


def expected_ordered_marginal(
    f: SubmodularValuation,
    h: Iterable[int],
    j_set: Iterable[int],
    j: int,
    x: FractionalAllocation,
) -> Value:
    """gamma_j(H, J, x): expected gain of j over H plus J's random lower part.

    Exact enumeration over the fractional coordinates of {j' in J : j' < j}.
    Requires j in J and J disjoint from H.
    """
    h_mask = mask_of(h, f.m)
    js = sorted(set(j_set))
    if j not in js:
        raise InvalidInstanceError("the marginal good must belong to J")
    if h_mask & mask_of(js, f.m):
        raise InvalidInstanceError("J must be disjoint from H")
    below = [t for t in js if t < j]
    jbit = 1 << j
    total = Fraction(0)
    for weight, mask in _outcomes(f, x, below, h_mask, "ordered marginal enumeration"):
        total += weight * (f.value_mask(mask | jbit) - f.value_mask(mask))
    return total


@dataclass(frozen=True)
class ProportionalityReport:
    """Per-agent fractional value at the uniform point versus the maximin bound."""

    values_at_uniform: tuple[Value, ...]
    bounds: tuple[Value, ...]  # (6322/10000) * mu_i
    passed: tuple[bool, ...]

    def all_passed(self) -> bool:
        return all(self.passed)


def proportionality_check(
    valuations: Sequence[SubmodularValuation], mus: Sequence[ValueLike]
) -> ProportionalityReport:
    """Check F_i(1/n, ..., 1/n) >= (1 - 1/e) * mu_i for every agent.

    The comparison uses the rational upper bound 6322/10000 > 1 - 1/e, so a
    pass is a sound certificate of the irrational inequality.
    """
    if len(valuations) != len(mus):
        raise InvalidInstanceError("need one maximin value per agent")
    n = len(valuations)
    vals = []
    bounds = []
    passed = []
    for v, mu in zip(valuations, mus):
        point = FractionalAllocation.uniform(n, v.m)
        fv = multilinear_exact(v, point)
        bound = ONE_MINUS_INV_E_UPPER * as_value(mu)
        vals.append(fv)
        bounds.append(bound)
        passed.append(fv >= bound)
    return ProportionalityReport(
        values_at_uniform=tuple(vals), bounds=tuple(bounds), passed=tuple(passed)
    )
