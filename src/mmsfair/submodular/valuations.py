"""Submodular valuation oracles over a ground set of goods 0..m-1.

All families answer set queries by bitmask, bit k standing for good k. Each
valuation fixes an int scale at construction, the lcm of the denominators of
its data, and value_int(mask) returns scale * f(mask), an exact int computed
on ints throughout; value_mask(mask) is the public rational answer,
Fraction(value_int(mask), scale). The hot loops (round robin, the threshold
probe, the exact oracle) compare these ints, scaled by a threshold's
denominator where one is involved, so no Fraction arithmetic runs per query.

Each instance memoizes value_int by mask for its lifetime, and only the
queries made bound the memo: 2^m entries at most under the exact oracle,
for the m its budget admits; on larger ground sets, just the bundles
looked at (89 to 1,085 masks per valuation after alg_sub and the audit's
greedy bound, on four benchmark instances with m of 41 to 59).

A valuation is admissible when it is normalized (empty set worth 0),
non-negative, monotone, and submodular. The three families are admissible
by construction; an explicit table is checked only for the inequality the
exact oracle's bounds rest on (ExplicitTable), and the full check lives
with the tests (tests/lemmas.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, or_
from typing import Iterable, Sequence

from ..errors import InvalidInstanceError
from ..model import Value, ValueLike, as_value, scale_to_ints


def shared_ground(valuations: Sequence[SubmodularValuation]) -> tuple[int, int]:
    """(n, m) for n >= 1 agents whose valuations share one ground set of m goods."""
    if not valuations:
        raise InvalidInstanceError("need at least one agent")
    m = valuations[0].m
    if any(v.m != m for v in valuations):
        raise InvalidInstanceError("all agents must share one ground set")
    return len(valuations), m


def mask_of(goods: Iterable[int], m: int) -> int:
    mask = 0
    for g in goods:
        if not 0 <= g < m:
            raise InvalidInstanceError(f"good index {g} out of range [0,{m})")
        mask |= 1 << g
    return mask


def goods_of(mask: int) -> list[int]:
    """The set bits of mask, ascending (one step per set bit)."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _byte_tables(items: Sequence[int], combine) -> list[list[int]]:
    """One table per run of 8 items: tables[c][b] folds combine over the
    items 8c + k for the set bits k of the byte b (0 for b = 0). A fold over
    a mask's set bits then takes one lookup per byte of the mask."""
    tables = []
    for base in range(0, len(items), 8):
        table = [0]
        for item in items[base:base + 8]:
            table += [combine(t, item) for t in table]
        tables.append(table)
    return tables


class SubmodularValuation:
    """Base class: memoized set-function oracle addressed by bitmask.

    Subclasses set scale and compute _value_int_raw(mask) = scale * f(mask).
    """

    __slots__ = ("m", "scale", "_cache")

    def __init__(self, m: int, scale: int):
        if m < 0:
            raise InvalidInstanceError("ground set size must be non-negative")
        self.m = m
        self.scale = scale
        self._cache: dict[int, int] = {}

    def _value_int_raw(self, mask: int) -> int:
        raise NotImplementedError

    def value_int(self, mask: int) -> int:
        """scale * f(mask), exactly; memoized."""
        hit = self._cache.get(mask)
        if hit is None:
            if mask >> self.m:
                raise InvalidInstanceError("mask addresses goods outside the ground set")
            hit = self._value_int_raw(mask)
            self._cache[mask] = hit
        return hit

    def value_mask(self, mask: int) -> Value:
        return Fraction(self.value_int(mask), self.scale)

    def evaluate(self, bundle: Iterable[int]) -> Value:
        return self.value_mask(mask_of(bundle, self.m))

    def singleton(self, g: int) -> Value:
        return self.value_mask(1 << g)

    def total(self) -> Value:
        return self.value_mask((1 << self.m) - 1)


class ExplicitTable(SubmodularValuation):
    """A set function given by its full table of 2^m values.

    table[mask] is the value of the bundle whose members are the set bits of
    mask (bit k = good k), and ints[mask] == scale * table[mask]. The
    constructor checks shape, normalization and that no good adds more to a
    bundle than max(0, its own value), the inequality the exact oracle's
    bounds rest on (an m 2^m scan). Submodularity itself is not checked:
    solvers and the audit accept any table that passes, and the guarantees
    hold only for the submodular ones.
    """

    __slots__ = ("table", "ints")

    def __init__(self, m: int, table: Sequence[ValueLike]):
        vals = tuple(as_value(v) for v in table)
        scale, ints = scale_to_ints(vals)
        super().__init__(m, scale)
        if len(vals) != 1 << m:
            raise InvalidInstanceError(
                f"table needs {1 << m} entries for m={m}, got {len(vals)}"
            )
        if vals[0] != 0:
            raise InvalidInstanceError("empty bundle must have value 0")
        self.table = vals
        self.ints = ints
        for g in range(m):
            bit = 1 << g
            cap = max(0, ints[bit])
            for mask in range(1 << m):
                if not mask & bit and ints[mask | bit] - ints[mask] > cap:
                    raise InvalidInstanceError(
                        f"good {g} adds {Fraction(ints[mask | bit] - ints[mask], scale)} "
                        f"to bundle {goods_of(mask)}, more than max(0, its own value {vals[bit]})"
                    )

    def _value_int_raw(self, mask: int) -> int:
        return self.ints[mask]


class WeightedCoverage(SubmodularValuation):
    """Coverage function: value of a bundle is the weight of the union it covers.

    covers[g] lists the universe elements covered by good g; weights[e] >= 0
    is the weight of element e. Coverage functions are always normalized,
    monotone and submodular.
    """

    __slots__ = ("weights", "covers", "_cover_bytes", "_weight_bytes")

    def __init__(self, m: int, weights: Sequence[ValueLike], covers: Sequence[Iterable[int]]):
        weights = tuple(as_value(w) for w in weights)
        scale, ints = scale_to_ints(weights)
        super().__init__(m, scale)
        self.weights = weights
        if any(w < 0 for w in self.weights):
            raise InvalidInstanceError("element weights must be non-negative")
        if len(covers) != m:
            raise InvalidInstanceError("need one cover set per good")
        u = len(self.weights)
        packed = []
        for g, cov in enumerate(covers):
            emask = 0
            for e in cov:
                if not 0 <= e < u:
                    raise InvalidInstanceError(f"element {e} out of range [0,{u})")
                emask |= 1 << e
            packed.append(emask)
        self.covers = tuple(tuple(goods_of(em)) for em in packed)
        self._cover_bytes = _byte_tables(packed, or_)
        self._weight_bytes = _byte_tables(ints, add)

    def _value_int_raw(self, mask: int) -> int:
        covers, weights = self._cover_bytes, self._weight_bytes
        lookup = list.__getitem__
        covered = reduce(or_, map(lookup, covers, mask.to_bytes(len(covers), "little")), 0)
        return sum(map(lookup, weights, covered.to_bytes(len(weights), "little")))


class BudgetAdditive(SubmodularValuation):
    """Additive value capped at a budget: f(S) = min(cap, sum of weights in S)."""

    __slots__ = ("weights", "cap", "_weight_bytes", "_cap_int")

    def __init__(self, weights: Sequence[ValueLike], cap: ValueLike):
        self.weights = tuple(as_value(w) for w in weights)
        self.cap = as_value(cap)
        scale, ints = scale_to_ints(self.weights + (self.cap,))
        super().__init__(len(self.weights), scale)
        if any(w < 0 for w in self.weights):
            raise InvalidInstanceError("weights must be non-negative")
        if self.cap < 0:
            raise InvalidInstanceError("cap must be non-negative")
        self._weight_bytes = _byte_tables(ints[:-1], add)
        self._cap_int = ints[-1]

    def _value_int_raw(self, mask: int) -> int:
        weights = self._weight_bytes
        total = sum(map(list.__getitem__, weights, mask.to_bytes(len(weights), "little")))
        return min(self._cap_int, total)


def detect_positive_mms(f: SubmodularValuation, n: int) -> bool:
    """True iff the maximin share of f over n bundles is strictly positive.

    Exact test: a monotone submodular f with f(empty) = 0 is subadditive, so
    a bundle has positive value iff it contains a positive singleton. An
    n-partition with all bundles positive therefore exists iff at least n
    goods have positive singleton value (in particular never when m < n).
    """
    if n < 1:
        raise InvalidInstanceError("need at least one agent")
    hits = 0
    for g in range(f.m):
        if f.singleton(g) > 0:
            hits += 1
            if hits >= n:
                return True
    return False
