"""Submodular valuation oracles over a ground set of goods 0..m-1.

All families answer set queries by bitmask, bit k standing for good k. Each
valuation passes its data as given (ints, "p/q" strings or Fractions) to
scale_to_ints and keeps only an int scale, the lcm of the data's reduced
denominators, and the data times it; table, weights and cap are Fractions
built from those when read. value_int(mask) returns scale * f(mask), an
exact int computed on ints throughout; value_mask(mask) is the public
rational answer, Fraction(value_int(mask), scale). The hot loops (round robin, the threshold
probe, the exact oracle) compare these ints, scaled by a threshold's
denominator where one is involved, so no Fraction arithmetic runs per query.
The coverage and budget-additive families hold only their data and answer
a query by folding over the goods that the mask selects (_bits). Each
valuation also holds singles, scale * f({g}) per good g, built from its data.

No valuation memoizes value_int, so none grows with the bundles it is asked
about. The two searches that revisit bundles memoize for their own call:
mms_exact_submodular and each threshold probe's SlotObjective.

A valuation is admissible when it is normalized (empty set worth 0),
non-negative, monotone, and submodular. The three families are admissible
by construction; an explicit table is checked only for the inequality the
exact oracle's bounds rest on (ExplicitTable), alg_sub rejects a table
whose missing monotonicity breaks its loop guard, and the full check lives
with the tests (tests/lemmas.py).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Sequence

from ..errors import InvalidInstanceError
from ..model import Value, ValueLike, scale_to_ints


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


_BIT = bytes.maketrans(b"01", b"\0\1")


def _bits(mask: int) -> bytes:
    """One 0/1 byte per bit of mask, lowest first: the selector that
    itertools.compress takes to pick the items at the set bits."""
    return bin(mask)[:1:-1].encode().translate(_BIT)


class SubmodularValuation:
    """Base class: set-function oracle addressed by bitmask.

    Subclasses compute _value_int_raw(mask) = scale * f(mask) and set
    singles, the tuple of scale * f({g}) for goods g = 0..m-1.
    """

    __slots__ = ("m", "scale", "singles")

    def __init__(self, m: int, scale: int):
        if m < 0:
            raise InvalidInstanceError("ground set size must be non-negative")
        self.m = m
        self.scale = scale

    def _value_int_raw(self, mask: int) -> int:
        raise NotImplementedError

    def value_int(self, mask: int) -> int:
        """scale * f(mask), exactly."""
        if mask >> self.m:
            raise InvalidInstanceError("mask addresses goods outside the ground set")
        return self._value_int_raw(mask)

    def value_mask(self, mask: int) -> Value:
        return Fraction(self.value_int(mask), self.scale)

    def evaluate(self, bundle: Iterable[int]) -> Value:
        return self.value_mask(mask_of(bundle, self.m))

    def total(self) -> Value:
        return self.value_mask((1 << self.m) - 1)


class ExplicitTable(SubmodularValuation):
    """A set function given by its full table of 2^m values.

    ints[mask] == scale * table[mask], the value of the bundle whose members
    are the set bits of mask (bit k = good k); value_int reads it directly,
    and singles holds the entries of the one-good masks. The constructor
    checks shape, normalization and that no good adds more to a bundle than
    max(0, its own value), the inequality the exact oracle's bounds rest on
    (an m 2^m scan).
    Submodularity itself is not checked: solvers and the audit accept any
    table that passes, and the guarantees hold only for the submodular ones.
    """

    __slots__ = ("ints",)

    def __init__(self, m: int, table: Sequence[ValueLike]):
        scale, ints = scale_to_ints(tuple(table))
        super().__init__(m, scale)
        size = len(ints)
        if size >> m != 1 or size != 1 << m:  # 1 << m is built once size bounds m
            raise InvalidInstanceError(f"table needs 2^{m} entries for m={m}, got {size}")
        if ints[0] != 0:
            raise InvalidInstanceError("empty bundle must have value 0")
        self.ints = ints
        self.singles = tuple(ints[1 << g] for g in range(m))
        for g in range(m):
            bit = 1 << g
            cap = max(0, ints[bit])
            for mask in range(1 << m):
                if not mask & bit and ints[mask | bit] - ints[mask] > cap:
                    raise InvalidInstanceError(
                        f"good {g} adds {Fraction(ints[mask | bit] - ints[mask], scale)} "
                        f"to bundle {goods_of(mask)}, more than max(0, its own value "
                        f"{Fraction(ints[bit], scale)})"
                    )

    @property
    def table(self) -> tuple[Value, ...]:
        return tuple(Fraction(x, self.scale) for x in self.ints)

    def _value_int_raw(self, mask: int) -> int:
        return self.ints[mask]


class WeightedCoverage(SubmodularValuation):
    """Coverage function: value of a bundle is the weight of the union it covers.

    covers[g] lists the universe elements covered by good g, held as the
    element mask masks[g]; weights[e] >= 0 is the weight of element e, and
    ints[e] == scale * weights[e]. Coverage functions are always normalized,
    monotone and submodular.
    """

    __slots__ = ("ints", "masks")

    def __init__(self, m: int, weights: Sequence[ValueLike], covers: Sequence[Iterable[int]]):
        scale, self.ints = scale_to_ints(tuple(weights))
        super().__init__(m, scale)
        if any(w < 0 for w in self.ints):
            raise InvalidInstanceError("element weights must be non-negative")
        if len(covers) != m:
            raise InvalidInstanceError("need one cover set per good")
        u = len(self.ints)
        packed = []
        for g, cov in enumerate(covers):
            emask = 0
            for e in cov:
                if not 0 <= e < u:
                    raise InvalidInstanceError(f"element {e} out of range [0,{u})")
                emask |= 1 << e
            packed.append(emask)
        self.masks = tuple(packed)
        self.singles = tuple(sum(compress(self.ints, _bits(em))) for em in self.masks)

    @property
    def weights(self) -> tuple[Value, ...]:
        return tuple(Fraction(x, self.scale) for x in self.ints)

    @property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(goods_of(em)) for em in self.masks)

    def _value_int_raw(self, mask: int) -> int:
        covered = reduce(or_, compress(self.masks, _bits(mask)), 0)
        return sum(compress(self.ints, _bits(covered)))


class BudgetAdditive(SubmodularValuation):
    """Additive value capped at a budget: f(S) = min(cap, sum of weights in S),
    held as ints[g] == scale * weights[g] and cap_int == scale * cap."""

    __slots__ = ("ints", "cap_int")

    def __init__(self, weights: Sequence[ValueLike], cap: ValueLike):
        scale, ints = scale_to_ints((*weights, cap))
        super().__init__(len(ints) - 1, scale)
        self.ints, self.cap_int = ints[:-1], ints[-1]
        if any(w < 0 for w in self.ints):
            raise InvalidInstanceError("weights must be non-negative")
        if self.cap_int < 0:
            raise InvalidInstanceError("cap must be non-negative")
        self.singles = tuple(min(self.cap_int, w) for w in self.ints)

    @property
    def weights(self) -> tuple[Value, ...]:
        return tuple(Fraction(x, self.scale) for x in self.ints)

    @property
    def cap(self) -> Value:
        return Fraction(self.cap_int, self.scale)

    def _value_int_raw(self, mask: int) -> int:
        return min(self.cap_int, sum(compress(self.ints, _bits(mask))))


def detect_positive_mms(f: SubmodularValuation, n: int) -> bool:
    """True iff the maximin share of f over n bundles is strictly positive.

    Exact test: a monotone submodular f with f(empty) = 0 is subadditive, so
    a bundle has positive value iff it contains a positive singleton. An
    n-partition with all bundles positive therefore exists iff at least n
    goods have positive singleton value (in particular never when m < n).
    """
    if n < 1:
        raise InvalidInstanceError("need at least one agent")
    return sum(v > 0 for v in f.singles) >= n
