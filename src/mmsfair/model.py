"""Core data model: exact values, additive instances, allocations, certificates.

Every value is an exact rational: a Fraction, or an int over its row's scale.
Floats are rejected at the boundary: a float argument would silently smuggle
binary rounding into comparisons that the guarantees require to be exact.

Conventions used throughout the package:
  * agents are indexed 0..n-1, goods (or chores) 0..m-1;
  * a bundle is a set of good indices;
  * an instance is "goods" (all values >= 0) or "chores" (all values <= 0),
    never mixed.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import InvalidInstanceError

# Exact rational value. Fraction keeps itself in lowest terms with a positive
# denominator, and str()/Fraction() round-trip losslessly as "p/q" or "p".
Value = Fraction

ValueLike = Union[int, str, Fraction]
_INT_RATIO = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # 'p' or 'p/q', q > 0
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*\Z")  # a decimal string's exponent


def as_ratio(x: ValueLike) -> tuple[int, int]:
    """x in lowest terms, as (numerator, denominator > 0), with no Fraction
    built for an int or an _INT_RATIO string. It is the one type check of a
    value: anything but an int, a string or a Fraction (a float, a bool,
    None) is refused, by type name. A string whose numerator or
    denominator passes Python's int-to-string digit limit is refused; an
    exponent past the limit plus the string's length is, before Fraction
    expands it, since no mantissa brings that back under (not even zero)."""
    if isinstance(x, str):
        try:  # int() refuses past its digit limit exactly where Fraction does
            if match := _INT_RATIO.fullmatch(x):
                p, q = int(match[1]), int(match[2] or 1)
                r = lcm(p, q) // abs(p) if p else 1  # q over gcd(p, q)
                return p * r // q, r
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
            if limit and (exp := _EXPONENT.search(x)) and abs(int(exp[1])) > limit + len(x):
                raise ValueError("exponent too large")
            f = Fraction(x)
            if limit and max(abs(f.numerator), f.denominator) >= 10**limit:
                raise ValueError("too many digits")
            return f.numerator, f.denominator
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstanceError(f"cannot parse value {x!r}") from exc
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):  # no float: 0.1 != 1/10
        return x.numerator, x.denominator
    raise InvalidInstanceError(f"values must be integers or 'p/q' strings, got {type(x).__name__}")


def as_value(x: ValueLike) -> Value:
    """Coerce an int, 'p/q' string, or Fraction to an exact Value."""
    return x if type(x) is Fraction else Fraction(x) if type(x) is int else Fraction(*as_ratio(x))


def value_to_str(v: Value) -> str:
    """Serialize a Value so that as_value(value_to_str(v)) == v; one past
    Python's int-to-string digit limit raises InvalidInstanceError."""
    try:
        return str(v)
    except ValueError as exc:
        bits = max(v.numerator.bit_length(), v.denominator.bit_length())
        raise InvalidInstanceError(f"cannot write a {bits}-bit value: too many digits") from exc


def scale_to_ints(values: Sequence[ValueLike]) -> tuple[int, tuple[int, ...]]:
    """The lcm L of the values' reduced denominators, and every value times L.

    L * v is an exact int for each v, and L > 0, so sums and comparisons of
    the scaled ints agree with those of the values (plain ints are kept, L = 1).
    """
    if set(map(type, values)) <= {int}:
        return 1, tuple(values)
    pairs = [(v.numerator, v.denominator) if type(v) is Fraction else as_ratio(v) for v in values]
    denom = lcm(*[d for _, d in pairs])
    return denom, tuple([p * (denom // d) for p, d in pairs])


GOODS = "goods"
CHORES = "chores"


class AdditiveInstance:
    """An additive fair-division instance: one value per (agent, good) pair.

    Row i is held scaled to ints (scale_to_ints): scales[i] is the lcm of its
    values' reduced denominators and ints[i][g] == scales[i] * values[i][g].
    values[i][g], agent i's value for good g, is a Fraction built from those
    on first read. For kind="goods" all values are >= 0; for kind="chores"
    all are <= 0.
    """

    __slots__ = ("_values", "kind", "n", "m", "scales", "ints")

    def __init__(self, values: Sequence[Sequence[ValueLike]], kind: str = GOODS):
        if kind not in (GOODS, CHORES):
            raise InvalidInstanceError(f"kind must be 'goods' or 'chores', not {kind!r}")
        rows = [scale_to_ints(tuple(row)) for row in values]
        if not rows:
            raise InvalidInstanceError("instance needs at least one agent")
        self.scales, self.ints = zip(*rows)
        m = len(self.ints[0])
        if any(len(row) != m for row in self.ints):
            raise InvalidInstanceError("value matrix must be rectangular")
        # scales are positive, so a scaled int carries its value's sign
        for i, row in enumerate(self.ints):
            if row and (min(row) < 0 if kind == GOODS else max(row) > 0):
                g = next(g for g, x in enumerate(row) if (x < 0 if kind == GOODS else x > 0))
                sign = "negative" if kind == GOODS else "positive"
                raise InvalidInstanceError(f"{kind} instance has {sign} value at ({i},{g})")
        self.kind, self.n, self.m, self._values = kind, len(rows), m, None

    @property
    def values(self) -> tuple[tuple[Value, ...], ...]:
        """values[i][g] == Fraction(ints[i][g], scales[i]), built on first read."""
        if self._values is None:
            rows = zip(self.scales, self.ints)
            self._values = tuple(tuple(Fraction(x, s) for x in row) for s, row in rows)
        return self._values

    def _permuted(self, perms: Sequence[Sequence[int]]) -> "AdditiveInstance":
        """A copy with good perms[i][j] at position j of row i (each perms[i]
        permutes range(m)), not validated again: rows keep scales and signs."""
        out = object.__new__(AdditiveInstance)
        out.ints = tuple(tuple(map(r.__getitem__, p)) for r, p in zip(self.ints, perms))
        out.scales, out.kind, out.n, out.m = self.scales, self.kind, self.n, self.m
        out._values = None
        return out

    def value(self, agent: int, bundle: Iterable[int]) -> Value:
        """Additive value of a bundle for one agent."""
        row = self.ints[agent]
        total = 0
        for g in bundle:
            if not 0 <= g < self.m:
                raise InvalidInstanceError(f"good index {g} out of range [0,{self.m})")
            total += row[g]
        return Fraction(total, self.scales[agent])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AdditiveInstance)
            and self.kind == other.kind
            and (self.scales, self.ints) == (other.scales, other.ints)
        )

    def __repr__(self) -> str:
        return f"AdditiveInstance(n={self.n}, m={self.m}, kind={self.kind!r})"


class Allocation:
    """Disjoint bundles of good indices, one bundle per agent.

    The allocation is *complete* when every good in [0,m) is assigned. Partial
    allocations are legal and appear in envy-graph traces.
    """

    __slots__ = ("bundles", "m")

    def __init__(self, bundles: Sequence[Iterable[int]], m: int):
        packed = tuple(frozenset(b) for b in bundles)
        seen: set[int] = set()
        for b in packed:
            for g in b:
                if not 0 <= g < m:
                    raise InvalidInstanceError(f"good index {g} out of range [0,{m})")
                if g in seen:
                    raise InvalidInstanceError(f"good {g} assigned twice")
                seen.add(g)
        self.bundles = packed
        self.m = m

    @property
    def n(self) -> int:
        return len(self.bundles)

    def assigned(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.bundles:
            out |= b
        return frozenset(out)

    def is_complete(self) -> bool:
        return len(self.assigned()) == self.m

    def as_lists(self) -> list[list[int]]:
        return [sorted(b) for b in self.bundles]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Allocation)
            and self.m == other.m
            and self.bundles == other.bundles
        )

    def __repr__(self) -> str:
        return f"Allocation({self.as_lists()}, m={self.m})"


@dataclass(frozen=True)
class MmsCertificate:
    """An exact maximin share value together with a witnessing partition.

    witness is a complete n-partition of the goods whose minimum bundle value,
    under the certified agent's valuation, equals value, or None when the
    oracle was asked for the value alone.
    """

    value: Value
    witness: Allocation | None
