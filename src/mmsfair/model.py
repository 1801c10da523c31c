"""Core data model: exact values, additive instances, allocations, certificates.

Every value in the additive pipeline is an exact rational (fractions.Fraction).
Floats are rejected at the boundary: a float argument would silently smuggle
binary rounding into comparisons that the guarantees require to be exact.

Conventions used throughout the package:
  * agents are indexed 0..n-1, goods (or chores) 0..m-1;
  * a bundle is a set of good indices;
  * an instance is "goods" (all values >= 0) or "chores" (all values <= 0),
    never mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import InvalidInstanceError

# Exact rational value. Fraction keeps itself in lowest terms with a positive
# denominator, and str()/Fraction() round-trip losslessly as "p/q" or "p".
Value = Fraction

ValueLike = Union[int, str, Fraction]


def as_value(x: ValueLike) -> Value:
    """Coerce an int, 'p/q' string, or Fraction to an exact Value.

    Floats are deliberately rejected: Fraction(0.1) is the exact binary float,
    not 1/10, and that mismatch would corrupt exact guarantee checks.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InvalidInstanceError(f"not a value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInstanceError(f"cannot parse value {x!r}") from exc
    raise InvalidInstanceError(
        f"values must be int, 'p/q' string or Fraction, not {type(x).__name__}"
    )


def value_to_str(v: Value) -> str:
    """Serialize a Value so that as_value(value_to_str(v)) == v."""
    return str(v)


def scale_to_ints(values: Sequence[Value]) -> tuple[int, list[int]]:
    """The lcm L of the values' denominators, and every value times L.

    L * v is an exact int for each v, and L > 0, so sums and comparisons of
    the scaled ints agree with those of the values (L is 1 for no values).
    """
    denominators = [v.denominator for v in values]
    denom = lcm(*denominators)
    return denom, [v.numerator * (denom // d) for v, d in zip(values, denominators)]


GOODS = "goods"
CHORES = "chores"


class AdditiveInstance:
    """An additive fair-division instance: one value per (agent, good) pair.

    values[i][g] is agent i's value for good g. For kind="goods" all entries
    are >= 0; for kind="chores" all entries are <= 0. Each row is also held
    scaled to ints (scale_to_ints): scales[i] is the lcm of row i's
    denominators and ints[i][g] == scales[i] * values[i][g].
    """

    __slots__ = ("values", "kind", "n", "m", "scales", "ints")

    def __init__(self, values: Sequence[Sequence[ValueLike]], kind: str = GOODS):
        if kind not in (GOODS, CHORES):
            raise InvalidInstanceError(f"kind must be 'goods' or 'chores', not {kind!r}")
        rows = tuple(tuple(as_value(v) for v in row) for row in values)
        if not rows:
            raise InvalidInstanceError("instance needs at least one agent")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise InvalidInstanceError("value matrix must be rectangular")
        self.scales, ints = zip(*map(scale_to_ints, rows))
        self.ints = tuple(map(tuple, ints))
        # scales are positive, so a scaled int carries its value's sign
        for i, row in enumerate(self.ints):
            for g, x in enumerate(row):
                if kind == GOODS and x < 0:
                    raise InvalidInstanceError(f"goods instance has negative value at ({i},{g})")
                if kind == CHORES and x > 0:
                    raise InvalidInstanceError(f"chores instance has positive value at ({i},{g})")
        self.values = rows
        self.kind = kind
        self.n = len(rows)
        self.m = m

    def _permuted(self, perms: Sequence[Sequence[int]]) -> "AdditiveInstance":
        """A copy with good perms[i][j] at position j of row i (each perms[i]
        permutes range(m)), not validated again: rows keep scales and signs."""
        out = object.__new__(AdditiveInstance)
        out.values = tuple(tuple(map(r.__getitem__, p)) for r, p in zip(self.values, perms))
        out.ints = tuple(tuple(map(r.__getitem__, p)) for r, p in zip(self.ints, perms))
        out.scales, out.kind, out.n, out.m = self.scales, self.kind, self.n, self.m
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
            and self.values == other.values
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
