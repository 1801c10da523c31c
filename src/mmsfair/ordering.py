"""Reduction to ordered instances and the lifting of ordered allocations back.

An instance is *ordered* when every agent ranks the items the same way by
position: for goods each row is non-increasing, for chores each row is
non-decreasing (position 0 holds the largest |value| either way). Any additive
instance can be reduced to an ordered one by sorting each row independently;
an allocation computed for the ordered instance is then lifted back through a
picking sequence, and each agent ends up at least as well off on the original
instance as it was on the ordered one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Sequence

from .errors import InvalidInstanceError
from .model import GOODS, AdditiveInstance, Allocation, Value, scale_to_ints


@dataclass(frozen=True)
class OrderedReduction:
    """An ordered copy of an instance plus the per-agent sort permutations.

    perms[i][j] is the original index of the good sitting at ordered position
    j in agent i's row, so ordered.values[i][j] == original.values[i][perms[i][j]].
    """

    ordered: AdditiveInstance
    perms: tuple[tuple[int, ...], ...]


def _non_increasing_magnitudes(scaled: Sequence[int]) -> bool:
    magnitudes = [abs(x) for x in scaled]
    return all(map(ge, magnitudes, magnitudes[1:]))


def is_ordered(instance: AdditiveInstance) -> bool:
    """True iff every row is sorted by non-increasing |value|."""
    return all(
        _non_increasing_magnitudes(scale_to_ints(row)[1]) for row in instance.values
    )


def _canonical_perm(row: Sequence[Value]) -> list[int]:
    """Positions of a row by descending |value|, ties by ascending index."""
    _, scaled = scale_to_ints(row)
    magnitudes = [abs(x) for x in scaled]
    # reverse=True keeps the sort stable, so equal magnitudes stay in index order
    return sorted(range(len(row)), key=magnitudes.__getitem__, reverse=True)


def to_ordered(instance: AdditiveInstance) -> OrderedReduction:
    """Sort each agent's values by descending |value|, ties by original index.

    The tie rule makes the permutations (and everything downstream)
    deterministic. Goods rows come out non-increasing, chores rows
    non-decreasing; the multiset of each row is unchanged, so maximin shares
    are unchanged too.
    """
    perms = []
    rows = []
    for row in instance.values:
        perm = _canonical_perm(row)
        perms.append(tuple(perm))
        rows.append([row[g] for g in perm])
    ordered = AdditiveInstance(rows, kind=instance.kind)
    return OrderedReduction(ordered=ordered, perms=tuple(perms))


def lift_allocation(
    reduction: OrderedReduction,
    original: AdditiveInstance,
    ordered_alloc: Allocation,
) -> Allocation:
    """Turn an allocation of the ordered instance into one of the original.

    The owner of each ordered position picks its favourite remaining original
    item (highest value; for chores that is the least harmful remaining
    chore). Goods walk the positions forward: when position j picks, only j
    items are gone, so the pick is at least the (j+1)-th best, which is
    exactly the value at ordered position j. Chores walk the positions
    backward, from mildest to most harmful: when position j picks, m-1-j
    chores are gone, so the pick is at least the (m-j)-th best, again the
    value at ordered position j. Either way no agent ends up below its
    ordered bundle value. Ties follow the walk direction (lowest index for
    goods, highest for chores), so an already-ordered instance lifts to the
    same bundle values.

    Each agent's favourite remaining item is found by a cursor over its
    permutation (reversed for chores), which lists the items best first
    exactly when the permutation is to_ordered's canonical one; any other
    permutation is rejected.
    """
    m = original.m
    ordered = reduction.ordered
    if ordered.n != original.n or ordered.m != m or ordered.kind != original.kind:
        raise InvalidInstanceError("reduction does not belong to this instance")
    for i, perm in enumerate(reduction.perms):
        row = original.values[i]
        if list(perm) != _canonical_perm(row):
            raise InvalidInstanceError("reduction permutation is not to_ordered's order")
        if ordered.values[i] != tuple(row[g] for g in perm):
            raise InvalidInstanceError("reduction does not belong to this instance")
    if ordered_alloc.m != m or ordered_alloc.n != original.n:
        raise InvalidInstanceError("ordered allocation shape does not match instance")
    if not ordered_alloc.is_complete():
        raise InvalidInstanceError("lifting needs a complete ordered allocation")

    owner = [-1] * m
    for i, b in enumerate(ordered_alloc.bundles):
        for j in b:
            owner[j] = i

    goods = original.kind == GOODS
    cursors = [iter(perm if goods else perm[::-1]) for perm in reduction.perms]
    taken = [False] * m
    bundles: list[set[int]] = [set() for _ in range(original.n)]
    for j in range(m) if goods else range(m - 1, -1, -1):
        i = owner[j]
        # fewer than m items are taken, so the cursor always finds one
        best = next(g for g in cursors[i] if not taken[g])
        taken[best] = True
        bundles[i].add(best)
    return Allocation(bundles, m)
