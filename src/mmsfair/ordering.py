"""Reduction to ordered instances and the lifting of ordered allocations back.

An instance is *ordered* when every agent ranks the items the same way by
position: for goods each row is non-increasing, for chores each row is
non-decreasing (position 0 holds the largest |value| either way). Any additive
instance can be reduced to an ordered one by sorting each row independently;
an allocation computed for the ordered instance is then lifted back through a
picking sequence, and each agent ends up at least as well off on the original
instance as it was on the ordered one. The sort is a function of the row, so
the lift derives each agent's order from the original instance itself.
"""

from __future__ import annotations

from operator import ge, le
from typing import Sequence

from .errors import InvalidInstanceError
from .model import GOODS, AdditiveInstance, Allocation


def is_ordered(instance: AdditiveInstance) -> bool:
    """True iff every row is sorted by non-increasing |value|: a goods row
    (all >= 0) non-increasing, a chores row (all <= 0) non-decreasing."""
    cmp = ge if instance.kind == GOODS else le
    return all(all(map(cmp, row, row[1:])) for row in instance.ints)


def _canonical_perm(row: Sequence[int], goods: bool) -> list[int]:
    """Positions of a scaled int row by descending |value|, ties by ascending
    index. A row has one sign, so that is descending value for goods and
    ascending value for chores; the sort is stable with reverse=True too, so
    equal values stay in index order."""
    return sorted(range(len(row)), key=row.__getitem__, reverse=goods)


def to_ordered(instance: AdditiveInstance) -> AdditiveInstance:
    """Sort each agent's values by descending |value|, ties by original index.

    The tie rule makes the ordered copy (and everything downstream)
    deterministic. Goods rows come out non-increasing, chores rows
    non-decreasing; the multiset of each row is unchanged, so maximin shares
    are unchanged too.
    """
    goods = instance.kind == GOODS
    return instance._permuted([_canonical_perm(row, goods) for row in instance.ints])


def lift_allocation(original: AdditiveInstance, ordered_alloc: Allocation) -> Allocation:
    """Turn an allocation of to_ordered(original) into one of original.

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

    Each agent's favourite remaining item is found by a cursor over its row's
    canonical order (to_ordered's sort, reversed for chores), which lists the
    items best first.
    """
    m = original.m
    if ordered_alloc.m != m or ordered_alloc.n != original.n:
        raise InvalidInstanceError("ordered allocation shape does not match instance")
    if not ordered_alloc.is_complete():
        raise InvalidInstanceError("lifting needs a complete ordered allocation")

    owner = [-1] * m
    for i, b in enumerate(ordered_alloc.bundles):
        for j in b:
            owner[j] = i

    goods = original.kind == GOODS
    perms = (_canonical_perm(row, goods) for row in original.ints)
    cursors = [iter(perm if goods else perm[::-1]) for perm in perms]
    taken = [False] * m
    bundles: list[set[int]] = [set() for _ in range(original.n)]
    for j in range(m) if goods else range(m - 1, -1, -1):
        i = owner[j]
        # fewer than m items are taken, so the cursor always finds one
        best = next(g for g in cursors[i] if not taken[g])
        taken[best] = True
        bundles[i].add(best)
    return Allocation(bundles, m)
