"""Envy-graph division of chores.

Chores run through the same machinery as goods with two sign flips: the
ordered instance puts the most burdensome chore first (rows non-decreasing in
value), and each chore goes to a *sink* of the envy graph, an agent who
currently envies nobody. Lifting back to the original instance is unchanged;
every agent i ends with v_i(A_i) * 3n >= (4n - 1) * mu_i (all quantities
non-positive, so the bound says nobody carries more than 4/3 of their fair
burden as n grows).

The pairing partition of at most 2n chores, the lemma behind that bound,
is analysis that no solver calls; it lives with the tests (tests/lemmas.py).
"""

from __future__ import annotations

from .envy_graph import RunTrace, _allocate_ordered
from .errors import InvalidInstanceError
from .model import CHORES, AdditiveInstance, Allocation
from .ordering import lift_allocation, to_ordered


def chores_envy_graph_allocate(instance: AdditiveInstance) -> tuple[Allocation, RunTrace]:
    """Allocate an ordered chores instance, chore by chore, to envy-graph sinks."""
    if instance.kind != CHORES:
        raise InvalidInstanceError("chores allocator got a goods instance")
    return _allocate_ordered(instance)


def solve_chores(instance: AdditiveInstance) -> Allocation:
    """Full chores pipeline: order the instance, allocate to sinks, lift back."""
    reduction = to_ordered(instance)
    ordered_alloc, _ = chores_envy_graph_allocate(reduction.ordered)
    return lift_allocation(reduction, instance, ordered_alloc)

