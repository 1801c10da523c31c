"""Envy-graph division of chores and the pairing structure behind its bound.

Chores run through the same machinery as goods with two sign flips: the
ordered instance puts the most burdensome chore first (rows non-decreasing in
value), and each chore goes to a *sink* of the envy graph, an agent who
currently envies nobody. Lifting back to the original instance is unchanged;
every agent i ends with v_i(A_i) * 3n >= (4n - 1) * mu_i (all quantities
non-positive, so the bound says nobody carries more than 4/3 of their fair
burden as n grows).
"""

from __future__ import annotations

from typing import Sequence

from .envy_graph import RunTrace, _allocate_ordered
from .errors import InvalidInstanceError, NotOrderedError
from .model import CHORES, AdditiveInstance, Allocation, Value, as_value
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


def lpt_chores_partition(values: Sequence[Value], n: int) -> Allocation:
    """Singleton-then-pairing partition of d <= 2n chores into n bundles.

    Input values must be sorted by non-increasing magnitude (non-decreasing
    value). With d chores, the 2n - d largest-magnitude chores get singleton
    bundles and the rest pair the k-th remaining chore with the k-th from the
    end: {p_{2n-d}, p_{d-1}}, ..., {p_{n-1}, p_n} (0-based). When d <= n every
    chore is a singleton and n - d bundles stay empty. When the d-th largest
    magnitude exceeds a third of the optimum's magnitude, this partition
    achieves the exact maximin value.
    """
    vals = [as_value(v) for v in values]
    d = len(vals)
    if n < 1:
        raise InvalidInstanceError("need at least one bundle")
    if d > 2 * n:
        raise InvalidInstanceError(f"pairing partition needs at most {2 * n} chores, got {d}")
    if any(v > 0 for v in vals):
        raise InvalidInstanceError("chores must have non-positive values")
    if any(vals[a] > vals[a + 1] for a in range(d - 1)):
        raise NotOrderedError("chores must be sorted by non-increasing magnitude")

    bundles: list[set[int]] = [set() for _ in range(n)]
    if d <= n:
        for k in range(d):
            bundles[k].add(k)
    else:
        singles = 2 * n - d
        for k in range(singles):
            bundles[k].add(k)
        lo, hi = singles, d - 1
        k = singles
        while lo < hi:
            bundles[k] = {lo, hi}
            lo += 1
            hi -= 1
            k += 1
    return Allocation(bundles, d)
