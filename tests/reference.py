"""Reference implementations that the fast paths are compared against.

The first two are the straightforward versions the library used before its
integer allocator and cursor lift: rebuild the envy graph from Fraction
values after every item and every rotation, and rescan every remaining item
for each pick of the lift. They are slow (O(n^2 m) value sums per run,
O(m^2) per lift) but easy to check by eye. The third is the maximin share by
brute force over all n^m assignments, for the exact oracles.
"""

from fractions import Fraction
from itertools import product
from math import lcm

from mmsfair.envy_graph import RunTrace, TraceStep, build_envy_graph, resolve_cycles
from mmsfair.model import GOODS, Allocation


def reference_allocate_ordered(instance, pick):
    """The allocator loop: build_envy_graph + resolve_cycles per item."""
    n, m = instance.n, instance.m
    bundles = [frozenset() for _ in range(n)]
    steps = []
    for j in range(m):
        graph = build_envy_graph(instance, Allocation(bundles, m))
        candidates = graph.sources() if pick == "source" else graph.sinks()
        agent = min(candidates)
        bundles[agent] = bundles[agent] | {j}
        resolved, log = resolve_cycles(instance, Allocation(bundles, m))
        bundles = list(resolved.bundles)
        steps.append(
            TraceStep(
                item=j,
                agent=agent,
                cycles=tuple(tuple(c) for c in log),
                values=tuple(instance.value(i, bundles[i]) for i in range(n)),
            )
        )
    return Allocation(bundles, m), RunTrace(n=n, m=m, steps=tuple(steps))


def reference_lift(original, ordered_alloc):
    """The picking-sequence lift by full rescans; ignores the permutations.

    Goods walk the ordered positions forward and pick the highest remaining
    value, ties to the lowest index; chores walk backward and pick the
    highest (least harmful) remaining value, ties to the highest index.
    """
    m = original.m
    owner = [-1] * m
    for i, b in enumerate(ordered_alloc.bundles):
        for j in b:
            owner[j] = i
    remaining = [True] * m
    bundles = [set() for _ in range(original.n)]
    walk = range(m) if original.kind == GOODS else range(m - 1, -1, -1)
    for j in walk:
        i = owner[j]
        row = original.values[i]
        best = -1
        for g in walk:
            if remaining[g] and (best < 0 or row[g] > row[best]):
                best = g
        remaining[best] = False
        bundles[i].add(best)
    return Allocation(bundles, m)


def reference_max_min(n, m, bundle_value):
    """The maximin value over every assignment of m goods to n bundles.

    bundle_value maps a bitmask of goods (bit g for good g) to a Fraction.
    itertools.product yields the assignments (assign[g] is good g's bundle)
    in lexicographic order, and only a strictly larger minimum replaces the
    incumbent, so the assignment returned is the lexicographically least
    one reaching the value returned. Bundle values are scaled to ints once,
    which keeps the n^m loop cheap.
    """
    table = [bundle_value(mask) for mask in range(1 << m)]
    denom = lcm(*(v.denominator for v in table))
    ints = [v.numerator * (denom // v.denominator) for v in table]
    best, witness = None, None
    for assign in product(range(n), repeat=m):
        masks = [0] * n
        for g, k in enumerate(assign):
            masks[k] |= 1 << g
        low = min(ints[mask] for mask in masks)
        if best is None or low > best:
            best, witness = low, list(assign)
    return Fraction(best, denom), witness
