"""Reference implementations that the fast paths are compared against.

These are the straightforward versions the library used before its integer
allocator and cursor lift: rebuild the envy graph from Fraction values after
every item and every rotation, and rescan every remaining item for each
pick of the lift. They are slow (O(n^2 m) value sums per run, O(m^2) per
lift) but easy to check by eye.
"""

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
