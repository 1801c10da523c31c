"""Reference implementations that the fast paths are compared against.

The envy graph's queries (edges, sources, sinks, find_cycle) read an
EnvyGraph's successor lists. The next three are the straightforward versions the library used before
its integer allocator and cursor lift: resolve_cycles rebuilds the envy
graph from Fraction values after every rotation, the allocator loop calls it
after every item, and the lift rescans every remaining item for each pick.
They are slow (O(n^2 m) value sums per run, O(m^2) per lift) but easy to
check by eye. The fourth is the maximin share by brute force over all n^m
assignments, for the exact oracles.

The rest are the submodular loops as they ran before the valuations were
scaled to ints: the lazy greedy slot solver, round robin, the greedy
threshold probe and its binary search, all comparing Fractions. They value
bundles through reference_value, which reads each family's public data, so
they share no arithmetic with value_int.
"""

import heapq
from fractions import Fraction
from itertools import product
from math import lcm

from multilinear import MarginalValuation

from mmsfair.envy_graph import RunTrace, TraceStep, _first_cycle, _rotate, build_envy_graph
from mmsfair.model import GOODS, AdditiveInstance, Allocation
from mmsfair.oracles import SlotObjective
from mmsfair.submodular.valuations import BudgetAdditive, ExplicitTable, goods_of


def edges(graph):
    """Every envy edge (i, j), sorted."""
    return [(i, j) for i in range(graph.n) for j in graph.succ[i]]


def sources(graph):
    """Agents with no incoming edge (nobody envies them)."""
    envied = {j for i in range(graph.n) for j in graph.succ[i]}
    return [i for i in range(graph.n) if i not in envied]


def sinks(graph):
    """Agents with no outgoing edge (they envy nobody)."""
    return [i for i in range(graph.n) if not graph.succ[i]]


def find_cycle(graph):
    """First cycle found by depth-first search.

    Roots are tried in ascending index order and neighbours are scanned in
    ascending order, so the result is deterministic. Returns the cycle as an
    agent sequence [c_0, ..., c_k] with edges c_0->c_1->...->c_k->c_0, or
    None if the graph is acyclic. The search is iterative, so long paths do
    not hit the recursion limit.
    """
    return _first_cycle(graph.succ.__getitem__, range(graph.n), graph.n)


def resolve_cycles(
    instance: AdditiveInstance, allocation: Allocation
) -> tuple[Allocation, list[list[int]]]:
    """Rotate bundles along envy cycles until the envy graph is acyclic.

    On a cycle c_0 -> c_1 -> ... -> c_k -> c_0, agent c_t receives the bundle
    of c_{t+1} (the one it envies), so every agent on the cycle strictly gains
    and agents off the cycle keep their bundles. Each rotation strictly
    reduces the edge count, which bounds the number of rounds.
    """
    bundles = list(allocation.bundles)
    log: list[list[int]] = []
    while True:
        graph = build_envy_graph(instance, Allocation(bundles, allocation.m))
        cycle = find_cycle(graph)
        if cycle is None:
            return Allocation(bundles, allocation.m), log
        log.append(list(cycle))
        _rotate(bundles, cycle)


def reference_allocate_ordered(instance, pick):
    """The allocator loop: build_envy_graph + resolve_cycles per item."""
    n, m = instance.n, instance.m
    bundles = [frozenset() for _ in range(n)]
    steps = []
    for j in range(m):
        graph = build_envy_graph(instance, Allocation(bundles, m))
        candidates = sources(graph) if pick == "source" else sinks(graph)
        agent = min(candidates)
        bundles[agent] = bundles[agent] | {j}
        resolved, log = resolve_cycles(instance, Allocation(bundles, m))
        bundles = list(resolved.bundles)
        steps.append(TraceStep(item=j, agent=agent, cycles=tuple(tuple(c) for c in log)))
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


def reference_value(f, mask):
    """f(mask) as a Fraction, computed from the family's public attributes."""
    if isinstance(f, MarginalValuation):
        return reference_value(f.base, mask | f.h_mask) - reference_value(f.base, f.h_mask)
    if isinstance(f, ExplicitTable):
        return f.table[mask]
    goods = [g for g in range(f.m) if mask >> g & 1]
    if isinstance(f, BudgetAdditive):
        return min(f.cap, sum((f.weights[g] for g in goods), Fraction(0)))
    covered = {e for g in goods for e in f.covers[g]}  # WeightedCoverage
    return sum((f.weights[e] for e in covered), Fraction(0))


def reference_greedy_matroid_max(objective, goods):
    """Lazy greedy on Fraction gains, one global version stamp."""
    f, cap, slots = objective.valuation, objective.cap, objective.slots
    chosen = set()
    slot_masks = [0] * slots
    slot_vals = [Fraction(0)] * slots

    def gain(g, k):
        return min(cap, reference_value(f, slot_masks[k] | (1 << g))) - slot_vals[k]

    heap = []
    for g in goods:
        for k in range(slots):
            heapq.heappush(heap, (-gain(g, k), g, k, 0))
    version = 0
    placed = set()
    while heap and len(placed) < len(goods):
        neg, g, k, stamp = heapq.heappop(heap)
        if g in placed:
            continue
        if stamp != version:
            heapq.heappush(heap, (-gain(g, k), g, k, version))
            continue
        chosen.add((g, k))
        placed.add(g)
        slot_masks[k] |= 1 << g
        slot_vals[k] = min(cap, reference_value(f, slot_masks[k]))
        version += 1
    return chosen


def reference_round_robin(valuations, thresholds):
    """Singleton grabs at tau_i/10, then max-marginal turns, on Fractions."""
    n, m = len(valuations), valuations[0].m
    free = set(range(m))
    masks = [0] * n
    active = []
    for i in range(n):
        f = valuations[i]
        best = -1
        for g in sorted(free):
            if best < 0 or reference_value(f, 1 << g) > reference_value(f, 1 << best):
                best = g
        if best >= 0 and 10 * reference_value(f, 1 << best) >= thresholds[i]:
            masks[i] = 1 << best
            free.discard(best)
        else:
            active.append(i)
    turn_order = active if active else list(range(n))
    while free:
        for i in turn_order:
            if not free:
                break
            f = valuations[i]
            best, best_gain = -1, Fraction(0)
            for g in sorted(free):
                gain = reference_value(f, masks[i] | 1 << g) - reference_value(f, masks[i])
                if best < 0 or gain > best_gain:
                    best, best_gain = g, gain
            masks[i] |= 1 << best
            free.discard(best)
    return Allocation([[g for g in range(m) if masks[i] >> g & 1] for i in range(n)], m)


def reference_threshold_probe(f, n, tau):
    """threshold_probe with the greedy solver (factor 1/2), on Fractions."""
    m = f.m
    if tau == 0:
        return Allocation([list(range(m))] + [[] for _ in range(n - 1)], m)
    high = [g for g in range(m) if 9 * reference_value(f, 1 << g) >= tau]
    if len(high) >= n:
        bundles = [[h] for h in high[:n]]
        bundles[0].extend(g for g in range(m) if g not in high[:n])
        return Allocation(bundles, m)
    r = n - len(high)
    rest = [g for g in range(m) if g not in high]
    cap = Fraction(4, 9) * tau
    objective = SlotObjective(f, cap, 2 * r)
    independent = reference_greedy_matroid_max(objective, rest)
    slot_masks = [0] * (2 * r)
    for g, k in independent:
        slot_masks[k] |= 1 << g
    achieved = sum((min(cap, reference_value(f, s)) for s in slot_masks), Fraction(0))
    if 9 * achieved < 8 * Fraction(1, 2) * r * tau:
        return None
    ranked = sorted(range(2 * r), key=lambda k: (-reference_value(f, slot_masks[k]), k))
    kept = [goods_of(slot_masks[k]) for k in ranked[: r - 1]]
    merged = set()
    for k in ranked[r - 1:]:
        merged.update(goods_of(slot_masks[k]))
    assigned = {g for b in kept for g in b} | merged | set(high)
    merged.update(g for g in range(m) if g not in assigned)
    return Allocation([[h] for h in high] + [sorted(b) for b in kept] + [sorted(merged)], m)


def reference_mms_approx_greedy(f, n, epsilon=Fraction(1, 100)):
    """The binary search of mms_approx_submodular over reference probes:
    the accepted threshold and its allocation."""
    total = reference_value(f, (1 << f.m) - 1)
    lo, lo_alloc = Fraction(0), reference_threshold_probe(f, n, Fraction(0))
    if total > 0:
        top = reference_threshold_probe(f, n, total)
        if top is not None:
            return total, top
        hi = total
        for _ in range(64):
            if hi <= lo * (1 + epsilon):
                break
            mid = (lo + hi) / 2
            alloc = reference_threshold_probe(f, n, mid)
            if alloc is None:
                hi = mid
            else:
                lo, lo_alloc = mid, alloc
    return lo, lo_alloc
