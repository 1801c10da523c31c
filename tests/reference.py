"""Reference implementations that the fast paths are compared against.

The envy graph's queries (edges, sources, sinks, find_cycle) read a
graph's successor lists, an EnvyGraph's or envy_graph's; envy_graph, which
builds one from each row's scaled ints, find_cycle and rotate, the
rotation along a cycle, share no code with the allocator's own. The next
three are the straightforward versions the library used before its integer
allocator and cursor lift: resolve_cycles rebuilds the envy graph after
every rotation, the allocator loop calls it after every item, and the lift
rescans every remaining item for each pick. They are slow (O(n^2 m)
value sums per run, O(m^2) per lift) but easy to check by eye. The fourth
is the maximin share by brute force over all n^m assignments, for the exact
oracles, and the fifth their branch and bound in its first form: one
recursive call per node, which tests its own node on entry and recomputes
the deficit from every bundle, from all-empty bundles or from given keys.

The rest are the submodular loops as they ran before the valuations were
scaled to ints: the lazy greedy slot solver, round robin, the threshold
probe and its bracket search, all comparing Fractions, and the slot
objective's optimum by brute force, which the greedy must reach half of
and which slot_solver swaps in for the greedy in the threshold search. They value
bundles through reference_value, which reads each family's public data, so
they share no arithmetic with value_int.
"""

import heapq
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import lcm
from unittest import mock

from multilinear import MarginalValuation

from mmsfair import oracles
from mmsfair.envy_graph import RunTrace, TraceStep
from mmsfair.model import GOODS, AdditiveInstance, Allocation
from mmsfair.oracles import SlotObjective
from mmsfair.submodular.valuations import BudgetAdditive, ExplicitTable, goods_of


Graph = namedtuple("Graph", "n succ")


def envy_graph(instance, bundles):
    """The envy graph of bundles: i -> j iff row i of instance.ints sums to
    more over bundles[j] than over bundles[i]. Each row is its Fraction
    values times a positive scale, so every comparison is theirs."""
    n = len(bundles)
    succ = []
    for i, row in enumerate(instance.ints):
        worth = [sum(row[g] for g in b) for b in bundles]
        succ.append(tuple(j for j in range(n) if j != i and worth[i] < worth[j]))
    return Graph(n, tuple(succ))


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
    None if the graph is acyclic. The search keeps its path and, per vertex
    on it, the index of the next neighbour to scan in explicit lists, so
    long paths do not hit the recursion limit; it shares no code with the
    allocator's search.
    """
    succ = [sorted(s) for s in graph.succ]
    state = [0] * graph.n  # 0 unseen, 1 on the path, 2 finished
    for root in range(graph.n):
        if state[root]:
            continue
        state[root] = 1
        path, scanned = [root], [0]
        while path:
            v, k = path[-1], scanned[-1]
            if k == len(succ[v]):
                state[v] = 2
                path.pop()
                scanned.pop()
                continue
            scanned[-1] = k + 1
            w = succ[v][k]
            if state[w] == 1:
                return path[path.index(w):]
            if state[w] == 0:
                state[w] = 1
                path.append(w)
                scanned.append(0)
    return None


def rotate(bundles, cycle):
    """bundles with each agent c_t on the cycle given the bundle of c_{t+1}
    (c_k that of c_0), in place."""
    taken = [bundles[c] for c in cycle]
    for t, c in enumerate(cycle):
        bundles[c] = taken[(t + 1) % len(cycle)]


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
    while (cycle := find_cycle(envy_graph(instance, bundles))) is not None:
        log.append(list(cycle))
        rotate(bundles, cycle)
    return Allocation(bundles, allocation.m), log


def reference_allocate_ordered(instance, pick):
    """The allocator loop: envy_graph + resolve_cycles per item."""
    n, m = instance.n, instance.m
    bundles = [frozenset() for _ in range(n)]
    steps = []
    for j in range(m):
        graph = envy_graph(instance, bundles)
        candidates = sources(graph) if pick == "source" else sinks(graph)
        agent = min(candidates)
        bundles[agent] = bundles[agent] | {j}
        resolved, log = resolve_cycles(instance, Allocation(bundles, m))
        bundles = list(resolved.bundles)
        steps.append(TraceStep(item=j, agent=agent, cycles=tuple(tuple(c) for c in log)))
    return Allocation(bundles, m), RunTrace(n=n, m=m, steps=tuple(steps))


def reference_lift(original, ordered_alloc):
    """The picking-sequence lift by full rescans of the original rows; sorts nothing.

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


def reference_branch_and_bound(n, items, caps, add, value, best, stop, start=None):
    """oracles._branch_and_bound as one call per node: same arguments (start,
    when given, holds each bundle's first key), same search order, prunes
    and stop, same (best, assign) result.

    Each call enters a node, then tests it: a leaf raises best when its
    minimum beats it, and an inner node is pruned when its bundles' total
    deficit below best + 1, recomputed from every bundle, exceeds the caps
    of the unplaced items.
    """
    m = len(items)
    headroom = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        headroom[t] = headroom[t + 1] + caps[t]
    keys = [0] * n if start is None else list(start)
    vals = keys if value is None else [value(key) for key in keys]
    assign = [0] * m

    def dfs(t):
        nonlocal best
        if t == m:
            lo = min(vals)
            if lo > best:
                best = lo
                return lo >= stop
            return False
        target = best + 1
        if sum([target - v for v in vals if v < target]) > headroom[t]:
            return False
        item = items[t]
        for k in range(n):
            key = keys[k]
            if keys.index(key) < k:
                continue
            old = vals[k]
            keys[k] = new = add(key, item)
            if value is not None:
                vals[k] = value(new)
            assign[t] = k
            if dfs(t + 1):
                return True
            keys[k] = key
            vals[k] = old
        return False

    hit = dfs(0)
    return best, assign if hit else None


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
    """Lazy greedy on Fraction gains, one global version stamp; one bundle
    mask per slot."""
    f, cap, slots = objective.valuation, objective.cap, objective.slots
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
        placed.add(g)
        slot_masks[k] |= 1 << g
        slot_vals[k] = min(cap, reference_value(f, slot_masks[k]))
        version += 1
    return slot_masks


def reference_matroid_argmax(objective, goods):
    """An optimum of the capped slot objective as one bundle mask per slot,
    by brute force over the assignments of the goods to the objective's
    slots, on Fractions. The slots are alike, so each good goes to a slot
    already used or to the first empty one (one assignment per set
    partition), and the first optimum found wins. Leaving a good out never
    helps a monotone valuation."""
    f, cap, slots = objective.valuation, objective.cap, objective.slots
    goods = list(goods)
    masks = [0] * slots
    best = [Fraction(-1), list(masks)]

    def place(i, used):
        if i == len(goods):
            value = sum((min(cap, reference_value(f, s)) for s in masks), Fraction(0))
            if value > best[0]:
                best[:] = value, list(masks)
            return
        for k in range(min(used + 1, slots)):
            masks[k] |= 1 << goods[i]
            place(i + 1, max(used, k + 1))
            masks[k] ^= 1 << goods[i]

    place(0, 0)
    return best[1]


def reference_matroid_max(objective, goods):
    """The optimum of the capped slot objective, by brute force."""
    f, cap = objective.valuation, objective.cap
    masks = reference_matroid_argmax(objective, goods)
    return sum((min(cap, reference_value(f, s)) for s in masks), Fraction(0))


# threshold_probe's slot solver: the shipped lazy greedy, or the brute-force
# optimum, so the threshold search can be run with either
SLOT_SOLVERS = {"exhaustive": reference_matroid_argmax, "greedy": oracles.greedy_matroid_max}


def slot_solver(name):
    """Context manager: threshold_probe packs its slots with SLOT_SOLVERS[name]."""
    return mock.patch.object(oracles, "greedy_matroid_max", SLOT_SOLVERS[name])


def reference_round_robin(valuations, thresholds):
    """Singleton grabs at tau_i/10, then max-marginal turns, on Fractions;
    one bundle mask per agent."""
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
    return masks


def reference_threshold_probe(f, n, tau):
    """threshold_probe (the lazy greedy, factor 1/2), on Fractions."""
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
    slot_masks = reference_greedy_matroid_max(objective, rest)
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
    """The bracket search of mms_approx_submodular over reference probes:
    the accepted threshold and its allocation.

    It starts where the seeds accept, at 9 times the n-th largest singleton
    (capped at the total; 0 when fewer than n goods have value, and then
    nothing above 0 is tried), probes the total, doubles while the gap is
    more than a factor 3, then bisects to width epsilon."""
    total = reference_value(f, (1 << f.m) - 1)
    singles = sorted((reference_value(f, 1 << g) for g in range(f.m)), reverse=True)
    lo = Fraction(0)
    if n <= f.m and singles[n - 1] > 0 and total > 0:
        lo = min(total, 9 * singles[n - 1])
    lo_alloc = reference_threshold_probe(f, n, lo)
    if lo == 0 or lo == total:
        return lo, lo_alloc
    hi = total
    top = reference_threshold_probe(f, n, hi)
    if top is not None:
        return hi, top
    while 3 * lo < hi and hi > lo * (1 + epsilon):  # doubling
        alloc = reference_threshold_probe(f, n, 2 * lo)
        if alloc is None:
            hi = 2 * lo
        else:
            lo, lo_alloc = 2 * lo, alloc
    while hi > lo * (1 + epsilon):  # bisection
        mid = (lo + hi) / 2
        alloc = reference_threshold_probe(f, n, mid)
        if alloc is None:
            hi = mid
        else:
            lo, lo_alloc = mid, alloc
    return lo, lo_alloc
