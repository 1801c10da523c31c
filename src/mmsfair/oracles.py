"""Maximin-share oracles: exact values at desk scale, certified bounds beyond.

Both exact oracles run one branch and bound over assignments of goods to n
bundles. A bundle is a key grown good by good: its integer load for an
additive row (scaled to ints), its bitmask for a submodular valuation. The
search raises its incumbent at each leaf that beats it and ends at the
first that reaches a given stop. It skips a bundle whose key an earlier
bundle shares and prunes a node whose bundles' total deficit below one
above the incumbent exceeds the positive value the unplaced goods can still
add (a bin-completion style bound from number partitioning). It tests each
child before entering it, with the deficit carried down and recomputed
only when the incumbent rises, and judges each leaf in place. A value pass,
goods by descending singleton magnitude from a greedy warm start, finds the
optimum and stops once it meets an upper bound (the total over n for
additive rows, the positive singleton sum over n for submodular ones). The
witness is the lexicographically least good-to-bundle assignment achieving
it, so witnesses are deterministic: the first optimal leaf of the search
run on the goods in index order. It is fixed good by good, each good going
into the first bundle from which the rest can still reach the optimum.
The last assignment found to reach it, at first the value pass's, names
one such bundle; each bundle before it is checked by a search on the
unplaced goods by descending size, from the placed goods' bundles. That
order prunes (Korf's multi-way number partitioning searches use it), where
the index order can take seconds on narrow-valued rows. Past its first
_MEMO_AFTER nodes, every search, value pass and check alike, also records
the states it enters (its depth and its bundles' keys) and skips them when
met again, as those searches prune dead states (Schreiber, Korf and
Moffitt, 2018); the record is bounded, and dropped where no state repeats.
The search is a loop over an explicit stack, so its depth, one level per
good, meets no recursion limit. witness=False skips the checks when only
the value is wanted, and one bundle (n = 1) holds every good without a
search. The search is exact but exponential; the n^m budget guard keeps it
honest.
Past that guard, mms_greedy_submodular returns the greedy start's poorest
bundle alone, a lower bound on a submodular share that the audit reports.

For a single monotone submodular valuation shared by n agents,
mms_approx_submodular searches a threshold tau from the one the seeds accept,
doubling then halving (at most ceil(log2 m) + ceil(log2(1/epsilon)) + 3 probes),
and builds n bundles meant to be worth tau/9 each: goods whose singleton value
reaches tau/9 seed their own bundles, and the rest are packed into 2r slots (r
bundles still needed) by the lazy greedy, a 1/2-approximation for maximizing
the capped objective sum_k min(4 tau / 9, f(S_k)) over a partition matroid
(Fisher, Nemhauser and Wolsey, 1978). A threshold is rejected when the greedy
output stays below (4/9) r tau, half the optimum any tau up to the true maximin
share mu admits, so such a tau is never rejected and the bound comes within a
factor 1 + epsilon of mu. The factor 1/2 alone does not give each bundle tau/9,
so the returned partition is evaluated: where its poorest bundle reaches
bound/9, that bundle proves mu >= bound/9 and the result is certified.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, InvalidInstanceError
from .model import AdditiveInstance, Allocation, MmsCertificate, Value, as_value
from .submodular.valuations import SubmodularValuation, goods_of, mask_of

DEFAULT_ORACLE_BUDGET = 10**8
_MEMO_AFTER = 4096  # nodes that a search enters before it memoizes its dead states
_DEAD_STATES = 1 << 17  # the most states that a search memoizes


def _check_budget(n: int, m: int, budget: int) -> None:
    size = n ** max(m, 1)
    if size > budget:
        raise BudgetExceededError("exact maximin enumeration", size, budget)


def _branch_and_bound(
    n: int,
    items: Sequence,
    caps: Sequence,
    add: Callable,
    value: Callable | None,
    best,
    stop,
    start: Sequence | None = None,
) -> tuple[object, list[int] | None]:
    """Depth-first branch and bound over the assignments of items to n bundles.

    Items are placed in the given order. A bundle is a key that starts at 0,
    or at start[k] when start keys are given (bundle k already holds items
    outside this call), and grows by add(key, item); value(key) is its value
    (None: the key is its own value), and caps[t] bounds what item t can add
    to any bundle's value. Bundles are tried in index order, skipping one
    whose key an earlier bundle already has, since equal keys have the same
    futures.

    Each leaf whose minimum beats best raises best, and the first to reach
    stop ends the search. A node is pruned, before it is entered, when its
    bundles' total deficit, the sum of max(0, best + 1 - value), exceeds the
    caps of the unplaced items: each bundle gains at most the caps of the
    items it receives, so no leaf below it beats best. Given best = mu - 1
    and stop = mu for the optimum mu, the hit is the first optimal leaf in
    search order: no node above it is pruned, since it reaches best + 1 =
    mu, and no earlier leaf reaches mu. With items in index order, that is
    the lexicographically least optimal assignment (a skipped bundle only
    hides a later, mirrored subtree).

    The search is one loop, not a recursion, so its depth is bounded by m
    alone. The current node, at depth t, keeps in locals its bundles left to
    try, its item and headroom, and its target (best + 1 as last read) and
    deficit. Entering a child stores the bundles, target and deficit at
    stack[t], with the bundle that the child grew and that bundle's key and
    value before; backtracking reloads them, undoes the growth and reads
    depth t's item and headroom again. The deficit is carried down, from
    parent to child through the one bundle that grew, and recomputed from
    every bundle only when best has risen. A leaf that passes has deficit 0
    and so beats best; it is judged in place.

    The nodes entered after the first _MEMO_AFTER are memoized: each records
    its state, (t, *sorted(keys)), as it is entered, and one whose state is
    recorded is left at once. Its descendants lie deeper, and a hit ends the
    search, so a state met again is that of a node left without a hit. Such
    a node leaves best at or above the minimum of every leaf below it (a
    pruned node's leaves do not beat best, and a judged leaf that does
    raises best to its minimum), and best never falls. The later node has
    the same leaves, bundles being interchangeable, so it would neither
    raise best nor end the search: the memo changes neither. It is dropped
    for the rest of the search once it holds _MEMO_AFTER states and none was
    met again (keys too varied to repeat), or once it holds _DEAD_STATES.

    Returns best and the assignment of the last leaf that raised it, the
    one that ended the search if one did (assign[t] is item t's bundle), or
    None when no leaf raised best.
    """
    m = len(items)
    headroom = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        headroom[t] = headroom[t + 1] + caps[t]
    keys = [0] * n if start is None else list(start)
    vals = keys if value is None else list(map(value, keys))
    target = best + 1
    deficit = sum([target - v for v in vals if v < target])
    if deficit > headroom[0]:
        return best, None
    if m == 0:  # the root is a leaf, and it beats best
        return min(vals), []
    levels = [(items[t], headroom[t + 1], t + 1 == m) for t in range(m)]
    assign = [0] * m
    found = None  # the assignment of the last leaf that raised best
    nodes = _MEMO_AFTER - 1  # the root is the first node entered
    dead: set | None = set()  # once nodes reaches 0: the states entered
    met = False  # whether a node's state was found in dead
    stack = [None] * m  # stack[d]: the open node at depth d < t
    order = range(n)
    t, bundles = 0, iter(order)  # the current node: its depth, its bundles left to try
    item, room, leaf = levels[0]
    while True:
        for k in bundles:
            key = keys[k]
            if keys.index(key) < k:
                continue
            if best >= target:  # a leaf reached since target was read beat best
                target = best + 1
                deficit = sum([target - v for v in vals if v < target])
            old = vals[k]
            keys[k] = new = add(key, item)
            if value is not None:
                vals[k] = new = value(new)
            child = deficit
            if old < target:
                child -= target - old
            if new < target:
                child += target - new
            if child <= room:
                assign[t] = k
                if not leaf:  # enter the child, unless its state is dead
                    if nodes > 0:
                        nodes -= 1
                    elif dead is not None:
                        state = (t + 1, *sorted(keys))
                        if state in dead:
                            met = True
                            keys[k], vals[k] = key, old
                            continue
                        dead.add(state)
                        if len(dead) >= _DEAD_STATES or not met and len(dead) >= _MEMO_AFTER:
                            dead = None
                    stack[t] = bundles, k, key, old, target, deficit
                    t += 1
                    item, room, leaf = levels[t]
                    bundles, deficit = iter(order), child
                    break
                best, found = min(vals), assign.copy()  # deficit 0: every bundle beats best
                if best >= stop:
                    return best, found
            keys[k], vals[k] = key, old
        else:  # every bundle tried: back to the parent
            if not t:
                return best, found
            t -= 1
            bundles, k, key, old, target, deficit = stack[t]
            keys[k], vals[k] = key, old
            item, room, leaf = levels[t]


def _greedy_start(
    n: int, items: Sequence, sizes: Sequence, add: Callable, value: Callable | None
) -> tuple[list[int], list[int], object]:
    """The items by descending size (ties to the lower index), and the
    greedy n-partition that places them in that order, each onto the bundle
    whose value is nearest 0: owner[g], item g's bundle, and the poorest
    bundle's value."""
    order = sorted(range(len(items)), key=lambda g: (-sizes[g], g))
    keys = [0] * n
    vals = keys if value is None else [value(0)] * n
    owner = [0] * len(items)
    for g in order:
        k = owner[g] = min(range(n), key=lambda b: abs(vals[b]))
        keys[k] = add(keys[k], items[g])
        if value is not None:
            vals[k] = value(keys[k])
    return order, owner, min(vals)


def _max_min_partition(
    n: int,
    items: Sequence,
    sizes: Sequence,
    caps: Sequence,
    add: Callable,
    value: Callable | None,
    upper,
    witness: bool,
) -> tuple[object, Allocation | None]:
    """The largest minimum bundle value over n-partitions of the items, and
    the lexicographically least assignment of items to bundles reaching it
    that never puts an item into a bundle whose key an earlier bundle shares
    (None unless witness): the first hit of the engine on the items in index
    order from best = mu - 1 to stop = mu.

    One bundle holds every item, so n = 1 needs no search (a search would
    value the growing bundle once per item, which a submodular fold over its
    mask makes quadratic in m). Otherwise the value pass places items by
    descending size, from the greedy start's poorest bundle, and stops early
    at upper; its last leaf to raise best, or the greedy start's partition
    when none did, reaches mu. The witness is then fixed one item at a time,
    in index order, by checks: the engine on the unplaced items by
    descending size, from the placed bundles' keys, with best = mu - 1 and
    stop = mu. The last assignment found to reach mu, by the value pass or
    by a check that hit, names a bundle c for the next item (any such
    assignment will do); c is relabelled to the first bundle with its key
    (bundles with equal keys are interchangeable), and the item goes into
    the first bundle below c with a key of its own whose check hits, or else
    into c. A failed check covers a subtree that the index-order search
    exhausts as well, so the result is that search's first hit.

    That order can also be the slow one: on a uniform row with n = 3 and
    m = 40 a check can visit millions of nodes, most of them in subtrees
    with the same bundles as one already searched, and on n = 4, m = 20 so
    can the value pass. So every search memoizes its dead states past
    _MEMO_AFTER nodes (see _branch_and_bound), which changes no result.
    """
    m = len(items)
    if n == 1:
        key = reduce(add, items, 0)
        share = key if value is None else value(key)
        return share, Allocation([range(m)], m) if witness else None
    order, owner, best = _greedy_start(n, items, sizes, add, value)
    if best < upper:
        best, leaf = _branch_and_bound(
            n, [items[g] for g in order], [caps[g] for g in order], add, value, best, upper
        )
        if leaf is not None:
            for g, k in zip(order, leaf):
                owner[g] = k
    if not witness:
        return best, None

    keys = [0] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    for t in range(m):
        c = owner[t]
        first = keys.index(keys[c])
        if first < c:  # swap the labels of two bundles with equal keys
            owner = [c if k == first else first if k == c else k for k in owner]
            c = first
        later = [g for g in order if g > t]
        for k in range(c):
            if keys.index(keys[k]) < k:
                continue
            trial = keys.copy()
            trial[k] = add(keys[k], items[t])
            _, assign = _branch_and_bound(
                n, [items[g] for g in later], [caps[g] for g in later], add, value, best - 1,
                best, trial,
            )
            if assign is not None:  # a completion of trial that reaches best
                c = k
                for g, j in zip(later, assign):
                    owner[g] = j
                break
        keys[c] = add(keys[c], items[t])
        bundles[c].append(t)
    return best, Allocation(bundles, m)


def mms_exact_additive(
    instance: AdditiveInstance,
    agent: int,
    budget: int = DEFAULT_ORACLE_BUDGET,
    *,
    witness: bool = True,
) -> MmsCertificate:
    """Exact maximin share of one agent over the instance's n bundles, with witness.

    Works for goods and chores alike (chores: the witness maximizes the most
    negative bundle). witness=False skips the witness pass and leaves the
    certificate's witness None.
    """
    n = instance.n
    if not 0 <= agent < n:
        raise InvalidInstanceError(f"agent {agent} out of range [0,{n})")
    _check_budget(n, instance.m, budget)
    denom, w = instance.scales[agent], instance.ints[agent]
    upper = sum(w) // n  # the poorest bundle holds at most the mean
    best, partition = _max_min_partition(
        n, w, [abs(x) for x in w], [max(0, x) for x in w], operator.add, None, upper, witness
    )
    return MmsCertificate(value=Fraction(best, denom), witness=partition)


def mms_exact_submodular(
    f: SubmodularValuation, n: int, budget: int = DEFAULT_ORACLE_BUDGET, *, witness: bool = True
) -> MmsCertificate:
    """Exact maximin share of a submodular valuation over n bundles.

    Bundles are bitmasks valued by f.value_int (memoized for this call: the
    search reaches one mask on many paths), so the search compares ints and
    the share is the optimum over f.scale. The bounds rest on
    f(S + g) - f(S) <= max(0, f({g})), which submodularity gives even
    without monotonicity and ExplicitTable checks: a bundle gains at most
    the positive singleton values of the goods it receives, and their sum
    over all goods, split n ways and floored, caps the share.
    As in the additive oracle, the witness is the lexicographically least
    assignment achieving the optimum (None when witness is False); the
    certificate's agent field is 0 because the valuation stands alone.
    """
    if n < 1:
        raise InvalidInstanceError("need at least one bundle")
    _check_budget(n, f.m, budget)
    singles = [max(0, v) for v in f.singles]
    upper = sum(singles) // n  # the poorest bundle holds at most the mean
    best, partition = _max_min_partition(
        n, [1 << g for g in range(f.m)], singles, singles, operator.or_, cache(f.value_int),
        upper, witness,
    )
    return MmsCertificate(value=Fraction(best, f.scale), witness=partition)


def mms_greedy_submodular(f: SubmodularValuation, n: int) -> Value:
    """A lower bound on the maximin share of f over n bundles, at any size:
    the poorest bundle of the exact oracle's greedy start (goods by
    descending singleton value, each onto the poorest bundle). Any
    n-partition's poorest bundle is one."""
    if n < 1:
        raise InvalidInstanceError("need at least one bundle")
    singles = [max(0, v) for v in f.singles]
    _, _, best = _greedy_start(n, [1 << g for g in range(f.m)], singles, operator.or_, f.value_int)
    return Fraction(best, f.scale)


class SlotObjective:
    """g(S) = sum over slots k of min(cap, f(S_k)), for a partition matroid's
    independent set S given as one bundle mask S_k per slot.

    Monotone and submodular on the (good, slot) ground set whenever f is;
    the cap makes piling value into one slot pointless beyond cap. The
    greedy compares capped_int values, exact ints, on value: f.value_int
    memoized for one probe, as the greedy revisits slot masks.
    """

    __slots__ = ("valuation", "cap", "slots", "value", "_top", "_den")

    def __init__(self, valuation: SubmodularValuation, cap: Value, slots: int):
        if slots < 1:
            raise InvalidInstanceError("need at least one slot")
        if cap < 0:
            raise InvalidInstanceError("cap must be non-negative")
        self.valuation = valuation
        self.cap = cap
        self.slots = slots
        self.value = cache(valuation.value_int)
        self._top = cap.numerator * valuation.scale
        self._den = cap.denominator

    def capped_int(self, mask: int) -> int:
        """min(cap, f(mask)) * f.scale * cap.denominator, an exact int."""
        return min(self._top, self.value(mask) * self._den)

    def capped_single(self, g: int) -> int:
        """capped_int(1 << g), read from the valuation's singles."""
        return min(self._top, self.valuation.singles[g] * self._den)

    def evaluate(self, masks: Iterable[int]) -> Value:
        total = sum(map(self.capped_int, masks))
        return Fraction(total, self.valuation.scale * self.cap.denominator)


def greedy_matroid_max(objective: SlotObjective, goods: Sequence[int]) -> list[int]:
    """Lazy greedy over the partition matroid that puts each good in at most
    one of the objective's slots; 1/2-approximate for submodular g. Returns
    one bundle mask per slot.

    Elements, (good, slot) pairs, come off a max-heap of cached marginal
    gains; a stale gain is recomputed and pushed back (valid because gains
    only shrink). Gains are the objective's capped ints. Ties break on
    lowest good then lowest slot; no two entries share a (gain, good, slot)
    key, so the pop order does not depend on how the heap was built. Every
    good lands in some slot.
    """
    slots = objective.slots
    slot_masks = [0] * slots
    slot_vals = [0] * slots
    capped = objective.capped_int

    def gain(g: int, k: int) -> int:
        return capped(slot_masks[k] | (1 << g)) - slot_vals[k]

    heap = []
    for g in goods:
        first = -objective.capped_single(g)  # every slot starts empty
        heap.extend((first, g, k, 0) for k in range(slots))
    heapq.heapify(heap)
    version = 0
    placed = 0
    left = len(goods)
    while left:
        neg, g, k, stamp = heapq.heappop(heap)
        if placed >> g & 1:
            continue
        if stamp != version:
            heapq.heappush(heap, (-gain(g, k), g, k, version))
            continue
        placed |= 1 << g
        left -= 1
        slot_masks[k] |= 1 << g
        slot_vals[k] = capped(slot_masks[k])
        version += 1
    return slot_masks


@dataclass(frozen=True)
class MmsApproxResult:
    """Outcome of the threshold search for one valuation shared by n agents."""

    allocation: Allocation
    bound: Value  # largest accepted threshold tau*
    min_bundle_value: Value  # the allocation's poorest bundle, evaluated

    @property
    def certified(self) -> bool:
        """9 * the poorest bundle >= bound: mu >= bound / 9, proven."""
        return 9 * self.min_bundle_value >= self.bound


def threshold_probe(f: SubmodularValuation, n: int, tau: Value) -> Allocation | None:
    """Try to build n bundles each worth at least tau/9; None means tau rejected.

    Goods worth at least tau/9 seed bundles of their own; with r bundles
    still needed, greedy_matroid_max packs the rest into 2r slots under the
    cap 4 tau / 9. A tau at or below the true maximin share leaves r bundles
    of an optimal partition that no seed touches, each splitting into two
    slots worth 4 tau / 9, so the optimum is 8 r tau / 9 and the greedy
    reaches half of it: tau is rejected only when the slots stay below
    4 r tau / 9. Accepted thresholds yield: singleton bundles for the seeds,
    the largest r-1 slots as bundles, and everything else merged into the
    last bundle. The factor 1/2 does not promise each bundle tau/9, so
    mms_approx_submodular evaluates the partition it returns.
    """
    if n < 1:
        raise InvalidInstanceError("need at least one agent")
    tau = as_value(tau)
    if tau < 0:
        raise InvalidInstanceError("tau must be non-negative")
    m = f.m
    if tau == 0:
        bundles: list[list[int]] = [[] for _ in range(n)]
        bundles[0] = list(range(m))
        return Allocation(bundles, m)

    # 9 f(g) >= tau, on ints: 9 * scale * f(g) * tau.den >= tau.num * scale
    lhs, rhs = 9 * tau.denominator, tau.numerator * f.scale
    high = [g for g, v in enumerate(f.singles) if lhs * v >= rhs]
    seeds = high[:n]
    left = ((1 << m) - 1) ^ mask_of(seeds, m)  # the goods no seed holds
    if len(seeds) == n:
        bundles = [[h] for h in seeds]
        bundles[0] += goods_of(left)
        return Allocation(bundles, m)

    r = n - len(high)
    objective = SlotObjective(f, cap=Fraction(4, 9) * tau, slots=2 * r)
    slot_masks = greedy_matroid_max(objective, goods_of(left))
    if 9 * objective.evaluate(slot_masks) < 4 * r * tau:
        return None

    kept = sorted(slot_masks, key=objective.value, reverse=True)[: r - 1]  # stable: ties by slot
    merged = left & ~reduce(operator.or_, kept, 0)
    bundles = [[h] for h in high] + [goods_of(s) for s in kept] + [goods_of(merged)]
    return Allocation(bundles, m)


def mms_approx_submodular(
    f: SubmodularValuation, n: int, epsilon: Value = Fraction(1, 100)
) -> MmsApproxResult:
    """Maximin-share lower bound by a bracket search on the threshold.

    Returns the largest accepted tau (searched to multiplicative width
    epsilon), so bound * (1 + epsilon) >= mu, the n-bundle allocation of
    that probe, and its poorest bundle's value, evaluated exactly. certified
    says that 9 times that value reaches the bound: any n-partition's
    poorest bundle is at most mu, so mu >= bound / 9 >= mu / (9 (1 +
    epsilon)). Otherwise the result is a heuristic. The search starts at
    9 s_n (s_n the n-th largest singleton; 0, as is mu, when fewer than n
    goods have value) capped at f(all), which the seeds accept; it probes
    f(all), doubles, then halves. An accept past 9 s_n needs
    4 tau / 9 <= (m - n + 1) s_n, so it makes at most
    ceil(log2 m) + ceil(log2(1/epsilon)) + 3 probes.
    """
    epsilon = as_value(epsilon)
    if epsilon <= 0:
        raise InvalidInstanceError("epsilon must be positive")

    total = f.total()
    singles = sorted(f.singles, reverse=True)
    s_n = singles[n - 1] if 0 < n <= f.m else 0
    lo = max(Fraction(0), min(total, Fraction(9 * s_n, f.scale)))
    lo_alloc = threshold_probe(f, n, lo)
    hi = total if lo > 0 else lo  # lo is 0 only when mu is 0
    top = threshold_probe(f, n, hi) if hi > lo else None
    if top is not None:
        lo, lo_alloc = hi, top
    while hi > lo * (1 + epsilon):  # double lo until a rejection, then halve
        mid = min(2 * lo, (lo + hi) / 2)
        alloc = threshold_probe(f, n, mid)
        if alloc is None:
            hi = mid
        else:
            lo, lo_alloc = mid, alloc
    return MmsApproxResult(lo_alloc, lo, min(map(f.evaluate, lo_alloc.bundles)))
