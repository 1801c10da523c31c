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
into the first bundle from which the rest can still reach the optimum, as
a search on the unplaced goods by descending size, from the placed goods'
bundles, shows; that order prunes (Korf's multi-way number partitioning
searches use it), where the index order can take seconds on narrow-valued
rows. Where it does not, a check that runs past a node limit hands over to
the index-order search from the placed bundles, under a limit too, and the
limit grows when both run past it. witness=False skips that pass when only
the value is wanted, and one bundle (n = 1) holds every good without a
search. The search is exact but exponential; the n^m budget guard keeps it
honest. Past that guard, mms_greedy_submodular returns the greedy start's
poorest bundle alone, a lower bound on a submodular share that the audit
reports.

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
from functools import reduce
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, InvalidInstanceError
from .model import AdditiveInstance, Allocation, MmsCertificate, Value, as_value
from .submodular.valuations import SubmodularValuation, goods_of, mask_of

DEFAULT_ORACLE_BUDGET = 10**8
_WITNESS_NODE_LIMIT = 4096  # the checks' first node limit; audit-exact checks stay below it


def _check_budget(n: int, m: int, budget: int) -> None:
    size = n ** max(m, 1)
    if size > budget:
        raise BudgetExceededError("exact maximin enumeration", size, budget)


class _NodeLimit(Exception):
    """A branch and bound search reached its node limit."""


def _branch_and_bound(
    n: int,
    items: Sequence,
    caps: Sequence,
    add: Callable,
    value: Callable | None,
    best,
    stop,
    start: Sequence | None = None,
    limit: int | None = None,
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

    The deficit is carried down, from parent to child through the one bundle
    that grew, and recomputed from every bundle only when best has risen. A
    leaf that passes has deficit 0 and so beats best; it is judged in place.

    Returns best and the assignment of the leaf that ended the search
    (assign[t] is item t's bundle), or None when none did. With a limit, a
    search that would enter more than limit nodes raises _NodeLimit.
    """
    m = len(items)
    headroom = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        headroom[t] = headroom[t + 1] + caps[t]
    keys = [0] * n if start is None else list(start)
    vals = keys if value is None else list(map(value, keys))
    assign = [0] * m
    nodes = -1 if limit is None else limit  # counting down from -1 never reaches 0

    def deficit_of(target) -> int:
        return sum([target - v for v in vals if v < target])

    def dfs(t: int, target, deficit) -> bool:
        nonlocal best, nodes
        if not nodes:
            raise _NodeLimit
        nodes -= 1
        item, room, leaf = items[t], headroom[t + 1], t + 1 == m
        for k in range(n):
            key = keys[k]
            if keys.index(key) < k:
                continue
            if best >= target:  # a leaf reached since target was read beat best
                target = best + 1
                deficit = deficit_of(target)
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
                if leaf:  # deficit 0: every bundle beats best
                    best = min(vals)
                    if best >= stop:
                        return True
                elif dfs(t + 1, target, child):
                    return True
            keys[k] = key
            vals[k] = old
        return False

    deficit = deficit_of(best + 1)
    if deficit > headroom[0]:
        hit = False
    elif m == 0:  # the root is a leaf, and it beats best
        best = min(vals)
        hit = best >= stop
    else:
        hit = dfs(0, best + 1, deficit)
    return best, assign if hit else None


def _greedy_start(
    n: int, items: Sequence, sizes: Sequence, add: Callable, value: Callable | None
) -> tuple[list[int], object]:
    """The items by descending size (ties to the lower index), and the
    poorest bundle of the greedy n-partition that places them in that order,
    each onto the bundle whose value is nearest 0."""
    order = sorted(range(len(items)), key=lambda g: (-sizes[g], g))
    keys = [0] * n
    vals = keys if value is None else [value(0)] * n
    for g in order:
        k = min(range(n), key=lambda b: abs(vals[b]))
        keys[k] = add(keys[k], items[g])
        if value is not None:
            vals[k] = value(keys[k])
    return order, min(vals)


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

    One bundle holds every item, so n = 1 needs no search. Otherwise the
    value pass places items by descending size, from the greedy start's
    poorest bundle, and stops early at upper. The witness is then fixed one
    item at a time, in index order, by checks: the engine on the unplaced
    items by descending size, from the placed bundles' keys, with best =
    mu - 1 and stop = mu. The last check that hit names a bundle c for the
    next item; c is relabelled to the first bundle with its key (bundles
    with equal keys are interchangeable), and the item goes into the first
    bundle below c with a key of its own whose check hits, or else into c.
    A failed check covers a subtree that the index-order search exhausts as
    well, so the result is that search's first hit.

    That order can also be the slow one: on a uniform row with n = 3 and
    m = 40 a check hits only after millions of nodes where the index order
    needs dozens. So checks run under a node limit, _WITNESS_NODE_LIMIT at
    first. A check that reaches it hands over to the engine on the unplaced
    items in index order, from the placed bundles' keys, with half the
    limit: the placed items are the first of the index-order hit, so that
    search's first hit completes it. When both reach their limits, it grows
    16-fold and the item's checks run again. It never shrinks, so the work
    that it cuts short or repeats is at most about n + 1 times the nodes of
    the largest check.
    """
    m = len(items)
    if n == 1:
        key = reduce(add, items, 0)
        share = key if value is None else value(key)
        return share, Allocation([range(m)], m) if witness else None
    order, best = _greedy_start(n, items, sizes, add, value)
    if best < upper:
        best, _ = _branch_and_bound(
            n, [items[g] for g in order], [caps[g] for g in order], add, value, best, upper
        )
    if not witness:
        return best, None

    def completion(t: int, keys: list) -> list[int] | None:
        """owner[g], a bundle for each item g >= t, with which keys reach
        best; None when no such completion exists. Raises _NodeLimit."""
        rest = [g for g in order if g >= t]
        _, assign = _branch_and_bound(
            n, [items[g] for g in rest], [caps[g] for g in rest], add, value, best - 1, best,
            keys, limit,
        )
        if assign is None:
            return None
        owner = [0] * m
        for g, k in zip(rest, assign):
            owner[g] = k
        return owner

    keys = [0] * n
    bundles: list[list[int]] = [[] for _ in range(n)]
    owner, t, limit = None, 0, _WITNESS_NODE_LIMIT
    while t < m:
        try:
            if owner is None:
                owner = completion(0, keys)
                if owner is None:
                    raise RuntimeError("witness search missed the optimum it was given")
            c = owner[t]
            first = keys.index(keys[c])
            if first < c:  # swap the labels of two bundles with equal keys
                owner = [c if k == first else first if k == c else k for k in owner]
                c = first
            for k in range(c):
                if keys.index(keys[k]) < k:
                    continue
                trial = keys.copy()
                trial[k] = add(keys[k], items[t])
                hit = completion(t + 1, trial)
                if hit is not None:
                    c, owner = k, hit
                    break
        except _NodeLimit:  # the rest in index order, whose first hit ends the witness
            try:
                _, assign = _branch_and_bound(
                    n, items[t:], caps[t:], add, value, best - 1, best, keys, limit // 2
                )
            except _NodeLimit:
                limit *= 16
                continue
            if assign is None:
                raise RuntimeError("witness search missed the optimum it was given")
            for g, k in enumerate(assign, t):
                bundles[k].append(g)
            break
        keys[c] = add(keys[c], items[t])
        bundles[c].append(t)
        t += 1
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

    Bundles are bitmasks valued by f.value_int, so the search compares ints
    and the share is the optimum over f.scale. The bounds rest on
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
    singles = [max(0, f.value_int(1 << g)) for g in range(f.m)]
    upper = sum(singles) // n  # the poorest bundle holds at most the mean
    best, partition = _max_min_partition(
        n, [1 << g for g in range(f.m)], singles, singles, operator.or_, f.value_int, upper,
        witness,
    )
    return MmsCertificate(value=Fraction(best, f.scale), witness=partition)


def mms_greedy_submodular(f: SubmodularValuation, n: int) -> Value:
    """A lower bound on the maximin share of f over n bundles, at any size:
    the poorest bundle of the exact oracle's greedy start (goods by
    descending singleton value, each onto the poorest bundle). Any
    n-partition's poorest bundle is one."""
    if n < 1:
        raise InvalidInstanceError("need at least one bundle")
    singles = [max(0, f.value_int(1 << g)) for g in range(f.m)]
    _, best = _greedy_start(n, [1 << g for g in range(f.m)], singles, operator.or_, f.value_int)
    return Fraction(best, f.scale)


class SlotObjective:
    """g(S) = sum over slots k of min(cap, f(S_k)), for a partition matroid's
    independent set S given as one bundle mask S_k per slot.

    Monotone and submodular on the (good, slot) ground set whenever f is;
    the cap makes piling value into one slot pointless beyond cap. The
    greedy compares capped_int values, exact ints.
    """

    __slots__ = ("valuation", "cap", "slots", "_top")

    def __init__(self, valuation: SubmodularValuation, cap: Value, slots: int):
        if slots < 1:
            raise InvalidInstanceError("need at least one slot")
        if cap < 0:
            raise InvalidInstanceError("cap must be non-negative")
        self.valuation = valuation
        self.cap = cap
        self.slots = slots
        self._top = cap.numerator * valuation.scale

    def capped_int(self, mask: int) -> int:
        """min(cap, f(mask)) * f.scale * cap.denominator, an exact int."""
        return min(self._top, self.valuation.value_int(mask) * self.cap.denominator)

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
        first = -capped(1 << g)  # every slot starts empty
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
    high = [g for g in range(m) if lhs * f.value_int(1 << g) >= rhs]
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

    kept = sorted(slot_masks, key=f.value_int, reverse=True)[: r - 1]  # stable: ties by slot
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
    singles = sorted((f.value_int(1 << g) for g in range(f.m)), reverse=True)
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
