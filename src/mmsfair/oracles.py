"""Maximin-share oracles: exact values at desk scale, certified bounds beyond.

Both exact oracles run one branch and bound over assignments of goods to n
bundles. A bundle is a key grown good by good: its integer load for an
additive row (scaled to ints), its bitmask for a submodular valuation. The
search skips a bundle whose key an earlier bundle shares and prunes a node
whose bundles' total deficit below the target exceeds the positive value
the unplaced goods can still add (a bin-completion style bound from number
partitioning). A value pass, goods by descending singleton magnitude from a
greedy warm start, finds the optimum and stops once it meets an upper bound
(the total over n for additive rows, the positive singleton sum over n for
submodular ones). A witness pass, goods in index order, then returns the
lexicographically least good-to-bundle assignment achieving it, so
witnesses are deterministic and independent of search internals; its memo
of dead states is cleared at DEAD_MEMO_CAP entries. witness=False skips
that pass when only the value is wanted. The search is exact but
exponential; the n^m budget guard keeps it honest. Past that guard,
mms_greedy_submodular returns the greedy start's poorest bundle alone, a
lower bound on a submodular share that the audit reports.

For a single monotone submodular valuation shared by n agents,
mms_approx_submodular binary-searches a threshold tau and certifies bundles
worth at least tau/9 each: goods whose singleton value reaches tau/9 seed
their own bundles, and the rest are packed into 2r slots (r bundles still
needed) by maximizing the capped objective sum_k min(4 tau / 9, f(S_k)) over
a partition matroid. A threshold is rejected when the solver's output stays
below (8/9) * c * r * tau, where c is the solver's approximation factor; a
tau below the true maximin share is never rejected. The exhaustive solver
(c = 1) yields a certified bound of at least mu * (1 - epsilon) / 9; the lazy
greedy solver (c = 1/2) is faster but its output is flagged heuristic because
c falls below 1 - 1/e, the factor the per-bundle certificate needs.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, InvalidInstanceError
from .model import AdditiveInstance, Allocation, MmsCertificate, Value, as_value
from .submodular.valuations import SubmodularValuation, goods_of

DEFAULT_ORACLE_BUDGET = 10**8
DEAD_MEMO_CAP = 1 << 18  # dead states the witness pass keeps before it clears its memo


def _check_budget(n: int, m: int, budget: int) -> None:
    if n ** max(m, 1) > budget:
        raise BudgetExceededError("exact maximin enumeration", n**m, budget)


def _branch_and_bound(
    n: int,
    items: Sequence,
    caps: Sequence,
    add: Callable,
    value: Callable | None,
    best,
    stop=None,
) -> tuple[object, list[int] | None]:
    """Depth-first branch and bound over the assignments of items to n bundles.

    Items are placed in the given order. A bundle is a key that starts at 0
    and grows by add(key, item); value(key) is its value (None: the key is
    its own value), and caps[t] bounds what item t can add to any bundle's
    value. Bundles are tried in index order, skipping one whose key an
    earlier bundle already has, since equal keys have the same futures.

    A node is dead when its bundles' total deficit, the sum over bundles of
    max(0, target - value), exceeds the caps of the unplaced items: each
    bundle gains at most the caps of the items it receives, and those items
    are split among the bundles. The value pass (stop given) has target
    best + 1 and looks for leaves whose minimum beats best: each raises
    best, and the first to reach stop, an upper bound, ends the search. The
    witness pass (stop None) is given the optimum as best, has target best
    and ends at the first leaf that reaches it; it remembers dead states by
    (t, *sorted(keys)). That memo is cleared once it holds DEAD_MEMO_CAP
    states; a forgotten state is only searched again, so the witness is the
    same, the lexicographically least.

    Returns best and the assignment of the leaf that ended the search
    (assign[t] is item t's bundle), or None when none did.
    """
    witness = stop is None
    m = len(items)
    headroom = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        headroom[t] = headroom[t + 1] + caps[t]
    keys = [0] * n
    vals = keys if value is None else [value(0)] * n
    assign = [0] * m
    dead: set[tuple] = set()

    def dfs(t: int) -> bool:
        nonlocal best
        if t == m:
            lo = min(vals)
            if witness:
                return lo >= best
            if lo > best:
                best = lo
                return lo >= stop
            return False
        target = best if witness else best + 1
        if sum([target - v for v in vals if v < target]) > headroom[t]:
            return False
        if witness:
            state = (t, *sorted(keys))
            if state in dead:
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
        if witness:
            if len(dead) >= DEAD_MEMO_CAP:
                dead.clear()
            dead.add(state)
        return False

    hit = dfs(0)
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
    (None unless witness).

    The value pass places items by descending size, starting from the greedy
    start's poorest bundle, and stops early at upper. The witness pass
    places items in index order, so its first hit is the lexicographic least.
    """
    m = len(items)
    order, best = _greedy_start(n, items, sizes, add, value)
    if best < upper:
        best, _ = _branch_and_bound(
            n, [items[g] for g in order], [caps[g] for g in order], add, value, best, upper
        )
    if not witness:
        return best, None
    _, assign = _branch_and_bound(n, items, caps, add, value, best)
    if assign is None:
        raise RuntimeError("witness search missed the optimum it was given")
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, k in enumerate(assign):
        bundles[k].append(g)
    return best, Allocation(bundles, m)


def mms_exact_additive(
    instance: AdditiveInstance,
    agent: int,
    n: int | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
    *,
    witness: bool = True,
) -> MmsCertificate:
    """Exact maximin share of one agent over n bundles, with witness.

    n defaults to the instance's agent count but can be overridden to ask for
    the best min-bundle split of a single value row into any bundle count.
    Works for goods and chores alike (chores: the witness maximizes the most
    negative bundle). witness=False skips the witness pass and leaves the
    certificate's witness None.
    """
    if not 0 <= agent < instance.n:
        raise InvalidInstanceError(f"agent {agent} out of range [0,{instance.n})")
    bundles = n if n is not None else instance.n
    if bundles < 1:
        raise InvalidInstanceError("need at least one bundle")
    _check_budget(bundles, instance.m, budget)
    denom, w = instance.scales[agent], instance.ints[agent]
    upper = sum(w) // bundles  # the poorest bundle holds at most the mean
    best, partition = _max_min_partition(
        bundles, w, [abs(x) for x in w], [max(0, x) for x in w], operator.add, None, upper,
        witness,
    )
    return MmsCertificate(agent=agent, value=Fraction(best, denom), witness=partition)


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
    return MmsCertificate(agent=0, value=Fraction(best, f.scale), witness=partition)


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
    """g(S) = sum over slots k of min(cap, f(S_k)) for S a set of (good, slot) pairs.

    Monotone and submodular on the pair ground set whenever f is; the cap
    makes piling value into one slot pointless beyond cap. The solvers
    compare capped_int values, exact ints.
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

    def slot_masks(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        masks = [0] * self.slots
        for g, k in pairs:
            if not 0 <= k < self.slots:
                raise InvalidInstanceError(f"slot {k} out of range [0,{self.slots})")
            bit = 1 << g
            masks[k] |= bit
        return masks

    def evaluate(self, pairs: Iterable[tuple[int, int]]) -> Value:
        total = sum(map(self.capped_int, self.slot_masks(pairs)))
        return Fraction(total, self.valuation.scale * self.cap.denominator)


def greedy_matroid_max(objective: SlotObjective, goods: Sequence[int]) -> set[tuple[int, int]]:
    """Lazy greedy over the partition matroid of the (good, slot) pairs, each
    good in at most one of the objective's slots; 1/2-approximate for
    submodular g.

    Elements come off a max-heap of cached marginal gains; a stale gain is
    recomputed and pushed back (valid because gains only shrink). Gains are
    the objective's capped ints. Ties break on lowest good then lowest slot;
    no two entries share a (gain, good, slot) key, so the pop order does not
    depend on how the heap was built. The result is a maximal independent
    set: every good lands in some slot.
    """
    chosen: set[tuple[int, int]] = set()
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
    placed: set[int] = set()
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
        slot_vals[k] = capped(slot_masks[k])
        version += 1
    return chosen


def exhaustive_matroid_max(
    objective: SlotObjective, goods: Sequence[int], budget: int = 1 << 24
) -> set[tuple[int, int]]:
    """Exact maximizer of the capped slot objective over greedy_matroid_max's matroid.

    Slots are interchangeable under SlotObjective, so this runs an exact
    unlabeled-partition dynamic program over subsets of the goods (on the
    objective's capped ints), then labels the parts with slots. Cost is
    about 3^q for q goods.
    """
    q = len(goods)
    slots = objective.slots
    if q == 0:
        return set()
    if 3**q * slots > budget:
        raise BudgetExceededError("partition maximization", 3**q * slots, budget)

    def global_mask(local: int) -> int:
        mask = 0
        for t in range(q):
            if local >> t & 1:
                mask |= 1 << goods[t]
        return mask

    capped_int = [objective.capped_int(global_mask(s)) for s in range(1 << q)]

    full = (1 << q) - 1
    neg = -1
    best_prev = [0] + [neg] * full  # zero slots: only the empty set is feasible
    choice: list[list[int]] = []
    for _ in range(slots):
        best_cur = [0] * (full + 1)
        pick = [0] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            best = neg
            best_sub = 0
            sub = mask
            while sub:
                if sub & low:
                    rest = best_prev[mask ^ sub]
                    if rest >= 0:
                        cand = capped_int[sub] + rest
                        if cand > best:
                            best = cand
                            best_sub = sub
                sub = (sub - 1) & mask
            best_cur[mask] = best
            pick[mask] = best_sub
        best_prev = best_cur
        choice.append(pick)

    pairs: set[tuple[int, int]] = set()
    mask = full
    slot = 0
    for layer in range(slots - 1, -1, -1):
        if not mask:
            break
        sub = choice[layer][mask]
        for t in range(q):
            if sub >> t & 1:
                pairs.add((goods[t], slot))
        slot += 1
        mask ^= sub
    return pairs


# 6322/10000 is a hair above 1 - 1/e, the factor the per-bundle certificate
# needs, so a solver factor at least this large certifies it exactly.
ONE_MINUS_INV_E_UPPER = Fraction(6322, 10000)

MATROID_SOLVERS: dict[str, tuple[Callable[[SlotObjective, Sequence[int]], set], Value]] = {
    "exhaustive": (exhaustive_matroid_max, Fraction(1)),
    "greedy": (greedy_matroid_max, Fraction(1, 2)),
}


@dataclass(frozen=True)
class MmsApproxResult:
    """Outcome of the threshold search for one valuation shared by n agents."""

    allocation: Allocation
    bound: Value  # largest accepted threshold tau*; bundles certify tau*/9
    certified: bool  # False when the solver factor cannot back the certificate


def threshold_probe(
    f: SubmodularValuation, n: int, tau: Value, solver: str = "exhaustive"
) -> Allocation | None:
    """Try to build n bundles each worth at least tau/9; None means tau rejected.

    Never rejects a tau at or below the true maximin share, for either
    solver. Accepted thresholds yield: singleton bundles for goods worth at
    least tau/9, the largest r-1 solver slots as bundles, and everything else
    merged into the last bundle.
    """
    if solver not in MATROID_SOLVERS:
        raise InvalidInstanceError(f"unknown matroid solver {solver!r}")
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

    solve, factor = MATROID_SOLVERS[solver]
    # 9 f(g) >= tau, on ints: 9 * scale * f(g) * tau.den >= tau.num * scale
    lhs, rhs = 9 * tau.denominator, tau.numerator * f.scale
    high = [g for g in range(m) if lhs * f.value_int(1 << g) >= rhs]
    if len(high) >= n:
        seeds = set(high[:n])
        bundles = [[h] for h in high[:n]]
        bundles[0].extend(g for g in range(m) if g not in seeds)
        return Allocation(bundles, m)

    r = n - len(high)
    high_set = set(high)
    rest = [g for g in range(m) if g not in high_set]
    cap = Fraction(4, 9) * tau
    objective = SlotObjective(f, cap=cap, slots=2 * r)
    independent = solve(objective, rest)
    if 9 * objective.evaluate(independent) < 8 * factor * r * tau:
        return None

    slot_masks = objective.slot_masks(independent)
    ranked = sorted(range(2 * r), key=lambda k: (-f.value_int(slot_masks[k]), k))
    kept = [goods_of(slot_masks[k]) for k in ranked[: r - 1]]
    merged: set[int] = set()
    for k in ranked[r - 1:]:
        merged.update(goods_of(slot_masks[k]))
    assigned = set(g for b in kept for g in b) | merged | high_set
    merged.update(g for g in range(m) if g not in assigned)
    bundles = [[h] for h in high] + [sorted(b) for b in kept] + [sorted(merged)]
    return Allocation(bundles, m)


def mms_approx_submodular(
    f: SubmodularValuation,
    n: int,
    solver: str = "exhaustive",
    epsilon: Value = Fraction(1, 100),
) -> MmsApproxResult:
    """Certified maximin-share lower bound by binary search on the threshold.

    Returns the largest accepted tau (searched to multiplicative width
    epsilon) and an n-bundle allocation whose bundles are each worth at least
    tau/9. With the exhaustive solver the bound is certified and lands at
    mu (1 - epsilon) / 9 or better per bundle; with the greedy solver the
    returned partition is a heuristic and certified is False.
    """
    epsilon = as_value(epsilon)
    if epsilon <= 0:
        raise InvalidInstanceError("epsilon must be positive")
    if solver not in MATROID_SOLVERS:
        raise InvalidInstanceError(f"unknown matroid solver {solver!r}")
    factor = MATROID_SOLVERS[solver][1]
    certified = factor >= ONE_MINUS_INV_E_UPPER

    total = f.total()
    lo = Fraction(0)
    lo_alloc = threshold_probe(f, n, lo, solver)
    assert lo_alloc is not None
    if total > 0:
        top = threshold_probe(f, n, total, solver)
        if top is not None:
            return MmsApproxResult(allocation=top, bound=total, certified=certified)
        hi = total
        for _ in range(64):
            if hi <= lo * (1 + epsilon):
                break
            mid = (lo + hi) / 2
            alloc = threshold_probe(f, n, mid, solver)
            if alloc is None:
                hi = mid
            else:
                lo, lo_alloc = mid, alloc
    if certified and lo > 0:
        worst = min(f.evaluate(b) for b in lo_alloc.bundles)
        if 9 * worst < lo:
            raise RuntimeError("certified partition failed its own bound")
    return MmsApproxResult(allocation=lo_alloc, bound=lo, certified=certified)
