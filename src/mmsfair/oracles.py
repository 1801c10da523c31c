"""Maximin-share oracles: exact values at desk scale, certified bounds beyond.

The exact oracles enumerate n-partitions with branch and bound (items in
descending magnitude, equal-load and first-empty-bundle symmetry skipping, a
greedy warm start, and a prefix bound), so they are exact but exponential;
the n^m budget guard keeps them honest. A second pass then recovers the
lexicographically least good-to-bundle assignment achieving the optimum, so
witnesses are deterministic and independent of search internals.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BudgetExceededError, InvalidInstanceError
from .model import AdditiveInstance, Allocation, MmsCertificate, Value, as_value, scale_to_ints
from .submodular.multilinear import ONE_MINUS_INV_E_UPPER
from .submodular.valuations import SubmodularValuation, goods_of

DEFAULT_ORACLE_BUDGET = 10**8


def _bundles_of_assignment(assign: Sequence[int], n: int, m: int) -> Allocation:
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g, k in enumerate(assign):
        bundles[k].append(g)
    return Allocation(bundles, m)


def _max_min_value_additive(w: Sequence[int], n: int) -> int:
    """Exact max over n-bundle assignments of the minimum bundle load."""
    order = sorted((g for g in range(len(w)) if w[g] != 0), key=lambda g: (-abs(w[g]), g))
    ws = [w[g] for g in order]
    t_max = len(ws)

    suffix_pos = [0] * (t_max + 1)
    for t in range(t_max - 1, -1, -1):
        suffix_pos[t] = suffix_pos[t + 1] + max(0, ws[t])

    # greedy warm start: largest magnitude first, onto the lightest bundle
    loads = [0] * n
    for wt in ws:
        k = min(range(n), key=lambda b: (abs(loads[b]), b))
        loads[k] += wt
    best_val = min(loads)

    total = sum(ws)
    if n * best_val >= total:
        return best_val
    loads = [0] * n

    def dfs(t: int) -> None:
        nonlocal best_val
        if t == t_max:
            best_val = max(best_val, min(loads))
            return
        if min(loads) + suffix_pos[t] <= best_val:
            return
        wt = ws[t]
        seen: set[int] = set()
        for k in range(n):
            if loads[k] in seen:
                continue
            seen.add(loads[k])
            loads[k] += wt
            dfs(t + 1)
            loads[k] -= wt

    dfs(0)
    return best_val


def _lex_witness_additive(w: Sequence[int], n: int, target: int) -> list[int]:
    """Lexicographically least assignment whose minimum bundle load is target.

    Walks goods in index order trying bundles in index order, so the first
    complete assignment found is the lexicographic minimum. Prunes branches
    whose remaining positive weight cannot lift the poorest bundle to the
    target, skips bundles with duplicate loads (interchangeable futures), and
    memoizes dead load multisets.
    """
    m = len(w)
    suffix_pos = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix_pos[t] = suffix_pos[t + 1] + max(0, w[t])

    loads = [0] * n
    assign = [0] * m
    dead: set[tuple[int, ...]] = set()

    def dfs(t: int) -> bool:
        if t == m:
            return min(loads) >= target
        if min(loads) + suffix_pos[t] < target:
            return False
        key = (t, *sorted(loads))
        if key in dead:
            return False
        wt = w[t]
        seen: set[int] = set()
        for k in range(n):
            if loads[k] in seen:
                continue
            seen.add(loads[k])
            loads[k] += wt
            assign[t] = k
            found = dfs(t + 1)
            loads[k] -= wt
            if found:
                return True
        dead.add(key)
        return False

    if not dfs(0):
        raise RuntimeError("witness search missed the optimum it was given")
    return assign


def _max_min_partition_additive(
    values: Sequence[Value], n: int, budget: int
) -> tuple[Value, Allocation]:
    m = len(values)
    if n ** max(m, 1) > budget:
        raise BudgetExceededError("exact maximin enumeration", n**m, budget)
    if m == 0:
        return Fraction(0), Allocation([[] for _ in range(n)], 0)

    denom, w = scale_to_ints(values)
    best = _max_min_value_additive(w, n)
    assign = _lex_witness_additive(w, n, best)
    return Fraction(best, denom), _bundles_of_assignment(assign, n, m)


def mms_exact_additive(
    instance: AdditiveInstance,
    agent: int,
    n: int | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> MmsCertificate:
    """Exact maximin share of one agent over n bundles, with witness.

    n defaults to the instance's agent count but can be overridden to ask for
    the best min-bundle split of a single value row into any bundle count.
    Works for goods and chores alike (chores: the witness maximizes the most
    negative bundle).
    """
    if not 0 <= agent < instance.n:
        raise InvalidInstanceError(f"agent {agent} out of range [0,{instance.n})")
    bundles = n if n is not None else instance.n
    if bundles < 1:
        raise InvalidInstanceError("need at least one bundle")
    value, witness = _max_min_partition_additive(instance.row(agent), bundles, budget)
    return MmsCertificate(agent=agent, value=value, witness=witness)


def mms_exact_submodular(
    f: SubmodularValuation, n: int, budget: int = DEFAULT_ORACLE_BUDGET
) -> MmsCertificate:
    """Exact maximin share of a submodular valuation over n bundles.

    Branch and bound over canonical partitions; the bound uses subadditivity
    (a bundle can gain at most the positive singleton sum of the unplaced
    goods, which submodularity caps even without monotonicity). As in the
    additive oracle, the witness is the lexicographically least assignment
    achieving the optimum; the certificate's agent field is 0 because the
    valuation stands alone.
    """
    if n < 1:
        raise InvalidInstanceError("need at least one bundle")
    m = f.m
    if n ** max(m, 1) > budget:
        raise BudgetExceededError("exact maximin enumeration", n**m, budget)
    if m == 0:
        return MmsCertificate(
            agent=0, value=Fraction(0), witness=Allocation([[] for _ in range(n)], 0)
        )

    singles = [max(Fraction(0), f.singleton(g)) for g in range(m)]
    order = sorted(range(m), key=lambda g: (-singles[g], g))
    suffix = [Fraction(0)] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + singles[order[t]]

    # greedy warm start: feed the currently poorest bundle
    masks = [0] * n
    vals = [Fraction(0)] * n
    for g in order:
        k = min(range(n), key=lambda b: (vals[b], b))
        masks[k] |= 1 << g
        vals[k] = f.value_mask(masks[k])
    best_val = min(vals)

    masks = [0] * n
    vals = [Fraction(0)] * n

    def dfs(t: int) -> None:
        nonlocal best_val
        if t == m:
            best_val = max(best_val, min(vals))
            return
        if min(vals) + suffix[t] <= best_val:
            return
        bit = 1 << order[t]
        tried_empty = False
        for k in range(n):
            if masks[k] == 0:
                if tried_empty:
                    continue
                tried_empty = True
            old_mask, old_val = masks[k], vals[k]
            masks[k] = old_mask | bit
            vals[k] = f.value_mask(masks[k])
            dfs(t + 1)
            masks[k], vals[k] = old_mask, old_val

    dfs(0)

    # second pass: lexicographically least assignment reaching best_val,
    # goods in index order, bundles tried in index order
    index_suffix = [Fraction(0)] * (m + 1)
    for t in range(m - 1, -1, -1):
        index_suffix[t] = index_suffix[t + 1] + singles[t]
    assign = [0] * m
    dead: set[tuple[int, ...]] = set()

    def lex_dfs(t: int) -> bool:
        if t == m:
            return min(vals) >= best_val
        if min(vals) + index_suffix[t] < best_val:
            return False
        key = tuple(sorted(masks))
        if key in dead:
            return False
        bit = 1 << t
        tried_empty = False
        for k in range(n):
            if masks[k] == 0:
                if tried_empty:
                    continue
                tried_empty = True
            old_mask, old_val = masks[k], vals[k]
            masks[k] = old_mask | bit
            vals[k] = f.value_mask(masks[k])
            assign[t] = k
            found = lex_dfs(t + 1)
            masks[k], vals[k] = old_mask, old_val
            if found:
                return True
        dead.add(key)
        return False

    if not lex_dfs(0):
        raise RuntimeError("witness search missed the optimum it was given")
    return MmsCertificate(
        agent=0, value=best_val, witness=_bundles_of_assignment(assign, n, m)
    )


@dataclass(frozen=True)
class PartitionMatroid:
    """Ground set (good, slot) pairs; independent = at most one slot per good."""

    goods: tuple[int, ...]
    slots: int

    def universe(self) -> list[tuple[int, int]]:
        return [(g, k) for g in self.goods for k in range(self.slots)]

    def is_independent(self, pairs: Iterable[tuple[int, int]]) -> bool:
        used: set[int] = set()
        for g, k in pairs:
            if g not in self.goods or not 0 <= k < self.slots:
                return False
            if g in used:
                return False
            used.add(g)
        return True


class SlotObjective:
    """g(S) = sum over slots k of min(cap, f(S_k)) for S a set of (good, slot) pairs.

    Monotone and submodular on the pair ground set whenever f is; the cap
    makes piling value into one slot pointless beyond cap.
    """

    __slots__ = ("valuation", "cap", "slots")

    def __init__(self, valuation: SubmodularValuation, cap: Value, slots: int):
        if slots < 1:
            raise InvalidInstanceError("need at least one slot")
        if cap < 0:
            raise InvalidInstanceError("cap must be non-negative")
        self.valuation = valuation
        self.cap = cap
        self.slots = slots

    def slot_masks(self, pairs: Iterable[tuple[int, int]]) -> list[int]:
        masks = [0] * self.slots
        for g, k in pairs:
            if not 0 <= k < self.slots:
                raise InvalidInstanceError(f"slot {k} out of range [0,{self.slots})")
            bit = 1 << g
            masks[k] |= bit
        return masks

    def evaluate(self, pairs: Iterable[tuple[int, int]]) -> Value:
        total = Fraction(0)
        for mask in self.slot_masks(pairs):
            total += min(self.cap, self.valuation.value_mask(mask))
        return total


def greedy_matroid_max(
    objective: SlotObjective, matroid: PartitionMatroid
) -> set[tuple[int, int]]:
    """Lazy greedy over the partition matroid; 1/2-approximate for submodular g.

    Elements come off a max-heap of cached marginal gains; a stale gain is
    recomputed and pushed back (valid because gains only shrink). Ties break
    on lowest good then lowest slot. The result is a maximal independent set:
    every good lands in some slot.
    """
    chosen: set[tuple[int, int]] = set()
    slot_masks = [0] * matroid.slots
    slot_vals = [Fraction(0)] * matroid.slots

    def gain(g: int, k: int) -> Value:
        new = min(objective.cap, objective.valuation.value_mask(slot_masks[k] | (1 << g)))
        return new - slot_vals[k]

    heap: list[tuple[Value, int, int, int]] = []
    for g in matroid.goods:
        for k in range(matroid.slots):
            heapq.heappush(heap, (-gain(g, k), g, k, 0))
    version = 0
    placed: set[int] = set()
    while heap and len(placed) < len(matroid.goods):
        neg, g, k, stamp = heapq.heappop(heap)
        if g in placed:
            continue
        if stamp != version:
            heapq.heappush(heap, (-gain(g, k), g, k, version))
            continue
        chosen.add((g, k))
        placed.add(g)
        slot_masks[k] |= 1 << g
        slot_vals[k] = min(objective.cap, objective.valuation.value_mask(slot_masks[k]))
        version += 1
    return chosen


def exhaustive_matroid_max(
    objective: SlotObjective,
    matroid: PartitionMatroid,
    budget: int = 1 << 24,
) -> set[tuple[int, int]]:
    """Exact maximizer of the capped slot objective over the partition matroid.

    Slots are interchangeable under SlotObjective, so this runs an exact
    unlabeled-partition dynamic program over subsets of the goods (integer
    arithmetic after clearing denominators), then labels the parts with
    slots. Cost is about 3^q for q goods.
    """
    goods = list(matroid.goods)
    q = len(goods)
    if q == 0:
        return set()
    if 3**q * max(1, matroid.slots) > budget:
        raise BudgetExceededError("partition maximization", 3**q * matroid.slots, budget)

    def global_mask(local: int) -> int:
        mask = 0
        for t in range(q):
            if local >> t & 1:
                mask |= 1 << goods[t]
        return mask

    capped = [min(objective.cap, objective.valuation.value_mask(global_mask(s))) for s in range(1 << q)]
    _, capped_int = scale_to_ints(capped)

    slots = matroid.slots
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


MATROID_SOLVERS: dict[str, tuple[Callable[[SlotObjective, PartitionMatroid], set], Value]] = {
    "exhaustive": (exhaustive_matroid_max, Fraction(1)),
    "greedy": (greedy_matroid_max, Fraction(1, 2)),
}


def split_bundle(
    f: SubmodularValuation, bundle: Iterable[int], tau: Value
) -> tuple[list[int], list[int]]:
    """Split a bundle worth at least tau into two halves worth at least 4 tau / 9.

    Requires every singleton in the bundle to be worth less than tau/9. Goods
    are moved in ascending index order into the first half until it reaches
    4 tau / 9; submodularity caps each step below tau/9, so the first half
    stays below 5 tau / 9 and the rest keeps more than 4 tau / 9.
    """
    tau = as_value(tau)
    if tau <= 0:
        raise InvalidInstanceError("tau must be positive")
    items = sorted(set(bundle))
    if any(9 * f.singleton(g) >= tau for g in items):
        raise InvalidInstanceError("split needs all singletons below tau/9")
    if f.evaluate(items) < tau:
        raise InvalidInstanceError("split needs a bundle worth at least tau")
    first_mask = 0
    first: list[int] = []
    for g in items:
        if 9 * f.value_mask(first_mask) >= 4 * tau:
            break
        first_mask |= 1 << g
        first.append(g)
    rest = [g for g in items if g not in set(first)]
    return first, rest


@dataclass(frozen=True)
class MmsApproxResult:
    """Outcome of the threshold search for one valuation shared by n agents."""

    allocation: Allocation
    bound: Value  # largest accepted threshold tau*; bundles certify tau*/9
    certified: bool  # False when the solver factor cannot back the certificate
    solver: str


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
    high = [g for g in range(m) if 9 * f.singleton(g) >= tau]
    if len(high) >= n:
        bundles = [[h] for h in high[:n]]
        bundles[0].extend(g for g in range(m) if g not in set(high[:n]))
        return Allocation(bundles, m)

    r = n - len(high)
    rest = [g for g in range(m) if g not in set(high)]
    cap = Fraction(4, 9) * tau
    matroid = PartitionMatroid(goods=tuple(rest), slots=2 * r)
    objective = SlotObjective(f, cap=cap, slots=2 * r)
    independent = solve(objective, matroid)
    if 9 * objective.evaluate(independent) < 8 * factor * r * tau:
        return None

    slot_masks = objective.slot_masks(independent)
    ranked = sorted(range(2 * r), key=lambda k: (-f.value_mask(slot_masks[k]), k))
    kept = [goods_of(slot_masks[k]) for k in ranked[: r - 1]]
    merged: set[int] = set()
    for k in ranked[r - 1:]:
        merged.update(goods_of(slot_masks[k]))
    assigned = set(g for b in kept for g in b) | merged | set(high)
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
            return MmsApproxResult(allocation=top, bound=total, certified=certified, solver=solver)
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
    return MmsApproxResult(allocation=lo_alloc, bound=lo, certified=certified, solver=solver)
