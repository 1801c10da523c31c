"""Checks of the proof lemmas behind the solvers, used only by the tests.

The solvers never call these; the tests use them to confirm, on concrete
runs, the structural facts the guarantees rest on: envy-freeness up to one
or any good (envies, is_ef1, is_efx), envy-freeness up to any good along a
replayed goods run, the forced pairing shape of its early partial
allocations, majorization of bundle values, invariance of the maximin share
under the ordering reduction, the bundle split behind the tau/9 threshold
search, and the partition matroid the slot solvers maximize over.
"""

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from mmsfair.envy_graph import RunTrace, _rotate
from mmsfair.errors import InvalidInstanceError, NotOrderedError
from mmsfair.model import GOODS, AdditiveInstance, Allocation, Value, as_value
from mmsfair.oracles import DEFAULT_ORACLE_BUDGET, PartitionMatroid, mms_exact_additive
from mmsfair.ordering import is_ordered, to_ordered
from mmsfair.submodular.valuations import SubmodularValuation


def envies(instance: AdditiveInstance, allocation: Allocation, i: int, j: int) -> bool:
    """True iff agent i strictly prefers agent j's bundle to its own."""
    return instance.value(i, allocation.bundles[i]) < instance.value(i, allocation.bundles[j])


def is_ef1(instance: AdditiveInstance, allocation: Allocation) -> bool:
    """Envy-free up to one good: some good dropped from the envied bundle
    kills the envy.

    For every ordered pair (i, j) with a nonempty A_j there must be a g in
    A_j with v_i(A_i) >= v_i(A_j - g); empty rival bundles demand
    v_i(A_i) >= 0, vacuous for goods. The predicate is about goods; chores
    guarantees in this package are measured by value ratios, not envy.
    """
    n = allocation.n
    for i in range(n):
        own = instance.value(i, allocation.bundles[i])
        for j in range(n):
            if i == j:
                continue
            other = allocation.bundles[j]
            if own >= instance.value(i, other):
                continue
            if not any(own >= instance.value(i, other - {g}) for g in other):
                return False
    return True


def is_efx(instance: AdditiveInstance, allocation: Allocation) -> bool:
    """Envy-free up to any good: dropping *any* good from the envied bundle
    kills the envy. Same conventions as is_ef1, with the quantifier flipped."""
    n = allocation.n
    for i in range(n):
        own = instance.value(i, allocation.bundles[i])
        for j in range(n):
            if i == j:
                continue
            other = allocation.bundles[j]
            if own >= instance.value(i, other):
                continue
            if not all(own >= instance.value(i, other - {g}) for g in other):
                return False
    return True


def replay(trace: RunTrace) -> Iterator[tuple[list[frozenset[int]], list[frozenset[int]]]]:
    """Yield (after assignment, after cycle resolution) bundles per step."""
    bundles: list[frozenset[int]] = [frozenset() for _ in range(trace.n)]
    for step in trace.steps:
        bundles[step.agent] = bundles[step.agent] | {step.item}
        mid = list(bundles)
        for cycle in step.cycles:
            _rotate(bundles, cycle)
        yield mid, list(bundles)


def check_efx_trace(instance: AdditiveInstance, trace: RunTrace) -> bool:
    """Replay a run and check envy-freeness up to any good at every step.

    Both intermediate states per step are checked: right after the item is
    assigned and again after cycle resolution.
    """
    for mid, end in replay(trace):
        if not is_efx(instance, Allocation(mid, trace.m)):
            return False
        if not is_efx(instance, Allocation(end, trace.m)):
            return False
    return True


def majorizes(a: Sequence[Value], b: Sequence[Value]) -> bool:
    """True iff sequence a majorizes b: sorted-descending prefix sums of a
    dominate those of b. Requires equal lengths and equal totals."""
    if len(a) != len(b):
        raise InvalidInstanceError("majorization compares equal-length sequences")
    xs = sorted(a, reverse=True)
    ys = sorted(b, reverse=True)
    if sum(xs) != sum(ys):
        raise InvalidInstanceError("majorization requires equal totals")
    run_a = Fraction(0)
    run_b = Fraction(0)
    for x, y in zip(xs, ys):
        run_a += x
        run_b += y
        if run_a < run_b:
            return False
    return True


def _strictly_decreasing_rows(instance: AdditiveInstance) -> bool:
    return all(
        all(row[a] > row[a + 1] for a in range(len(row) - 1))
        for row in instance.values
    )


def check_prefix_structure(instance: AdditiveInstance, trace: RunTrace) -> bool:
    """Check the forced shape of early partial allocations on distinct-value runs.

    On an ordered goods instance whose rows are strictly decreasing, as long
    as every bundle still has at most two items, the partial allocation after
    n+h items (h >= 0) is forced up to bundle order: items 0..n-h-1 sit in
    singletons and the remaining 2h items pair up first-with-last, i.e.
    {n-h, n+h-1}, {n-h+1, n+h-2}, ..., {n-1, n}. The check replays the trace
    and compares bundle multisets step by step until a bundle reaches size 3.
    """
    if instance.kind != GOODS:
        raise InvalidInstanceError("prefix structure is defined for goods instances")
    if not is_ordered(instance):
        raise NotOrderedError("prefix structure needs an ordered instance")
    if not _strictly_decreasing_rows(instance):
        raise InvalidInstanceError("prefix structure needs strictly decreasing rows")
    n = trace.n
    for count, (_, end) in enumerate(replay(trace), start=1):
        if max(len(b) for b in end) > 2:
            break
        if count <= n:
            expected = [{g} for g in range(count)]
        else:
            h = count - n
            expected = [{g} for g in range(n - h)]
            expected += [{n - h + k, n + h - 1 - k} for k in range(h)]
        got = sorted((sorted(b) for b in end if b), key=lambda b: b[0])
        want = sorted((sorted(b) for b in expected), key=lambda b: b[0])
        if got != want:
            return False
    return True


def mms_invariance_check(instance: AdditiveInstance, budget: int | None = None) -> bool:
    """True iff sorting rows leaves every agent's exact maximin share unchanged.

    The maximin share only depends on each row as a multiset, so this must
    hold for every instance the exact oracle can handle. Raises the oracle's
    budget error on instances too large to brute-force.
    """
    if budget is None:
        budget = DEFAULT_ORACLE_BUDGET
    ordered = to_ordered(instance).ordered
    for i in range(instance.n):
        before = mms_exact_additive(instance, i, budget=budget)
        after = mms_exact_additive(ordered, i, budget=budget)
        if before.value != after.value:
            return False
    return True


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
    return first, items[len(first):]


def universe(matroid: PartitionMatroid) -> list[tuple[int, int]]:
    """Every (good, slot) pair of the matroid's ground set."""
    return [(g, k) for g in matroid.goods for k in range(matroid.slots)]


def is_independent(matroid: PartitionMatroid, pairs: Iterable[tuple[int, int]]) -> bool:
    """True iff pairs use only the matroid's goods and slots, each good at most once."""
    used: set[int] = set()
    for g, k in pairs:
        if g not in matroid.goods or not 0 <= k < matroid.slots:
            return False
        if g in used:
            return False
        used.add(g)
    return True
