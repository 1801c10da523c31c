"""Checks of the proof lemmas behind the solvers, used only by the tests.

The solvers never call these; the tests use them to confirm, on concrete
runs, the structural facts the guarantees rest on: envy-freeness up to one
or any good (envies, is_ef1, is_efx), envy-freeness up to any good along a
replayed goods run, the forced pairing shape of its early partial
allocations, majorization of bundle values, an exact oracle's certificate
against its witness, invariance of the maximin share under the ordering
reduction, the pairing partition behind the chores bound, the
admissibility of a submodular valuation, the bundle split behind the tau/9
threshold search, and the partition matroid the slot solvers maximize over.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from reference import rotate

from mmsfair.envy_graph import RunTrace
from mmsfair.errors import InvalidInstanceError, NotOrderedError
from mmsfair.model import GOODS, AdditiveInstance, Allocation, MmsCertificate, Value, as_value
from mmsfair.oracles import DEFAULT_ORACLE_BUDGET, mms_exact_additive
from mmsfair.ordering import is_ordered, to_ordered
from mmsfair.submodular.valuations import SubmodularValuation, goods_of


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
            rotate(bundles, cycle)
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


def check_certificate(cert: MmsCertificate, valuation: object, agent: int = 0) -> bool:
    """Re-evaluate a certificate's witness; valuation is an AdditiveInstance,
    read through the given agent's row, or anything with an evaluate(bundle)
    method (submodular oracles). A certificate without a witness proves
    nothing and fails."""
    if cert.witness is None or not cert.witness.is_complete():
        return False
    if isinstance(valuation, AdditiveInstance):
        worst = min(valuation.value(agent, b) for b in cert.witness.bundles)
    else:
        worst = min(valuation.evaluate(b) for b in cert.witness.bundles)
    return worst == cert.value


def mms_invariance_check(instance: AdditiveInstance, budget: int | None = None) -> bool:
    """True iff sorting rows leaves every agent's exact maximin share unchanged.

    The maximin share only depends on each row as a multiset, so this must
    hold for every instance the exact oracle can handle. Raises the oracle's
    budget error on instances too large to brute-force.
    """
    if budget is None:
        budget = DEFAULT_ORACLE_BUDGET
    ordered = to_ordered(instance)
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
    if any(9 * f.value_mask(1 << g) >= tau for g in items):
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


@dataclass(frozen=True)
class SubmodularityReport:
    """Outcome of checking a set-function oracle for admissibility.

    ok is True when every check passed; the report is truthy exactly then.
    On failure, reason names the broken property and violation holds the
    offending (A, B, g): for a submodularity break, A is a proper subset of B,
    g lies outside B, and g's marginal onto A is smaller than onto B; for a
    monotonicity break B = A + g lost value; for a negative value A = B names
    the bundle and g is None.
    """

    ok: bool
    reason: str | None = None
    violation: tuple[tuple[int, ...], tuple[int, ...], int | None] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _admissibility_trial(
    f: SubmodularValuation, a: int, b: int, g: int | None
) -> SubmodularityReport | None:
    """Check one nested pair a <= b with g outside b; None means no violation."""
    va = f.value_mask(a)
    if va < 0:
        bad = tuple(goods_of(a))
        return SubmodularityReport(False, "negative value", (bad, bad, None))
    if g is None:
        return None
    bit = 1 << g
    gain_a = f.value_mask(a | bit) - va
    if gain_a < 0:
        return SubmodularityReport(
            False, "not monotone", (tuple(goods_of(a)), tuple(goods_of(a | bit)), g)
        )
    if b != a:
        gain_b = f.value_mask(b | bit) - f.value_mask(b)
        if gain_b > gain_a:
            return SubmodularityReport(
                False, "not submodular", (tuple(goods_of(a)), tuple(goods_of(b)), g)
            )
    return None


def verify_submodular(f: SubmodularValuation) -> SubmodularityReport:
    """Check normalization, non-negativity, monotonicity and submodularity.

    Exhaustive: every subset, and every adjacent pair (A, A + h) with a good
    g outside both. An adjacent violation exists whenever any violation
    does, so a pass is a proof. It costs about 2^m m^2 queries, for small m.
    """
    m = f.m
    if f.value_mask(0) != 0:
        return SubmodularityReport(False, "empty set not worth 0", ((), (), None))
    for mask in range(1 << m):
        trials = [(mask, None)]
        for g in range(m):
            if not mask >> g & 1:
                trials.append((mask, g))
                trials.extend(
                    (mask | 1 << h, g) for h in range(m) if h != g and not mask >> h & 1
                )
        for b, g in trials:
            hit = _admissibility_trial(f, mask, b, g)
            if hit is not None:
                return hit
    return SubmodularityReport(True)


def is_independent(goods: Sequence[int], slots: int, masks: Sequence[int]) -> bool:
    """True iff masks holds one bundle mask per slot of the partition
    matroid, using only the given goods, each at most once."""
    allowed = sum(1 << g for g in set(goods))
    used = 0
    for mask in masks:
        if mask & used or mask & ~allowed:
            return False
        used |= mask
    return len(masks) == slots
