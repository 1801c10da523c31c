"""Threshold round robin for submodular agents and its self-calibrating wrapper.

round_robin takes one threshold per agent and runs two phases. Phase one
scans agents in index order; an agent whose best remaining good is worth at
least a tenth of its threshold takes that single good and retires. Phase two
cycles the remaining agents in index order, each picking the good with the
largest marginal gain to its bundle. Whenever an agent's threshold is at most
its maximin share, its final bundle is worth at least a tenth of the
threshold, regardless of what thresholds the others were given.

alg_sub removes the need to know maximin shares: it starts every threshold at
the agent's value for the whole ground set and repeatedly divides the
thresholds of unsatisfied agents by (1 + delta), rerunning round_robin, until
everyone clears a tenth of their own threshold. Thresholds then sit above
mu_i/(1+delta), so every agent gets at least mu_i / (10 (1+delta)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, log, log1p
from typing import Sequence

from ..errors import InvalidInstanceError
from ..model import Allocation, Value, as_value
from .valuations import SubmodularValuation, detect_positive_mms


def _check_shared_ground(valuations: Sequence[SubmodularValuation]) -> tuple[int, int]:
    if not valuations:
        raise InvalidInstanceError("need at least one agent")
    m = valuations[0].m
    if any(v.m != m for v in valuations):
        raise InvalidInstanceError("all agents must share one ground set")
    return len(valuations), m


def round_robin(
    valuations: Sequence[SubmodularValuation], thresholds: Sequence[Value]
) -> Allocation:
    """Two-phase allocation: singleton grabs at tau_i/10, then max-marginal turns.

    Returns a complete allocation. If phase one retires every agent while
    goods remain (all thresholds tiny), the leftovers are dealt by continuing
    the phase-two loop over all agents; monotonicity keeps every guarantee.
    Values are compared as the valuations' scaled ints; ties go to the
    lowest good.
    """
    n, m = _check_shared_ground(valuations)
    taus = [as_value(t) for t in thresholds]
    if len(taus) != n:
        raise InvalidInstanceError("need one threshold per agent")

    free = list(range(m))  # ascending
    masks = [0] * n
    active = []
    for i in range(n):
        value = valuations[i].value_int
        best = max(free, key=lambda g: (value(1 << g), -g), default=-1)
        if best >= 0 and _clears_tenth(valuations[i], 1 << best, taus[i]):
            masks[i] = 1 << best
            free.remove(best)
        else:
            active.append(i)

    turn_order = active if active else list(range(n))
    while free:
        for i in turn_order:
            if not free:
                break
            value = valuations[i].value_int
            mask = masks[i]
            best = max(free, key=lambda g: (value(mask | 1 << g), -g))
            masks[i] |= 1 << best
            free.remove(best)

    bundles = [[g for g in range(m) if masks[i] >> g & 1] for i in range(n)]
    return Allocation(bundles, m)


def _clears_tenth(f: SubmodularValuation, mask: int, tau: Value) -> bool:
    """10 f(mask) >= tau, compared as 10 * scale * f(mask) * tau.den >= tau.num * scale."""
    return 10 * f.value_int(mask) * tau.denominator >= tau.numerator * f.scale


@dataclass(frozen=True)
class ThresholdState:
    """Where the threshold search ended up."""

    thresholds: tuple[Value, ...]
    unsatisfied: frozenset[int]
    iterations: int
    excluded: frozenset[int]  # agents with zero maximin share, left out of the loop


def _log1p(r: Fraction) -> float:
    """ln(1 + r) for a rational r >= 0 of any size.

    math.log takes ints of any size, so a ratio beyond the float range (a
    huge total over a tiny singleton) cannot overflow; below 1, log1p of the
    correctly rounded quotient keeps small r accurate.
    """
    p, q = r.numerator, r.denominator
    return log1p(p / q) if p < q else log(p + q) - log(q)


def alg_sub(
    valuations: Sequence[SubmodularValuation],
    delta: Value = Fraction(1, 20),
) -> tuple[Allocation, ThresholdState]:
    """Allocate without knowing maximin shares; guarantee mu_i / (10 (1+delta)).

    Agents without n positive singletons have maximin share zero; they are
    excluded from the run and receive empty bundles (any bundle meets a zero
    guarantee). For the rest, thresholds decay geometrically, and an agent
    whose threshold has fallen to its maximin share never fails again, which
    bounds the decay count by ceil(log_{1+delta}(v_i(all)/mu_i)) + 1.
    """
    n, m = _check_shared_ground(valuations)
    delta = as_value(delta)
    if delta <= 0:
        raise InvalidInstanceError("delta must be positive")

    kept = [i for i in range(n) if detect_positive_mms(valuations[i], n)]
    excluded = frozenset(range(n)) - frozenset(kept)
    if not kept:
        alloc = round_robin(valuations, [Fraction(0)] * n)
        state = ThresholdState(
            thresholds=tuple(Fraction(0) for _ in range(n)),
            unsatisfied=frozenset(),
            iterations=0,
            excluded=excluded,
        )
        return alloc, state

    taus = {i: valuations[i].total() for i in kept}
    # ceiling on loop count: phase one must retire agent i once tau_i falls to
    # ten times its smallest positive singleton, so decays per agent are finite
    cap = 2 * len(kept)
    for i in kept:
        floor = min(
            valuations[i].singleton(g)
            for g in range(m)
            if valuations[i].singleton(g) > 0
        )
        cap += 2 + ceil(_log1p(taus[i] / floor) / _log1p(delta))

    unsat = set(kept)
    iterations = 0
    sub_vals = [valuations[i] for i in kept]
    alloc = Allocation([[] for _ in range(n)], m)
    while unsat:
        iterations += 1
        if iterations > cap:
            raise RuntimeError("threshold search failed to converge")
        for i in unsat:
            taus[i] /= 1 + delta
        sub_alloc = round_robin(sub_vals, [taus[i] for i in kept])
        bundles: list[frozenset[int]] = [frozenset() for _ in range(n)]
        for k, i in enumerate(kept):
            bundles[i] = sub_alloc.bundles[k]
        alloc = Allocation(bundles, m)
        unsat = {i for i in kept if not _clears_tenth(valuations[i], _mask(bundles[i]), taus[i])}

    full_taus = tuple(taus.get(i, Fraction(0)) for i in range(n))
    state = ThresholdState(
        thresholds=full_taus,
        unsatisfied=frozenset(),
        iterations=iterations,
        excluded=excluded,
    )
    return alloc, state


def _mask(bundle: frozenset[int]) -> int:
    mask = 0
    for g in bundle:
        mask |= 1 << g
    return mask
