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

Both work on bitmasks and compare the valuations' scaled ints; alg_sub
builds one Allocation, from its final masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import InvalidInstanceError
from ..model import Allocation, Value, as_value
from .valuations import SubmodularValuation, detect_positive_mms, goods_of, shared_ground

DEFAULT_DELTA = Fraction(1, 20)  # alg_sub's decay step, and the audit's and CLI's default


def round_robin(
    valuations: Sequence[SubmodularValuation], thresholds: Sequence[Value]
) -> list[int]:
    """Two-phase allocation: singleton grabs at tau_i/10, then max-marginal turns.

    Returns one bundle mask per agent; together they hold every good. If
    phase one retires every agent while goods remain (all thresholds tiny),
    the leftovers are dealt by continuing the phase-two loop over all
    agents; monotonicity keeps every guarantee. Values are compared as the
    valuations' scaled ints; ties go to the lowest good.
    """
    n, m = shared_ground(valuations)
    taus = [as_value(t) for t in thresholds]
    if len(taus) != n:
        raise InvalidInstanceError("need one threshold per agent")

    free = list(range(m))  # ascending
    masks = [0] * n
    active = []
    for i in range(n):
        value = valuations[i].value_int
        best = max(free, key=lambda g: (value(1 << g), -g), default=-1)
        if best >= 0 and _clears_tenth(valuations[i], value(1 << best), taus[i]):
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
    return masks


def _clears_tenth(f: SubmodularValuation, value: int, tau: Value) -> bool:
    """10 f(S) >= tau for value = f.value_int(S) = scale * f(S), compared as
    10 * value * tau.den >= tau.num * scale."""
    return 10 * value * tau.denominator >= tau.numerator * f.scale


@dataclass(frozen=True)
class ThresholdState:
    """Where the threshold search ended up: the search ends only once every
    agent it runs clears a tenth of its threshold."""

    thresholds: tuple[Value, ...]
    iterations: int
    excluded: frozenset[int]  # agents with zero maximin share, left out of the loop


def alg_sub(
    valuations: Sequence[SubmodularValuation],
    delta: Value = DEFAULT_DELTA,
) -> tuple[Allocation, ThresholdState]:
    """Allocate without knowing maximin shares; guarantee mu_i / (10 (1+delta)).

    Agents without n positive singletons have maximin share zero; they are
    excluded from the run and receive empty bundles (any bundle meets a zero
    guarantee). For the rest, thresholds decay geometrically until every
    agent clears a tenth of its own.

    An agent whose threshold is at most ten times its smallest positive
    singleton value never fails: fewer than n goods go before its turn in
    phase one, so a good worth that much is still free and retires it, and
    a monotone f keeps the bundle at least as valuable as that good. That
    is checked after every round, and since each failure shrinks a
    threshold by 1 + delta, it also ends the loop. A table that breaks it
    is not monotone: InvalidInstanceError names the agent and a good worth
    more alone than the agent's whole bundle.
    """
    n, m = shared_ground(valuations)
    delta = as_value(delta)
    if delta <= 0:
        raise InvalidInstanceError("delta must be positive")

    kept = [i for i in range(n) if detect_positive_mms(valuations[i], n)]
    taus = [Fraction(0)] * n
    masks = [0] * n if kept else round_robin(valuations, taus)
    iterations = 0
    for i in kept:
        taus[i] = valuations[i].total()
    singles = [1 << g for g in range(m)]
    floors = {i: min(v for v in map(valuations[i].value_int, singles) if v > 0) for i in kept}
    sub_vals = [valuations[i] for i in kept]
    unsat = kept
    while unsat:
        iterations += 1
        for i in unsat:
            taus[i] /= 1 + delta
        for i, mask in zip(kept, round_robin(sub_vals, [taus[i] for i in kept])):
            masks[i] = mask
        unsat = [
            i for i in kept
            if not _clears_tenth(valuations[i], valuations[i].value_int(masks[i]), taus[i])
        ]
        for i in unsat:
            if _clears_tenth(valuations[i], floors[i], taus[i]):
                _not_monotone(i, valuations[i], masks[i])

    state = ThresholdState(
        thresholds=tuple(taus),
        iterations=iterations,
        excluded=frozenset(range(n)) - frozenset(kept),
    )
    return Allocation([goods_of(mask) for mask in masks], m), state


def _not_monotone(i: int, f: SubmodularValuation, mask: int) -> None:
    """Raise for agent i, whose bundle mask failed a threshold that its
    smallest positive singleton clears: some good of the bundle must be
    worth more alone than the whole bundle."""
    whole = f.value_int(mask)
    for g in goods_of(mask):
        if f.value_int(1 << g) > whole:
            raise InvalidInstanceError(
                f"agent {i}'s valuation is not monotone: good {g} alone is worth "
                f"{f.value_mask(1 << g)}, its bundle {goods_of(mask)} only {f.value_mask(mask)}"
            )
    raise RuntimeError(f"agent {i} failed a threshold its smallest positive singleton clears")
