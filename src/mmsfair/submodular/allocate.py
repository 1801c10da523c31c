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
mu_i/(1+delta), so every agent gets at least mu_i / (10 (1+delta)). Each
threshold is an int on a fixed grid of its valuation's scale times 2^32 and
each division rounds up on that grid, so thresholds stay as short as the
valuation's own data however many rounds the descent takes.

Both work on bitmasks and compare the valuations' scaled ints; alg_sub
builds one Allocation, from its final masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..errors import InvalidInstanceError
from ..model import Allocation, Value, as_value
from .valuations import SubmodularValuation, detect_positive_mms, goods_of, mask_of, shared_ground

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
    for i, (f, tau) in enumerate(zip(valuations, taus)):
        value = f.value_int
        best = max(free, key=lambda g: (value(1 << g), -g), default=-1)
        # 10 f(best) >= tau, on ints: 10 * scale * f(best) * tau.den >= tau.num * scale
        if best >= 0 and 10 * value(1 << best) * tau.denominator >= tau.numerator * f.scale:
            masks[i] = 1 << best
            free.remove(best)
        else:
            active.append(i)

    turn_order = active if active else list(range(n))
    if len(turn_order) == 1:  # a lone agent's turns take every free good
        masks[turn_order[0]] |= mask_of(free, m)
        free = []
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

    Agent i's threshold is an int t on the grid g_i = scale_i * 2^s, where
    s is the larger of 32 and the bit length of ceil(1 + 1/delta):
    tau_i = t / g_i. It starts at f_i(all) g_i, and with delta = p/q a decay
    sets t to min(t - 1, ceil(t q / (q + p))), never below
    mu_i g_i / (1 + delta). The ceiling is at least t / (1 + delta). The
    first decay is the ceiling, as t >= 2^s > (q + p)/p (f_i(all) scale_i is
    a positive int). Later only failing agents decay, and round robin fails
    no agent whose threshold is at most mu_i, so t > mu_i g_i, an int
    (mu_i scale_i is some bundle's value_int), and t - 1 >= mu_i g_i.

    An agent whose threshold is at most ten times its smallest positive
    singleton value never fails: fewer than n goods go before its turn in
    phase one, so a good worth that much is still free and retires it, and
    a monotone f keeps the bundle at least as valuable as that good. That
    is checked after every round, and since each failure lowers t by at
    least one, it also ends the loop. A table that breaks it is not
    monotone: InvalidInstanceError names the agent and a good worth more
    alone than the agent's whole bundle.
    """
    n, m = shared_ground(valuations)
    delta = as_value(delta)
    if delta <= 0:
        raise InvalidInstanceError("delta must be positive")
    p, q = delta.numerator, delta.denominator
    shift = max(32, (-(-(q + p) // p)).bit_length())

    kept = [i for i in range(n) if detect_positive_mms(valuations[i], n)]
    ts = [0] * n
    masks = [0] * n if kept else round_robin(valuations, ts)
    iterations = 0
    for i in kept:
        ts[i] = valuations[i].value_int((1 << m) - 1) << shift
    singles = [1 << g for g in range(m)]
    floors = {i: min(v for v in map(valuations[i].value_int, singles) if v > 0) for i in kept}
    sub_vals = [valuations[i] for i in kept]
    grids = [f.scale << shift for f in valuations]
    unsat = kept
    while unsat:
        iterations += 1
        for i in unsat:
            ts[i] = min(ts[i] - 1, -(-ts[i] * q // (q + p)))
        taus = [Fraction(ts[i], grids[i]) for i in kept]
        for i, mask in zip(kept, round_robin(sub_vals, taus)):
            masks[i] = mask
        # 10 f(S) >= tau  <=>  (10 * value_int(S)) << shift >= t
        unsat = [i for i in kept if 10 * valuations[i].value_int(masks[i]) << shift < ts[i]]
        for i in unsat:
            if 10 * floors[i] << shift >= ts[i]:
                _not_monotone(i, valuations[i], masks[i])

    state = ThresholdState(
        thresholds=tuple(Fraction(t, g) for t, g in zip(ts, grids)),
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
