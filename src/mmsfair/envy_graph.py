"""Envy-graph allocation for ordered instances, with full run traces.

The allocator hands out items one at a time in position order. For goods the
next item goes to a *source* of the envy graph (an agent nobody envies); for
chores it goes to a *sink* (an agent who envies nobody). After every
assignment, envy cycles are resolved by rotating bundles along a cycle: each
agent on the cycle receives the bundle it envies. A rotation strictly
decreases the number of envy edges and never decreases any agent's value, so
resolution terminates and the graph is acyclic before each assignment, which
guarantees the needed source (or sink) exists.

The allocator works in exact integers, on the scaled rows the instance owns:
ints[i] is agent i's row times L_i = scales[i], the lcm of its denominators.
One list per bundle holds C[k][i] = L_i v_i(A_k); agent i envies k iff
C[i][i] < C[k][i]. The graph is kept as bitmasks, one pair per agent: bit k
of envies[i] and bit i of envied[k] are set iff i envies k, so the sources
are the agents with envied[k] == 0 and the sinks those with envies[i] == 0.
An assignment adds the item's column to the taker's list and recomputes the
taker's two masks from it, in O(n) comparisons; every edge that changes
touches the taker, and is flipped at its other end too. So a cycle can only
form through the taker: a bit-parallel probe (one OR of masks per agent
reached) asks whether the taker can reach itself, and only then does the
full cycle search run, a depth-first search that takes each next successor
as the lowest unfinished bit of a mask. An item that closes no cycle costs
O(n). A rotation permutes the bundle lists like the bundles, and the masks
are rebuilt from them. EnvyGraph and
build_envy_graph compute the same graph from an Allocation; the allocator
does not call them. They stay in the package because the benchmark's tracer
(perfbench/tracer.py) wraps build_envy_graph by name. The graph's queries
(edges, sources, sinks, find_cycle) and the cycle resolution built on them,
resolve_cycles, are test references (tests/reference.py).

Every step is recorded in a trace, enough to replay the exact sequence of
partial allocations later. On ordered goods instances every partial
allocation along the way is envy-free up to any good; the final allocation,
lifted back to the original instance, gives every agent at least 2n/(3n-1) of
its maximin share. The lift (ordering.lift_allocation) walks one cursor per
agent over that agent's row sorted the way to_ordered sorts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, gt
from typing import MutableSequence, Sequence

from .errors import InvalidInstanceError, NotOrderedError
from .model import GOODS, AdditiveInstance, Allocation
from .ordering import is_ordered, lift_allocation, to_ordered


def _reaches(adj: Sequence[int], v: int) -> bool:
    """True iff v can reach itself in the graph whose row masks are adj
    (bit k of adj[i] set iff i -> k): one OR of rows per reached vertex."""
    seen = frontier = adj[v]
    while frontier and not seen >> v & 1:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return bool(seen >> v & 1)


def _first_cycle(adj: Sequence[int]) -> list[int] | None:
    """First cycle met by a depth-first search from roots in ascending order,
    scanning each vertex's successors (the bits of its row mask adj[v]) in
    ascending order. Every successor already scanned is finished by the time
    the search comes back to v, so the next one is the lowest bit of
    adj[v] that is not finished. Returns [c_0, ..., c_k] with edges
    c_0->c_1->...->c_k->c_0, or None."""
    done = 0
    for root in range(len(adj)):
        if done >> root & 1:
            continue
        path, on_path = [root], 1 << root
        while path:
            free = adj[path[-1]] & ~done
            if free:
                low = free & -free
                if low & on_path:
                    return path[path.index(low.bit_length() - 1):]
                path.append(low.bit_length() - 1)
                on_path |= low
            else:
                low = 1 << path.pop()
                on_path ^= low
                done |= low
    return None


def _toggle(masks: list[int], changed: int, bit: int) -> None:
    """Flip bit in masks[i] for every i whose bit is set in changed."""
    while changed:
        low = changed & -changed
        masks[low.bit_length() - 1] ^= bit
        changed ^= low


def _rotate(seq: MutableSequence, cycle: Sequence[int]) -> None:
    """Rotate entries along a cycle in place: seq[c_t] takes the old seq[c_{t+1}]."""
    first = seq[cycle[0]]
    for t in range(len(cycle) - 1):
        seq[cycle[t]] = seq[cycle[t + 1]]
    seq[cycle[-1]] = first


class EnvyGraph:
    """Directed graph on agents with an edge i -> j iff i envies j."""

    __slots__ = ("n", "succ")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        self.n = n
        succ: list[list[int]] = [[] for _ in range(n)]
        for a, j in edges:
            succ[a].append(j)
        self.succ: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in succ)


def build_envy_graph(instance: AdditiveInstance, allocation: Allocation) -> EnvyGraph:
    """Envy graph of a (possibly partial) allocation."""
    n = allocation.n
    own = [instance.value(i, allocation.bundles[i]) for i in range(n)]
    edges = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and own[i] < instance.value(i, allocation.bundles[j])
    ]
    return EnvyGraph(n, edges)


@dataclass(frozen=True)
class TraceStep:
    """One allocator iteration: which item went where, and what it triggered."""

    item: int
    agent: int
    cycles: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RunTrace:
    """Complete record of an allocator run; replayable without the allocator."""

    n: int
    m: int
    steps: tuple[TraceStep, ...]


def _allocate_ordered(instance: AdditiveInstance) -> tuple[Allocation, RunTrace]:
    """Goods go to the first source, chores to the first sink."""
    n, m = instance.n, instance.m
    goods = instance.kind == GOODS
    if not is_ordered(instance):
        raise NotOrderedError("allocator requires an ordered instance")
    columns = list(zip(*instance.ints))  # columns[j][i] = L_i v_i(j)
    C = [[0] * n for _ in range(n)]  # C[k][i] = L_i v_i(A_k)
    own = [0] * n  # own[i] = C[i][i]
    envies = [0] * n  # bit k of envies[i] set iff i envies k
    envied = [0] * n  # bit i of envied[k] set iff i envies k
    bits = [1 << k for k in range(n)]
    bundles: list[list[int]] = [[] for _ in range(n)]
    steps: list[TraceStep] = []
    for j in range(m):
        # the graph is acyclic here, so a source and a sink both exist
        agent = (envied if goods else envies).index(0)
        bundles[agent].append(j)
        bundle = C[agent] = list(map(add, C[agent], columns[j]))
        mine = own[agent] = bundle[agent]
        out = sum(compress(bits, [b[agent] > mine for b in C]))
        into = sum(compress(bits, map(gt, bundle, own)))
        # every edge that changed touches agent; mirror it at its other end
        _toggle(envied, envies[agent] ^ out, bits[agent])
        _toggle(envies, envied[agent] ^ into, bits[agent])
        envies[agent], envied[agent] = out, into
        # the graph was acyclic before this item, so any cycle runs through agent
        log: list[tuple[int, ...]] = []
        if out and into and _reaches(envies, agent):
            while (cycle := _first_cycle(envies)) is not None:
                log.append(tuple(cycle))
                _rotate(bundles, cycle)
                _rotate(C, cycle)
                for c in cycle:
                    own[c] = C[c][c]
                envied = [sum(compress(bits, map(gt, b, own))) for b in C]
                envies = [0] * n
                for k, mask in enumerate(envied):
                    _toggle(envies, mask, bits[k])
        steps.append(TraceStep(item=j, agent=agent, cycles=tuple(log)))
    return Allocation(bundles, m), RunTrace(n=n, m=m, steps=tuple(steps))


def envy_graph_allocate(instance: AdditiveInstance) -> tuple[Allocation, RunTrace]:
    """Allocate an ordered goods instance, item by item, to envy-graph sources."""
    if instance.kind != GOODS:
        raise InvalidInstanceError("goods allocator got a chores instance")
    return _allocate_ordered(instance)


def solve_additive(instance: AdditiveInstance) -> Allocation:
    """Full goods pipeline: order the instance, allocate, lift the result back.

    The returned allocation gives every agent i at least 2n/(3n-1) times its
    maximin share: v_i(A_i) * (3n - 1) >= 2n * mu_i.
    """
    return lift_allocation(instance, envy_graph_allocate(to_ordered(instance))[0])
