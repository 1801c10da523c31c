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
An n x n matrix holds V[i][j] = L_i v_i(A_j); agent i envies j iff
V[i][i] < V[i][j]. An assignment changes one column, so it updates the matrix
and the per-agent envy counts (which name the sources and sinks) in O(n).
Every envy edge it adds touches the agent that took the item, so a cycle can
only form through that agent: the full cycle search runs only when that agent
can reach itself, and an item that closes no cycle costs O(n). A rotation
permutes the matrix's columns like the bundles. EnvyGraph and
build_envy_graph compute the same graph from an Allocation; the allocator
does not call them. They stay in the package because the benchmark's tracer
(perfbench/tracer.py) wraps build_envy_graph by name. The cycle resolution
built on them, resolve_cycles, is a test reference (tests/reference.py).

Every step is recorded in a trace, enough to replay the exact sequence of
partial allocations later. On ordered goods instances every partial
allocation along the way is envy-free up to any good; the final allocation,
lifted back to the original instance, gives every agent at least 2n/(3n-1) of
its maximin share. The lift (ordering.lift_allocation) walks one cursor per
agent over the reduction's sort permutation, which must be the canonical one
from to_ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, MutableSequence, Sequence

from .errors import InvalidInstanceError, NotOrderedError
from .model import GOODS, AdditiveInstance, Allocation, Value
from .ordering import is_ordered, lift_allocation, to_ordered


def _first_cycle(
    succ: Callable[[int], Iterable[int]], roots: Iterable[int], n: int
) -> list[int] | None:
    """First cycle met by an iterative depth-first search from roots in the
    given order, scanning each vertex's successors in succ's order. Returns
    [c_0, ..., c_k] with edges c_0->c_1->...->c_k->c_0, or None."""
    color = [0] * n  # 0 unseen, 1 on the path, 2 done
    path: list[int] = []
    for root in roots:
        if color[root]:
            continue
        color[root] = 1
        path.append(root)
        pending = [iter(succ(root))]
        while pending:
            for w in pending[-1]:
                if color[w] == 1:
                    return path[path.index(w):]
                if color[w] == 0:
                    color[w] = 1
                    path.append(w)
                    pending.append(iter(succ(w)))
                    break
            else:
                pending.pop()
                color[path.pop()] = 2
    return None


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

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in self.succ[i]]

    def sources(self) -> list[int]:
        """Agents with no incoming edge (nobody envies them)."""
        envied = {j for i in range(self.n) for j in self.succ[i]}
        return [i for i in range(self.n) if i not in envied]

    def sinks(self) -> list[int]:
        """Agents with no outgoing edge (they envy nobody)."""
        return [i for i in range(self.n) if not self.succ[i]]

    def find_cycle(self) -> list[int] | None:
        """First cycle found by depth-first search.

        Roots are tried in ascending index order and neighbours are scanned
        in ascending order, so the result is deterministic. Returns the cycle
        as an agent sequence [c_0, ..., c_k] with edges c_0->c_1->...->c_k->c_0,
        or None if the graph is acyclic. The search is iterative, so long
        paths do not hit the recursion limit.
        """
        return _first_cycle(self.succ.__getitem__, range(self.n), self.n)


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
    values: tuple[Value, ...]  # every agent's own-bundle value after the step


@dataclass(frozen=True)
class RunTrace:
    """Complete record of an allocator run; replayable without the allocator."""

    n: int
    m: int
    steps: tuple[TraceStep, ...]


def _envy_counts(V: list[list[int]]) -> tuple[list[int], list[int]]:
    """(envied, envious): per agent, how many envy it and how many it envies."""
    n = len(V)
    envied = [0] * n
    envious = [0] * n
    for i, row in enumerate(V):
        own = row[i]
        for k in range(n):
            if row[k] > own:
                envied[k] += 1
                envious[i] += 1
    return envied, envious


def _allocate_ordered(instance: AdditiveInstance) -> tuple[Allocation, RunTrace]:
    """Goods go to the first source, chores to the first sink."""
    n, m = instance.n, instance.m
    goods = instance.kind == GOODS
    if not is_ordered(instance):
        raise NotOrderedError("allocator requires an ordered instance")
    scale = instance.scales
    columns = list(zip(*instance.ints))  # columns[j][i] = L_i v_i(j)
    V = [[0] * n for _ in range(n)]  # V[i][k] = L_i v_i(A_k)
    envied, envious = [0] * n, [0] * n
    own = [Fraction(0)] * n  # v_i(A_i)
    bundles: list[list[int]] = [[] for _ in range(n)]

    def succ(i: int) -> list[int]:
        row = V[i]
        mine = row[i]
        return [k for k in range(n) if row[k] > mine]

    steps: list[TraceStep] = []
    for j in range(m):
        # the graph is acyclic here, so a source and a sink both exist
        agent = (envied if goods else envious).index(0)
        bundles[agent].append(j)
        for i, d in enumerate(columns[j]):
            if not d:
                continue
            row = V[i]
            if i == agent:
                old = row[i]
                new = row[i] = old + d
                for k in range(n):
                    if k != i:
                        flip = (row[k] > new) - (row[k] > old)
                        if flip:
                            envious[i] += flip
                            envied[k] += flip
                own[i] = Fraction(new, scale[i])
            else:
                before = row[agent]
                after = row[agent] = before + d
                flip = (after > row[i]) - (before > row[i])
                if flip:
                    envious[i] += flip
                    envied[agent] += flip
        # new edges all touch agent, so any cycle now runs through it
        log: list[tuple[int, ...]] = []
        if envied[agent] and envious[agent] and _first_cycle(succ, (agent,), n):
            while (cycle := _first_cycle(succ, range(n), n)) is not None:
                log.append(tuple(cycle))
                _rotate(bundles, cycle)
                for row in V:
                    _rotate(row, cycle)
            envied, envious = _envy_counts(V)
            own = [Fraction(V[i][i], scale[i]) for i in range(n)]
        steps.append(TraceStep(item=j, agent=agent, cycles=tuple(log), values=tuple(own)))
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
    reduction = to_ordered(instance)
    ordered_alloc, _ = envy_graph_allocate(reduction.ordered)
    return lift_allocation(reduction, instance, ordered_alloc)
