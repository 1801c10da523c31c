"""Envy graph mechanics, run traces, and the majorization analysis helpers."""

import itertools
import random
from fractions import Fraction

import pytest
from lemmas import check_efx_trace, check_prefix_structure, is_efx, majorizes, replay
from reference import edges, find_cycle, on_cycle, resolve_cycles, sinks, sources

from mmsfair.envy_graph import (
    EnvyGraph,
    RunTrace,
    TraceStep,
    _first_cycle,
    _reaches,
    build_envy_graph,
    envy_graph_allocate,
    solve_additive,
)
from mmsfair.errors import InvalidInstanceError, NotOrderedError
from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.oracles import mms_exact_additive
from mmsfair.ordering import to_ordered


def random_goods(rng, n, m, hi=20):
    return AdditiveInstance([[rng.randint(0, hi) for _ in range(m)] for _ in range(n)])


def random_ordered_goods(rng, n, m, hi=20):
    rows = [
        sorted((rng.randint(0, hi) for _ in range(m)), reverse=True) for _ in range(n)
    ]
    return AdditiveInstance(rows)


def random_distinct_ordered(rng, n, m, hi=500):
    rows = [sorted(rng.sample(range(1, hi), m), reverse=True) for _ in range(n)]
    return AdditiveInstance(rows)


def random_partial_allocation(rng, n, m):
    bundles = [set() for _ in range(n)]
    for g in range(m):
        owner = rng.randrange(n + 1)  # n means unallocated
        if owner < n:
            bundles[owner].add(g)
    return Allocation(bundles, m)


class TestEnvyGraph:
    def test_edges_are_sorted_pairs(self):
        g = EnvyGraph(3, [(0, 2), (0, 1), (2, 0)])
        assert edges(g) == [(0, 1), (0, 2), (2, 0)]

    def test_empty_graph(self):
        g = EnvyGraph(3, [])
        assert sources(g) == [0, 1, 2]
        assert sinks(g) == [0, 1, 2]
        assert find_cycle(g) is None

    def test_sources_and_sinks(self):
        g = EnvyGraph(3, [(0, 1), (2, 1)])
        assert sources(g) == [0, 2]
        assert sinks(g) == [1]

    def test_two_cycle(self):
        g = EnvyGraph(2, [(0, 1), (1, 0)])
        assert find_cycle(g) == [0, 1]

    def test_cycle_away_from_first_root(self):
        g = EnvyGraph(3, [(1, 2), (2, 1)])
        assert find_cycle(g) == [1, 2]

    def test_long_ring_is_found_whole(self):
        # deeper than the default recursion limit
        n = 3000
        g = EnvyGraph(n, [(i, (i + 1) % n) for i in range(n)])
        assert find_cycle(g) == list(range(n))

    def test_dag_has_no_cycle(self):
        g = EnvyGraph(3, [(0, 1), (0, 2), (1, 2)])
        assert find_cycle(g) is None

    def test_cycle_edges_are_real(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 6)
            edges = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.4
            ]
            g = EnvyGraph(n, edges)
            cycle = find_cycle(g)
            if cycle is None:
                continue
            k = len(cycle)
            assert k >= 2
            edge_set = set(edges)
            for t in range(k):
                assert (cycle[t], cycle[(t + 1) % k]) in edge_set


def masks(graph):
    """The allocator's form of a graph: bit k of masks[i] set iff i -> k."""
    return [sum(1 << k for k in succ) for succ in graph.succ]


def random_graph(rng, n, p):
    return EnvyGraph(
        n, [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
    )


class TestMaskSearch:
    """The allocator's cycle search and reach probe, on row masks, against
    the reference's searches over successor lists."""

    @pytest.mark.parametrize(
        "graph",
        [
            EnvyGraph(2, [(0, 1), (1, 0)]),
            EnvyGraph(3, [(1, 2), (2, 1)]),
            EnvyGraph(3, [(0, 1), (0, 2), (1, 2)]),
            EnvyGraph(3000, [(i, (i + 1) % 3000) for i in range(3000)]),  # no recursion
        ],
        ids=["two-cycle", "away-from-first-root", "dag", "long-ring"],
    )
    def test_shapes_match_reference(self, graph):
        assert _first_cycle(masks(graph)) == find_cycle(graph)

    def test_random_graphs_match_reference(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.choice((2, 3, 5, 8, 70))  # 70: masks wider than a word
            g = random_graph(rng, n, rng.choice((0.02, 0.1, 0.3)))
            adj = masks(g)
            assert _first_cycle(adj) == find_cycle(g)
            for v in range(n):
                assert _reaches(adj, v) == on_cycle(g, v)


class TestBuildEnvyGraph:
    def test_nothing_allocated_means_no_envy(self):
        inst = AdditiveInstance([[1, 2], [2, 1]])
        g = build_envy_graph(inst, Allocation([set(), set()], 2))
        assert edges(g) == []

    def test_single_item_envied(self):
        inst = AdditiveInstance([[1, 1], [1, 1]])
        g = build_envy_graph(inst, Allocation([set(), {0}], 2))
        assert edges(g) == [(0, 1)]
        assert sources(g) == [0]
        assert sinks(g) == [1]

    def test_low_singleton_envies_both_pairs(self):
        # one agent stuck with a unit item, two others holding value 4 each
        inst = AdditiveInstance([[1, 1, 1, 3, 3]] * 3)
        alloc = Allocation([{0}, {1, 3}, {2, 4}], 5)
        g = build_envy_graph(inst, alloc)
        assert edges(g) == [(0, 1), (0, 2)]
        assert sources(g) == [0]
        assert sinks(g) == [1, 2]

    def test_equal_values_no_edges(self):
        inst = AdditiveInstance([[2, 2], [2, 2]])
        g = build_envy_graph(inst, Allocation([{0}, {1}], 2))
        assert edges(g) == []

    def test_chores_envy_direction(self):
        inst = AdditiveInstance([[-1, -2], [-1, -2]], kind=CHORES)
        g = build_envy_graph(inst, Allocation([{1}, {0}], 2))
        assert edges(g) == [(0, 1)]


class TestResolveCycles:
    def test_mutual_envy_swaps(self):
        inst = AdditiveInstance([[1, 5], [5, 1]])
        resolved, log = resolve_cycles(inst, Allocation([{0}, {1}], 2))
        assert resolved.bundles == (frozenset({1}), frozenset({0}))
        assert log == [[0, 1]]
        assert inst.value(0, resolved.bundles[0]) == 5
        assert inst.value(1, resolved.bundles[1]) == 5

    def test_acyclic_input_unchanged(self):
        inst = AdditiveInstance([[1, 5], [5, 1]])
        start = Allocation([{1}, {0}], 2)
        resolved, log = resolve_cycles(inst, start)
        assert resolved.bundles == start.bundles
        assert log == []

    def test_rotation_chain(self):
        inst = AdditiveInstance([[1, 2, 4], [4, 1, 2], [2, 4, 1]])
        resolved, log = resolve_cycles(inst, Allocation([{0}, {1}, {2}], 3))
        assert log == [[0, 1], [0, 2]]
        assert resolved.bundles == (frozenset({2}), frozenset({0}), frozenset({1}))
        for i in range(3):
            assert inst.value(i, resolved.bundles[i]) == 4

    def test_random_resolution_invariants(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(2, 5)
            m = rng.randint(n, 10)
            inst = random_goods(rng, n, m)
            start = random_partial_allocation(rng, n, m)
            before = [inst.value(i, start.bundles[i]) for i in range(n)]
            resolved, log = resolve_cycles(inst, start)
            # acyclic afterwards
            assert find_cycle(build_envy_graph(inst, resolved)) is None
            # bundles are permuted, never split or merged
            assert sorted(resolved.bundles, key=sorted) == sorted(
                start.bundles, key=sorted
            )
            # no agent loses value
            for i in range(n):
                assert inst.value(i, resolved.bundles[i]) >= before[i]
            # rotations happened only when someone strictly gains
            if log:
                gained = any(
                    inst.value(i, resolved.bundles[i]) > before[i] for i in range(n)
                )
                assert gained


class TestEnvyGraphAllocate:
    def test_identical_unit_goods(self):
        for n in (1, 2, 4):
            inst = AdditiveInstance([[1] * n] * n)
            alloc, trace = envy_graph_allocate(inst)
            assert alloc.is_complete()
            for i in range(n):
                assert len(alloc.bundles[i]) == 1
                assert inst.value(i, alloc.bundles[i]) == 1
            assert len(trace.steps) == n

    def test_single_agent_takes_everything(self):
        inst = AdditiveInstance([[9, 4, 2]])
        alloc, _ = envy_graph_allocate(inst)
        assert alloc.bundles[0] == frozenset({0, 1, 2})

    def test_three_agents_three_three_ones(self):
        inst = AdditiveInstance([[3, 3, 1, 1, 1]] * 3)
        alloc, trace = envy_graph_allocate(inst)
        values = sorted(inst.value(i, alloc.bundles[i]) for i in range(3))
        assert values == [3, 3, 3]
        # identical rows order every bundle strictly, so no cycle can form
        assert all(step.cycles == () for step in trace.steps)

    def test_requires_ordered(self):
        with pytest.raises(NotOrderedError):
            envy_graph_allocate(AdditiveInstance([[1, 2]]))

    def test_rejects_chores(self):
        with pytest.raises(InvalidInstanceError):
            envy_graph_allocate(AdditiveInstance([[-2, -1]], kind=CHORES))

    def test_trace_replays_to_final_allocation(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(n, 10)
            inst = random_ordered_goods(rng, n, m)
            alloc, trace = envy_graph_allocate(inst)
            assert trace.n == n and trace.m == m
            assert [step.item for step in trace.steps] == list(range(m))
            last = None
            for j, (_, end) in enumerate(replay(trace)):
                assert Allocation(end, m).assigned() == frozenset(range(j + 1))
                last = end
            assert tuple(frozenset(b) for b in last) == alloc.bundles
            # the values replayed from the trace are the allocation's own
            assert [inst.value(i, last[i]) for i in range(n)] == [
                inst.value(i, alloc.bundles[i]) for i in range(n)
            ]

    def test_values_never_decrease_during_run(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(n, 10)
            inst = random_ordered_goods(rng, n, m)
            _, trace = envy_graph_allocate(inst)
            prev = [0] * n
            for _, end in replay(trace):
                values = [inst.value(i, end[i]) for i in range(n)]
                for i in range(n):
                    assert values[i] >= prev[i]
                prev = values

    def test_bundle_sizes_grow_evenly(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(2, 4)
            m = rng.randint(n, 10)
            inst = random_ordered_goods(rng, n, m)
            _, trace = envy_graph_allocate(inst)
            prev = [0] * n
            for _, end in replay(trace):
                sizes = sorted(len(b) for b in end)
                assert all(a >= b for a, b in zip(sizes, prev))
                prev = sizes


class TestSolveAdditive:
    def test_identical_split(self):
        inst = AdditiveInstance([[5, 5, 5, 5]] * 2)
        alloc = solve_additive(inst)
        assert alloc.is_complete()
        assert inst.value(0, alloc.bundles[0]) == 10
        assert inst.value(1, alloc.bundles[1]) == 10

    def test_single_agent(self):
        inst = AdditiveInstance([[7, 1, 3]])
        alloc = solve_additive(inst)
        assert inst.value(0, alloc.bundles[0]) == 11

    def test_share_bound_against_oracle(self):
        rng = random.Random(37)
        for _ in range(35):
            n = rng.randint(2, 3)
            m = rng.randint(n, 8)
            inst = random_goods(rng, n, m)
            alloc = solve_additive(inst)
            assert alloc.is_complete()
            for i in range(n):
                mu = mms_exact_additive(inst, i).value
                v = inst.value(i, alloc.bundles[i])
                assert v * (3 * n - 1) >= 2 * n * mu

    def test_unordered_input_is_fine(self):
        inst = AdditiveInstance([[1, 9, 2], [4, 4, 4]])
        alloc = solve_additive(inst)
        assert alloc.is_complete()


class TestMajorizes:
    def test_extreme_majorizes_balanced(self):
        assert majorizes([4, 0], [3, 1])
        assert not majorizes([3, 1], [4, 0])
        assert majorizes([2, 2], [2, 2])

    def test_three_way(self):
        assert majorizes([5, 3, 0], [4, 3, 1])
        assert not majorizes([4, 3, 1], [5, 3, 0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            majorizes([1, 2], [3])

    def test_total_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            majorizes([1, 2], [1, 3])

    def test_balancing_transfer_is_dominated(self):
        # replacing two entries v, v' by u, u' with the same sum and a
        # smaller gap always produces a sequence the original majorizes
        rng = random.Random(41)
        for _ in range(200):
            k = rng.randint(2, 6)
            xs = [Fraction(rng.randint(0, 30)) for _ in range(k)]
            i, j = rng.sample(range(k), 2)
            lo, hi = sorted((xs[i], xs[j]))
            t = Fraction(rng.randint(0, 10), 10)
            u = lo + t * (hi - lo)
            ys = list(xs)
            ys[i], ys[j] = u, lo + hi - u
            assert majorizes(xs, ys)


class TestCheckEfxTrace:
    def test_allocator_runs_pass(self):
        inst = AdditiveInstance([[3, 3, 1, 1, 1]] * 3)
        _, trace = envy_graph_allocate(inst)
        assert check_efx_trace(inst, trace)

    def test_random_runs_pass(self):
        rng = random.Random(43)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(n, 10)
            inst = random_ordered_goods(rng, n, m)
            _, trace = envy_graph_allocate(inst)
            assert check_efx_trace(inst, trace)

    def test_stacked_trace_fails(self):
        inst = AdditiveInstance([[2, 2], [2, 2]])
        trace = RunTrace(
            n=2,
            m=2,
            steps=(
                TraceStep(item=0, agent=0, cycles=()),
                TraceStep(item=1, agent=0, cycles=()),
            ),
        )
        assert not check_efx_trace(inst, trace)


class TestCheckPrefixStructure:
    def test_descending_run_matches_pattern(self):
        inst = AdditiveInstance([[100, 99, 98, 97, 96]] * 3)
        _, trace = envy_graph_allocate(inst)
        assert check_prefix_structure(inst, trace)
        # after five items: singleton {0} plus pairs {1,4} and {2,3}
        states = list(replay(trace))
        _, end = states[4]
        got = sorted((sorted(b) for b in end), key=lambda b: b[0])
        assert got == [[0], [1, 4], [2, 3]]

    def test_first_n_items_are_singletons(self):
        inst = AdditiveInstance([[50, 40, 30, 20]] * 4)
        _, trace = envy_graph_allocate(inst)
        assert check_prefix_structure(inst, trace)
        for count, (_, end) in enumerate(replay(trace), start=1):
            sizes = sorted(len(b) for b in end)
            assert sizes == [0] * (4 - count) + [1] * count

    def test_needs_goods(self):
        inst = AdditiveInstance([[-1, -2]], kind=CHORES)
        _trace = RunTrace(n=1, m=2, steps=())
        with pytest.raises(InvalidInstanceError):
            check_prefix_structure(inst, _trace)

    def test_needs_ordered(self):
        inst = AdditiveInstance([[1, 2]])
        with pytest.raises(NotOrderedError):
            check_prefix_structure(inst, RunTrace(n=1, m=2, steps=()))

    def test_needs_distinct_values(self):
        inst = AdditiveInstance([[2, 2, 1]])
        with pytest.raises(InvalidInstanceError):
            check_prefix_structure(inst, RunTrace(n=1, m=3, steps=()))

    def test_random_distinct_runs(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(2, 4)
            m = rng.randint(n, 10)
            inst = random_distinct_ordered(rng, n, m)
            _, trace = envy_graph_allocate(inst)
            assert check_prefix_structure(inst, trace)


def agent_threshold(inst, agent, final_value):
    """Smallest item index worth at most half the agent's final value."""
    row = inst.values[agent]
    for j in range(inst.m):
        if 2 * row[j] <= final_value:
            return j
    return None


class TestFinalValueAnalysis:
    def test_bundles_holding_small_items_stay_close(self):
        # once a bundle contains an item worth at most half of what agent i
        # ends with, agent i's final value is at least 2/3 of that bundle
        rng = random.Random(53)
        checked = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            m = rng.randint(n, 11)
            inst = random_ordered_goods(rng, n, m, hi=40)
            alloc, _ = envy_graph_allocate(inst)
            for i in range(n):
                fin = inst.value(i, alloc.bundles[i])
                tau = agent_threshold(inst, i, fin)
                if tau is None:
                    continue
                for k in range(n):
                    if any(g >= tau for g in alloc.bundles[k]):
                        checked += 1
                        assert 3 * fin >= 2 * inst.value(i, alloc.bundles[k])
        assert checked > 50

    def test_every_partition_of_large_prefix_majorizes_run(self):
        # the partial allocation built from the items above the half-value
        # threshold is minimal in the majorization order over all partitions
        rng = random.Random(59)
        checked = 0
        for _ in range(80):
            n = rng.randint(2, 3)
            m = rng.randint(n + 1, 9)
            inst = random_distinct_ordered(rng, n, m)
            alloc, trace = envy_graph_allocate(inst)
            fin = inst.value(0, alloc.bundles[0])
            tau = agent_threshold(inst, 0, fin)
            if tau is None or tau == 0 or tau > 7:
                continue
            states = list(replay(trace))
            _, prefix = states[tau - 1]
            run_vals = [inst.value(0, b) for b in prefix]
            row = inst.values[0]
            for assign in itertools.product(range(n), repeat=tau):
                vals = [Fraction(0)] * n
                for g, owner in enumerate(assign):
                    vals[owner] += row[g]
                assert majorizes(vals, run_vals)
                checked += 1
        assert checked > 100
