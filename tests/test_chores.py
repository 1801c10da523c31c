"""Chore division through envy-graph sinks, and the pairing partition."""

import random

import pytest
from lemmas import lpt_chores_partition

from mmsfair.chores import chores_envy_graph_allocate, solve_chores
from mmsfair.errors import InvalidInstanceError, NotOrderedError
from mmsfair.model import CHORES, AdditiveInstance, Allocation
from mmsfair.oracles import mms_exact_additive


def random_chores(rng, n, m, lo=-20):
    return AdditiveInstance(
        [[rng.randint(lo, 0) for _ in range(m)] for _ in range(n)], kind=CHORES
    )


def bundle_values(instance, allocation):
    return [
        instance.value(i, allocation.bundles[i]) for i in range(allocation.n)
    ]


class TestChoresAllocate:
    def test_two_agents_three_chores(self):
        inst = AdditiveInstance([[-3, -3, -2]] * 2, kind=CHORES)
        alloc, trace = chores_envy_graph_allocate(inst)
        assert alloc.bundles == (frozenset({0, 2}), frozenset({1}))
        assert bundle_values(inst, alloc) == [-5, -3]
        assert len(trace.steps) == 3

    def test_one_chore_each(self):
        for n in (1, 2, 4):
            inst = AdditiveInstance([[-1] * n] * n, kind=CHORES)
            alloc, _ = chores_envy_graph_allocate(inst)
            assert all(len(b) == 1 for b in alloc.bundles)
            assert bundle_values(inst, alloc) == [-1] * n

    def test_equal_chores_split_evenly(self):
        inst = AdditiveInstance([[-1] * 6] * 2, kind=CHORES)
        alloc, _ = chores_envy_graph_allocate(inst)
        assert sorted(len(b) for b in alloc.bundles) == [3, 3]
        assert bundle_values(inst, alloc) == [-3, -3]

    def test_single_agent(self):
        inst = AdditiveInstance([[-4, -2, -1]], kind=CHORES)
        alloc, _ = chores_envy_graph_allocate(inst)
        assert alloc.bundles[0] == frozenset({0, 1, 2})

    def test_rejects_goods(self):
        with pytest.raises(InvalidInstanceError):
            chores_envy_graph_allocate(AdditiveInstance([[2, 1]]))

    def test_requires_ordered(self):
        with pytest.raises(NotOrderedError):
            chores_envy_graph_allocate(
                AdditiveInstance([[-1, -3]], kind=CHORES)
            )


class TestSolveChores:
    def test_single_agent_carries_all(self):
        inst = AdditiveInstance([[-4, -2, -1]], kind=CHORES)
        alloc = solve_chores(inst)
        assert inst.value(0, alloc.bundles[0]) == -7

    def test_all_zero_chores(self):
        inst = AdditiveInstance([[0, 0, 0]] * 2, kind=CHORES)
        alloc = solve_chores(inst)
        assert alloc.is_complete()
        assert bundle_values(inst, alloc) == [0, 0]

    def test_mild_position_regression(self):
        # agents holding only mild ordered positions used to inherit the
        # harsh leftovers; the bound must hold for every agent here
        vals = [
            [-12, -43, -42, -2, -14, -40, -81, -21],
            [-41, -80, -30, -7, -90, -79, -9, -56],
            [-73, -94, -40, -47, -18, -73, -93, -69],
        ]
        inst = AdditiveInstance(vals, kind=CHORES)
        alloc = solve_chores(inst)
        for i in range(3):
            mu = mms_exact_additive(inst, i).value
            v = inst.value(i, alloc.bundles[i])
            assert v * 9 >= 11 * mu

    def test_burden_bound_against_oracle(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randint(2, 3)
            m = rng.randint(n, 8)
            inst = random_chores(rng, n, m)
            alloc = solve_chores(inst)
            assert alloc.is_complete()
            for i in range(n):
                mu = mms_exact_additive(inst, i).value
                v = inst.value(i, alloc.bundles[i])
                assert v * 3 * n >= (4 * n - 1) * mu


class TestPairingPartition:
    def test_four_chores_two_bundles(self):
        alloc = lpt_chores_partition([-5, -4, -3, -2], 2)
        assert alloc.bundles == (frozenset({0, 3}), frozenset({1, 2}))
        inst = AdditiveInstance([[-5, -4, -3, -2]] * 2, kind=CHORES)
        values = [inst.value(0, b) for b in alloc.bundles]
        assert min(values) == -7
        assert mms_exact_additive(inst, 0).value == -7

    def test_fewer_chores_than_bundles(self):
        alloc = lpt_chores_partition([-5, -4], 3)
        assert alloc.bundles == (frozenset({0}), frozenset({1}), frozenset())

    def test_exactly_two_per_bundle(self):
        alloc = lpt_chores_partition([-2, -2, -2, -2], 2)
        assert alloc.bundles == (frozenset({0, 3}), frozenset({1, 2}))

    def test_odd_count_keeps_one_singleton(self):
        alloc = lpt_chores_partition([-9, -7, -5], 2)
        assert alloc.bundles == (frozenset({0}), frozenset({1, 2}))
        inst = AdditiveInstance([[-9, -7, -5]] * 2, kind=CHORES)
        assert mms_exact_additive(inst, 0).value == -12

    def test_no_chores(self):
        alloc = lpt_chores_partition([], 2)
        assert alloc.bundles == (frozenset(), frozenset())

    def test_too_many_chores(self):
        with pytest.raises(InvalidInstanceError):
            lpt_chores_partition([-1] * 5, 2)

    def test_rejects_positive_values(self):
        with pytest.raises(InvalidInstanceError):
            lpt_chores_partition([-1, 1], 2)

    def test_rejects_unsorted(self):
        with pytest.raises(NotOrderedError):
            lpt_chores_partition([-2, -5], 2)

    def test_rejects_zero_bundles(self):
        with pytest.raises(InvalidInstanceError):
            lpt_chores_partition([-1], 0)

    def test_optimal_when_mildest_chore_is_large(self):
        # whenever the mildest chore exceeds a third of the optimum's
        # magnitude, the pairing partition is exactly optimal; its minimum
        # can never exceed the maximin value either way
        rng = random.Random(67)
        exact_hits = 0
        for _ in range(120):
            n = rng.randint(1, 4)
            d = rng.randint(1, 2 * n)
            vals = sorted((-rng.randint(1, 30) for _ in range(d)))
            inst = AdditiveInstance([vals] * n, kind=CHORES)
            mu = mms_exact_additive(inst, 0).value
            alloc = lpt_chores_partition(vals, n)
            low = min(inst.value(0, b) for b in alloc.bundles)
            assert low <= mu
            if 3 * vals[-1] < mu:
                assert low == mu
                exact_hits += 1
        assert exact_hits > 40
