"""Ordered-instance reduction and the picking-sequence lift."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import mms_invariance_check

from mmsfair.errors import InvalidInstanceError
from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.ordering import _canonical_perm, is_ordered, lift_allocation, to_ordered


def random_instance(rng, kind, n, m, span=100):
    lo, hi = (0, span) if kind == GOODS else (-span, 0)
    rows = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]
    return AdditiveInstance(rows, kind=kind)


def random_complete_allocation(rng, n, m):
    bundles = [set() for _ in range(n)]
    for g in range(m):
        bundles[rng.randrange(n)].add(g)
    return Allocation(bundles, m)


class TestToOrdered:
    def test_basic_example(self):
        inst = AdditiveInstance([[1, 3, 2], [2, 2, 2]])
        assert [list(r) for r in to_ordered(inst).values] == [[3, 2, 1], [2, 2, 2]]

    def test_already_ordered_is_fixed_point(self):
        inst = AdditiveInstance([[5, 3, 1], [9, 9, 0]])
        assert to_ordered(inst) == inst

    def test_chores_sort_by_magnitude(self):
        inst = AdditiveInstance([[-1, -3]], kind=CHORES)
        assert list(to_ordered(inst).values[0]) == [-3, -1]

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            kind = GOODS if rng.random() < 0.5 else CHORES
            inst = random_instance(rng, kind, rng.randint(1, 4), rng.randint(0, 8))
            once = to_ordered(inst)
            twice = to_ordered(once)
            assert once == twice

    def test_is_ordered_matches_definition(self):
        assert is_ordered(AdditiveInstance([[3, 2, 2, 0]]))
        assert not is_ordered(AdditiveInstance([[2, 3]]))
        assert is_ordered(AdditiveInstance([[-3, -1]], kind=CHORES))
        assert not is_ordered(AdditiveInstance([[-1, -3]], kind=CHORES))

    def test_is_ordered_zeros(self):
        for kind in (GOODS, CHORES):
            assert is_ordered(AdditiveInstance([[0, 0, 0], [0, 0, 0]], kind=kind))
        assert is_ordered(AdditiveInstance([[-3, -1, 0, 0]], kind=CHORES))
        assert not is_ordered(AdditiveInstance([[0, -1]], kind=CHORES))
        assert not is_ordered(AdditiveInstance([[0, 1]]))

    def test_permutation_is_pinned(self):
        # descending |value|, ties by index: the order the lift walks, so the
        # positions must match, not just the sorted values
        rng = random.Random(13)
        for _ in range(200):
            kind = GOODS if rng.random() < 0.5 else CHORES
            inst = random_instance(rng, kind, rng.randint(1, 4), rng.randint(0, 12), span=3)
            ordered = to_ordered(inst)
            for row, ordered_row in zip(inst.ints, ordered.ints):
                perm = sorted(range(inst.m), key=lambda g: (-abs(row[g]), g))
                assert _canonical_perm(row, kind == GOODS) == perm
                assert list(ordered_row) == [row[g] for g in perm]

    def test_permutation_links_matrices(self):
        rng = random.Random(12)
        for _ in range(30):
            kind = GOODS if rng.random() < 0.5 else CHORES
            inst = random_instance(rng, kind, rng.randint(1, 4), rng.randint(0, 8))
            ordered = to_ordered(inst)
            assert (ordered.kind, ordered.n, ordered.m) == (inst.kind, inst.n, inst.m)
            for row, ordered_row in zip(inst.values, ordered.values):
                assert list(ordered_row) == sorted(row, key=abs, reverse=True)


class TestLiftAllocation:
    def test_hand_traced_example(self):
        inst = AdditiveInstance([[1, 3, 2], [2, 2, 2]])
        lifted = lift_allocation(inst, Allocation([{0}, {1, 2}], 3))
        assert inst.value(0, lifted.bundles[0]) == 3
        assert inst.value(1, lifted.bundles[1]) == 4
        assert lifted.as_lists() == [[1], [0, 2]]  # agent 1's ties go in index order

    def test_single_agent_takes_everything(self):
        inst = AdditiveInstance([[4, 7, 1]])
        lifted = lift_allocation(inst, Allocation([{0, 1, 2}], 3))
        assert lifted.as_lists() == [[0, 1, 2]]

    def test_ordered_input_lifts_to_same_values(self):
        # identity up to equal-value swaps when the instance is already ordered
        rng = random.Random(21)
        for _ in range(150):
            kind = GOODS if rng.random() < 0.5 else CHORES
            n, m = rng.randint(1, 4), rng.randint(0, 8)
            raw = random_instance(rng, kind, n, m, span=20)
            inst = to_ordered(raw)
            oalloc = random_complete_allocation(rng, n, m)
            lifted = lift_allocation(inst, oalloc)
            for i in range(n):
                assert inst.value(i, lifted.bundles[i]) == inst.value(i, oalloc.bundles[i])

    @settings(max_examples=300)  # as many cases as the seeded loop it replaced
    @given(st.sampled_from((GOODS, CHORES)), st.data())
    def test_value_never_drops_goods_and_chores(self, kind, data):
        # every agent does at least as well on the original as on the ordered copy
        n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 10))
        lo, hi = (0, 100) if kind == GOODS else (-100, 0)
        values = st.lists(st.integers(lo, hi), min_size=m, max_size=m)
        inst = AdditiveInstance([data.draw(values) for _ in range(n)], kind=kind)
        owners = data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
        oalloc = Allocation([[g for g in range(m) if owners[g] == i] for i in range(n)], m)
        ordered = to_ordered(inst)
        lifted = lift_allocation(inst, oalloc)
        assert lifted.is_complete()
        for i in range(n):
            assert inst.value(i, lifted.bundles[i]) >= ordered.value(i, oalloc.bundles[i])

    def test_chores_regression_mild_positions_pick_before_harsh(self):
        # an agent holding only mild ordered positions must not inherit the
        # harmful leftovers during the lift
        vals = [
            [-12, -43, -42, -2, -14, -40, -81, -21],
            [-41, -80, -30, -7, -90, -79, -9, -56],
            [-73, -94, -40, -47, -18, -73, -93, -69],
        ]
        inst = AdditiveInstance(vals, kind=CHORES)
        ordered = to_ordered(inst)
        oalloc = Allocation([{1, 4, 5, 6}, {0, 7}, {2, 3}], 8)
        lifted = lift_allocation(inst, oalloc)
        for i in range(3):
            assert inst.value(i, lifted.bundles[i]) >= ordered.value(
                i, oalloc.bundles[i]
            )

    def test_rejects_incomplete_allocation(self):
        inst = AdditiveInstance([[1, 2]])
        with pytest.raises(InvalidInstanceError):
            lift_allocation(inst, Allocation([{0}], 2))

    def test_rejects_shape_mismatch(self):
        inst = AdditiveInstance([[1, 2]])
        with pytest.raises(InvalidInstanceError):
            lift_allocation(AdditiveInstance([[1, 2, 3]]), Allocation([{0, 1}], 2))


class TestMmsInvariance:
    def test_basic_example(self):
        inst = AdditiveInstance([[1, 3, 2], [2, 2, 2]])
        assert mms_invariance_check(inst)

    def test_identical_rows(self):
        inst = AdditiveInstance([[4, 4, 1], [4, 4, 1]])
        assert mms_invariance_check(inst)

    def test_single_agent(self):
        inst = AdditiveInstance([[5, 1, 3]])
        assert mms_invariance_check(inst)

    def test_random_sweep_including_chores(self):
        rng = random.Random(31)
        for _ in range(25):
            kind = GOODS if rng.random() < 0.5 else CHORES
            inst = random_instance(rng, kind, rng.randint(1, 3), rng.randint(1, 7))
            assert mms_invariance_check(inst)
