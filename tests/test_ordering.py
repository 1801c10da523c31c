"""Ordered-instance reduction and the picking-sequence lift."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from lemmas import mms_invariance_check

from mmsfair.errors import InvalidInstanceError
from mmsfair.model import CHORES, GOODS, AdditiveInstance, Allocation
from mmsfair.ordering import OrderedReduction, is_ordered, lift_allocation, to_ordered


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
        red = to_ordered(inst)
        assert [list(r) for r in red.ordered.values] == [[3, 2, 1], [2, 2, 2]]
        assert red.perms[0] == (1, 2, 0)
        assert red.perms[1] == (0, 1, 2)  # ties keep original index order

    def test_already_ordered_is_fixed_point(self):
        inst = AdditiveInstance([[5, 3, 1], [9, 9, 0]])
        red = to_ordered(inst)
        assert red.ordered == inst
        assert all(perm == (0, 1, 2) for perm in red.perms)

    def test_chores_sort_by_magnitude(self):
        inst = AdditiveInstance([[-1, -3]], kind=CHORES)
        red = to_ordered(inst)
        assert list(red.ordered.values[0]) == [-3, -1]

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(50):
            kind = GOODS if rng.random() < 0.5 else CHORES
            inst = random_instance(rng, kind, rng.randint(1, 4), rng.randint(0, 8))
            once = to_ordered(inst).ordered
            twice = to_ordered(once).ordered
            assert once == twice

    def test_is_ordered_matches_definition(self):
        assert is_ordered(AdditiveInstance([[3, 2, 2, 0]]))
        assert not is_ordered(AdditiveInstance([[2, 3]]))
        assert is_ordered(AdditiveInstance([[-3, -1]], kind=CHORES))
        assert not is_ordered(AdditiveInstance([[-1, -3]], kind=CHORES))

    def test_permutation_links_matrices(self):
        rng = random.Random(12)
        for _ in range(30):
            inst = random_instance(rng, GOODS, rng.randint(1, 4), rng.randint(0, 8))
            red = to_ordered(inst)
            for i in range(inst.n):
                for j in range(inst.m):
                    assert red.ordered.values[i][j] == inst.values[i][red.perms[i][j]]


class TestLiftAllocation:
    def test_hand_traced_example(self):
        inst = AdditiveInstance([[1, 3, 2], [2, 2, 2]])
        red = to_ordered(inst)
        lifted = lift_allocation(red, inst, Allocation([{0}, {1, 2}], 3))
        assert inst.value(0, lifted.bundles[0]) == 3
        assert inst.value(1, lifted.bundles[1]) == 4
        assert lifted.as_lists() == [[1], [0, 2]]

    def test_single_agent_takes_everything(self):
        inst = AdditiveInstance([[4, 7, 1]])
        red = to_ordered(inst)
        lifted = lift_allocation(red, inst, Allocation([{0, 1, 2}], 3))
        assert lifted.as_lists() == [[0, 1, 2]]

    def test_ordered_input_lifts_to_same_values(self):
        # identity up to equal-value swaps when the instance is already ordered
        rng = random.Random(21)
        for _ in range(150):
            kind = GOODS if rng.random() < 0.5 else CHORES
            n, m = rng.randint(1, 4), rng.randint(0, 8)
            raw = random_instance(rng, kind, n, m, span=20)
            inst = to_ordered(raw).ordered
            red = to_ordered(inst)
            oalloc = random_complete_allocation(rng, n, m)
            lifted = lift_allocation(red, inst, oalloc)
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
        red = to_ordered(inst)
        lifted = lift_allocation(red, inst, oalloc)
        assert lifted.is_complete()
        for i in range(n):
            assert inst.value(i, lifted.bundles[i]) >= red.ordered.value(i, oalloc.bundles[i])

    def test_chores_regression_mild_positions_pick_before_harsh(self):
        # an agent holding only mild ordered positions must not inherit the
        # harmful leftovers during the lift
        vals = [
            [-12, -43, -42, -2, -14, -40, -81, -21],
            [-41, -80, -30, -7, -90, -79, -9, -56],
            [-73, -94, -40, -47, -18, -73, -93, -69],
        ]
        inst = AdditiveInstance(vals, kind=CHORES)
        red = to_ordered(inst)
        oalloc = Allocation([{1, 4, 5, 6}, {0, 7}, {2, 3}], 8)
        lifted = lift_allocation(red, inst, oalloc)
        for i in range(3):
            assert inst.value(i, lifted.bundles[i]) >= red.ordered.value(
                i, oalloc.bundles[i]
            )

    def test_rejects_incomplete_allocation(self):
        inst = AdditiveInstance([[1, 2]])
        red = to_ordered(inst)
        with pytest.raises(InvalidInstanceError):
            lift_allocation(red, inst, Allocation([{0}], 2))

    def test_rejects_foreign_reduction(self):
        inst = AdditiveInstance([[1, 2]])
        other = AdditiveInstance([[2, 1]])
        red = to_ordered(other)
        # same shape and kind, values reordered differently than red.perms says
        red_for_inst = to_ordered(inst)
        assert red.perms != red_for_inst.perms
        with pytest.raises(InvalidInstanceError):
            lift_allocation(red, AdditiveInstance([[9, 9]]), Allocation([{0, 1}], 2))

    def test_rejects_same_ints_at_another_scale(self):
        inst = AdditiveInstance([[Fraction(1, 2), Fraction(1, 2)]])
        red = OrderedReduction(ordered=AdditiveInstance([[1, 1]]), perms=((0, 1),))
        assert red.ordered.ints == inst.ints  # only the scales tell the rows apart
        with pytest.raises(InvalidInstanceError):
            lift_allocation(red, inst, Allocation([{0, 1}], 2))

    def test_rejects_shape_mismatch(self):
        inst = AdditiveInstance([[1, 2]])
        red = to_ordered(inst)
        with pytest.raises(InvalidInstanceError):
            lift_allocation(red, AdditiveInstance([[1, 2, 3]]), Allocation([{0, 1}], 2))


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
