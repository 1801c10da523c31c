"""Exact maximin oracles, matroid maximizers, and the threshold search."""

import random
from fractions import Fraction

import pytest
from lemmas import check_certificate, is_independent, split_bundle, universe

from mmsfair.errors import BudgetExceededError, InvalidInstanceError
from mmsfair.generators import GeneratorSpec, fixture_submodular_gap, generate
from mmsfair.model import CHORES, AdditiveInstance, Allocation
from mmsfair.oracles import (
    MATROID_SOLVERS,
    SlotObjective,
    exhaustive_matroid_max,
    greedy_matroid_max,
    mms_approx_submodular,
    mms_exact_additive,
    mms_exact_submodular,
    threshold_probe,
)
from mmsfair.submodular.valuations import BudgetAdditive, WeightedCoverage


def random_coverage(rng, m, universe=None, hi=9):
    u = universe if universe is not None else m + rng.randint(1, 3)
    weights = [rng.randint(0, hi) for _ in range(u)]
    covers = [
        rng.sample(range(u), rng.randint(1, min(3, u))) for _ in range(m)
    ]
    return WeightedCoverage(m, weights, covers)


def random_budget_additive(rng, m, hi=9):
    weights = [rng.randint(0, hi) for _ in range(m)]
    total = sum(weights)
    cap = rng.randint(max(1, total // 3), max(1, 2 * total // 3))
    return BudgetAdditive(weights, cap)


class TestExactAdditive:
    def test_ones_and_threes(self):
        inst = AdditiveInstance([[1, 1, 1, 3, 3]] * 3)
        cert = mms_exact_additive(inst, 0)
        assert cert.value == 3
        assert cert.witness.bundles == (
            frozenset({0, 1, 2}),
            frozenset({3}),
            frozenset({4}),
        )
        assert check_certificate(cert, inst)

    def test_equal_goods(self):
        inst = AdditiveInstance([[5, 5, 5, 5]] * 2)
        cert = mms_exact_additive(inst, 1)
        assert cert.agent == 1
        assert cert.value == 10
        assert cert.witness.bundles == (frozenset({0, 1}), frozenset({2, 3}))

    def test_single_bundle_takes_total(self):
        inst = AdditiveInstance([[7, 1, 3]])
        cert = mms_exact_additive(inst, 0)
        assert cert.value == 11
        assert cert.witness.bundles == (frozenset({0, 1, 2}),)

    def test_bundle_count_override(self):
        inst = AdditiveInstance([[5, 5, 5, 5]])
        assert mms_exact_additive(inst, 0, n=2).value == 10
        assert mms_exact_additive(inst, 0, n=3).value == 5
        assert mms_exact_additive(inst, 0, n=4).value == 5
        assert mms_exact_additive(inst, 0, n=5).value == 0

    def test_chores_witness_is_pairing(self):
        inst = AdditiveInstance([[-5, -4, -3, -2]], kind=CHORES)
        cert = mms_exact_additive(inst, 0, n=2)
        assert cert.value == -7
        assert cert.witness.bundles == (frozenset({0, 3}), frozenset({1, 2}))
        assert check_certificate(cert, inst)

    def test_no_goods(self):
        inst = AdditiveInstance([[], []])
        cert = mms_exact_additive(inst, 0)
        assert cert.value == 0
        assert cert.witness.bundles == (frozenset(), frozenset())

    def test_value_only_certificate_has_no_witness(self):
        inst = AdditiveInstance([[3, 3, 2, 2, 2]] * 2)
        cert = mms_exact_additive(inst, 0, witness=False)
        assert (cert.value, cert.witness) == (6, None)
        assert not check_certificate(cert, inst)  # no witness, nothing proven

    def test_deficit_bound_reaches_n3_m40(self):
        # without the total-deficit prune agent 0 alone ran past 60 s
        inst = generate(GeneratorSpec("uniform-additive", n=3, m=40, seed=1))
        certs = [mms_exact_additive(inst, i, budget=3**40) for i in range(3)]
        assert [c.value for c in certs] == [660, 742, 781]
        assert all(check_certificate(c, inst) for c in certs)

    def test_budget_guard(self):
        inst = AdditiveInstance([[1, 2, 3, 4, 5]] * 2)
        with pytest.raises(BudgetExceededError):
            mms_exact_additive(inst, 0, budget=10)

    def test_agent_out_of_range(self):
        inst = AdditiveInstance([[1]])
        with pytest.raises(InvalidInstanceError):
            mms_exact_additive(inst, 1)

    def test_scaling_covariance(self):
        rng = random.Random(71)
        for _ in range(20):
            m = rng.randint(1, 7)
            row = [rng.randint(0, 12) for _ in range(m)]
            base = mms_exact_additive(AdditiveInstance([row]), 0, n=2).value
            scaled = mms_exact_additive(
                AdditiveInstance([[7 * v for v in row]]), 0, n=2
            ).value
            assert scaled == 7 * base

    def test_fractional_values(self):
        inst = AdditiveInstance([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]])
        cert = mms_exact_additive(inst, 0, n=2)
        assert cert.value == Fraction(1, 2)
        assert check_certificate(cert, inst)

    def test_witnesses_check_out(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(0, 8)
            row = [rng.randint(0, 15) for _ in range(m)]
            inst = AdditiveInstance([row] * max(1, n))
            cert = mms_exact_additive(inst, 0, n=n)
            assert check_certificate(cert, inst)
            # no partition does better: spot-check a few random ones
            for _ in range(10):
                vals = [Fraction(0)] * n
                for g in range(m):
                    vals[rng.randrange(n)] += row[g]
                assert min(vals) <= cert.value


class TestExactSubmodular:
    def test_gap_tables_have_share_two(self):
        f1, f2 = fixture_submodular_gap()
        cert1 = mms_exact_submodular(f1, 2)
        assert cert1.value == 2
        assert cert1.witness.bundles == (frozenset({0, 1}), frozenset({2, 3}))
        assert check_certificate(cert1, f1)
        cert2 = mms_exact_submodular(f2, 2)
        assert cert2.value == 2
        assert cert2.witness.bundles == (frozenset({0, 2}), frozenset({1, 3}))
        assert check_certificate(cert2, f2)

    def test_matches_additive_oracle(self):
        rng = random.Random(79)
        for _ in range(25):
            n = rng.randint(2, 3)
            m = rng.randint(1, 7)
            row = [rng.randint(0, 12) for _ in range(m)]
            f = BudgetAdditive(row, sum(row) + 1)
            sub = mms_exact_submodular(f, n)
            add = mms_exact_additive(AdditiveInstance([row] * n), 0)
            assert sub.value == add.value
            assert sub.witness.bundles == add.witness.bundles

    def test_value_only_certificate_has_no_witness(self):
        f = BudgetAdditive([3, 3, 2, 2, 2], 12)
        cert = mms_exact_submodular(f, 2, witness=False)
        assert (cert.value, cert.witness) == (6, None)
        assert not check_certificate(cert, f)

    def test_single_bundle(self):
        f = BudgetAdditive((3, 4), 5)
        cert = mms_exact_submodular(f, 1)
        assert cert.value == 5

    def test_no_goods(self):
        f = BudgetAdditive((), 0)
        cert = mms_exact_submodular(f, 2)
        assert cert.value == 0

    def test_budget_guard(self):
        f = BudgetAdditive((1,) * 12, 12)
        with pytest.raises(BudgetExceededError):
            mms_exact_submodular(f, 3, budget=100)

    def test_needs_positive_bundle_count(self):
        with pytest.raises(InvalidInstanceError):
            mms_exact_submodular(BudgetAdditive((1,), 1), 0)

    def test_coverage_cross_check(self):
        rng = random.Random(83)
        for _ in range(15):
            m = rng.randint(2, 6)
            f = random_coverage(rng, m)
            cert = mms_exact_submodular(f, 2)
            assert check_certificate(cert, f)
            # exhaustive sweep over all 2-colorings confirms optimality
            best = max(
                min(f.value_mask(mask), f.value_mask(((1 << m) - 1) ^ mask))
                for mask in range(1 << m)
            )
            assert cert.value == best


class TestPartitionMatroid:
    def test_universe(self):
        assert universe((2, 5), 2) == [(2, 0), (2, 1), (5, 0), (5, 1)]

    def test_independence(self):
        goods = (0, 1)
        assert is_independent(goods, 3, [(0, 1), (1, 2)])
        assert not is_independent(goods, 3, [(0, 0), (0, 1)])  # good reused
        assert not is_independent(goods, 3, [(2, 0)])  # foreign good
        assert not is_independent(goods, 3, [(0, 3)])  # slot out of range


class TestSlotObjective:
    def test_capped_sum(self):
        f = BudgetAdditive((2, 2, 2), 6)
        obj = SlotObjective(f, cap=Fraction(3), slots=2)
        assert obj.evaluate([(0, 0), (1, 0), (2, 1)]) == 3 + 2

    def test_validation(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            SlotObjective(f, cap=Fraction(1), slots=0)
        with pytest.raises(InvalidInstanceError):
            SlotObjective(f, cap=Fraction(-1), slots=1)
        obj = SlotObjective(f, cap=Fraction(1), slots=1)
        with pytest.raises(InvalidInstanceError):
            obj.slot_masks([(0, 5)])


class TestMatroidMaximizers:
    def test_exhaustive_uncapped_places_everything(self):
        f = BudgetAdditive((3, 1, 4), 8)
        obj = SlotObjective(f, cap=Fraction(100), slots=2)
        chosen = exhaustive_matroid_max(obj, (0, 1, 2))
        assert obj.evaluate(chosen) == 8

    def test_greedy_is_maximal_and_independent(self):
        rng = random.Random(89)
        for _ in range(25):
            m = rng.randint(1, 7)
            f = random_budget_additive(rng, m)
            slots = rng.randint(1, 4)
            cap = Fraction(rng.randint(1, 20))
            obj = SlotObjective(f, cap=cap, slots=slots)
            chosen = greedy_matroid_max(obj, range(m))
            assert is_independent(range(m), slots, chosen)
            assert {g for g, _ in chosen} == set(range(m))

    def test_greedy_reaches_half_of_exact(self):
        rng = random.Random(97)
        for _ in range(30):
            m = rng.randint(1, 7)
            f = random_coverage(rng, m) if rng.random() < 0.5 else random_budget_additive(rng, m)
            slots = rng.randint(1, 4)
            cap = Fraction(rng.randint(1, 25))
            obj = SlotObjective(f, cap=cap, slots=slots)
            best = obj.evaluate(exhaustive_matroid_max(obj, range(m)))
            got = obj.evaluate(greedy_matroid_max(obj, range(m)))
            assert 2 * got >= best

    def test_empty_universe(self):
        f = BudgetAdditive((1,), 1)
        obj = SlotObjective(f, cap=Fraction(1), slots=2)
        assert exhaustive_matroid_max(obj, ()) == set()
        assert greedy_matroid_max(obj, ()) == set()

    def test_exhaustive_budget_guard(self):
        f = BudgetAdditive((1,) * 16, 16)
        obj = SlotObjective(f, cap=Fraction(4), slots=2)
        with pytest.raises(BudgetExceededError):
            exhaustive_matroid_max(obj, range(16), budget=1000)

    def test_solver_registry(self):
        assert set(MATROID_SOLVERS) == {"exhaustive", "greedy"}
        assert MATROID_SOLVERS["exhaustive"][1] == 1
        assert MATROID_SOLVERS["greedy"][1] == Fraction(1, 2)


class TestSplitBundle:
    def test_unit_goods(self):
        f = BudgetAdditive((1,) * 18, 18)
        first, rest = split_bundle(f, range(18), 18)
        assert sorted(first + rest) == list(range(18))
        assert 9 * f.evaluate(first) >= 4 * 18
        assert 9 * f.evaluate(rest) >= 4 * 18
        assert 9 * f.evaluate(first) < 5 * 18

    def test_random_small_goods(self):
        rng = random.Random(101)
        done = 0
        for _ in range(60):
            m = rng.randint(14, 22)
            weights = [rng.randint(1, 2) for _ in range(m)]
            total = sum(weights)
            if total < 9 * max(weights) + 1:
                continue
            tau = Fraction(rng.randint(9 * max(weights) + 1, total))
            f = BudgetAdditive(weights, total)
            first, rest = split_bundle(f, range(m), tau)
            assert sorted(first + rest) == list(range(m))
            assert 9 * f.evaluate(first) >= 4 * tau
            assert 9 * f.evaluate(rest) >= 4 * tau
            assert 9 * f.evaluate(first) < 5 * tau
            done += 1
        assert done > 20

    def test_rejects_large_singleton(self):
        f = BudgetAdditive((5, 1, 1, 1, 1), 9)
        with pytest.raises(InvalidInstanceError):
            split_bundle(f, range(5), 9)

    def test_rejects_thin_bundle(self):
        f = BudgetAdditive((1, 1), 20)
        with pytest.raises(InvalidInstanceError):
            split_bundle(f, [0, 1], 18)

    def test_rejects_nonpositive_tau(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            split_bundle(f, [0], 0)


class TestThresholdProbe:
    def test_zero_threshold_always_accepts(self):
        f = BudgetAdditive((1, 2), 3)
        alloc = threshold_probe(f, 3, 0)
        assert alloc is not None
        assert alloc.bundles == (frozenset({0, 1}), frozenset(), frozenset())

    def test_singleton_seeding(self):
        f = BudgetAdditive((2, 1, 1), 4)
        alloc = threshold_probe(f, 2, 9)
        assert alloc is not None
        assert alloc.bundles == (frozenset({0, 2}), frozenset({1}))

    def test_never_rejects_below_share(self):
        rng = random.Random(103)
        for _ in range(25):
            m = rng.randint(2, 7)
            n = rng.randint(2, 3)
            f = random_coverage(rng, m) if rng.random() < 0.5 else random_budget_additive(rng, m)
            mu = mms_exact_submodular(f, n).value
            for tau in (mu, Fraction(3, 4) * mu, Fraction(1, 3) * mu):
                for solver in ("exhaustive", "greedy"):
                    alloc = threshold_probe(f, n, tau, solver=solver)
                    assert alloc is not None
                    assert alloc.is_complete()
                    assert alloc.n == n

    def test_exhaustive_acceptance_certifies_bundles(self):
        rng = random.Random(107)
        for _ in range(25):
            m = rng.randint(2, 7)
            n = rng.randint(2, 3)
            f = random_coverage(rng, m) if rng.random() < 0.5 else random_budget_additive(rng, m)
            mu = mms_exact_submodular(f, n).value
            if mu == 0:
                continue
            for num in (1, 2, 3):
                tau = Fraction(num, 3) * mu
                alloc = threshold_probe(f, n, tau)
                assert alloc is not None
                for b in alloc.bundles:
                    assert 9 * f.evaluate(b) >= tau

    def test_validation(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            threshold_probe(f, 1, 1, solver="annealing")
        with pytest.raises(InvalidInstanceError):
            threshold_probe(f, 0, 1)
        with pytest.raises(InvalidInstanceError):
            threshold_probe(f, 1, -1)


class TestMmsApproxSubmodular:
    def test_capped_staircase(self):
        f = BudgetAdditive((4, 3, 2, 1), 10)
        mu = mms_exact_submodular(f, 2).value
        assert mu == 5
        result = mms_approx_submodular(f, 2)
        assert result.certified
        assert result.bound * 100 >= 99 * mu
        worst = min(f.evaluate(b) for b in result.allocation.bundles)
        assert 9 * worst >= result.bound

    def test_total_shortcut(self):
        f = BudgetAdditive((5, 5), 10)
        result = mms_approx_submodular(f, 2)
        assert result.bound == 10
        worst = min(f.evaluate(b) for b in result.allocation.bundles)
        assert 9 * worst >= result.bound

    def test_single_agent_gets_total(self):
        f = BudgetAdditive((1,) * 10, 10)
        result = mms_approx_submodular(f, 1)
        assert result.bound == 10

    def test_greedy_is_heuristic(self):
        f = BudgetAdditive((4, 3, 2, 1), 10)
        result = mms_approx_submodular(f, 2, solver="greedy")
        assert not result.certified

    def test_zero_valuation(self):
        f = BudgetAdditive((0, 0), 0)
        result = mms_approx_submodular(f, 2)
        assert result.bound == 0
        assert result.allocation.is_complete()

    def test_validation(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            mms_approx_submodular(f, 1, epsilon=0)
        with pytest.raises(InvalidInstanceError):
            mms_approx_submodular(f, 1, solver="annealing")

    def test_certified_bound_tracks_exact_share(self):
        rng = random.Random(109)
        for _ in range(12):
            m = rng.randint(2, 7)
            n = rng.randint(2, 3)
            f = random_coverage(rng, m) if rng.random() < 0.5 else random_budget_additive(rng, m)
            mu = mms_exact_submodular(f, n).value
            result = mms_approx_submodular(f, n, epsilon=Fraction(1, 100))
            assert 100 * result.bound >= 99 * mu
            if result.bound > 0:
                worst = min(f.evaluate(b) for b in result.allocation.bundles)
                assert 9 * worst >= result.bound
