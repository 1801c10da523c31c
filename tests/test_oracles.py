"""Exact maximin oracles, matroid maximizers, and the threshold search."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from lemmas import check_certificate, is_independent, split_bundle
from reference import SLOT_SOLVERS, reference_matroid_max, slot_solver

from mmsfair import oracles
from mmsfair.errors import BudgetExceededError, InvalidInstanceError
from mmsfair.generators import GeneratorSpec, fixture_submodular_gap, generate
from mmsfair.model import CHORES, AdditiveInstance, Allocation
from mmsfair.oracles import (
    SlotObjective,
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
        assert check_certificate(cert, inst, agent=1)
        assert cert.value == 10
        assert cert.witness.bundles == (frozenset({0, 1}), frozenset({2, 3}))

    def test_single_bundle_takes_total(self):
        inst = AdditiveInstance([[7, 1, 3]])
        cert = mms_exact_additive(inst, 0)
        assert cert.value == 11
        assert cert.witness.bundles == (frozenset({0, 1, 2}),)

    def test_bundle_count_is_agent_count(self):
        row = [5, 5, 5, 5]
        assert mms_exact_additive(AdditiveInstance([row] * 2), 0).value == 10
        assert mms_exact_additive(AdditiveInstance([row] * 3), 0).value == 5
        assert mms_exact_additive(AdditiveInstance([row] * 4), 0).value == 5
        assert mms_exact_additive(AdditiveInstance([row] * 5), 0).value == 0

    def test_chores_witness_is_pairing(self):
        inst = AdditiveInstance([[-5, -4, -3, -2]] * 2, kind=CHORES)
        cert = mms_exact_additive(inst, 0)
        assert cert.value == -7
        assert cert.witness.bundles == (frozenset({0, 3}), frozenset({1, 2}))
        assert check_certificate(cert, inst)

    def test_no_goods(self):
        inst = AdditiveInstance([[], []])
        cert = mms_exact_additive(inst, 0)
        assert cert.value == 0
        assert cert.witness.bundles == (frozenset(), frozenset())

    @pytest.mark.parametrize("witness", [True, False])
    def test_single_agent_with_many_goods(self, witness):
        # one bundle holds every good, found without a search, so m is not
        # bounded by the recursion limit
        row = [g % 7 for g in range(3000)]
        cert = mms_exact_additive(AdditiveInstance([row]), 0, witness=witness)
        assert cert.value == sum(row)
        assert cert.witness == (Allocation([range(3000)], 3000) if witness else None)

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
        assert all(check_certificate(c, inst, i) for i, c in enumerate(certs))

    @pytest.mark.parametrize("n, m, seed, most", [
        # descending checks with no memo take 22.7 M additions here
        (3, 40, 1, 10**6),
        # and over 30 M here
        (3, 40, 2, 10**6),
        # and 27.8 M here
        (3, 40, 5, 10**6),
        # the index-order search alone takes over 25 M here
        (4, 20, 1, 6 * 10**6),
    ], ids=["n3-m40", "n3-m40-seed2", "n3-m40-seed5", "n4-m20"])
    def test_witness_work_on_narrow_rows_past_the_default_budget(self, n, m, seed, most):
        # narrow values make the checks meet one state on many paths; with
        # their dead states memoized, the additions that they make for every
        # agent, 0.07 M to 0.7 M, stay within these bounds
        inst = generate(GeneratorSpec("uniform-additive", n=n, m=m, seed=seed))
        left = most

        def add(key, item):
            nonlocal left
            left -= 1
            if left < 0:
                raise AssertionError(f"the witness searches made over {most} additions")
            return key + item

        for w in inst.ints:
            oracles._max_min_partition(
                n, w, w, w, add, None, sum(w) // n, True  # goods: sizes and caps are the values
            )

    def test_budget_guard(self):
        inst = AdditiveInstance([[1, 2, 3, 4, 5]] * 2)
        with pytest.raises(BudgetExceededError):
            mms_exact_additive(inst, 0, budget=10)

    def test_budget_message_for_a_huge_size(self):
        # 10^5000 has more digits than Python prints, so it is named by the
        # largest power of two it reaches
        exc = BudgetExceededError("search", 10**5000, 10**8)
        assert str(exc) == "search: search size at least 2^16609 exceeds budget 100000000"
        assert (exc.what, exc.size, exc.budget) == ("search", 10**5000, 10**8)
        assert str(BudgetExceededError("search", 3**10, 2**1024)) == (
            "search: search size 59049 exceeds budget at least 2^1024"
        )

    def test_agent_out_of_range(self):
        inst = AdditiveInstance([[1]])
        with pytest.raises(InvalidInstanceError):
            mms_exact_additive(inst, 1)

    def test_scaling_covariance(self):
        rng = random.Random(71)
        for _ in range(20):
            m = rng.randint(1, 7)
            row = [rng.randint(0, 12) for _ in range(m)]
            base = mms_exact_additive(AdditiveInstance([row] * 2), 0).value
            scaled = mms_exact_additive(AdditiveInstance([[7 * v for v in row]] * 2), 0).value
            assert scaled == 7 * base

    def test_fractional_values(self):
        inst = AdditiveInstance([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]] * 2)
        cert = mms_exact_additive(inst, 0)
        assert cert.value == Fraction(1, 2)
        assert check_certificate(cert, inst)

    def test_witnesses_check_out(self):
        rng = random.Random(73)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(0, 8)
            row = [rng.randint(0, 15) for _ in range(m)]
            inst = AdditiveInstance([row] * n)
            cert = mms_exact_additive(inst, 0)
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

    @pytest.mark.parametrize("witness", [True, False])
    def test_single_bundle_with_many_goods(self, witness):
        cert = mms_exact_submodular(BudgetAdditive([1] * 3000, 1500), 1, witness=witness)
        assert cert.value == 1500
        assert cert.witness == (Allocation([range(3000)], 3000) if witness else None)

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
    def test_independence(self):
        goods = (0, 1)
        assert is_independent(goods, 3, [0b00, 0b01, 0b10])
        assert not is_independent(goods, 3, [0b01, 0b01, 0b00])  # good reused
        assert not is_independent(goods, 3, [0b100, 0, 0])  # foreign good
        assert not is_independent(goods, 3, [0b01, 0b10])  # not one mask per slot


class TestSlotObjective:
    def test_capped_sum(self):
        f = BudgetAdditive((2, 2, 2), 6)
        obj = SlotObjective(f, cap=Fraction(3), slots=2)
        assert obj.evaluate([0b011, 0b100]) == 3 + 2

    def test_validation(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            SlotObjective(f, cap=Fraction(1), slots=0)
        with pytest.raises(InvalidInstanceError):
            SlotObjective(f, cap=Fraction(-1), slots=1)


class TestMatroidMaximizers:
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
            assert sum(chosen) == (1 << m) - 1  # disjoint, so every good placed

    def test_greedy_reaches_half_of_exact(self):
        rng = random.Random(97)
        for _ in range(30):
            m = rng.randint(1, 7)
            f = random_coverage(rng, m) if rng.random() < 0.5 else random_budget_additive(rng, m)
            slots = rng.randint(1, 4)
            cap = Fraction(rng.randint(1, 25))
            obj = SlotObjective(f, cap=cap, slots=slots)
            got = obj.evaluate(greedy_matroid_max(obj, range(m)))
            assert 2 * got >= reference_matroid_max(obj, range(m))

    def test_empty_universe(self):
        f = BudgetAdditive((1,), 1)
        obj = SlotObjective(f, cap=Fraction(1), slots=2)
        assert greedy_matroid_max(obj, ()) == [0, 0]


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
                alloc = threshold_probe(f, n, tau)
                assert alloc is not None
                assert alloc.is_complete()
                assert alloc.n == n

    def test_acceptance_certifies_bundles(self):
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

    @given(data=st.data())
    def test_certified_bound_is_below_the_share(self, data):
        # certified: the evaluated poorest bundle proves bound / 9 <= mu
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 7))
        weights = data.draw(st.lists(st.integers(0, 9), min_size=m + 3, max_size=m + 3))
        if data.draw(st.booleans()):
            cap = sum(weights[:m]) * Fraction(data.draw(st.integers(1, 10)), 10)
            f = BudgetAdditive(weights[:m], cap)
        else:
            cover = st.lists(st.integers(0, m + 2), min_size=1, max_size=3, unique=True)
            f = WeightedCoverage(m, weights, data.draw(st.lists(cover, min_size=m, max_size=m)))
        result = mms_approx_submodular(f, n)
        worst = min(map(f.evaluate, result.allocation.bundles))
        assert result.min_bundle_value == worst
        assert result.certified == (9 * worst >= result.bound)
        if result.certified:
            assert result.bound / 9 <= worst <= mms_exact_submodular(f, n).value

    def test_zero_valuation(self):
        f = BudgetAdditive((0, 0), 0)
        result = mms_approx_submodular(f, 2)
        assert result.bound == 0
        assert result.allocation.is_complete()

    @pytest.fixture
    def probes(self, monkeypatch):
        # every threshold the search tries, with whether it was accepted
        probes = []

        def probe(f, n, tau):
            alloc = threshold_probe(f, n, tau)
            probes.append((tau, alloc is not None))
            return alloc

        monkeypatch.setattr(oracles, "threshold_probe", probe)
        return probes

    def test_huge_total_still_finds_the_share(self):
        # mu = 3, but total / 2^64 is still far above every acceptable tau
        f = BudgetAdditive([10**40, 1, 1, 1], 10**41)
        result = mms_approx_submodular(f, 2)
        assert result.certified
        assert 100 * result.bound >= 99 * mms_exact_submodular(f, 2).value
        assert 9 * min(f.evaluate(b) for b in result.allocation.bundles) >= result.bound

    def test_tiny_epsilon_is_reached(self, probes):
        epsilon = Fraction(1, 10**30)
        result = mms_approx_submodular(BudgetAdditive([1, 9, 8], 10), 3, epsilon=epsilon)
        rejected = min(tau for tau, accepted in probes if not accepted)
        assert result.bound < rejected <= result.bound * (1 + epsilon)

    def test_zero_share_takes_one_probe(self, probes):
        result = mms_approx_submodular(BudgetAdditive([0, 0, 5], 5), 2)
        assert result.bound == 0
        assert type(result.bound) is Fraction  # so bound / 9 stays exact
        assert result.allocation.is_complete()
        assert probes == [(0, True)]

    @pytest.mark.parametrize("solver", sorted(SLOT_SOLVERS))
    def test_one_huge_good_takes_few_probes(self, probes, solver):
        # a bisection from 0 halves f(all)'s 4,300 digits: 14,281 probes; the
        # bracket does not lean on the slot solver
        row = [10**4299 + 7, 17, 55, 100, 3]
        with slot_solver(solver):
            result = mms_approx_submodular(BudgetAdditive(row, sum(row)), 3)
        assert result.bound == 9 * 55
        assert len(probes) <= 12

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_probe_bound_and_share(self, probes, data):
        probes.clear()
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(2, 8))
        # weights spread over up to 30 decades
        spread = st.builds(lambda d, e: d * 10**e, st.integers(0, 9), st.integers(0, 30))
        if data.draw(st.booleans()):
            weights = data.draw(st.lists(spread, min_size=m, max_size=m))
            cap = sum(weights) * Fraction(data.draw(st.integers(1, 10)), 10)
            f = BudgetAdditive(weights, cap)
        else:
            u = m + data.draw(st.integers(0, 3))
            weights = data.draw(st.lists(spread, min_size=u, max_size=u))
            cover = st.lists(st.integers(0, u - 1), min_size=1, max_size=3, unique=True)
            f = WeightedCoverage(m, weights, data.draw(st.lists(cover, min_size=m, max_size=m)))
        epsilon = data.draw(st.fractions(Fraction(1, 10**6), Fraction(1, 2)))
        result = mms_approx_submodular(f, n, epsilon=epsilon)
        # ceil(log2 m) + ceil(log2(1/epsilon)) + 3
        inverse = -(-epsilon.denominator // epsilon.numerator)
        assert len(probes) <= (m - 1).bit_length() + (inverse - 1).bit_length() + 3
        assert result.bound * (1 + epsilon) >= mms_exact_submodular(f, n).value

    def test_validation(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            mms_approx_submodular(f, 1, epsilon=0)

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
