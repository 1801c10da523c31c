"""Submodular valuation families, sight-unseen allocation, and the
multilinear extension of tests/multilinear.py."""

import copy
import random
from fractions import Fraction

import pytest
from lemmas import verify_submodular
from multilinear import (
    ONE_MINUS_INV_E_UPPER,
    FractionalAllocation,
    MarginalValuation,
    expected_ordered_marginal,
    multilinear_exact,
    multilinear_mc,
    proportionality_check,
)

from mmsfair.errors import BudgetExceededError, InvalidInstanceError
from mmsfair.generators import GeneratorSpec, fixture_submodular_gap, generate
from mmsfair.model import as_value, value_to_str
from mmsfair.oracles import mms_exact_submodular
from mmsfair.submodular.allocate import ThresholdState, alg_sub, round_robin
from mmsfair.submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    WeightedCoverage,
    detect_positive_mms,
)


def random_coverage(rng, m, hi=8):
    u = m + rng.randint(1, 3)
    weights = [rng.randint(0, hi) for _ in range(u)]
    covers = [rng.sample(range(u), rng.randint(1, min(3, u))) for _ in range(m)]
    return WeightedCoverage(m, weights, covers)


def random_budget_additive(rng, m, hi=8):
    weights = [rng.randint(0, hi) for _ in range(m)]
    total = sum(weights)
    cap = rng.randint(max(1, total // 3), max(1, 2 * total // 3))
    return BudgetAdditive(weights, cap)


def random_family(rng, m):
    return random_coverage(rng, m) if rng.random() < 0.5 else random_budget_additive(rng, m)


def only_ints(x):
    """x is an int, or a tuple, list or dict holding only such values."""
    if isinstance(x, dict):
        x = [*x, *x.values()]
    if isinstance(x, (tuple, list)):
        return all(map(only_ints, x))
    return type(x) is int


def test_valuations_keep_only_scaled_ints():
    # one copy of the data: every slot of every family holds ints only, and
    # solving, the exact oracle and a batch of queries leave every slot as
    # it was (no valuation records the bundles it is asked about)
    rng = random.Random(3)
    m = 6
    data = ([Fraction(rng.randint(1, 9), 4) for _ in range(8)],
            [rng.sample(range(8), 2) for _ in range(m)])
    values = [WeightedCoverage(m, *data).value_mask(mask) for mask in range(1 << m)]
    coverage = WeightedCoverage(m, *data)  # never queried before the snapshot
    budget = BudgetAdditive(["3/2", 1, Fraction(5, 3), 2, 1, "7/4"], "9/2")
    table = ExplicitTable(m, values)
    fs = [coverage, budget, table]

    def slots(f):
        names = [name for cls in type(f).__mro__ for name in getattr(cls, "__slots__", ())]
        return {name: getattr(f, name) for name in names}

    before = [copy.deepcopy(slots(f)) for f in fs]  # a dict kept in a slot is copied
    alg_sub(fs)
    for f, kept in zip(fs, before):
        mms_exact_submodular(f, 3)
        for mask in range(1 << m):
            f.value_int(mask)
        assert slots(f) == kept, type(f).__name__
        assert all(map(only_ints, kept.values())), type(f).__name__
    assert list(table.table) == values == [coverage.value_mask(mask) for mask in range(1 << m)]


class TestExplicitTable:
    def test_lookup(self):
        f = ExplicitTable(2, [0, 1, 2, 2])
        assert f.evaluate([]) == 0
        assert f.evaluate([0]) == 1
        assert f.evaluate([1]) == 2
        assert f.evaluate([0, 1]) == 2
        assert f.total() == 2

    def test_wrong_size(self):
        with pytest.raises(InvalidInstanceError):
            ExplicitTable(2, [0, 1, 2])

    def test_nonzero_empty_set(self):
        with pytest.raises(InvalidInstanceError):
            ExplicitTable(1, [1, 2])

    def test_gain_beyond_singleton(self):
        # good 1 is worth 0 alone yet adds 1 to {2}: the exact oracle's
        # bounds assume no good adds more than max(0, its singleton value)
        with pytest.raises(InvalidInstanceError) as err:
            ExplicitTable(3, ["0", "1", "0", "0", "0", "0", "1", "2"])
        assert str(err.value) == (
            "good 1 adds 1 to bundle [2], more than max(0, its own value 0)"
        )

    def test_generated_and_fixture_tables_meet_the_singleton_bound(self):
        # each construction runs the m 2^m check; the gap tables are
        # subadditive but not submodular, and still pass it
        for seed in range(10):
            generate(GeneratorSpec(kind="explicit", n=3, m=6, lo=1, hi=9, seed=seed))
        f1, f2 = fixture_submodular_gap()
        assert not verify_submodular(f1) and not verify_submodular(f2)


class TestWeightedCoverage:
    def test_union_weight(self):
        f = WeightedCoverage(3, [5, 3, 2], [[0], [0, 1], [2]])
        assert f.evaluate([0]) == 5
        assert f.evaluate([0, 1]) == 8
        assert f.evaluate([1, 2]) == 10
        assert f.evaluate([0, 1, 2]) == 10

    def test_negative_weight(self):
        with pytest.raises(InvalidInstanceError):
            WeightedCoverage(1, [-1], [[0]])

    def test_element_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            WeightedCoverage(1, [1], [[1]])

    def test_cover_count_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            WeightedCoverage(2, [1], [[0]])


class TestBudgetAdditive:
    def test_cap_kicks_in(self):
        f = BudgetAdditive((2, 2), 3)
        assert f.evaluate([0]) == 2
        assert f.evaluate([0, 1]) == 3
        assert f.evaluate([1]) == 2
        assert f.evaluate([0, 1]) - f.evaluate([0]) == 1

    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            BudgetAdditive((-1,), 1)
        with pytest.raises(InvalidInstanceError):
            BudgetAdditive((1,), -1)


class TestMarginalValuation:
    def test_contraction_values(self):
        f = WeightedCoverage(3, [5, 3, 2], [[0], [0, 1], [2]])
        fh = MarginalValuation(f, [1])
        assert fh.evaluate([]) == 0
        assert fh.evaluate([0]) == 0  # element 0 already covered through good 1
        assert fh.evaluate([2]) == 2

    def test_overlap_rejected(self):
        f = BudgetAdditive((1, 1), 2)
        fh = MarginalValuation(f, [0])
        with pytest.raises(InvalidInstanceError):
            fh.evaluate([0])

    def test_contraction_stays_submodular(self):
        # diminishing returns on the free goods: marginals onto a superset
        # never beat marginals onto a subset
        rng = random.Random(113)
        for _ in range(10):
            m = rng.randint(2, 6)
            f = random_coverage(rng, m)
            h = rng.sample(range(m), rng.randint(0, m - 1))
            fh = MarginalValuation(f, h)
            free = [g for g in range(m) if g not in h]
            masks = []
            for sub in range(1 << len(free)):
                masks.append(sum(1 << free[t] for t in range(len(free)) if sub >> t & 1))
            for a in masks:
                assert fh.value_mask(a) >= 0
                for g in free:
                    if a >> g & 1:
                        continue
                    gain_a = fh.value_mask(a | 1 << g) - fh.value_mask(a)
                    assert gain_a >= 0
                    for b in masks:
                        if b & a == a and not b >> g & 1:
                            gain_b = fh.value_mask(b | 1 << g) - fh.value_mask(b)
                            assert gain_a >= gain_b


class TestVerifySubmodular:
    def test_families_pass_exhaustively(self):
        rng = random.Random(127)
        for _ in range(15):
            m = rng.randint(1, 6)
            report = verify_submodular(random_family(rng, m))
            assert report
            assert report.ok
            assert report.reason is None and report.violation is None

    def test_gap_tables_fail_with_witness(self):
        f1, f2 = fixture_submodular_gap()
        r1 = verify_submodular(f1)
        assert not r1
        assert r1.reason == "not submodular"
        assert r1.violation == ((0,), (0, 3), 2)
        r2 = verify_submodular(f2)
        assert r2.violation == ((0,), (0, 3), 1)

    def test_violation_is_a_real_counterexample(self):
        f1, _ = fixture_submodular_gap()
        small, big, g = verify_submodular(f1).violation
        gain_small = f1.evaluate(list(small) + [g]) - f1.evaluate(small)
        gain_big = f1.evaluate(list(big) + [g]) - f1.evaluate(big)
        assert gain_big > gain_small

    def test_not_monotone(self):
        f = ExplicitTable(1, [0, -1])
        report = verify_submodular(f)
        assert not report.ok
        assert report.reason == "not monotone"
        assert report.violation == ((), (0,), 0)

    def test_negative_value(self):
        f = ExplicitTable(2, [0, 1, 1, -1])
        report = verify_submodular(f)
        assert not report.ok
        assert report.reason in ("negative value", "not monotone")


class TestDetectPositiveMms:
    def test_enough_positive_singletons(self):
        f = BudgetAdditive((1, 0, 2), 3)
        assert detect_positive_mms(f, 1)
        assert detect_positive_mms(f, 2)
        assert not detect_positive_mms(f, 3)

    def test_agrees_with_exact_oracle(self):
        rng = random.Random(131)
        for _ in range(20):
            m = rng.randint(1, 6)
            n = rng.randint(1, 3)
            f = random_family(rng, m)
            if m < n:
                continue
            mu = mms_exact_submodular(f, n).value
            assert detect_positive_mms(f, n) == (mu > 0)


class TestRoundRobin:
    def test_unit_goods_two_agents(self):
        f = BudgetAdditive((1, 1, 1, 1), 4)
        assert round_robin([f, f], [Fraction(2), Fraction(2)]) == [0b0101, 0b1010]

    def test_zero_thresholds_spread_leftovers(self):
        f = BudgetAdditive((1,) * 5, 5)
        assert round_robin([f, f], [Fraction(0), Fraction(0)]) == [0b10101, 0b01010]

    def test_fewer_goods_than_agents(self):
        f = BudgetAdditive((1, 1), 2)
        assert round_robin([f, f, f], [Fraction(0)] * 3) == [0b01, 0b10, 0]

    def test_single_agent(self):
        f = BudgetAdditive((2, 1), 3)
        assert round_robin([f], [Fraction(0)]) == [0b11]

    def test_unmet_threshold_keeps_agent_in_rotation(self):
        f = BudgetAdditive((1, 1, 1, 1), 4)
        assert round_robin([f, f], [Fraction(50), Fraction(0)]) == [0b1110, 0b0001]

    def test_validation(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            round_robin([f, f], [Fraction(0)])
        with pytest.raises(InvalidInstanceError):
            round_robin([], [])
        with pytest.raises(InvalidInstanceError):
            round_robin([f, BudgetAdditive((1, 1), 2)], [Fraction(0)] * 2)

    def test_honest_threshold_is_met(self):
        # an agent whose threshold is at most its maximin share collects at
        # least a tenth of that threshold, however the others are set
        rng = random.Random(137)
        for _ in range(25):
            n = rng.randint(2, 3)
            m = rng.randint(n, 6)
            fs = [random_family(rng, m) for _ in range(n)]
            target = rng.randrange(n)
            taus = []
            for i in range(n):
                if i == target:
                    taus.append(mms_exact_submodular(fs[i], n).value)
                else:
                    taus.append(10 * fs[i].total() + 1)
            got = fs[target].value_mask(round_robin(fs, taus)[target])
            assert 10 * got >= taus[target]


class TestAlgSub:
    def test_single_agent(self):
        f = BudgetAdditive((3, 2), 5)
        alloc, state = alg_sub([f])
        assert alloc.bundles == (frozenset({0, 1}),)
        assert state.iterations == 1
        assert state.excluded == frozenset()

    def test_identical_pair_meets_guarantee(self):
        f = BudgetAdditive((1, 1, 1, 1), 4)
        delta = Fraction(1, 20)
        alloc, state = alg_sub([f, f], delta=delta)
        mu = mms_exact_submodular(f, 2).value
        for i in range(2):
            v = f.evaluate(alloc.bundles[i])
            assert v * 10 * (1 + delta) >= mu
        assert state.excluded == frozenset()
        assert state.iterations >= 1

    def test_zero_share_agent_excluded(self):
        zero = BudgetAdditive((0, 0), 0)
        live = BudgetAdditive((1, 1), 2)
        alloc, state = alg_sub([zero, live])
        assert state.excluded == frozenset({0})
        assert alloc.bundles[0] == frozenset()
        assert alloc.bundles[1] == frozenset({0, 1})

    def test_all_excluded_still_allocates(self):
        zero = BudgetAdditive((0, 0, 0), 0)
        alloc, state = alg_sub([zero, zero])
        assert state.excluded == frozenset({0, 1})
        assert state.iterations == 0
        assert alloc.is_complete()

    def test_total_far_beyond_float_range(self):
        # v(all) / (smallest positive singleton) is about 10**400, past the
        # float range, in the loop cap; delta = 1 keeps the decays few
        f = BudgetAdditive([10**400, 1, 1, 1], 10**401)
        alloc, state = alg_sub([f, f], delta=Fraction(1))
        assert alloc.is_complete()
        mu = mms_exact_submodular(f, 2).value
        assert mu == 3
        for i in range(2):
            assert f.evaluate(alloc.bundles[i]) * 10 * 2 >= mu

    def test_thresholds_stay_short(self):
        # at the default delta the descent takes 18,808 rounds; exact
        # division would grow a threshold's denominator by 21^k, past
        # what value_to_str can write
        f = BudgetAdditive([10**400, 1, 1, 1], 10**401)
        alloc, state = alg_sub([f, f])
        assert state.iterations == 18808
        assert alloc.bundles == (frozenset({0}), frozenset({1, 2, 3}))
        for tau in state.thresholds:
            assert max(tau.numerator.bit_length(), tau.denominator.bit_length()) < 2000
            assert as_value(value_to_str(tau)) == tau

    def test_delta_must_be_positive(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            alg_sub([f], delta=0)

    @pytest.mark.parametrize(
        "n, m, iterations", [(11, 44, 2), (12, 48, 4), (20, 60, 15), (30, 90, 23)]
    )
    def test_identical_agents_decay(self, n, m, iterations):
        f = BudgetAdditive([1] * m, m)
        alloc, state = alg_sub([f] * n)
        assert state.iterations == iterations
        assert alloc.is_complete()
        # every agent clears a tenth of its decayed threshold
        for i in range(n):
            assert 10 * f.evaluate(alloc.bundles[i]) >= state.thresholds[i]
            assert state.thresholds[i] < m

    def test_non_monotone_table_names_a_witness(self):
        # f(all) = -3 < f({0}) = 6: no threshold decay can satisfy the agent
        f = ExplicitTable(2, ["0", "6", "2", "-3"])
        with pytest.raises(InvalidInstanceError, match="agent 0's valuation is not monotone"):
            alg_sub([f])

    def test_non_monotone_tables_can_still_allocate(self):
        # both tables lose value on the pair, but each agent's single good
        # clears a tenth of its threshold after one round
        fs = [ExplicitTable(2, ["0", "1", "5", "-3"]), ExplicitTable(2, ["0", "1", "5", "1"])]
        alloc, state = alg_sub(fs)
        assert alloc.bundles == (frozenset({1}), frozenset({0}))
        assert state.iterations == 1

    def test_guarantee_against_oracle(self):
        rng = random.Random(139)
        delta = Fraction(1, 20)
        for _ in range(15):
            n = rng.randint(2, 3)
            m = rng.randint(n, 6)
            fs = [random_family(rng, m) for _ in range(n)]
            alloc, state = alg_sub(fs, delta=delta)
            assert alloc.is_complete()
            for i in range(n):
                mu = mms_exact_submodular(fs[i], n).value
                if i in state.excluded:
                    assert mu == 0
                else:
                    v = fs[i].evaluate(alloc.bundles[i])
                    assert v * 10 * (1 + delta) >= mu
                    assert 10 * v >= state.thresholds[i]


class TestFractionalAllocation:
    def test_validation(self):
        with pytest.raises(InvalidInstanceError):
            FractionalAllocation([Fraction(3, 2)])
        with pytest.raises(InvalidInstanceError):
            FractionalAllocation([Fraction(-1, 2)])

    def test_support_and_projection(self):
        x = FractionalAllocation([Fraction(1, 2), Fraction(0), Fraction(1)])
        assert x.m == 3
        assert x.support() == frozenset({0, 2})
        assert x.project([0]).x == (Fraction(1, 2), Fraction(0), Fraction(0))
        assert x.project(range(3)) == x
        with pytest.raises(InvalidInstanceError):
            x.project([3])

    def test_uniform(self):
        x = FractionalAllocation.uniform(4, 3)
        assert x.x == (Fraction(1, 4),) * 3


class TestMultilinearExact:
    def test_or_gate_half_half(self):
        f = WeightedCoverage(2, [1], [[0], [0]])
        x = FractionalAllocation([Fraction(1, 2), Fraction(1, 2)])
        assert multilinear_exact(f, x) == Fraction(3, 4)

    def test_additive_linearity(self):
        rng = random.Random(149)
        for _ in range(20):
            m = rng.randint(1, 7)
            weights = [rng.randint(0, 9) for _ in range(m)]
            f = BudgetAdditive(weights, sum(weights) + 1)
            coords = [Fraction(rng.randint(0, 8), 8) for _ in range(m)]
            x = FractionalAllocation(coords)
            assert multilinear_exact(f, x) == sum(
                c * w for c, w in zip(coords, weights)
            )

    def test_indicator_point(self):
        rng = random.Random(151)
        for _ in range(15):
            m = rng.randint(1, 6)
            f = random_family(rng, m)
            bundle = [g for g in range(m) if rng.random() < 0.5]
            x = FractionalAllocation([1 if g in bundle else 0 for g in range(m)])
            assert multilinear_exact(f, x) == f.evaluate(bundle)

    def test_zero_point(self):
        f = BudgetAdditive((4, 4), 8)
        assert multilinear_exact(f, FractionalAllocation([0, 0])) == 0

    def test_monotone_in_coordinates(self):
        rng = random.Random(157)
        for _ in range(15):
            m = rng.randint(1, 6)
            f = random_family(rng, m)
            coords = [Fraction(rng.randint(0, 7), 8) for _ in range(m)]
            g = rng.randrange(m)
            bumped = list(coords)
            bumped[g] += Fraction(1, 8)
            low = multilinear_exact(f, FractionalAllocation(coords))
            high = multilinear_exact(f, FractionalAllocation(bumped))
            assert high >= low

    def test_support_budget(self):
        f = BudgetAdditive((1,) * 21, 21)
        x = FractionalAllocation([Fraction(1, 2)] * 21)
        with pytest.raises(BudgetExceededError):
            multilinear_exact(f, x)

    def test_dimension_mismatch(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            multilinear_exact(f, FractionalAllocation([1, 0]))


class TestMultilinearMc:
    def test_deterministic_point_is_exact(self):
        f = BudgetAdditive((3, 4), 7)
        x = FractionalAllocation([1, 0])
        mean, err = multilinear_mc(f, x, samples=50, seed=9)
        assert mean == 3
        assert err == 0.0

    def test_single_sample(self):
        f = BudgetAdditive((3, 4), 7)
        x = FractionalAllocation([Fraction(1, 2), Fraction(1, 2)])
        mean, err = multilinear_mc(f, x, samples=1, seed=9)
        assert err == 0.0

    def test_seed_determinism(self):
        f = WeightedCoverage(3, [2, 3, 4], [[0, 1], [1], [2]])
        x = FractionalAllocation([Fraction(1, 3)] * 3)
        a = multilinear_mc(f, x, samples=500, seed=42)
        b = multilinear_mc(f, x, samples=500, seed=42)
        assert a == b
        c = multilinear_mc(f, x, samples=500, seed=43)
        assert a != c

    def test_tracks_exact_value(self):
        rng = random.Random(163)
        for seed in range(6):
            m = rng.randint(2, 6)
            f = random_family(rng, m)
            coords = [Fraction(rng.randint(0, 4), 4) for _ in range(m)]
            x = FractionalAllocation(coords)
            exact = multilinear_exact(f, x)
            mean, err = multilinear_mc(f, x, samples=4000, seed=seed)
            assert abs(float(mean - exact)) <= 4 * err + 1e-9

    def test_needs_a_sample(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            multilinear_mc(f, FractionalAllocation([1]), samples=0, seed=0)


class TestExpectedOrderedMarginal:
    def test_or_gate(self):
        f = WeightedCoverage(2, [1], [[0], [0]])
        x = FractionalAllocation([Fraction(1, 2), Fraction(1, 2)])
        assert expected_ordered_marginal(f, [], [0, 1], 1, x) == Fraction(1, 2)
        assert expected_ordered_marginal(f, [], [0, 1], 0, x) == 1

    def test_additive_marginals_are_flat(self):
        rng = random.Random(167)
        for _ in range(15):
            m = rng.randint(2, 6)
            weights = [rng.randint(0, 9) for _ in range(m)]
            f = BudgetAdditive(weights, sum(weights) + 1)
            goods = list(range(m))
            rng.shuffle(goods)
            cut = rng.randint(1, m)
            j_set = sorted(goods[:cut])
            h = sorted(goods[cut:])
            j = rng.choice(j_set)
            x = FractionalAllocation([Fraction(rng.randint(0, 4), 4) for _ in range(m)])
            assert expected_ordered_marginal(f, h, j_set, j, x) == weights[j]

    def test_lone_member(self):
        f = WeightedCoverage(3, [2, 5], [[0], [0, 1], [1]])
        x = FractionalAllocation([Fraction(1, 2)] * 3)
        got = expected_ordered_marginal(f, [0], [1], 1, x)
        assert got == f.evaluate([0, 1]) - f.evaluate([0])

    def test_validation(self):
        f = BudgetAdditive((1, 1), 2)
        x = FractionalAllocation([Fraction(1, 2)] * 2)
        with pytest.raises(InvalidInstanceError):
            expected_ordered_marginal(f, [], [0], 1, x)
        with pytest.raises(InvalidInstanceError):
            expected_ordered_marginal(f, [0], [0, 1], 1, x)
        with pytest.raises(InvalidInstanceError):
            expected_ordered_marginal(f, [], [0], 0, FractionalAllocation([1]))

    def test_fractional_value_decomposes_over_marginals(self):
        # with x supported inside J, the contraction's fractional value is
        # the x-weighted sum of ordered marginals
        rng = random.Random(173)
        for _ in range(25):
            m = rng.randint(2, 6)
            f = random_family(rng, m)
            goods = list(range(m))
            rng.shuffle(goods)
            h_count = rng.randint(0, m - 1)
            h = sorted(goods[:h_count])
            j_set = sorted(goods[h_count:])
            coords = [Fraction(0)] * m
            for j in j_set:
                coords[j] = Fraction(rng.randint(0, 4), 4)
            x = FractionalAllocation(coords)
            lhs = multilinear_exact(MarginalValuation(f, h), x)
            rhs = sum(
                coords[j] * expected_ordered_marginal(f, h, j_set, j, x)
                for j in j_set
            )
            assert lhs == rhs

    def test_shrinking_j_never_lowers_a_marginal(self):
        rng = random.Random(179)
        for _ in range(25):
            m = rng.randint(2, 6)
            f = random_family(rng, m)
            goods = list(range(m))
            rng.shuffle(goods)
            h_count = rng.randint(0, m - 2)
            h = sorted(goods[:h_count])
            j_set = sorted(goods[h_count:])
            j = rng.choice(j_set)
            smaller = sorted(set(rng.sample(j_set, rng.randint(1, len(j_set)))) | {j})
            x = FractionalAllocation(
                [Fraction(rng.randint(0, 4), 4) for _ in range(m)]
            )
            big = expected_ordered_marginal(f, h, j_set, j, x)
            small = expected_ordered_marginal(f, h, smaller, j, x)
            assert small >= big


class TestProportionalityCheck:
    def test_unit_pair(self):
        f = BudgetAdditive((1, 1), 2)
        report = proportionality_check([f, f], [1, 1])
        assert report.all_passed()
        assert report.values_at_uniform == (1, 1)
        assert report.bounds == (ONE_MINUS_INV_E_UPPER, ONE_MINUS_INV_E_UPPER)

    def test_gap_tables(self):
        f1, f2 = fixture_submodular_gap()
        report = proportionality_check([f1, f2], [2, 2])
        assert report.all_passed()

    def test_uniform_point_covers_share_fraction(self):
        rng = random.Random(181)
        for _ in range(10):
            n = rng.randint(2, 3)
            m = rng.randint(n, 6)
            fs = [random_family(rng, m) for _ in range(n)]
            mus = [mms_exact_submodular(f, n).value for f in fs]
            assert proportionality_check(fs, mus).all_passed()

    def test_length_mismatch(self):
        f = BudgetAdditive((1,), 1)
        with pytest.raises(InvalidInstanceError):
            proportionality_check([f], [1, 2])


class TestFractionalEstimates:
    """Seeded instances, each with one fact about the fractional relaxation."""

    def test_extension_splits_over_goods(self):
        # each coordinate contributes its mass times the expected marginal
        # over a random lower-indexed prefix
        f = generate(GeneratorSpec("coverage", 1, 8, lo=1, hi=9, seed=3))[0]
        x = FractionalAllocation([Fraction(1, 2)] * 8)
        j_set = frozenset(range(8))
        parts = sum(
            (x.x[j] * expected_ordered_marginal(f, frozenset(), j_set, j, x) for j in j_set),
            Fraction(0),
        )
        assert parts == multilinear_exact(f, x)

    def test_uniform_point_covers_shares(self):
        fs = generate(GeneratorSpec("explicit", 3, 6, lo=1, hi=9, seed=12))
        mus = [mms_exact_submodular(f, 3).value for f in fs]
        assert proportionality_check(fs, mus).all_passed()

    def test_no_allocation_beats_three_quarters(self):
        # the integral gap the fractional relaxation cannot see
        f1, f2 = fixture_submodular_gap()
        mus = [mms_exact_submodular(f, 2).value for f in (f1, f2)]
        best = Fraction(0)
        for mask in range(16):
            a = [g for g in range(4) if mask >> g & 1]
            b = [g for g in range(4) if not mask >> g & 1]
            best = max(best, min(f1.evaluate(a) / mus[0], f2.evaluate(b) / mus[1]))
        assert best == Fraction(3, 4)
