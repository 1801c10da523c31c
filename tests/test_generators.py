"""Seeded generators and the two hand-built fixture instances."""

import pytest
from lemmas import is_ef1, verify_submodular

from mmsfair.errors import InvalidInstanceError
from mmsfair.generators import (
    ADDITIVE_KINDS,
    SUBMODULAR_KINDS,
    GeneratorSpec,
    fixture_ef1_not_mms,
    fixture_submodular_gap,
    generate,
)
from mmsfair.model import CHORES, GOODS, AdditiveInstance
from mmsfair.oracles import mms_exact_additive, mms_exact_submodular
from mmsfair.submodular.valuations import (
    BudgetAdditive,
    ExplicitTable,
    WeightedCoverage,
)


class TestGeneratorSpec:
    def test_kind_registry(self):
        assert ADDITIVE_KINDS == ("uniform-additive", "ordered-additive", "chores")
        assert SUBMODULAR_KINDS == ("coverage", "budget-additive", "explicit")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInstanceError):
            GeneratorSpec(kind="dictator", n=2, m=3)

    def test_shape_validation(self):
        with pytest.raises(InvalidInstanceError):
            GeneratorSpec(kind="uniform-additive", n=0, m=3)
        with pytest.raises(InvalidInstanceError):
            GeneratorSpec(kind="uniform-additive", n=2, m=-1)

    def test_range_validation(self):
        with pytest.raises(InvalidInstanceError):
            GeneratorSpec(kind="uniform-additive", n=2, m=3, lo=5, hi=4)
        with pytest.raises(InvalidInstanceError):
            GeneratorSpec(kind="chores", n=2, m=3, lo=-5, hi=5)
        with pytest.raises(InvalidInstanceError):
            GeneratorSpec(kind="coverage", n=2, m=3, lo=-5, hi=5)

    @pytest.mark.parametrize("kind", SUBMODULAR_KINDS)
    def test_submodular_weights_need_a_positive_hi(self, kind):
        # weights are drawn from [max(1, lo), hi]
        with pytest.raises(InvalidInstanceError, match=f"^{kind} weights need hi >= 1$"):
            GeneratorSpec(kind=kind, n=2, m=3, lo=0, hi=0)


class TestGenerate:
    def test_uniform_additive(self):
        spec = GeneratorSpec(kind="uniform-additive", n=3, m=7, lo=2, hi=9, seed=1)
        inst = generate(spec)
        assert isinstance(inst, AdditiveInstance)
        assert inst.kind == GOODS
        assert inst.n == 3 and inst.m == 7
        assert all(2 <= v <= 9 for row in inst.values for v in row)

    def test_ordered_additive_rows_descend(self):
        inst = generate(GeneratorSpec(kind="ordered-additive", n=3, m=8, seed=2))
        for row in inst.values:
            assert all(row[a] >= row[a + 1] for a in range(len(row) - 1))

    def test_chores_are_nonpositive(self):
        inst = generate(GeneratorSpec(kind="chores", n=2, m=6, lo=-40, hi=0, seed=3))
        assert inst.kind == CHORES
        assert all(v <= 0 for row in inst.values for v in row)

    def test_determinism(self):
        spec = GeneratorSpec(kind="uniform-additive", n=2, m=9, seed=11)
        assert generate(spec).values == generate(spec).values
        other = GeneratorSpec(kind="uniform-additive", n=2, m=9, seed=12)
        assert generate(spec).values != generate(other).values

    def test_no_goods(self):
        inst = generate(GeneratorSpec(kind="uniform-additive", n=2, m=0))
        assert inst.m == 0

    def test_coverage_family(self):
        fs = generate(GeneratorSpec(kind="coverage", n=3, m=5, lo=1, hi=9, seed=4))
        assert len(fs) == 3
        for f in fs:
            assert isinstance(f, WeightedCoverage)
            assert f.m == 5
            assert verify_submodular(f)

    def test_budget_additive_family(self):
        fs = generate(GeneratorSpec(kind="budget-additive", n=2, m=6, lo=1, hi=9, seed=5))
        assert len(fs) == 2
        for f in fs:
            assert isinstance(f, BudgetAdditive)
            assert all(1 <= w <= 9 for w in f.weights)
            assert 0 < f.cap <= f.total() + f.cap  # cap positive
            assert verify_submodular(f)

    def test_explicit_family_tabulates_coverage(self):
        spec_e = GeneratorSpec(kind="explicit", n=1, m=4, lo=1, hi=9, seed=6)
        spec_c = GeneratorSpec(kind="coverage", n=1, m=4, lo=1, hi=9, seed=6)
        (fe,) = generate(spec_e)
        (fc,) = generate(spec_c)
        assert isinstance(fe, ExplicitTable)
        assert fe.table == tuple(fc.value_mask(mask) for mask in range(1 << 4))

    def test_explicit_size_cap(self):
        with pytest.raises(InvalidInstanceError):
            generate(GeneratorSpec(kind="explicit", n=1, m=17, lo=1, hi=2))

    def test_zero_lo_is_lifted_for_submodular_weights(self):
        fs = generate(GeneratorSpec(kind="budget-additive", n=1, m=5, lo=0, hi=3, seed=7))
        assert all(w >= 1 for w in fs[0].weights)


class TestFixtureEf1NotMms:
    def test_three_agents(self):
        inst, alloc = fixture_ef1_not_mms(3)
        assert inst.values == ((1, 1, 1, 3, 3),) * 3
        assert alloc.bundles == (
            frozenset({0}),
            frozenset({1, 3}),
            frozenset({2, 4}),
        )
        assert alloc.is_complete()
        assert is_ef1(inst, alloc)
        mu = mms_exact_additive(inst, 0).value
        assert mu == 3
        assert inst.value(0, alloc.bundles[0]) * 3 == mu  # exactly 1/n of fair

    def test_ratio_scales_with_n(self):
        for n in (2, 3, 4):
            inst, alloc = fixture_ef1_not_mms(n)
            assert is_ef1(inst, alloc)
            mu = mms_exact_additive(inst, 0).value
            assert mu == n
            assert inst.value(0, alloc.bundles[0]) * n == mu

    def test_structure_for_larger_n(self):
        for n in (5, 6, 7, 8):
            inst, alloc = fixture_ef1_not_mms(n)
            assert inst.m == 2 * n - 1
            assert sum(inst.values[0]) == n * n
            assert is_ef1(inst, alloc)
            assert inst.value(0, alloc.bundles[0]) == 1

    def test_requires_two_agents(self):
        with pytest.raises(InvalidInstanceError):
            fixture_ef1_not_mms(1)


class TestFixtureSubmodularGap:
    def test_table_values(self):
        f1, f2 = fixture_submodular_gap()
        for f in (f1, f2):
            assert f.m == 4
            assert all(f.value_mask(1 << g) == 1 for g in range(4))
            assert f.evaluate([0, 1, 2]) == 2.5
            assert f.evaluate([0, 1, 2, 3]) == 3
        assert f1.evaluate([0, 1]) == 2
        assert f1.evaluate([2, 3]) == 2
        assert f1.evaluate([0, 2]) == 1.5
        assert f2.evaluate([0, 2]) == 2
        assert f2.evaluate([1, 3]) == 2
        assert f2.evaluate([0, 1]) == 1.5

    def test_shares_are_two_but_best_outcome_is_three_halves(self):
        f1, f2 = fixture_submodular_gap()
        assert mms_exact_submodular(f1, 2).value == 2
        assert mms_exact_submodular(f2, 2).value == 2
        best = max(
            min(f1.value_mask(mask), f2.value_mask(0b1111 ^ mask))
            for mask in range(16)
        )
        assert best == 1.5
