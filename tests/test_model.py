"""Core model: exact values, instances, allocations; and the envy predicates
and certificate check of tests/lemmas.py."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from lemmas import check_certificate, envies, is_ef1, is_efx

from mmsfair.errors import InvalidInstanceError
from mmsfair.model import (
    CHORES,
    GOODS,
    AdditiveInstance,
    Allocation,
    MmsCertificate,
    as_value,
    scale_to_ints,
    value_to_str,
)


class TestValue:
    def test_as_value_accepts_int_str_fraction(self):
        assert as_value(3) == Fraction(3)
        assert as_value("2/5") == Fraction(2, 5)
        assert as_value(Fraction(7, 2)) == Fraction(7, 2)

    def test_as_value_rejects_float_and_bool(self):
        with pytest.raises(InvalidInstanceError):
            as_value(0.1)
        with pytest.raises(InvalidInstanceError):
            as_value(True)

    def test_as_value_rejects_garbage_strings(self):
        with pytest.raises(InvalidInstanceError):
            as_value("1/0")
        with pytest.raises(InvalidInstanceError):
            as_value("three")

    def test_string_round_trip(self):
        for v in (Fraction(0), Fraction(-7, 3), Fraction(10, 4), Fraction(123)):
            assert as_value(value_to_str(v)) == v

    def test_exponent_strings_within_the_limit_are_read(self):
        # the refusal rests on the numerator and denominator, not on the
        # exponent's size alone: these expand to at most 4,300 digits
        assert as_value("1e4299") == 10**4299
        assert as_value("1e-4299") == Fraction(1, 10**4299)
        assert as_value(f"0.{'0' * 4200}1e4200") == Fraction(1, 10)

    def test_no_digit_limit_without_get_int_max_str_digits(self, monkeypatch):
        # Python before 3.10.7 has no int-to-string limit, and nothing to refuse
        monkeypatch.delattr("sys.get_int_max_str_digits")
        assert as_value("1e-5000") == Fraction(1, 10**5000)

    def test_value_too_long_to_write(self):
        with pytest.raises(InvalidInstanceError, match="cannot write a 14285-bit value"):
            value_to_str(Fraction(1, 10**4300))

    def test_arithmetic_is_exact(self):
        a = Fraction(1, 3)
        b = Fraction(1, 7)
        assert (a + b) - b == a


class TestAdditiveInstance:
    def test_sign_constraints(self):
        AdditiveInstance([[0, 1]], kind=GOODS)
        AdditiveInstance([[0, -1]], kind=CHORES)
        with pytest.raises(InvalidInstanceError):
            AdditiveInstance([[1, -1]], kind=GOODS)
        with pytest.raises(InvalidInstanceError):
            AdditiveInstance([[-1, 1]], kind=CHORES)

    def test_rejects_ragged_and_empty(self):
        with pytest.raises(InvalidInstanceError):
            AdditiveInstance([[1, 2], [3]])
        with pytest.raises(InvalidInstanceError):
            AdditiveInstance([])

    def test_rejects_bad_kind(self):
        with pytest.raises(InvalidInstanceError):
            AdditiveInstance([[1]], kind="mixed")

    def test_zero_goods_instance_is_legal(self):
        inst = AdditiveInstance([[], []])
        assert inst.n == 2 and inst.m == 0


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def spellings(v: Fraction, k: int) -> list:
    """Ways to write v that AdditiveInstance accepts: JSON ints and 'p/q'
    strings, canonical or not (read without building a Fraction); the other
    strings Fraction reads (padded, signed, decimal, exponent, underscored,
    non-ASCII digits); and v itself. k > 1 scales a non-canonical 'p/q'."""
    p, q = v.numerator, v.denominator
    sign, digits = "-" * (p < 0), str(abs(p))
    out = [v, str(v), f"{k * p}/{k * q}", f"{sign}00{digits}/{q}", f" {p}/{q} ", f"{p}/{q}\n"]
    out.append(str(v).translate(ARABIC_INDIC))
    if p >= 0:
        out.append(f"+{p}/{q}")
    if q == 1:
        out += [p, f"{sign}0{digits}", f"{p * 10}e-1", f"{p}.0"]
    if p == 0:
        out += ["-0", "-0/7", "000"]
    if len(digits) > 1:
        out.append(f"{sign}{digits[0]}_{digits[1:]}/{q}")
    if 10**6 % q == 0:
        out.append(str(Decimal(p) / Decimal(q)))
    return out


@st.composite
def spelled_rows(draw):
    """A sign, and a row of values each written in one of its spellings."""
    sign = draw(st.sampled_from((1, -1)))
    magnitudes = st.fractions(min_value=0, max_value=10**6, max_denominator=10**4)
    row = draw(st.lists(magnitudes, max_size=12))
    spelled = [
        draw(st.sampled_from(spellings(sign * v, draw(st.integers(2, 10**6))))) for v in row
    ]
    return sign, spelled


@given(case=spelled_rows())
def test_every_spelling_scales_as_fraction_does(case):
    sign, row = case
    inst = AdditiveInstance([row, row], kind=GOODS if sign > 0 else CHORES)
    exact = [Fraction(v) for v in row]
    scale, ints = scale_to_ints(exact)
    assert inst.scales == (scale, scale)
    assert inst.ints == (tuple(ints), tuple(ints))
    assert inst.values == (tuple(exact), tuple(exact))
    assert scale_to_ints(row) == (scale, tuple(ints))


class TestBundleValue:
    def test_two_entries(self):
        inst = AdditiveInstance([[3, 1, 2]])
        assert inst.value(0, {0, 2}) == 5

    def test_empty_bundle_is_zero(self):
        inst = AdditiveInstance([[3, 1, 2]])
        assert inst.value(0, set()) == 0

    def test_unit_goods_prefix(self):
        inst = AdditiveInstance([[1, 1, 1, 3, 3]] * 3)
        assert inst.value(0, {0, 1, 2}) == 3

    def test_out_of_range_good(self):
        inst = AdditiveInstance([[1]])
        with pytest.raises(InvalidInstanceError):
            inst.value(0, {5})

    def test_monotone_for_goods_antitone_for_chores(self):
        goods = AdditiveInstance([[2, 3, 5]])
        chores = AdditiveInstance([[-2, -3, -5]], kind=CHORES)
        assert goods.value(0, {0}) <= goods.value(0, {0, 1})
        assert chores.value(0, {0}) >= chores.value(0, {0, 1})

    def test_bundle_values_sum_to_total(self):
        inst = AdditiveInstance([[4, 1, 2, 7], [2, 2, 2, 2]])
        alloc = Allocation([{0, 3}, {1, 2}], 4)
        for i in range(2):
            total = sum(inst.value(i, b) for b in alloc.bundles)
            assert total == inst.value(i, range(4))


class TestAllocation:
    def test_disjointness_enforced(self):
        with pytest.raises(InvalidInstanceError):
            Allocation([{0}, {0}], 2)

    def test_range_enforced(self):
        with pytest.raises(InvalidInstanceError):
            Allocation([{2}], 2)

    def test_partial_vs_complete(self):
        partial = Allocation([{0}, set()], 2)
        assert not partial.is_complete()
        assert partial.assigned() == {0}
        complete = Allocation([{0}, {1}], 2)
        assert complete.is_complete()


class TestEnvy:
    def test_equal_values_no_envy(self):
        inst = AdditiveInstance([[1, 1]] * 2)
        alloc = Allocation([{0}, {1}], 2)
        assert not envies(inst, alloc, 0, 1)

    def test_strict_envy(self):
        inst = AdditiveInstance([[1, 3]] * 2)
        alloc = Allocation([{0}, {1}], 2)
        assert envies(inst, alloc, 0, 1)
        assert not envies(inst, alloc, 1, 0)

    def test_chores_envy(self):
        inst = AdditiveInstance([[-5, -2]] * 2, kind=CHORES)
        alloc = Allocation([{0}, {1}], 2)
        assert envies(inst, alloc, 0, 1)


class TestEf1Efx:
    def test_unit_prefix_fixture_is_ef1(self):
        inst = AdditiveInstance([[1, 1, 1, 3, 3]] * 3)
        alloc = Allocation([{0}, {1, 3}, {2, 4}], 5)
        assert is_ef1(inst, alloc)

    def test_single_agent_trivially_fair(self):
        inst = AdditiveInstance([[4, 2, 1]])
        alloc = Allocation([{0, 1, 2}], 3)
        assert is_ef1(inst, alloc) and is_efx(inst, alloc)

    def test_empty_own_bundle_fails_ef1(self):
        inst = AdditiveInstance([[1, 1]] * 2)
        alloc = Allocation([set(), {0, 1}], 2)
        assert not is_ef1(inst, alloc)

    def test_efx_accepts_and_rejects(self):
        inst = AdditiveInstance([[5, 1]] * 2)
        assert is_efx(inst, Allocation([{0}, {1}], 2))
        inst = AdditiveInstance([[5, 3, 3]] * 2)
        assert is_efx(inst, Allocation([{0}, {1, 2}], 3))
        assert not is_efx(inst, Allocation([{1}, {0, 2}], 3))

    def test_efx_implies_ef1_random(self):
        # quantifier containment on a seeded sweep of random partial allocations
        import random

        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 4)
            m = rng.randint(0, 6)
            inst = AdditiveInstance(
                [[rng.randint(0, 9) for _ in range(m)] for _ in range(n)]
            )
            bundles = [set() for _ in range(n)]
            for g in range(m):
                k = rng.randint(0, n)  # n = leave unassigned
                if k < n:
                    bundles[k].add(g)
            alloc = Allocation(bundles, m)
            if is_efx(inst, alloc):
                assert is_ef1(inst, alloc)


class TestMmsCertificate:
    def test_check_against_instance(self):
        inst = AdditiveInstance([[1, 3, 2], [2, 2, 2]])
        cert = MmsCertificate(value=Fraction(3), witness=Allocation([{0, 2}, {1}], 3))
        assert check_certificate(cert, inst)

    def test_check_rejects_wrong_value(self):
        inst = AdditiveInstance([[1, 3, 2], [2, 2, 2]])
        cert = MmsCertificate(value=Fraction(4), witness=Allocation([{0, 2}, {1}], 3))
        assert not check_certificate(cert, inst)

    def test_check_rejects_partial_witness(self):
        inst = AdditiveInstance([[1, 3, 2]])
        cert = MmsCertificate(value=Fraction(3), witness=Allocation([{1}], 3))
        assert not check_certificate(cert, inst)
