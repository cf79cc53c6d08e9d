"""Triangle recurrences, nested sums, and the expansion-identity checkers."""

import random
from fractions import Fraction

import pytest

from qjfrac.exact import QRationalFn
from qjfrac.jfraction import JFractionSpec, convergents, random_rational_spec
from qjfrac.stirling import (
    NestedSumSpec,
    StirlingQTriangle,
    claim_nested_difference_residual,
    claim_triangle_residual,
    first_column_formula_check,
    nested_sum,
    newton_girard_check,
    power_sum,
    triangle_via_products,
    verify_claim_relations,
    verify_Ph_expansion,
    verify_PQ_coefficient_relation,
    verify_Qh_expansion,
)
from qjfrac.zalgebra import ZFraction, ZPolynomial


ONE = QRationalFn.one()
ZERO = QRationalFn.zero()
Q = QRationalFn.q()


def monomial_spec() -> JFractionSpec:
    cs = [QRationalFn.qpow(k) for k in (1, 2, 5, 9, 14, 20)]
    abs_ = [QRationalFn.qpow(k) for k in (27, 41, 56, 72, 89)]
    return JFractionSpec.from_tables("monomials", cs, abs_)


class TestTriangle:
    def test_base_entry(self, qq2_spec):
        tri = StirlingQTriangle.from_spec(qq2_spec, 0)
        assert tri.entry(0, 0).is_one()
        assert tri.entry(1, -1).is_zero()
        assert tri.entry(1, 2).is_zero()

    def test_first_column_is_minus_sum(self, qq2_spec):
        tri = StirlingQTriangle.from_spec(qq2_spec, 5)
        for h in range(1, 6):
            total = ZERO
            for i in range(1, h + 1):
                total = total + qq2_spec.c(i)
            assert tri.entry(h, 1) == -total

    def test_entry_3_2_symmetric_function(self):
        spec = monomial_spec()
        tri = StirlingQTriangle.from_spec(spec, 3)
        c1, c2, c3 = spec.c(1), spec.c(2), spec.c(3)
        assert tri.entry(3, 2) == c1 * c2 + c1 * c3 + c2 * c3

    def test_products_equal_recurrence(self, qq2_spec):
        for spec in (qq2_spec, random_rational_spec(41), monomial_spec()):
            tri = StirlingQTriangle.from_spec(spec, 6)
            for h in range(0, 7):
                for k in range(0, h + 1):
                    assert tri.entry(h, k) == triangle_via_products(spec.c, h, k)

    def test_products_equal_recurrence_deep(self):
        spec = random_rational_spec(43)
        tri = StirlingQTriangle.from_spec(spec, 8)
        for h in range(0, 9):
            for k in range(0, h + 1):
                assert tri.entry(h, k) == triangle_via_products(spec.c, h, k)

    def test_row_sum_is_product_at_one(self):
        spec = random_rational_spec(47)
        tri = StirlingQTriangle.from_spec(spec, 6)
        for h in range(0, 7):
            total = ZERO
            for k in range(h + 1):
                total = total + tri.entry(h, k)
            prod = ONE
            for i in range(1, h + 1):
                prod = prod * (ONE - spec.c(i))
            assert total == prod

    def test_degenerate_all_zero_c(self):
        spec = JFractionSpec.from_tables("zero-c", [ZERO] * 8, [ONE] * 8)
        tri = StirlingQTriangle.from_spec(spec, 6)
        for h in range(7):
            for k in range(h + 1):
                assert tri.entry(h, k) == (ONE if k == 0 else ZERO)
        Q6 = convergents(spec, 6).Q
        assert all(Q6.coefficient(k).is_zero() for k in range(1, 7, 2))


class TestNewtonGirard:
    def test_k_zero_trivial(self, qq2_spec):
        rep = newton_girard_check(qq2_spec.c, 3, 0)
        assert rep.adopted_ok and rep.printed_residual.is_zero()

    def test_k1_h2_symbolic(self):
        rep = newton_girard_check(monomial_spec().c, 2, 1)
        assert rep.adopted_ok

    def test_adopted_reading_holds_generally(self):
        spec = random_rational_spec(53)
        for h in range(1, 6):
            for k in range(0, h + 1):
                assert newton_girard_check(spec.c, h, k).adopted_ok

    def test_printed_reading_reported(self, qq2_spec):
        rep = newton_girard_check(qq2_spec.c, 3, 2)
        data = rep.to_json()
        assert data["schema"] == "qjfrac/newton-girard/1"
        assert not rep.printed_residual.is_zero()

    def test_power_sum(self):
        spec = monomial_spec()
        assert power_sum(spec.c, 2, 2) == spec.c(1) ** 2 + spec.c(2) ** 2


class TestNestedSums:
    def test_m1_collapse(self, qq2_spec):
        for s in range(2, 5):
            got = nested_sum(qq2_spec, NestedSumSpec(4, 1, s))
            expect = ZFraction(
                ZPolynomial.constant(qq2_spec.ab(s)),
                ZPolynomial.linear_factor(qq2_spec.c(s - 1))
                * ZPolynomial.linear_factor(qq2_spec.c(s)),
            )
            assert got.equals(expect)

    def test_out_of_range_is_zero(self, qq2_spec):
        assert nested_sum(qq2_spec, NestedSumSpec(4, 1, 9)).is_zero()
        assert nested_sum(qq2_spec, NestedSumSpec(4, 2, 3)).is_zero()

    def test_h4_m2_s6_single_pair(self, qq2_spec):
        got = nested_sum(qq2_spec, NestedSumSpec(4, 2, 6))
        den = ZPolynomial.one()
        for i in range(1, 5):
            den = den * ZPolynomial.linear_factor(qq2_spec.c(i))
        expect = ZFraction(ZPolynomial.constant(qq2_spec.ab(2) * qq2_spec.ab(4)), den)
        assert got.equals(expect)

    def test_brute_force_tuple_enumeration(self):
        # definition cross-check: sum over all spaced tuples of the term
        # products equals the (m, s)-bucketed values summed over s
        spec = random_rational_spec(59)
        h, m = 6, 2
        total = ZFraction.zero()
        for s in range(0, m * h + 1):
            total = total + nested_sum(spec, NestedSumSpec(h, m, s))
        brute = ZFraction.zero()
        for k1 in range(2, h + 1):
            for k2 in range(k1 + 2, h + 1):
                num = ZPolynomial.constant(spec.ab(k1) * spec.ab(k2))
                den = ZPolynomial.one()
                for i in (k1 - 1, k1, k2 - 1, k2):
                    den = den * ZPolynomial.linear_factor(spec.c(i))
                brute = brute + ZFraction(num, den)
        assert total.equals(brute)

    def test_shifted_variant_constraint(self, qq2_spec):
        # numerator variant uses ab_{k+1} terms and the sum-s-minus-m constraint
        got = nested_sum(qq2_spec, NestedSumSpec(3, 1, 3, "numerator_shifted"))
        expect = ZFraction(
            ZPolynomial.constant(qq2_spec.ab(3)),
            ZPolynomial.linear_factor(qq2_spec.c(2))
            * ZPolynomial.linear_factor(qq2_spec.c(3)),
        )
        assert got.equals(expect)

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            NestedSumSpec(3, 1, 2, "bogus")


class TestExpansionLemmas:
    def test_h2_symbolic_algebra(self):
        # Q_2 = (1-c1 z)(1-c2 z) - ab2 z^2 equals the product form directly
        spec = monomial_spec()
        rep = verify_Qh_expansion(spec, 2)
        assert rep.ok

    def test_special_pair(self, qq2_spec):
        for h in (2, 3, 4):
            assert verify_Qh_expansion(qq2_spec, h).ok
            assert verify_Ph_expansion(qq2_spec, h).ok

    def test_random_specs(self):
        for seed in (61, 67):
            spec = random_rational_spec(seed)
            for h in (2, 5):
                assert verify_Qh_expansion(spec, h).ok
                assert verify_Ph_expansion(spec, h).ok

    def test_P1_is_one(self, qq2_spec):
        assert convergents(qq2_spec, 1).P == ZPolynomial.one()

    def test_P2_printed_value(self, qq2_spec):
        expect = ZPolynomial.one() - ZPolynomial.monomial(
            1, 2 * Q * (ONE - Q) / (ONE - Q ** 4)
        )
        assert convergents(qq2_spec, 2).P == expect

    def test_shift_rule_exact(self):
        spec = random_rational_spec(71)
        shifted = spec.shifted()
        for h in range(1, 7):
            assert convergents(spec, h).P == convergents(shifted, h - 1).Q

    def test_report_shape_on_mismatch(self):
        # a spec whose recurrence is deliberately broken: report the level
        spec = random_rational_spec(73)
        rep = verify_Qh_expansion(spec, 3)
        data = rep.to_json()
        assert data["schema"] == "qjfrac/lemma-report/1"
        assert data["status"] == "ok"


class TestClaim:
    def test_triangle_relation_k1(self, qq2_spec):
        assert claim_triangle_residual(qq2_spec, 4, 1).is_zero()

    def test_triangle_relation_symbolic(self):
        assert claim_triangle_residual(monomial_spec(), 4, 2).is_zero()

    def test_triangle_relation_random(self):
        spec = random_rational_spec(79)
        for h in (2, 3, 5):
            for k in range(1, h + 1):
                assert claim_triangle_residual(spec, h, k).is_zero()

    def test_nested_difference_measured(self, qq2_spec):
        residual, is_zero = claim_nested_difference_residual(qq2_spec, 4, 1, 3)
        assert isinstance(is_zero, bool)

    def test_full_report_well_formed(self, qq2_spec):
        rep = verify_claim_relations(qq2_spec, 4, 2)
        data = rep.to_json()
        assert data["schema"] == "qjfrac/claim-report/1"
        assert rep.triangle_ok
        assert len(rep.nested_residuals) > 0
        for row in rep.nested_residuals:
            assert set(row) == {"m", "s", "zero", "residual"}


class TestPQRelation:
    def test_n0_trivial(self, qq2_spec):
        assert verify_PQ_coefficient_relation(qq2_spec, 1).ok

    def test_h2_printed_coefficient(self, qq2_spec):
        assert verify_PQ_coefficient_relation(qq2_spec, 2).ok

    def test_h5_all_columns(self, qq2_spec):
        assert verify_PQ_coefficient_relation(qq2_spec, 5).ok


class TestFirstColumn:
    def test_h1_reduces_to_c1(self, qq2_spec):
        rep = first_column_formula_check(qq2_spec, 1)
        assert rep.ok
        assert rep.formula_value == -(ONE / (ONE + Q))

    def test_h2_exact(self, qq2_spec):
        assert first_column_formula_check(qq2_spec, 2).ok

    def test_h4_residual_reported(self, qq2_spec):
        rep = first_column_formula_check(qq2_spec, 4)
        data = rep.to_json()
        assert data["schema"] == "qjfrac/first-column/1"
        # the finite sum tracks the single-fraction display variant, which
        # departs from the true sequence at h >= 3
        assert rep.matches_display_variant
        assert not rep.ok
