"""Polynomials and truncated series in z over Q(q)."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjfrac.exact import QPolynomial, QRationalFn
from qjfrac.zalgebra import ZPolynomial, ZSeries, linear_product, linear_step

from conftest import parse
from reference import schoolbook_zmul

ONE = QRationalFn.one()
Q = QRationalFn.q()


class TestZPolynomial:
    def test_linear_factor_product(self):
        c1, c2 = Q, Q * Q
        p = ZPolynomial([ONE, -c1]) * ZPolynomial([ONE, -c2])
        assert p.coefficient(0).is_one()
        assert p.coefficient(1) == -(c1 + c2)
        assert p.coefficient(2) == c1 * c2

    def test_derivative(self):
        p = ZPolynomial([ONE, Q, Q * Q])
        dp = p.derivative()
        assert dp.coefficient(0) == Q
        assert dp.coefficient(1) == 2 * Q * Q
        assert dp.degree == 1

    def test_evaluate_at_ratfn(self):
        p = ZPolynomial([ONE, -Q])  # 1 - q*z
        assert p.evaluate(Q) == ONE - Q * Q
        assert p.evaluate(QRationalFn.zero()).is_one()

    def test_shift_and_degree(self):
        p = ZPolynomial([ONE]).shift(3)
        assert p.degree == 3
        assert p.coefficient(3).is_one()


# c values with zero and repeats likely: a small pool of rational functions of q
_C_POOL = [QRationalFn.zero(), ONE, -ONE, Q, parse("1/2 - q"), parse("q^2/(1 - 3*q)")]
_cs = st.lists(st.sampled_from(_C_POOL), max_size=6)


class TestProduct:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(_C_POOL), max_size=6), st.lists(st.sampled_from(_C_POOL), max_size=6))
    def test_matches_the_schoolbook_product(self, a, b):
        x, y = ZPolynomial(a), ZPolynomial(b)
        assert x * y == schoolbook_zmul(x, y) == y * x

    def test_zero_and_scalar_operands(self):
        p = ZPolynomial([ONE, Q, QRationalFn.zero(), parse("1/(1-q)")])
        assert (p * ZPolynomial()).is_zero() and (ZPolynomial() * p).is_zero()
        assert p * ZPolynomial.constant(Q) == schoolbook_zmul(p, ZPolynomial.constant(Q)) == p * Q


class TestLinearProduct:
    @settings(max_examples=60, deadline=None)
    @given(_cs, st.sampled_from([ONE, QRationalFn.zero(), -ONE, parse("3/2"), parse("(1+q)/(2-q)")]))
    def test_matches_product_of_linear_factors(self, cs, w):
        oracle = prod((ZPolynomial([ONE, -c]) for c in cs), start=ZPolynomial.one()) * w
        assert linear_product(cs, w) == oracle

    def test_edge_cases(self):
        assert linear_product([]) == ZPolynomial.one()
        assert linear_product([], 3) == ZPolynomial.constant(3)
        assert linear_product([Q, Q], 0).is_zero()
        assert linear_product([QRationalFn.zero()] * 3) == ZPolynomial.one()
        assert linear_product([Q, Q]) == ZPolynomial([ONE, -2 * Q, Q * Q])

    def test_step_keeps_the_top_zero(self):
        # a triangle row keeps h + 1 entries even when c_h = 0
        assert linear_step([ONE, -Q], QRationalFn.zero()) == [ONE, -Q, QRationalFn.zero()]
        assert linear_step([], Q) == []


class TestZSeries:
    def test_reciprocal_linear(self):
        c1 = parse("1/(1-q)")
        s = ZSeries(3, [ONE, -c1])
        inv = s.reciprocal()
        assert inv[0] == ONE and inv[1] == c1 and inv[2] == c1 * c1

    def test_product_truncation(self):
        a = ZSeries(3, [ONE, ONE])
        b = ZSeries(3, [ONE, -ONE])
        prod = a * b
        assert [prod[0], prod[1], prod[2]] == [ONE, QRationalFn.zero(), -ONE]

    def test_reciprocal_depth_one_fraction(self):
        # 1/(1 - c1 z - ab2 z^2) expands with the depth-1 tail only: the z^3
        # coefficient is 2 ab2 c1 + c1^3 (no c2 term can appear).
        c1 = QRationalFn.qpow(1)
        ab2 = QRationalFn.qpow(5)
        s = ZSeries(4, [ONE, -c1, -ab2])
        inv = s.reciprocal()
        assert inv[0] == ONE
        assert inv[1] == c1
        assert inv[2] == ab2 + c1 ** 2
        assert inv[3] == 2 * ab2 * c1 + c1 ** 3

    def test_reciprocal_requires_unit(self):
        with pytest.raises(ZeroDivisionError):
            ZSeries(3, [QRationalFn.zero(), ONE]).reciprocal()

    def test_divide_z(self):
        s = ZSeries(3, [QRationalFn.zero(), Q, ONE])
        t = s.divide_z()
        assert t.order == 2 and t[0] == Q and t[1] == ONE
        with pytest.raises(ValueError):
            ZSeries(2, [ONE, ONE]).divide_z()

    def test_series_reciprocal_identity(self):
        s = ZSeries(5, [ONE, Q, Q ** 2, ONE, -Q])
        prod = s * s.reciprocal()
        assert prod == ZSeries.one(5)


_POLY = QPolynomial((1, Fraction(-2, 3), 5))
_RATFN = parse("(1+q)/(2-q)")


@pytest.mark.parametrize(
    "group",
    [
        [0, Fraction(0), QPolynomial.zero(), QRationalFn.zero(), ZPolynomial.zero()],
        [3, Fraction(3), QPolynomial.constant(3), QRationalFn.from_fraction(3), ZPolynomial.constant(3)],
        [
            Fraction(-2, 3),
            QPolynomial.constant(Fraction(-2, 3)),
            QRationalFn.from_fraction(Fraction(-2, 3)),
            ZPolynomial.constant(Fraction(-2, 3)),
        ],
        [_POLY, QRationalFn(_POLY), ZPolynomial.constant(_POLY)],
        [_RATFN, ZPolynomial.constant(_RATFN)],
    ],
    ids=["zero", "int", "fraction", "polynomial", "ratfn"],
)
def test_equal_values_hash_equal_across_types(group):
    # a == b must give hash(a) == hash(b), so each group is one set element
    for a in group:
        for b in group:
            assert a == b and hash(a) == hash(b), (a, b)
    assert len(set(group)) == 1
