"""Brute-force oracles: divisor sums, Pochhammer products, Lambert series,
Gaussian binomials, and the truncated q-binomial-theorem comparison."""

import pytest

from qjfrac.exact import QPolynomial, QRationalFn
from qjfrac.oracles import (
    lambert_truncated,
    pochhammer_ratio,
    q_binomial,
    q_binomial_theorem_check,
    q_pochhammer,
    sigma_alpha,
)

from conftest import parse
from reference import bell_numbers

ONE = QRationalFn.one()
Q = QRationalFn.q()


class TestSigma:
    def test_divisor_count_six(self):
        assert sigma_alpha(0, 6) == 4

    def test_sigma_one_six(self):
        assert sigma_alpha(1, 6) == 12

    def test_unity(self):
        assert sigma_alpha(0, 1) == 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            sigma_alpha(0, 0)


class TestPochhammer:
    def test_qq_two(self):
        assert q_pochhammer(Q, 2) == (ONE - Q) * (ONE - Q * Q)

    def test_empty_product(self):
        assert q_pochhammer(parse("3*q/(1-q)"), 0).is_one()

    def test_telescoping_ratio(self):
        got = q_pochhammer(Q, 3) / q_pochhammer(Q * Q, 3)
        assert got == (ONE - Q) / (ONE - Q ** 4)
        assert pochhammer_ratio(Q, Q * Q, 3) == got


class TestLambert:
    def test_alpha0_order7(self):
        assert [int(c) for c in lambert_truncated(0, 7)] == [0, 1, 2, 2, 3, 2, 4]

    def test_alpha1_order5(self):
        assert [int(c) for c in lambert_truncated(1, 5)] == [0, 1, 3, 4, 7]

    def test_order_one(self):
        assert [int(c) for c in lambert_truncated(0, 1)] == [0]

    def test_matches_sigma_up_to_50(self):
        for alpha in (0, 1, 2):
            series = lambert_truncated(alpha, 50)
            for m in range(1, 50):
                assert series[m] == sigma_alpha(alpha, m)


class TestQBinomial:
    def test_two_choose_one(self):
        assert q_binomial(2, 1) == QPolynomial((1, 1))

    def test_four_choose_two(self):
        assert q_binomial(4, 2) == QPolynomial((1, 1, 2, 1, 1))

    def test_k_zero(self):
        assert q_binomial(7, 0).is_one()

    def test_symmetry(self):
        for n in range(8):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)


class TestQBinomialTheorem:
    def test_euler_case_a_zero(self):
        assert q_binomial_theorem_check(QRationalFn.zero(), Q, 10)

    def test_a_q_z_q(self):
        assert q_binomial_theorem_check(Q, Q, 12)

    def test_order_one_trivial(self):
        assert q_binomial_theorem_check(Q, Q, 1)

    def test_rejects_nonvanishing_z(self):
        with pytest.raises(ValueError):
            q_binomial_theorem_check(Q, ONE, 5)


def test_bell_numbers():
    assert bell_numbers(8) == [1, 1, 2, 5, 15, 52, 203, 877, 4140]
