"""Convergent recurrences, coefficient extraction, modulus products,
series inversion, and the tabulated sequence families."""

import functools
import random
from fractions import Fraction
from math import comb

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qjfrac.exact import QPolynomial, QRationalFn, QSeries
from qjfrac.jfraction import (
    ConvergentPair,
    JFractionSpec,
    PochhammerParams,
    cfraction_coefficient,
    convergent_coefficients,
    convergent_pairs,
    convergent_sum_decomposition,
    convergents,
    divisor_spec,
    invert,
    lambert_ratio_target,
    pochhammer_c_display_form,
    pochhammer_spec,
    random_rational_spec,
    series_to_jfraction,
    table1_preset,
    telescoping_residual,
)
from qjfrac.oracles import pochhammer_ratio, q_pochhammer
from qjfrac.sequences import convergent_pair, divisor_contraction
from qjfrac.zalgebra import ZPolynomial, ZSeries

from conftest import parse, random_pochhammer_params
from reference import (
    TABLE1_DISPLAYS,
    lambda_closed_form_report,
    lambda_modulus,
    pochhammer_ab_closed_form,
    substitute_z_to_q,
    table1_target,
)

ONE = QRationalFn.one()
ZERO = QRationalFn.zero()
Q = QRationalFn.q()

_small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_small_nonzero_fraction = _small_fraction.filter(lambda v: v != 0)


# -- oracles: the series loops that the one quotient kernel replaced ----------
#
# QSeries and ZSeries each carried a product loop, a reciprocal loop, and a
# division built as reciprocal-then-multiply; QRationalFn.taylor and
# convergent_coefficients each ran the division recurrence once more.  The
# reciprocal and product loops below serve both coefficient fields.


def product_by_loop(a, b):
    """a·b for two series of one type, by the product loop of the old series types."""
    n = min(a.order, b.order)
    cs = [type(a).zero(1)[0]] * n
    for i in range(n):
        x = a.coeffs[i]
        if not x:
            continue
        for j in range(n - i):
            y = b.coeffs[j]
            if y:
                cs[i + j] = cs[i + j] + x * y
    return type(a)(n, cs)


def reciprocal_by_loop(s):
    """1/s by the reciprocal loop of the old series types."""
    if s.order == 0:
        return s
    c0 = s.coeffs[0]
    if not c0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    inv0 = type(s).one(1)[0] / c0
    cs = [inv0]
    for n in range(1, s.order):
        acc = type(s).zero(1)[0]
        for i in range(1, n + 1):
            ci = s.coeffs[i]
            if ci:
                acc = acc + ci * cs[n - i]
        cs.append(-acc * inv0)
    return type(s)(s.order, cs)


def divide_by_reciprocal(a, b):
    """a / b as the old series types divided: by a scalar coefficientwise, by a
    polynomial or a series as a times the reciprocal of b truncated to a's order."""
    if isinstance(b, type(a)):
        return product_by_loop(a, reciprocal_by_loop(b))
    if isinstance(b, (QPolynomial, ZPolynomial)):
        return product_by_loop(a, reciprocal_by_loop(type(a)(a.order, b.coeffs[: a.order])))
    if not b:
        raise ZeroDivisionError("division by zero")
    return type(a)(a.order, [x / b for x in a.coeffs])


def taylor_by_loop(r: QRationalFn, order: int) -> QSeries:
    """The Maclaurin expansion by the loop of the old QRationalFn.taylor."""
    d0 = r.den.coefficient(0)
    if d0 == 0:
        raise ValueError("pole at q=0: denominator has zero constant term")
    cs = []
    for n in range(order):
        acc = r.num.coefficient(n)
        for i in range(1, n + 1):
            di = r.den.coefficient(i)
            if di != 0:
                acc -= di * cs[n - i]
        cs.append(acc / d0)
    return QSeries(order, cs)


def convergent_coefficients_by_recurrence(pair: ConvergentPair, n_max: int) -> ZSeries:
    """The coefficients of P/Q by the loop of the old convergent_coefficients (Q(0) = 1)."""
    js = []
    for n in range(n_max):
        acc = pair.P.coefficient(n)
        for i in range(1, min(n, pair.Q.degree) + 1):
            qi = pair.Q.coefficient(i)
            if not qi.is_zero():
                acc = acc - qi * js[n - i]
        js.append(acc)
    return ZSeries(n_max, js)


def convergent_coefficients_by_division(pair: ConvergentPair, n_max: int) -> ZSeries:
    """Same coefficients through full series division; cross-validation path."""
    return divide_by_reciprocal(pair.P.series(n_max), pair.Q.series(n_max))


def assert_same(got, want):
    """got() == want(), with the same types throughout, or both raise ZeroDivisionError."""
    try:
        expected = want()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            got()
        return
    result = got()
    assert type(result) is type(expected)
    assert result == expected and hash(result) == hash(expected)
    assert [type(c) for c in result.coeffs] == [type(c) for c in expected.coeffs]


# -- differential tests of the quotient kernel against the oracles ---------------

_fraction_coefficient = st.one_of(
    st.just(Fraction(0)), st.just(Fraction(1)), st.fractions(-5, 5, max_denominator=4)
)


@st.composite
def _small_polys(draw, max_len=3):
    return QPolynomial(draw(st.lists(_fraction_coefficient, max_size=max_len)))


@st.composite
def _ratfn_coefficients(draw):
    """Elements of Q(q) of degree <= 2 over <= 2; zero and one come up often."""
    den = draw(_small_polys())
    r = QRationalFn(draw(_small_polys()), den if den else QPolynomial.one())
    return draw(st.sampled_from((r, r, QRationalFn.zero(), QRationalFn.one())))


def _series(series_type, coefficient):
    """Series of order 0..8 whose coefficients, b_0 included, are often 0 or 1."""
    return st.integers(0, 8).flatmap(
        lambda order: st.lists(coefficient, min_size=order, max_size=order).map(
            lambda cs: series_type(order, cs)
        )
    )


_fields = st.sampled_from(
    [
        (QSeries, _fraction_coefficient, _small_polys()),
        (ZSeries, _ratfn_coefficients(), st.lists(_ratfn_coefficients(), max_size=4).map(ZPolynomial)),
    ]
)


@st.composite
def _operands(draw):
    """(series, divisor): the divisor is a series of another order, a scalar, or a polynomial."""
    series_type, coefficient, polynomial = draw(_fields)
    a = draw(_series(series_type, coefficient))
    b = draw(st.one_of(_series(series_type, coefficient), coefficient, polynomial))
    return a, b


@settings(max_examples=80, deadline=None)
@given(_operands())
def test_series_division_matches_reciprocal_then_multiply(operands):
    a, b = operands
    assert_same(lambda: a / b, lambda: divide_by_reciprocal(a, b))
    assert_same(a.reciprocal, lambda: reciprocal_by_loop(a))
    if isinstance(b, type(a)):
        assert_same(lambda: a * b, lambda: product_by_loop(a, b))
        assert_same(b.reciprocal, lambda: reciprocal_by_loop(b))


@settings(max_examples=80, deadline=None)
@given(_small_polys(4), _small_polys(4), st.integers(0, 8))
def test_taylor_matches_the_loop(num, den, order):
    if not den:
        return
    r = QRationalFn(num, den)
    if r.den.coefficient(0) == 0:
        with pytest.raises(ValueError, match="pole at q=0"):
            r.taylor(order)
    else:
        assert_same(lambda: r.taylor(order), lambda: taylor_by_loop(r, order))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_ratfn_coefficients(), max_size=5).map(ZPolynomial),
    st.lists(_ratfn_coefficients(), max_size=5),
    st.integers(0, 8),
)
def test_convergent_coefficients_and_series_quotients_match_the_loops(P, q_tail, n_max):
    # a unit constant term, as every convergent denominator has
    pair = ConvergentPair(max(P.degree + 1, len(q_tail), 1), P, ZPolynomial([ONE, *q_tail]))
    assert_same(
        lambda: convergent_coefficients(pair, n_max),
        lambda: convergent_coefficients_by_recurrence(pair, n_max),
    )
    assert_same(
        lambda: convergent_coefficients(pair, n_max),
        lambda: convergent_coefficients_by_division(pair, n_max),
    )
    for den in (pair.Q, ZPolynomial(q_tail)):
        if den:
            assert_same(
                lambda: P.series(n_max) / den.series(n_max),
                lambda: divide_by_reciprocal(P.series(n_max), den.series(n_max)),
            )


def monomial_spec() -> JFractionSpec:
    """c_i, ab_i as separated monomials: coefficient identities in them are
    detected reliably because distinct monomial products stay distinct."""
    cs = [QRationalFn.qpow(k) for k in (1, 2, 5, 9, 14, 20)]
    abs_ = [QRationalFn.qpow(k) for k in (27, 41, 56, 72, 89)]
    return JFractionSpec.from_tables("monomials", cs, abs_)


class TestPochhammerSpec:
    def test_c1_special_pair(self, qq2_spec):
        assert qq2_spec.c(1) == ONE / (ONE + Q)

    def test_b_equal_one_rejected(self):
        with pytest.raises(ValueError):
            PochhammerParams(Q, ONE)

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            PochhammerParams(ZERO, Q)

    def test_ab_closed_form_matches_contraction(self, qq2_spec):
        rng = random.Random(5)
        params = random_pochhammer_params(rng)
        spec = pochhammer_spec(params)
        for i in range(2, 7):
            assert spec.ab(i) == pochhammer_ab_closed_form(params.a, params.b, i)
            assert qq2_spec.ab(i) == pochhammer_ab_closed_form(Q, Q * Q, i)

    def test_c_display_variant_diverges_from_true_sequence(self, qq2_spec):
        # the single-fraction display agrees at i = 1, 2 and not beyond; the
        # contraction is the sequence that actually continues the fraction of
        # the target (checked against exact inversion below)
        for i in (1, 2):
            assert qq2_spec.c(i) == pochhammer_c_display_form(Q, Q * Q, i)
        assert qq2_spec.c(3) != pochhammer_c_display_form(Q, Q * Q, 3)
        target = ZSeries(
            8, [(ONE - Q) / (ONE - QRationalFn.qpow(n + 1)) for n in range(8)]
        )
        c, ab, _ = series_to_jfraction(target, 4)
        for i in (1, 2, 3, 4):
            assert qq2_spec.c(i) == c[i - 1]
        for i in (2, 3, 4):
            assert qq2_spec.ab(i) == ab[i - 2]

    def test_equal_parameters_give_unit_coefficients(self):
        a = parse("2/3")
        spec = pochhammer_spec(PochhammerParams(a, a))
        coeffs = convergent_coefficients(convergents(spec, 4), 4)
        assert all(coeffs[n].is_one() for n in range(4))

    def test_lambda_special_pair_pochhammer_fourth_power(self, qq2_spec):
        # all four numerator factors collapse to (q;q)_{h-1} at (a,b)=(q,q^2):
        # b/q = a = b/a = q, so (b/q;q), (a;q), (b/a;q), (q;q) coincide
        q2 = Q * Q
        assert q2 / Q == Q and q2 / Q == Q * Q / Q
        for h in (2, 3, 5):
            n = h - 1
            factors = [
                q_pochhammer(q2 / Q, n),
                q_pochhammer(Q, n),
                q_pochhammer(q2 / Q, n),
                q_pochhammer(Q, n),
            ]
            assert all(f == q_pochhammer(Q, n) for f in factors)
            num = QRationalFn.qpow((h - 1) ** 2) * q_pochhammer(Q, n) ** 4
            den = (
                _poch_step2(Q, n) * _poch_step2(q2, n) ** 2 * _poch_step2(Q ** 3, n)
            )
            assert lambda_modulus(qq2_spec, h) == num / den

    def test_lambda_closed_form_leading_factor(self):
        rng = random.Random(9)
        params = random_pochhammer_params(rng)
        for h in (1, 2, 4):
            rep = lambda_closed_form_report(params, h)
            assert rep.proportional  # off by exactly q^(h-1)/a^(h-2)
        rep_qq2 = lambda_closed_form_report(PochhammerParams(Q, Q * Q), 3)
        assert rep_qq2.ratio == Q

    @pytest.mark.parametrize("a, b", [("q", "q^2"), ("2/3*q", "-1/2*q^2")])
    def test_each_g_is_computed_once_per_spec(self, monkeypatch, a, b):
        # c_i and ab_i share g_{2i-2}, and ab_{i+1} reuses g_{2i-1}
        from qjfrac import sequences

        a, b = parse(a), parse(b)
        calls = []

        def counted(a, b, k, power):
            calls.append(k)
            return cfraction_coefficient(a, b, k, power)

        def g(k):
            return cfraction_coefficient(a, b, k, QRationalFn.qpow)

        monkeypatch.setattr(sequences, "cfraction_coefficient", counted)
        spec = pochhammer_spec(PochhammerParams(a, b))
        h = 8
        for i in range(h, 1, -1):
            assert spec.ab(i) == g(2 * i - 3) * g(2 * i - 2)
            assert spec.c(i) == g(2 * i - 2) + g(2 * i - 1)
        assert spec.c(1) == (a - ONE) / (b - ONE)
        assert sorted(calls) == list(range(1, 2 * h))


def _poch_step2(x: QRationalFn, n: int) -> QRationalFn:
    """(x; q^2)_n, for the modulus denominators."""
    acc = ONE
    xs = x
    for _ in range(n):
        acc = acc * (ONE - xs)
        xs = xs * Q * Q
    return acc


class TestConvergents:
    def test_base_cases(self, qq2_spec):
        pair0 = convergents(qq2_spec, 0)
        assert pair0.P.is_zero() and pair0.Q == ZPolynomial.one()
        pair1 = convergents(qq2_spec, 1)
        assert pair1.P == ZPolynomial.one()
        assert pair1.Q == ZPolynomial([ONE, -qq2_spec.c(1)])

    def test_P2_special_pair(self, qq2_spec):
        expect = ZPolynomial.one() - ZPolynomial.monomial(
            1, (2 * Q * (ONE - Q)) / (ONE - Q ** 4)
        )
        assert convergents(qq2_spec, 2).P == expect

    def test_degree_bounds(self):
        spec = random_rational_spec(21)
        for h in range(1, 7):
            pair = convergents(spec, h)
            assert pair.P.degree <= h - 1
            assert pair.Q.degree <= h
            assert pair.Q.coefficient(0).is_one()
            assert pair.P.coefficient(0).is_one()

    def test_generic_series_coefficients(self):
        # depth-2 convergent reproduces the generic expansion through z^3:
        # 1, c1, ab2 + c1^2, 2 ab2 c1 + c1^3 + ab2 c2
        spec = monomial_spec()
        c1, c2 = spec.c(1), spec.c(2)
        ab2 = spec.ab(2)
        coeffs = convergent_coefficients(convergents(spec, 2), 4)
        assert coeffs[0] == ONE
        assert coeffs[1] == c1
        assert coeffs[2] == ab2 + c1 ** 2
        assert coeffs[3] == 2 * ab2 * c1 + c1 ** 3 + ab2 * c2

    def test_generic_z4_coefficient(self):
        # at depth 3 the z^4 coefficient gains the ab3 term:
        # ab2^2 + ab2 ab3 + 3 ab2 c1^2 + c1^4 + 2 ab2 c1 c2 + ab2 c2^2
        spec = monomial_spec()
        c1, c2 = spec.c(1), spec.c(2)
        ab2, ab3 = spec.ab(2), spec.ab(3)
        coeffs = convergent_coefficients(convergents(spec, 3), 5)
        expect = (
            ab2 ** 2 + ab2 * ab3 + 3 * ab2 * c1 ** 2 + c1 ** 4
            + 2 * ab2 * c1 * c2 + ab2 * c2 ** 2
        )
        assert coeffs[4] == expect

    def test_divisor_spec_coefficients_full_window(self, qq2_spec):
        coeffs = convergent_coefficients(convergents(qq2_spec, 4), 8)
        for n in range(8):
            assert coeffs[n] == (ONE - Q) / (ONE - QRationalFn.qpow(n + 1))

    def test_generic_ratio_coefficient(self):
        rng = random.Random(13)
        params = random_pochhammer_params(rng)
        spec = pochhammer_spec(params)
        coeffs = convergent_coefficients(convergents(spec, 3), 6)
        assert coeffs[0].is_one()
        assert coeffs[5] == pochhammer_ratio(params.a, params.b, 5)

    def test_coefficient_paths_agree(self):
        spec = random_rational_spec(3)
        pair = convergents(spec, 4)
        assert convergent_coefficients(pair, 9) == convergent_coefficients_by_division(pair, 9)

    def test_unit_constant_term_required(self):
        pair = ConvergentPair(1, ZPolynomial.one(), ZPolynomial([2 * ONE, Q]))
        with pytest.raises(ValueError):
            convergent_coefficients(pair, 3)

    def test_recurrence_on_numbers_matches_the_exact_convergents(self):
        # the one recurrence, run on the numbers of a 128-bit mpmath context
        # with the (q, q^2) contraction at (q, z) = (1/7, 1/5)
        ctx = mpmath.MPContext()
        ctx.prec = 128
        q, z = ctx.mpf(1) / 7, ctx.mpf(1) / 5
        spec = divisor_contraction(functools.cache(q.__pow__))
        values = []
        for i in range(9):
            values.append(convergent_pair(spec, z, i, values))
        for pair, numbers in zip(convergent_pairs(divisor_spec(), 8), values):
            for poly, value in zip(pair, numbers):
                exact = poly.evaluate(Fraction(1, 5)).evaluate(Fraction(1, 7))
                want = ctx.mpf(exact.numerator) / exact.denominator
                assert abs(value - want) <= 1e-35 * abs(want)

    @pytest.mark.parametrize("seed", [5, 17])
    def test_jets_are_the_taylor_shift_of_the_polynomial_convergents(self, seed):
        # with z the jet q + t the recurrence gives [t^j] P(q + t), which is
        # sum_k C(k, j) q^(k-j) [z^k] P for the memoized polynomial P
        spec = random_rational_spec(seed)
        pairs = convergent_pairs(spec, 6)
        for alpha in range(4):
            z = ZSeries(alpha + 1, (Q, ONE)[: alpha + 1])
            jets = []
            for i in range(7):
                jets.append(convergent_pair(spec, z, i, jets))
            for pair, jet in zip(pairs, jets):
                for poly, series in zip(pair, jet):
                    shifted = [
                        sum((comb(k, j) * Q ** (k - j) * c for k, c in enumerate(poly.coeffs) if k >= j), ZERO)
                        for j in range(alpha + 1)
                    ]
                    assert list(series) == shifted


def fold_identity_holds(spec: JFractionSpec, h: int) -> bool:
    """sum_i lambda_i z^(2i-2) / (Q_{i-1} Q_i) = P_h / Q_h, with all
    denominators cleared at once against D = Q_0 Q_1 ... Q_h: every cofactor
    D / (Q_{i-1} Q_i) is a prefix times a suffix product (no division)."""
    pairs = convergent_pairs(spec, h)
    prefix = [ZPolynomial.one()]
    for i in range(h + 1):
        prefix.append(prefix[-1] * pairs[i].Q)
    suffix = [ZPolynomial.one()] * (h + 2)
    for i in range(h, -1, -1):
        suffix[i] = pairs[i].Q * suffix[i + 1]
    lhs = ZPolynomial.zero()
    for i in range(1, h + 1):
        cof = prefix[i - 1] * suffix[i + 1]
        lhs = lhs + cof.shift(2 * i - 2) * lambda_modulus(spec, i)
    return lhs == pairs[h].P * prefix[h]


class TestSumDecomposition:
    @pytest.mark.parametrize(
        "which, hs",
        [("qq2", range(1, 6)), ("seed1", range(1, 7)), ("seed2", range(1, 7)), ("monomial", [4])],
        ids=["qq2", "seed1", "seed2", "monomial"],
    )
    def test_fold_oracle(self, qq2_spec, which, hs):
        # the determinant identities the decomposition checks imply the fold
        spec = {
            "qq2": qq2_spec,
            "seed1": random_rational_spec(1),
            "seed2": random_rational_spec(2),
            "monomial": monomial_spec(),
        }[which]
        for h in hs:
            assert convergent_sum_decomposition(spec, h)["status"] == "ok"
            assert fold_identity_holds(spec, h), h

    def test_mismatch_reports_first_bad_level(self):
        # level 3 deliberately broken in the spec's memo before the
        # recurrence reaches it: levels 4 and 5 build on the broken pair
        spec = random_rational_spec(5)
        pair = convergents(random_rational_spec(5), 3)
        z2 = ZPolynomial.monomial(2, ONE)
        spec.memo("pair", 3, lambda i: ConvergentPair(i, pair.P + z2, pair.Q + z2))
        dec = convergent_sum_decomposition(spec, 5)
        assert dec["status"] == "mismatch"
        assert dec["first_failure"] == 3

    def test_depth_one(self, qq2_spec):
        dec = convergent_sum_decomposition(qq2_spec, 1)
        assert dec == {
            "schema": "qjfrac/lemma-report/1",
            "lemma": "convergent-sum-decomposition",
            "h": 1,
            "status": "ok",
            "first_failure": None,
        }
        assert lambda_modulus(qq2_spec, 1) == ONE

    def test_random_spec_exact(self):
        dec = convergent_sum_decomposition(random_rational_spec(17), 4)
        assert dec["status"] == "ok" and dec["first_failure"] is None

    def test_special_pair(self, qq2_spec):
        for h in (4, 5):
            dec = convergent_sum_decomposition(qq2_spec, h)
            assert dec["status"] == "ok"

    def test_symbolic_spec(self):
        dec = convergent_sum_decomposition(monomial_spec(), 4)
        assert dec["status"] == "ok"

    def test_telescoping_random_specs(self):
        for seed in (1, 2):
            spec = random_rational_spec(seed)
            pairs = convergent_pairs(spec, 8)
            lam = ONE
            for h in range(1, 9):
                if h >= 2:
                    lam = lam * spec.ab(h)
                assert telescoping_residual(pairs, lam, h).is_zero()


class TestInversion:
    @pytest.mark.parametrize("order", [0, -1])
    def test_target_order_below_one_is_rejected(self, order):
        with pytest.raises(ValueError, match=r"^order must be >= 1$"):
            lambert_ratio_target(2, order)
        assert lambert_ratio_target(2, 1) == ZSeries.one(1)

    def test_golden_values_one_over_1mqn(self):
        # the five tabulated values for j_n = 1/(1-q^n), j_0 = 1; the ab_3
        # display drops the square on its (1+q+q^2) factor, which the Hankel
        # oracle below pins down independently of the peeling algorithm
        c, ab, _ = series_to_jfraction(lambert_ratio_target(0, 8), 3)
        assert c[0] == parse("1/(1-q)")
        assert c[1] == parse("(1+q+4*q^2)/(2*(q^3-1))")
        assert c[2] == parse(
            "(1+5*q+14*q^2+26*q^3+34*q^4+25*q^5+9*q^6)"
            "/(2*(1+q+q^2)*(1+2*q+3*q^2)*(1+q+q^2+q^3+q^4))"
        )
        assert ab[0] == parse("-2*q/((1-q)^2*(1+q))")
        corrected_ab3 = parse("-(1-q)*(1+2*q+3*q^2)/(4*(1+q)*(1+q^2)*(1+q+q^2)^2)")
        display_ab3 = parse("-(1-q)*(1+2*q+3*q^2)/(4*(1+q)*(1+q^2)*(1+q+q^2))")
        assert ab[1] == corrected_ab3
        assert ab[1] == display_ab3 / (ONE + Q + Q * Q)

    def test_golden_values_hankel_oracle(self):
        # ab_2 = H_2, ab_3 = H_3/H_2^2 with H_k the k x k moment determinant
        target = lambert_ratio_target(0, 8)
        j = [target[n] for n in range(6)]
        h2 = j[0] * j[2] - j[1] * j[1]
        h3 = (
            j[0] * (j[2] * j[4] - j[3] * j[3])
            - j[1] * (j[1] * j[4] - j[3] * j[2])
            + j[2] * (j[1] * j[3] - j[2] * j[2])
        )
        _, ab, _ = series_to_jfraction(target, 3)
        assert ab[0] == h2
        assert ab[1] == h3 / h2 ** 2

    def test_golden_values_n_over_1mqn(self):
        c, ab, _ = series_to_jfraction(lambert_ratio_target(1, 8), 3)
        assert c[0] == parse("1/(1-q)")
        assert c[1] == parse("q*(-1-q+8*q^2)/((1-q)*(1-3*q)*(1+q+q^2))")
        assert c[2] == parse(
            "-(1-5*q^2-16*q^3-16*q^4+40*q^5+136*q^6+144*q^7+67*q^8+8*q^9+q^10)"
            "/((1-3*q)*(1+q+q^2)*(1+q+q^2+q^3+q^4)*(-1+4*q^2+8*q^3+q^4))"
        )
        assert ab[0] == parse("(1-3*q)/((1-q)^2*(1+q))")
        assert ab[1] == parse(
            "(1-q)^3*(-1+4*q^2+8*q^3+q^4)/((1+q)*(1-3*q)^2*(1+q^2)*(1+q+q^2)^2)"
        )

    def test_round_trip_random_spec(self):
        spec = random_rational_spec(29)
        depth = 5
        coeffs = convergent_coefficients(convergents(spec, depth + 1), 2 * depth)
        c, ab, terminated = series_to_jfraction(coeffs, depth)
        assert not terminated
        for i in range(1, depth + 1):
            assert c[i - 1] == spec.c(i)
        for i in range(2, depth + 1):
            assert ab[i - 2] == spec.ab(i)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(_small_nonzero_fraction, min_size=4, max_size=4),
        st.lists(_small_fraction, min_size=4, max_size=4),
    )
    def test_round_trip_property(self, ab_vals, c_vals):
        spec = JFractionSpec.from_tables(
            "hyp",
            [QRationalFn.from_fraction(v) for v in c_vals],
            [QRationalFn.from_fraction(v) for v in ab_vals],
        )
        depth = 3
        coeffs = convergent_coefficients(convergents(spec, depth + 1), 2 * depth)
        c, ab, terminated = series_to_jfraction(coeffs, depth)
        assert not terminated
        assert [c[i - 1] for i in range(1, depth + 1)] == [spec.c(i) for i in range(1, depth + 1)]
        assert [ab[i - 2] for i in range(2, depth + 1)] == [spec.ab(i) for i in range(2, depth + 1)]

    def test_terminating_fraction_signal(self):
        # the series of a depth-2 convergent has a terminating fraction
        spec = random_rational_spec(31)
        pair = convergents(spec, 2)
        series = convergent_coefficients(pair, 10)
        c, ab, terminated = series_to_jfraction(series, 5)
        assert terminated
        assert [str(v) for v in c] == [str(spec.c(1)), str(spec.c(2))]
        assert len(ab) == 1 and ab[0] == spec.ab(2)

    def test_invert_checks_its_arguments(self):
        with pytest.raises(ValueError, match="unknown target 'nope'"):
            invert("nope", 2)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            invert("one_over_1mqn", 0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            series_to_jfraction(ZSeries(3, [ONE]), 2)  # order < 2*depth
        with pytest.raises(ValueError):
            series_to_jfraction(ZSeries(4, [Q, ONE]), 2)  # constant term not 1


class TestTable1Presets:
    @pytest.mark.parametrize(
        "row,kwargs",
        [
            ("pochhammer_a", {"a": parse("1/2")}),
            ("pochhammer_a", {"a": Q}),
            ("reciprocal_qq", {}),
            ("pochhammer_zqn", {"z": parse("1/3")}),
            ("reciprocal_pochhammer_zqn", {"z": parse("1/3")}),
            ("pochhammer_ratio", {"a": parse("3/2"), "b": parse("2/5")}),
        ],
    )
    def test_row_matches_target(self, row, kwargs):
        h = 4
        spec = table1_preset(row, **kwargs)
        coeffs = convergent_coefficients(convergents(spec, h), h)
        for n in range(h):
            assert coeffs[n] == table1_target(row, n, **kwargs), (row, n)

    def test_excluded_row_raises(self):
        with pytest.raises(ValueError, match="ambiguous in source"):
            table1_preset("qbinom_exponent_qq")

    def test_unknown_row_raises(self):
        with pytest.raises(ValueError):
            table1_preset("no_such_row")

    def test_missing_parameters_raise(self):
        with pytest.raises(ValueError):
            table1_preset("pochhammer_a")
        with pytest.raises(ValueError):
            table1_preset("pochhammer_zqn")

    def test_row1_displayed_formulas(self):
        a = parse("1/2")
        spec = table1_preset("pochhammer_a", a=a)
        assert spec.c(1) == ONE - a
        for h in (2, 3, 4):
            expect_c = QRationalFn.qpow(h - 1) - a * QRationalFn.qpow(h - 2) * (
                QRationalFn.qpow(h) + QRationalFn.qpow(h - 1) - ONE
            )
            expect_ab = (
                a
                * QRationalFn.qpow(2 * h - 4)
                * (a * QRationalFn.qpow(h - 2) - ONE)
                * (QRationalFn.qpow(h - 1) - ONE)
            )
            assert spec.c(h) == expect_c
            assert spec.ab(h) == expect_ab

    def test_row2_displayed_formulas(self):
        # tabulated c_h matches everywhere; tabulated ab_h matches for h >= 3,
        # while its h = 2 instance carries a stray factor 2 relative to the
        # value forced by the target's own series
        spec = table1_preset("reciprocal_qq")
        assert spec.c(1) == ONE / (ONE - Q)

        def qbracket(n):
            return (ONE - QRationalFn.qpow(n)) / (ONE - Q)

        for h in (2, 3, 4, 5):
            num = QRationalFn.qpow(h - 1) * (
                QRationalFn.qpow(h - 1) * qbracket(h - 1) - qbracket(h - 2)
            )
            den = qbracket(2 * h - 3) * (QRationalFn.qpow(2 * h - 1) - ONE)
            assert spec.c(h) == num / den

        def row2_ab_display(h):
            num = -QRationalFn.qpow(3 * h - 5)
            den = (QRationalFn.qpow(2 * h - 3) - ONE) ** 2 * (
                ONE + QRationalFn.qpow(h - 2) + QRationalFn.qpow(h - 1) + QRationalFn.qpow(2 * h - 3)
            )
            return num / den

        for h in (3, 4, 5):
            assert spec.ab(h) == row2_ab_display(h)
        assert spec.ab(2) == parse("-q/((1-q)^2*(1+q))")
        assert spec.ab(2) == 2 * row2_ab_display(2)

    def test_z_rows_full_window(self):
        # both z-parametrized rows reproduce their targets through 2h
        z = parse("1/3")
        for row in ("pochhammer_zqn", "reciprocal_pochhammer_zqn"):
            spec = table1_preset(row, z=z)
            coeffs = convergent_coefficients(convergents(spec, 4), 8)
            for n in range(8):
                assert coeffs[n] == table1_target(row, n, z=z), (row, n)

    def test_row5_displayed_c_is_garbled(self):
        # the tabulated single-fraction c_h display for the reciprocal z-row
        # does not continue the fraction of its own target for h >= 2
        z = parse("1/3")
        spec = table1_preset("reciprocal_pochhammer_zqn", z=z)
        display_c2 = (
            Q * (Q * Q + z + Q * z - Q ** 2 * z)
            / ((Q - z) * (Q ** 3 - z))
        )
        assert spec.c(2) != display_c2

    @pytest.mark.parametrize("row", sorted(TABLE1_DISPLAYS))
    @pytest.mark.parametrize(
        "x", ["1/3", "2", "1", "0", "q", "q^2", "q^3", "q^-1", "3*q/(1+q)", "-q^3/2"]
    )
    def test_contraction_matches_displays(self, row, x):
        # each single-parameter row is the ratio family's contraction; it
        # equals the row's display wherever the display is defined, and where
        # the contraction divides by zero the display does too.  The one
        # point where only the display divides by zero is the 0/0 of ab_2
        # on the reciprocal z-row at z = 1.
        value = parse(x)
        spec = table1_preset(row, **{"a" if row == "pochhammer_a" else "z": value})
        c_display, ab_display = TABLE1_DISPLAYS[row]
        display_only_poles = []
        for kind, seq, display, first in (("c", spec.c, c_display, 1), ("ab", spec.ab, ab_display, 2)):
            for i in range(first, 11):
                try:
                    expect = display(value, i)
                except ZeroDivisionError:
                    expect = None
                try:
                    got = seq(i)
                except ZeroDivisionError:
                    assert expect is None, (kind, i)
                    continue
                if expect is None:
                    display_only_poles.append((kind, i))
                else:
                    assert got == expect, (kind, i)
        if (row, x) == ("reciprocal_pochhammer_zqn", "1"):
            assert display_only_poles == [("ab", 2)]
        else:
            assert display_only_poles == []

    def test_pochhammer_ratio_row_is_the_parametrized_family(self):
        a, b = parse("3/2"), parse("2/5")
        row = table1_preset("pochhammer_ratio", a=a, b=b)
        family = pochhammer_spec(PochhammerParams(a, b))
        for i in range(1, 6):
            assert row.c(i) == family.c(i)
        for i in range(2, 6):
            assert row.ab(i) == family.ab(i)


class TestSubstitution:
    def test_divisor_counts_after_shift(self, qq2_spec):
        # C_h(q, q)/(1-q) carries the divisor counts one slot early; the
        # Lambert alignment q * C_h(q,q)/(1-q) has [q^n] = d(n)
        pair = convergents(qq2_spec, 4)
        series = substitute_z_to_q(pair, 6)
        lambert = series.shift(1) * (ONE / (ONE - Q)).taylor(6)
        from qjfrac.oracles import sigma_alpha

        for n in range(1, 5):
            assert lambert[n] == sigma_alpha(0, n)

    def test_depth_one_constant(self, qq2_spec):
        series = substitute_z_to_q(convergents(qq2_spec, 1), 1)
        assert series[0] == 1

    def test_zero_multiplier(self, qq2_spec):
        series = substitute_z_to_q(convergents(qq2_spec, 3), 4, ZERO)
        assert list(series) == [1, 0, 0, 0]

    def test_consistency_with_termwise_path(self, qq2_spec):
        # direct rational substitution vs termwise [z^n] * q^n summation
        order = 8
        pair = convergents(qq2_spec, 4)
        direct = substitute_z_to_q(pair, order)
        coeffs = convergent_coefficients(pair, order)
        from qjfrac.exact import QSeries

        termwise = QSeries.zero(order)
        for n in range(order):
            termwise = termwise + coeffs[n].taylor(order).shift(n)
        assert direct == termwise


class TestSpecJSON:
    def test_tabulated_bounds(self):
        spec = JFractionSpec.from_tables("t", [ONE], [])
        assert spec.c(1) == ONE
        with pytest.raises(IndexError):
            spec.c(2)
        with pytest.raises(IndexError):
            spec.ab(2)


class TestCFraction:
    def test_contraction_relations(self):
        rng = random.Random(23)
        params = random_pochhammer_params(rng)
        a, b = params.a, params.b
        spec = pochhammer_spec(params)
        for i in range(2, 7):
            g_odd = cfraction_coefficient(a, b, 2 * i - 3, QRationalFn.qpow)
            g_even = cfraction_coefficient(a, b, 2 * i - 2, QRationalFn.qpow)
            g_next = cfraction_coefficient(a, b, 2 * i - 1, QRationalFn.qpow)
            assert spec.ab(i) == g_odd * g_even
            assert spec.c(i) == g_even + g_next

    def test_g1(self):
        assert cfraction_coefficient(Q, Q * Q, 1, QRationalFn.qpow) == (ONE - Q) / (ONE - Q * Q)
