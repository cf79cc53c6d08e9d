"""Exact scalar/polynomial/rational-function/series arithmetic."""

from fractions import Fraction
from math import comb, gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjfrac.exact as exact
from qjfrac.exact import QPolynomial, QRationalFn, QSeries
from qjfrac.jfraction import PochhammerParams, convergent_coefficients, convergents, pochhammer_spec

from conftest import parse
from reference import (
    cross_reduced_product,
    fraction_taylor,
    full_normalising_add,
    int_pseudo_rem,
    mignotte_exquo,
    narrow_first_exquo,
    packed_division,
    prs_gcd_parts,
    term_by_term_convolution,
    use_normalising_route,
)

ONE = QRationalFn.one()
Q = QRationalFn.q()


class TestQPolynomial:
    def test_difference_of_squares(self):
        assert QPolynomial((1, -1)) * QPolynomial((1, 1)) == QPolynomial((1, 0, -1))

    def test_gcd_common_factor_monic(self):
        g = QPolynomial.gcd(QPolynomial((1, 0, -1)), QPolynomial((1, -1)))
        # the common factor (1-q), normalized monic: q - 1
        assert g == QPolynomial((-1, 1))
        assert g.leading_coefficient == 1

    def test_divmod_geometric_factorization(self):
        quo, rem = QPolynomial((1, 0, 0, 0, -1)).divmod(QPolynomial((1, -1)))
        assert quo == QPolynomial((1, 1, 1, 1))
        assert rem.is_zero()

    def test_division_by_zero_polynomial(self):
        with pytest.raises(ZeroDivisionError):
            QPolynomial((1,)).divmod(QPolynomial.zero())

    def test_trailing_zeros_stripped(self):
        p = QPolynomial((1, 2, 0, 0))
        assert p.degree == 1
        assert QPolynomial((0, 0)).is_zero()
        assert QPolynomial.zero().degree == -1

    def test_gcd_of_zero(self):
        p = QPolynomial((2, 4))
        assert QPolynomial.gcd(p, QPolynomial.zero()) == QPolynomial((Fraction(1, 2), 1))
        assert QPolynomial.gcd(QPolynomial.zero(), QPolynomial.zero()).is_zero()

    def test_evaluate(self):
        p = QPolynomial((1, -2, 1))  # (1-q)^2
        assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)

    def test_string_form(self):
        assert str(QPolynomial((1, -2, 1, -1))) == "1 - 2*q + q^2 - q^3"
        assert str(QPolynomial.zero()) == "0"


class TestQRationalFn:
    def test_partial_fractions(self):
        lhs = ONE / (ONE - Q) - ONE / (ONE + Q)
        assert lhs == (2 * Q) / (ONE - Q * Q)

    def test_c1_reduction(self):
        # (q-1)/(q^2-1) reduces to 1/(1+q)
        assert (Q - ONE) / (Q * Q - ONE) == ONE / (ONE + Q)

    def test_self_division_is_one(self):
        x = parse("(3-q^2)/(1+5*q)")
        assert (x / x).is_one()

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / QRationalFn.zero()

    def test_canonical_form_monic_denominator(self):
        r = parse("-2*q/((1-q)^2*(1+q))")
        assert r.den.leading_coefficient == 1
        assert QPolynomial.gcd(r.num, r.den).degree == 0

    def test_qpow_negative(self):
        assert QRationalFn.qpow(-2) * QRationalFn.qpow(2) == ONE

    def test_reduction_idempotent(self):
        r = parse("(1-q^4)/(1-q)")
        again = QRationalFn(r.num, r.den)
        assert again == r


class TestTaylor:
    def test_geometric(self):
        assert list((ONE / (ONE - Q)).taylor(4)) == [1, 1, 1, 1]

    def test_divisor_approximant_expansion(self):
        # The tabulated degree-4/degree-4 approximant expands to d(1)..d(5)
        # starting at q^0 (the n-th coefficient is d(n+1); the accompanying
        # claim that it starts 1 + d(1) q is off by one factor of q, which the
        # exact expansion here pins down).
        f = parse("(1+4*q+8*q^2+11*q^3+10*q^4)/(1+2*q+2*q^2-2*q^4)")
        assert list(f.taylor(5)) == [1, 2, 2, 3, 2]

    def test_sigma_approximant_expansion(self):
        f = parse("q*(1+3*q+3*q^2)/((1-q)*(1+q))")
        assert list(f.taylor(4)) == [0, 1, 3, 4]

    def test_pole_at_zero_rejected(self):
        with pytest.raises(ValueError, match="pole at q=0"):
            (ONE / Q).taylor(3)


class TestQSeries:
    def test_min_order_discipline(self):
        a = QSeries(5, [1, 2, 3, 4, 5])
        b = QSeries(3, [1, 1, 1])
        assert (a + b).order == 3
        assert (a * b).order == 3

    def test_reciprocal(self):
        s = QSeries(4, [1, -1])
        assert list(s.reciprocal()) == [1, 1, 1, 1]
        with pytest.raises(ZeroDivisionError):
            QSeries(3, [0, 1]).reciprocal()

    def test_shift(self):
        s = QSeries(4, [1, 2, 3, 4])
        assert list(s.shift(2)) == [0, 0, 1, 2]


class TestSerialization:
    def test_string_round_trip(self):
        cases = [
            "(-2*q)/(1 - q - q^2 + q^3)",
            "1",
            "0",
            "(1/2 + q)/(3 - q^5)",
            "q^7",
        ]
        for text in cases:
            r = parse(text)
            assert QRationalFn.parse(str(r)) == r

    def test_parser_grammar(self):
        assert parse("q^-1") == QRationalFn.qpow(-1)
        assert parse("1/2 + 1/2") == ONE
        assert parse("-(1-q)") == Q - ONE
        with pytest.raises(ValueError):
            parse("q +")
        with pytest.raises(ValueError):
            parse("(1")
        with pytest.raises(ValueError):
            parse("x + 1")

    def test_nesting_cap(self):
        assert parse("(" * 100 + "q" + ")" * 100) == Q
        assert parse("-" * 100 + "q") == Q
        with pytest.raises(ValueError, match="nested deeper than 100"):
            parse("(" * 101 + "q" + ")" * 101)
        with pytest.raises(ValueError, match="nested deeper than 100"):
            parse("-" * 101 + "q")

    def test_exponent_cap(self):
        # q^100000000 used to exhaust memory inside __pow__ while parsing
        assert parse("q^256") == QRationalFn.qpow(256)
        assert parse("q^-256") == QRationalFn.qpow(-256)
        with pytest.raises(ValueError, match="exponent 257 exceeds 256"):
            parse("q^257")
        with pytest.raises(ValueError, match="exponent -257 exceeds 256"):
            parse("(1-q)^-257")

    def test_degree_cap(self):
        # a power is checked before it is taken, every other operation after
        with pytest.raises(ValueError, match="degree 257 exceeds 256"):
            parse("q^256*q")
        with pytest.raises(ValueError, match="degree 512 exceeds 256"):
            parse("q^256 + 1/q^256")
        with pytest.raises(ValueError, match="degree 257 exceeds 256"):
            parse("q^-256/q")
        with pytest.raises(ValueError, match="degree 512 exceeds 256"):
            parse("(1/(1-q)^256)^-2")
        with pytest.raises(ValueError, match="degree 65536 exceeds 256"):
            parse("((1+q)^256)^256")
        assert parse("(1+q)^128*(1-q)^128").num.degree == 256
        assert parse("(q^16)^16") == QRationalFn.qpow(256)
        assert parse("(q^2-1)^64/(1+q)^64") == parse("(q-1)^64")


# -- property tests ----------------------------------------------------------

_small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def ratfns(draw):
    num = draw(st.lists(_small_fraction, min_size=0, max_size=3))
    den = draw(st.lists(_small_fraction, min_size=1, max_size=3))
    den_poly = QPolynomial(den)
    if den_poly.is_zero():
        den_poly = QPolynomial.one()
    return QRationalFn(QPolynomial(num), den_poly)


@settings(max_examples=60, deadline=None)
@given(ratfns(), ratfns(), ratfns())
def test_field_axioms_sampled(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert (x * (ONE / x)).is_one()


@settings(max_examples=40, deadline=None)
@given(ratfns(), ratfns())
def test_taylor_is_multiplicative(f, g):
    n = 6
    if f.den.coefficient(0) == 0 or g.den.coefficient(0) == 0:
        return
    assert (f * g).taylor(n) == f.taylor(n) * g.taylor(n)


@settings(max_examples=40, deadline=None)
@given(ratfns())
def test_normalization_idempotent(x):
    assert QRationalFn(x.num, x.den) == x


# -- oracles: the Fraction kernel that the integer kernel replaced -------------


def schoolbook_mul(a, b):
    """Product of two coefficient sequences by Fraction schoolbook."""
    if not a or not b:
        return QPolynomial.zero()
    cs = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb != 0:
                cs[i + j] += ca * cb
    return QPolynomial(cs)


def _to_primitive_int(cs):
    lcm = 1
    for c in cs:
        lcm = lcm // gcd(lcm, c.denominator) * c.denominator
    ints = [int(c * lcm) for c in cs]
    cont = 0
    for c in ints:
        cont = gcd(cont, c)
    return [c // cont for c in ints]


def prs_gcd(a, b):
    """Monic gcd by the primitive PRS alone (either operand may be zero)."""
    if not a and not b:
        return QPolynomial.zero()
    if not a:
        a, b = b, a
    if not b:
        return QPolynomial(c / a[-1] for c in a)
    x, y = _to_primitive_int(a), _to_primitive_int(b)
    if len(x) < len(y):
        x, y = y, x
    while y:
        x, y = y, int_pseudo_rem(x, y)
    return QPolynomial(Fraction(c, x[-1]) for c in x)


def divmod_normalise(num, den):
    """(num, den) coefficients reduced by the PRS gcd and divmod, den monic."""
    if num.is_zero():
        return (), (Fraction(1),)
    g = prs_gcd(num.coeffs, den.coeffs)
    if g.degree > 0:
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.leading_coefficient
    return tuple(c / lead for c in num.coeffs), tuple(c / lead for c in den.coeffs)


# -- differential tests of the integer kernel against the oracles ----------------


def _nonzero(bits, den_bits):
    """Small fractions, and bits-bit numerators over den_bits-bit denominators."""
    small = st.builds(Fraction, st.integers(1, 9), st.sampled_from((1, 2, 3, 6)))
    big = st.builds(Fraction, st.integers(1, 2**bits), st.integers(1, 2**den_bits))
    return st.builds(lambda x, sign: sign * x, st.one_of(small, big), st.sampled_from((1, -1)))


@st.composite
def polys(draw, min_len=1, max_len=8, bits=70, den_bits=70, lead=None):
    """Nonzero polynomials; about a third of the lower coefficients, the constant included, are 0."""
    nonzero = _nonzero(bits, den_bits)
    coefficient = st.one_of(st.just(Fraction(0)), nonzero, nonzero)
    cs = draw(st.lists(coefficient, min_size=min_len - 1, max_size=max_len - 1))
    return QPolynomial(cs + [draw(nonzero if lead is None else lead)])


@st.composite
def sharing_pairs(draw, factor=polys(), cofactor=polys()):
    """(f·g, f·h): a gcd of degree at least deg f."""
    f, g, h = draw(factor), draw(cofactor), draw(cofactor)
    return schoolbook_mul(f.coeffs, g.coeffs), schoolbook_mul(f.coeffs, h.coeffs)


def _check_kernel(a, b):
    product = a * b
    assert product.coeffs == schoolbook_mul(a.coeffs, b.coeffs).coeffs
    g = QPolynomial.gcd(a, b)
    assert g.coeffs == prs_gcd(a.coeffs, b.coeffs).coeffs
    parts = exact._coprime_parts(a, b)
    if g.degree > 0:
        assert [p.coeffs for p in parts] == [a.divmod(g)[0].coeffs, b.divmod(g)[0].coeffs]
    else:
        assert parts is None
    r = QRationalFn(a, b)
    assert (r.num.coeffs, r.den.coeffs) == divmod_normalise(a, b)
    # == would let an int pass for a Fraction
    assert all(type(c) is Fraction for c in product.coeffs + g.coeffs + r.num.coeffs + r.den.coeffs)


_pairs = st.one_of(st.tuples(polys(), polys()), sharing_pairs())


@settings(max_examples=120, deadline=None)
@given(_pairs)
def test_kernel_matches_fraction_oracles(pair):
    _check_kernel(*pair)


@settings(max_examples=4, deadline=None)
@given(
    sharing_pairs(
        polys(101, 106, bits=320, den_bits=3, lead=st.integers(2**300, 2**320).map(Fraction)),
        # an integer lead, so that the product's lead keeps the 300 bits asserted
        # below (a lead of 1/2 times 2^300 would not)
        polys(1, 4, bits=320, den_bits=3, lead=st.integers(1, 2**20).map(Fraction)),
    )
)
def test_kernel_matches_fraction_oracles_at_degree_100(pair):
    a, b = pair
    assert a.degree >= 100 and abs(a.leading_coefficient.numerator).bit_length() > 300
    _check_kernel(a, b)


def _primitive_ints(p):
    return _split(p.coeffs)[0]


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_int_exquo_is_division_in_z(a, b):
    x, y = _clear(a.coeffs)[0], _primitive_ints(b)
    quo, rem = QPolynomial(x).divmod(QPolynomial(y))
    exact_in_z = rem.is_zero() and all(c.denominator == 1 for c in quo.coeffs)
    assert exact._int_exquo(x, y) == ([int(c) for c in quo.coeffs] if exact_in_z else None)
    xy = _clear(schoolbook_mul(x, y).coeffs)[0]
    assert exact._int_exquo(xy, y) == x


@settings(max_examples=80, deadline=None)
@given(sharing_pairs())
def test_heuristic_gcd_is_the_gcd(pair):
    a, b = (_primitive_ints(p) for p in pair)
    if len(a) == 1 or len(b) == 1:
        return
    g, qa, qb = exact._heu_gcd(a, b)
    assert g[-1] > 0
    assert schoolbook_mul(g, qa) == QPolynomial(a)
    assert schoolbook_mul(g, qb) == QPolynomial(b)
    assert QPolynomial(Fraction(c, g[-1]) for c in g) == prs_gcd(*(p.coeffs for p in pair))


def test_int_exquo_quotient_larger_than_dividend():
    # (q^8 - 1)^8 / (q - 1)^8 = (1 + q + ... + q^7)^8: the quotient's
    # coefficients (up to 6,092,520) dwarf the dividend's (up to 70), so the
    # digit width must come from a bound on the factors, not from the dividend
    dividend = [0] * 65
    for j in range(9):
        dividend[8 * j] = comb(8, j) * (-1) ** (8 - j)
    divisor = [comb(8, j) * (-1) ** (8 - j) for j in range(9)]
    quotient = QPolynomial.one()
    for _ in range(8):
        quotient = schoolbook_mul(quotient.coeffs, (1,) * 8)
    assert exact._int_exquo(dividend, divisor) == [int(c) for c in quotient.coeffs]
    assert max(quotient.coeffs) > 10**6
    assert exact._int_exquo(dividend, [2] + divisor[1:]) is None


def test_failed_heuristic_candidate_sends_xi_up(monkeypatch):
    # a candidate that fails the division test must not be accepted: the
    # next try, at a larger and odd evaluation point, gives the gcd and its
    # cofactors
    f, g, h = QPolynomial((3, -1, 2)), QPolynomial((1, 5)), QPolynomial((-7, 0, 1))
    a = _primitive_ints(schoolbook_mul(f.coeffs, g.coeffs))
    b = _primitive_ints(schoolbook_mul(f.coeffs, h.coeffs))
    real, calls = exact._int_exquo, []
    evaluate, points = exact._evaluate, []

    def first_division_fails(x, y):
        calls.append(y)
        return None if len(calls) == 1 else real(x, y)

    def spy(cs, x):
        points.append(x)
        return evaluate(cs, x)

    monkeypatch.setattr(exact, "_int_exquo", first_division_fails)
    monkeypatch.setattr(exact, "_evaluate", spy)
    gcd_ab, qa, qb = exact._heu_gcd(a, b)
    assert len(calls) == 3
    # the packed first try was at 2^8; the retry evaluates a and b at 2^8·73794/27011 | 1
    assert points == [699, 699]
    assert schoolbook_mul(gcd_ab, qa) == QPolynomial(a)
    assert schoolbook_mul(gcd_ab, qb) == QPolynomial(b)
    assert QPolynomial(Fraction(c, gcd_ab[-1]) for c in gcd_ab) == QPolynomial((Fraction(3, 2), Fraction(-1, 2), 1))


def _check_gcd_parts(a, b):
    """_heu_gcd(a, b) is the PRS oracle's gcd with its exact cofactors."""
    g, qa, qb = exact._heu_gcd(a, b)
    want = prs_gcd_parts(a, b)[0]
    assert g[-1] > 0 and list(g) in (list(want), [-c for c in want])
    assert convolution(g, qa) == list(a) and convolution(g, qb) == list(b)


# (a, b) with a parameter that is a power of two: every point 2^(8·nbytes) is
# then unlucky for some of the operand pairs that the expansion meets
_POWER_OF_TWO_PARAMETERS = {"256": (256, "q^2"), "65536": (65536, "q^2"), "q, 256": ("q", 256)}


@pytest.mark.parametrize("params", list(_POWER_OF_TWO_PARAMETERS))
def test_gcds_of_power_of_two_parameters(params, monkeypatch):
    # every gcd that `jfrac expand --h 6 --zorder 8` takes on these
    # parameters, by the library's sums and by the sums that normalise every
    # term, which must give the same coefficients; six tries at powers of two
    # gave up on 4, 4 and 2 of the latter (on 15, 20 and 13 of those at the
    # default --zorder 12, whose larger pairs take the PRS oracle seconds).
    # The library's sums meet only about 210 gcds here
    a, b = (parse(str(x)) for x in _POWER_OF_TWO_PARAMETERS[params])
    pairs, real = set(), exact._heu_gcd

    def record(x, y):
        pairs.add((tuple(x), tuple(y)))
        return real(x, y)

    def expand():
        return convergent_coefficients(convergents(pochhammer_spec(PochhammerParams(a, b)), 6), 8)

    with monkeypatch.context() as patch:
        patch.setattr(exact, "_heu_gcd", record)
        coefficients = expand()
    with monkeypatch.context() as patch:
        use_normalising_route(patch)
        patch.setattr(exact, "_heu_gcd", record)
        assert expand() == coefficients
    assert len(pairs) >= 290
    for x, y in pairs:
        _check_gcd_parts(x, y)


def test_gcd_whose_power_of_two_points_are_all_unlucky(monkeypatch):
    # met by `jfrac expand --a=256 --b=q^2 --h 6`.  The gcd is 1, but at each
    # power of two from 2^64 to 2^232 that six widening tries reach, γ has
    # two or more balanced digits: a candidate of degree >= 1, which cannot
    # divide.  The first odd point gives the gcd.
    a = (
        1, -255, -512, 65023, 130814, 196861, -16579331, -33486339, -50655746, -51179521, 4293463808,
        8705346560, 8872790016, 484246528, -16510746368, -1150280859904, -1188934975744, 971333435392,
        4248209195008, 8641759543296, 13061113118720, 16393890234368, -263938675572736, -547578315800576,
        -833425552441344, -838914503868416, -843312533602304, -564040875114496, -283669704998912,
        -2199023255552, 280375465082880, 281474976710656,
    )
    b = (
        -1, -1, 1, 2, 2, 1, -1, -2, -2, -2, -1, 1, 3, 2, -1, -2, -2, -1, 1, 2, 3, 4, 2, -2, -4, -3, -2,
        -1, 1, 2, 2, 1, -2, -3, -1, 1, 2, 2, 2, 1, -1, -2, -2, -1, 1, 1,
    )
    assert prs_gcd_parts(a, b)[0] == [1]
    assert exact._heu_gcd(a, b) == ([1], a, b)
    for nbytes in (8, 11, 14, 18, 23, 29):
        xi = 1 << (8 * nbytes)
        gamma = gcd(*(sum(c * xi**i for i, c in enumerate(p)) for p in (a, b)))
        assert gamma >= xi >> 1
    evaluate, points = exact._evaluate, []

    def spy(cs, x):
        points.append(x)
        return evaluate(cs, x)

    monkeypatch.setattr(exact, "_evaluate", spy)
    exact._heu_gcd(a, b)
    assert points == [(1 << 64) * 73794 // 27011 | 1] * 2


@pytest.mark.parametrize("c", [0, 1, -1, 7, -(2**70), True, Fraction(0), Fraction(3, 4), Fraction(-5, 6), Fraction(2**80, 3)])
def test_constants_are_built_canonical_with_no_gcd(c):
    # an int or Fraction operand becomes its canonical constant directly, as
    # the normalizing constructor would build it
    want = QRationalFn(QPolynomial.constant(c), QPolynomial.one())
    for r in (QRationalFn.from_fraction(c), exact._coerce_ratfn(c)):
        assert_canonical(r.num)
        assert_canonical(r.den)
        assert (r.num._n, r.num._d, r.num._p, r.den._n, r.den._d, r.den._p) == (
            want.num._n, want.num._d, want.num._p, want.den._n, want.den._d, want.den._p
        )
        assert r == want and hash(r) == hash(want)
        assert all(type(x) is int for x in (r.num._n, r.num._d))
    assert c - Q == QRationalFn.from_fraction(c) - Q == QRationalFn(QPolynomial((c, -1)))
    with pytest.raises(TypeError):
        QRationalFn.from_fraction(0.5)


@st.composite
def cross_reducible_pairs(draw):
    """(f·g/h, k/(f·m)): the product cancels f across the two operands."""
    small = polys(max_len=4, bits=20, den_bits=8)
    f, g, h, k, m = (draw(small) for _ in range(5))
    x = QRationalFn(schoolbook_mul(f.coeffs, g.coeffs), h)
    y = QRationalFn(k, schoolbook_mul(f.coeffs, m.coeffs))
    return x, y


@settings(max_examples=80, deadline=None)
@given(st.one_of(cross_reducible_pairs(), st.tuples(ratfns(), ratfns())))
def test_product_is_canonical_without_a_final_gcd(pair):
    # __mul__ builds its result straight from the cross-reduced parts
    x, y = pair
    expected = divmod_normalise(
        schoolbook_mul(x.num.coeffs, y.num.coeffs), schoolbook_mul(x.den.coeffs, y.den.coeffs)
    )
    for r in (x * y, y * x):
        assert (r.num.coeffs, r.den.coeffs) == expected
        assert all(type(c) is Fraction for c in r.num.coeffs + r.den.coeffs)


# -- Henrici sums, integer constants and dot products against the routes that
# normalised every term --

# 1 - q^e for e = 1..6: products of them share cyclotomic factors in many ways
_ONE_MINUS_Q = [QPolynomial((1,) + (0,) * (e - 1) + (-1,)) for e in range(1, 7)]


@st.composite
def cyclotomic_ratfns(draw):
    """w·Π(1 − q^e) / (v·Π(1 − q^e')) for small w, v; zero included."""
    num = draw(st.one_of(st.just(QPolynomial.zero()), polys(max_len=3, bits=8, den_bits=4)))
    den = draw(polys(max_len=2, bits=8, den_bits=4))
    for e in draw(st.lists(st.integers(0, 5), max_size=3)):
        num = num * _ONE_MINUS_Q[e]
    for e in draw(st.lists(st.integers(0, 5), max_size=4)):
        den = den * _ONE_MINUS_Q[e]
    return QRationalFn(num, den)


_constants = st.builds(
    QRationalFn.from_fraction,
    st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=2**40), _small_fraction),
)
_q_operands = st.one_of(cyclotomic_ratfns(), _constants)


def _assert_canonical_ratfn(r):
    assert_canonical(r.num)
    assert_canonical(r.den)
    assert r.den.leading_coefficient == 1
    assert r.num or r.den.is_one()


@settings(max_examples=150, deadline=None)
@given(_q_operands, _q_operands, _q_operands)
def test_sums_match_the_full_normalising_add(x, y, z):
    # w = z − x has much of x's denominator, so the numerator of x + w shares
    # a factor with g = gcd(x.den, w.den) whenever z's denominator is smaller
    w = full_normalising_add(z, -x)
    for a, b in ((x, y), (y, x), (x, -y), (x, w), (w, x), (x, -x), (z, z)):
        r = a + b
        _assert_canonical_ratfn(r)
        want = full_normalising_add(a, b)
        assert (r.num._n, r.num._d, r.num._p, r.den._p) == (want.num._n, want.num._d, want.num._p, want.den._p)
    assert x + w == z and x - z == -w
    assert (x + (-x)).is_zero()


@settings(max_examples=150, deadline=None)
@given(_constants, _constants)
def test_constants_match_the_general_path(x, y):
    for r, want in (
        (x + y, full_normalising_add(x, y)),
        (x - y, full_normalising_add(x, -y)),
        (x * y, cross_reduced_product(x, y)),
        (y * x, cross_reduced_product(y, x)),
        (x + (-x), QRationalFn.zero()),
        (x * 0, QRationalFn.zero()),
    ):
        _assert_canonical_ratfn(r)
        assert (r.num._n, r.num._d, r.num._p, r.den._p) == (want.num._n, want.num._d, want.num._p, want.den._p)
        assert hash(r) == hash(want)


def _spy_gcds(monkeypatch):
    calls, real = [], exact._heu_gcd

    def spy(a, b):
        calls.append((len(a) - 1, len(b) - 1))
        return real(a, b)

    monkeypatch.setattr(exact, "_heu_gcd", spy)
    return calls


def test_sum_reduces_only_against_the_common_factor(monkeypatch):
    qp = QRationalFn(QPolynomial.q())
    one_minus = [QRationalFn(p) for p in _ONE_MINUS_Q]
    x, y = ONE / (one_minus[0] * one_minus[1]), qp / (one_minus[0] * one_minus[1])
    want = ONE / (one_minus[0] * one_minus[0])
    calls = _spy_gcds(monkeypatch)
    # g is the whole denominator, of degree 3, and t = 1 + q divides it
    assert x + y == want
    assert calls == [(3, 3), (1, 3)]
    # coprime denominators: one gcd, of the denominators
    x, y = ONE / one_minus[0], qp / (1 + qp * qp)
    want = QRationalFn(QPolynomial((1, 1)), QPolynomial((1, -1, 1, -1)))
    del calls[:]
    assert x + y == want
    assert calls == [(1, 2)]
    del calls[:]
    # over denominator 1 no gcd at all, and two constants add and multiply
    # with no polynomial product
    assert one_minus[2] + qp == QRationalFn(QPolynomial((1, 1, 0, -1)))
    third, sixth, half = (QRationalFn.from_fraction(Fraction(1, n)) for n in (3, 6, 2))
    six, two = QRationalFn.from_fraction(6), QRationalFn.from_fraction(2)

    def no_polynomial_arithmetic(*args):
        raise AssertionError("constants over 1 take the integer path")

    monkeypatch.setattr(QPolynomial, "__mul__", no_polynomial_arithmetic)
    monkeypatch.setattr(exact, "_sum", no_polynomial_arithmetic)
    assert third + sixth == half and third * six == two and sixth - third + half == third
    assert calls == []


@st.composite
def dot_products(draw):
    """(terms, xs): two operands' coefficients, in the form that
    exact._ratfn_convolution takes.  The first two of each are nonzero, all
    of them are constants when the first flag is drawn, and the products at
    index 1 cancel when the second is."""
    nonzero = (_constants if draw(st.booleans()) else _q_operands).filter(bool)
    entry = st.one_of(nonzero, nonzero, nonzero, st.none())
    ys = draw(st.lists(nonzero, min_size=2, max_size=2)) + draw(st.lists(entry, max_size=3))
    xs = draw(st.lists(nonzero, min_size=2, max_size=2)) + draw(st.lists(entry, max_size=3))
    if draw(st.booleans()):
        # ys[0]·xs[1] + ys[1]·xs[0] = 0
        ys[1] = -(ys[0] * xs[1]) / xs[0]
    terms = [(i, y) for i, y in enumerate(ys) if y is not None]
    # padded as ZPolynomial.__mul__ pads it
    return terms, xs + [None] * (len(ys) - 1)


@settings(max_examples=60, deadline=None)
@given(dot_products())
def test_dot_products_match_the_term_by_term_sum(operands):
    terms, xs = operands
    for k in range(len(xs)):
        r = exact._ratfn_convolution(terms, xs, k)
        want = term_by_term_convolution(terms, xs, k)
        if want is None:
            assert r is None
        else:
            _assert_canonical_ratfn(r)
            assert r == want


def test_dot_product_normalises_once(monkeypatch):
    # (1/(1-q))·(1/(1-q^2)) + (q/(1-q^2))·(1/(1-q)) + 1·1 over the lcm
    # (1-q)(1-q^2): one gcd of denominators per later term, then one final
    # normalisation (of a numerator of degree 3 against the lcm, degree 3)
    one_minus = [QRationalFn(p) for p in _ONE_MINUS_Q]
    qp = QRationalFn(QPolynomial.q())
    terms = [(0, ONE / one_minus[0]), (1, qp / one_minus[1]), (2, ONE)]
    xs = [ONE, ONE / one_minus[0], ONE / one_minus[1]]
    want = term_by_term_convolution(terms, xs, 2)
    calls = _spy_gcds(monkeypatch)
    assert exact._ratfn_convolution(terms, xs, 2) == want
    assert calls == [(3, 3), (3, 3)]


# -- oracle: the Fraction-tuple kernel that content × primitive storage replaced --
#
# Each ring operation cleared its Fraction operands to integers over one
# common denominator, ran the integer kernel, and built one reduced Fraction
# per output coefficient.


def _clear(cs):
    """(ints, d) with cs[i] == ints[i] / d and d the lcm of the denominators."""
    d = lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def _split(cs):
    """(p, c, d) with cs[i] == c·p[i] / d and p primitive in Z[q]."""
    ints, d = _clear(cs)
    c = gcd(*ints)
    return [x // c for x in ints], c, d


def _scaled(cs, num, den):
    """The reduced Fractions cs[i] * num / den."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return tuple(Fraction(c * (num // g), den // g) for c in cs)


def fraction_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def fraction_neg(a):
    return tuple(-c for c in a)


def fraction_mul(a, b):
    if not a or not b:
        return ()
    (ai, da), (bi, db) = _clear(a), _clear(b)
    return _scaled(exact._int_mul(ai, bi), 1, da * db)


def fraction_coprime_parts(p, q):
    if len(p) == 1 or len(q) == 1:
        return None
    (pi, cp, dp), (qi, cq, dq) = _split(p), _split(q)
    g, pi, qi = prs_gcd_parts(pi, qi)
    if len(g) == 1:
        return None
    return _scaled(pi, cp * g[-1], dp), _scaled(qi, cq * g[-1], dq)


def fraction_normalise(num, den):
    """The reduced (num, den) with den monic, as QRationalFn.__init__ built it."""
    if not num:
        return (), (Fraction(1),)
    if len(num) == 1 or len(den) == 1:
        lead = den[-1]
        return tuple(c / lead for c in num), tuple(c / lead for c in den)
    (pn, cn, nd), (pd, cd, dd) = _split(num), _split(den)
    _, pn, pd = prs_gcd_parts(pn, pd)
    lead = pd[-1]
    return _scaled(pn, cn * dd, lead * cd * nd), _scaled(pd, 1, lead)


# -- differential tests of content × primitive storage against that oracle ------


def assert_canonical(p):
    """p's stored triple is the canonical one, and .coeffs is its value."""
    n, d, prim = p._n, p._d, p._p
    assert type(prim) is tuple and all(type(x) is int for x in (n, d) + prim)
    if prim:
        assert n != 0 and d > 0 and gcd(n, d) == 1
        assert gcd(*prim) == 1 and prim[-1] > 0
    else:
        assert (n, d) == (0, 1)
    cs = p.coeffs
    assert type(cs) is tuple and cs == tuple(Fraction(n * x, d) for x in prim)
    assert all(type(c) is Fraction and c.denominator > 0 and gcd(c.numerator, c.denominator) == 1 for c in cs)


# zero, constants and polynomials of unequal lengths, with negative and zero
# coefficients, built from Fractions and (coeffs not yet built) by a product
_any_poly = st.one_of(
    st.just(QPolynomial.zero()),
    polys(max_len=1),
    polys(bits=40, den_bits=40),
    polys(bits=40, den_bits=40).map(lambda p: p * QPolynomial.one()),
    polys(max_len=3, bits=8, den_bits=4),
)


@settings(max_examples=100, deadline=None)
@given(_any_poly, _any_poly)
def test_ring_ops_match_the_fraction_tuple_kernel(a, b):
    ac, bc = a.coeffs, b.coeffs
    for result, expected in (
        (a + b, fraction_add(ac, bc)),
        (a - b, fraction_add(ac, fraction_neg(bc))),
        (a * b, fraction_mul(ac, bc)),
        (-a, fraction_neg(ac)),
        (a + 3, fraction_add(ac, (Fraction(3),))),
        (Fraction(-2, 3) - a, fraction_add((Fraction(-2, 3),), fraction_neg(ac))),
    ):
        assert_canonical(result)
        assert result.coeffs == expected
        from_fractions = QPolynomial(expected)
        assert_canonical(from_fractions)
        assert result == from_fractions and hash(result) == hash(from_fractions)


@settings(max_examples=60, deadline=None)
@given(_any_poly.filter(bool), _any_poly.filter(bool), polys(max_len=4, bits=30, den_bits=30))
def test_normalisation_matches_the_fraction_tuple_kernel(a, b, f):
    # f·a and f·b share at least f, so the gcd is nontrivial about half the time
    for x, y in ((a, b), (f * a, f * b), (a, f * b)):
        parts = exact._coprime_parts(x, y)
        expected = fraction_coprime_parts(x.coeffs, y.coeffs)
        if expected is None:
            assert parts is None
        else:
            for part in parts:
                assert_canonical(part)
            assert tuple(part.coeffs for part in parts) == expected
        r = QRationalFn(x, y)
        assert_canonical(r.num)
        assert_canonical(r.den)
        assert (r.num.coeffs, r.den.coeffs) == fraction_normalise(x.coeffs, y.coeffs)


@settings(max_examples=40, deadline=None)
@given(_any_poly, _any_poly, _any_poly)
def test_equal_values_by_different_routes_compare_and_hash_equal(a, b, c):
    routes = [
        (a + b) * c,
        a * c + b * c,
        c * a - (-b) * c,
        QPolynomial(fraction_mul(fraction_add(a.coeffs, b.coeffs), c.coeffs)),
    ]
    if routes[0]:
        routes.append(QPolynomial.parse(str(routes[0])))
    for r in routes:
        assert_canonical(r)
        assert r == routes[0] and hash(r) == hash(routes[0])
    x = QRationalFn(a * c, c) if c else QRationalFn(a)
    assert x == QRationalFn(a) and hash(x) == hash(QRationalFn(a))


# a denominator's integer part: constant term 1 or -1, or neither, with a
# tail of small integers (a shared factor with the numerator may still change
# the reduced denominator's constant term)
_den_heads = st.one_of(st.sampled_from((1, -1)), st.integers(2, 2**40), st.integers(-(2**40), -2))


@st.composite
def taylor_operands(draw):
    """(r, order): a numerator from _any_poly, the zero one included, over a
    denominator with nonzero constant term and a content, at orders from 0."""
    content = draw(_nonzero(20, 20))
    ints = [draw(_den_heads)] + draw(st.lists(st.integers(-9, 9), max_size=6))
    return QRationalFn(draw(_any_poly), QPolynomial([content * x for x in ints])), draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None)
@given(taylor_operands())
def test_taylor_matches_the_fraction_route(operands):
    r, order = operands
    got = r.taylor(order)
    assert got == fraction_taylor(r, order) and got.order == order
    assert all(type(c) is Fraction for c in got)  # == would let an int pass


def test_taylor_divides_the_integer_parts(monkeypatch):
    # the divisor generators' reduced denominators have constant term -1 and
    # content 1; the recurrence must see the signed integer parts, so that it
    # takes no reciprocal and creates no Fraction
    seen = []
    quotient = QSeries._quotient.__func__

    def spy(cls, a, b, n):
        seen.append((a, b))
        return quotient(cls, a, b, n)

    monkeypatch.setattr(QSeries, "_quotient", classmethod(spy))
    r = parse("(3 + q)/(2*q^2 + 4*q - 2)")
    assert list(r.taylor(4)) == [Fraction(-3, 2), Fraction(-7, 2), Fraction(-17, 2), Fraction(-41, 2)]
    [(a, b)] = seen
    assert b[0] == 1 and all(type(x) is int for x in (*a, *b))


def test_coeffs_are_reduced_fractions():
    p = QPolynomial((Fraction(4, 6), -2, 0)) * QPolynomial((3, Fraction(1, 2)))
    cs = p.coeffs
    assert cs == (Fraction(2), Fraction(-17, 3), Fraction(-1))
    assert [type(c) for c in cs] == [Fraction] * 3
    assert (p._n, p._d, p._p) == (-1, 3, (-6, 17, 3))
    assert hash(p) == hash(QPolynomial(cs))
    q = QPolynomial((1, 1)) * QPolynomial((-1, 1))
    assert hash(q) == hash(QPolynomial((-1, 0, 1))) and q == QPolynomial((-1, 0, 1)) and q != p


# -- oracle: the byte-join Kronecker packing that word-sized digits replaced -----
#
# Each digit was offset by half a digit and converted by its own to_bytes or
# from_bytes call, at the unrounded width that the bounds ask for.


def byte_join_pack(cs, nbytes, bias=None):
    half = 1 << (8 * nbytes - 1)
    raw = b"".join((c + half).to_bytes(nbytes, "little") for c in cs)
    return int.from_bytes(raw, "little") - exact._bias(len(cs), nbytes)


def byte_join_unpack(x, n, nbytes, bias=None):
    half = 1 << (8 * nbytes - 1)
    raw = (x + exact._bias(n, nbytes)).to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, n * nbytes, nbytes)]


def byte_join_kernel(fn, *args):
    """fn(*args) run on the byte-join packing at unrounded widths."""
    with mock.patch.multiple(exact, _pack=byte_join_pack, _unpack=byte_join_unpack, _digit_width=lambda n: n):
        return fn(*args)


def convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


WORD_WIDTHS = (1, 2, 4, 8)
OTHER_WIDTHS = (3, 5, 9, 16)


@st.composite
def digit_lists(draw, widths):
    """(digits, width): digits of one width, the extremes ±(2^(8·width−1) − 1) among them."""
    nbytes = draw(st.sampled_from(widths))
    top = (1 << (8 * nbytes - 1)) - 1
    digit = st.one_of(st.sampled_from((top, -top, 0, 1, -1)), st.integers(-top, top))
    return draw(st.lists(digit, min_size=1, max_size=12)), nbytes


def _check_pack_round_trip(cs, nbytes):
    # the kernels hand _pack and _unpack the bias of a longer operand
    for bias in (exact._bias(len(cs), nbytes), exact._bias(len(cs) + 3, nbytes)):
        x = exact._pack(cs, nbytes, bias)
        assert x == byte_join_pack(cs, nbytes) == sum(c << (8 * nbytes * i) for i, c in enumerate(cs))
        assert exact._unpack(x, len(cs), nbytes, bias) == byte_join_unpack(x, len(cs), nbytes) == cs


def test_widths_up_to_a_word_round_up_to_one():
    assert [exact._digit_width(n) for n in range(1, 12)] == [1, 2, 4, 4, 8, 8, 8, 8, 9, 10, 11]
    assert sorted(exact._WORD_CODES) == list(WORD_WIDTHS)


@pytest.mark.parametrize("nbytes", WORD_WIDTHS)
def test_word_digits_at_the_extremes(nbytes):
    top = (1 << (8 * nbytes - 1)) - 1
    for cs in ([top], [-top], [top, -top, top], [-top, top, 0, -top], [-1] * 5, [0, 0, top]):
        _check_pack_round_trip(cs, nbytes)


@settings(max_examples=60, deadline=None)
@given(digit_lists(WORD_WIDTHS))
def test_word_digits_match_the_byte_join_oracle(digits):
    _check_pack_round_trip(*digits)


@settings(max_examples=40, deadline=None)
@given(digit_lists(OTHER_WIDTHS))
def test_other_widths_match_the_byte_join_oracle(digits):
    _check_pack_round_trip(*digits)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WORD_WIDTHS + OTHER_WIDTHS), st.integers(1, 6), st.data())
def test_unpack_overflows_exactly_where_the_oracle_does(nbytes, n, data):
    # the n-digit forms cover [-bias, 2^(8·nbytes·n) − bias); probe both ends
    bias = exact._bias(n, nbytes)
    edge = data.draw(st.sampled_from((-bias, -bias - 1, (1 << (8 * nbytes * n)) - bias, (1 << (8 * nbytes * n)) - bias - 1)))
    x = data.draw(st.one_of(st.just(edge), st.integers(-2 * bias, 4 * bias)))
    try:
        want = byte_join_unpack(x, n, nbytes)
    except OverflowError:
        with pytest.raises(OverflowError):
            exact._unpack(x, n, nbytes, bias)
    else:
        assert exact._unpack(x, n, nbytes, bias) == want


@pytest.mark.parametrize("nbytes", WORD_WIDTHS + OTHER_WIDTHS)
def test_unpack_raises_without_an_n_digit_form(nbytes):
    half = 1 << (8 * nbytes - 1)
    for n in (1, 2, 3):
        low, high = -exact._bias(n, nbytes), (1 << (8 * nbytes * n)) - exact._bias(n, nbytes)
        # the smallest and largest n-digit forms: every digit -half, or half − 1
        bias = exact._bias(n + 1, nbytes)
        assert exact._unpack(low, n, nbytes, bias) == [-half] * n
        assert exact._unpack(high - 1, n, nbytes, bias) == [half - 1] * n
        for x in (low - 1, high):
            with pytest.raises(OverflowError):
                byte_join_unpack(x, n, nbytes)
            with pytest.raises(OverflowError):
                exact._unpack(x, n, nbytes, bias)


def _int_polys(max_len=8):
    """Nonzero integer polynomials whose coefficients sit at the digit-width edges."""
    edges = [s * ((1 << (8 * w - 1)) - d) for w in (1, 2, 4, 8) for d in (1, 0) for s in (1, -1)]
    coefficient = st.one_of(st.sampled_from(edges), st.integers(-(2**140), 2**140))
    return st.lists(coefficient, min_size=1, max_size=max_len).filter(lambda cs: cs[-1] != 0)


@settings(max_examples=60, deadline=None)
@given(_int_polys(), _int_polys())
def test_int_mul_matches_the_byte_join_kernel(a, b):
    assert exact._int_mul(a, b) == byte_join_kernel(exact._int_mul, a, b) == convolution(a, b)


@settings(max_examples=40, deadline=None)
@given(_int_polys(), _int_polys(max_len=5).filter(lambda cs: len(cs) >= 2))
def test_int_exquo_matches_the_byte_join_kernel(a, b):
    ab = convolution(a, b)
    assert exact._int_exquo(ab, b) == byte_join_kernel(exact._int_exquo, ab, b) == a
    # b has degree >= 1, so it cannot divide a·b + 1
    ab[0] += 1
    assert exact._int_exquo(ab, b) is None
    assert byte_join_kernel(exact._int_exquo, ab, b) is None


@settings(max_examples=40, deadline=None)
@given(_int_polys(max_len=4), _int_polys(max_len=4), _int_polys(max_len=4))
def test_heu_gcd_matches_the_byte_join_kernel(f, g, h):
    a, b = (exact._primitive(convolution(f, x)) for x in (g, h))
    if len(a) == 1 or len(b) == 1:
        return
    a, b = ([-c for c in p] if p[-1] < 0 else p for p in (a, b))
    found = exact._heu_gcd(a, b)
    g_ab, qa, qb = found
    assert convolution(g_ab, qa) == a and convolution(g_ab, qb) == b
    g = list(prs_gcd_parts(a, b)[0])
    assert g_ab in (g, [-c for c in g])
    assert found == byte_join_kernel(exact._heu_gcd, a, b)


# -- the bias: one per kernel call, shifted down to each operand -----------------


@pytest.mark.parametrize("nbytes", (1, 2, 4, 8, 9))
def test_bias_is_the_byte_pattern_and_shifts_down(nbytes):
    for n in range(1, 65):
        assert exact._bias(n, nbytes) == int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")
        # all its digits are equal, so the top n digits of a longer bias are _bias(n)
        assert exact._bias(64, nbytes) >> (8 * nbytes * (64 - n)) == exact._bias(n, nbytes)


# -- exact division: narrow width first, Mignotte's width second ----------------


def fraction_exquo(a, b):
    """a / b in Z[q] by Fraction long division, or None."""
    quo, rem = QPolynomial(a).divmod(QPolynomial(b))
    if rem.is_zero() and all(c.denominator == 1 for c in quo.coeffs):
        return [int(c) for c in quo.coeffs]
    return None


def narrow_division(a, b):
    """(remainder, n-digit quotient or None) of a(ξ) by b(ξ) at the narrow width."""
    return packed_division(a, b, exact._digit_width((2 * max(map(abs, a)) * sum(map(abs, b)) + 2).bit_length() // 8 + 1))


@settings(max_examples=80, deadline=None)
@given(_int_polys(), _int_polys(max_len=5).filter(lambda cs: len(cs) >= 2), st.booleans())
def test_int_exquo_matches_the_mignotte_route_and_the_fraction_oracle(x, b, divisible):
    a = convolution(x, b) if divisible else x
    want = fraction_exquo(a, b)
    assert exact._int_exquo(a, b) == want == narrow_first_exquo(a, b)
    if len(a) >= len(b) and a[-1] % b[-1] == 0:
        assert mignotte_exquo(a, b) == want
    if divisible:
        assert want == x


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 7), st.integers(1, 400), st.sampled_from((1, -1)))
def test_non_divisor_with_a_zero_narrow_remainder(c, m, sign):
    # b = q − c divides a(ξ) exactly when ξ − c divides a(c); the narrow base
    # here is ξ = 256, so a's digits in base c spell a multiple of 256 − c
    b, a, v = [-c, 1], [], m * (256 - c)
    while v:
        v, digit = divmod(v, c)
        a.append(sign * digit)
    rem, quotient = narrow_division(a, b)
    assert rem == 0 and quotient is not None  # the narrow division alone would accept it
    assert fraction_exquo(a, b) is None
    assert exact._int_exquo(a, b) is None


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.integers(1, 9))
def test_quotient_too_wide_for_the_narrow_digits(k, j):
    # (q^k − 1)^j / (q − 1)^j = (1 + q + ... + q^(k−1))^j: a and b have
    # binomial coefficients, the quotient's grow like k^j
    a = [1]
    b = [1]
    for _ in range(j):
        a = convolution(a, [-1] + [0] * (k - 1) + [1])
        b = convolution(b, [-1, 1])
    want = [1]
    for _ in range(j):
        want = convolution(want, [1] * k)
    assert exact._int_exquo(a, b) == want == fraction_exquo(a, b)
    assert mignotte_exquo(a, b) == narrow_first_exquo(a, b) == want


def test_wide_quotients_take_the_fallback():
    # at k = 16 the quotient unpacks at the narrow width but fails its bound;
    # at k = 32 its coefficients no longer fit the narrow digits at all
    for k, unpacks in ((16, True), (32, False)):
        a, b, want = [1], [1], [1]
        for _ in range(8):
            a = convolution(a, [-1] + [0] * (k - 1) + [1])
            b = convolution(b, [-1, 1])
            want = convolution(want, [1] * k)
        rem, quotient = narrow_division(a, b)
        assert rem == 0 and (quotient == want) is unpacks
        assert exact._int_exquo(a, b) == want
