"""Exact arithmetic over Q and the rational-function field Q(q).

Everything downstream (convergents, triangle recurrences, divisor tables)
reduces to the value types defined here:

  * QPolynomial  -- dense polynomial in q over Q, stored as content times
                    primitive part: a reduced rational n/d (d > 0) times an
                    integer tuple p with gcd 1 and p[-1] > 0; the zero
                    polynomial is 0/1 times ().  The form is canonical, so
                    equality compares (n, d, p).  `.coeffs`, the tuple of
                    reduced Fraction coefficients with no trailing zero, is
                    built from them when read.
  * QRationalFn  -- quotient of two QPolynomials, canonical form: fully
                    reduced with a monic denominator, so equality is a
                    plain structural comparison.  Operations take only the
                    gcds that the algebra leaves open: a sum reduces its new
                    numerator against the gcd of the denominators alone
                    (Henrici's sum), and two constants over 1 add and
                    multiply as integers.
  * TruncatedSeries -- truncated power series over one coefficient field,
                    with the one product loop and the one division
                    recurrence of the library.  The field sums the products
                    of each coefficient: `_convolution` plainly over Q,
                    `_ratfn_convolution` over Q(q) with one normalisation per
                    coefficient (zalgebra.ZPolynomial multiplies by it too).
                    Every value carries its own order and binary operations
                    take the min, so a result never claims more accuracy
                    than its inputs.
  * QSeries      -- the subclass over Q; zalgebra.ZSeries is the one over Q(q).

All values are immutable; operations are pure functions.  The scalar
field is fractions.Fraction (arbitrary precision, always reduced).  Below
the values sits an integer kernel on the primitive parts: Kronecker
products, GCDHEU gcds that retry at odd points until the candidate divides
(`_heu_gcd`), and exact division by one packed division at two widths
(`_int_exquo`).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

_Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, in the ring whose unit is one."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


# ---------------------------------------------------------------------------
# integer kernel for Q[q]
# ---------------------------------------------------------------------------
#
# The ring operations run on the primitive parts, as Python ints, and on the
# contents, as pairs of ints (Geddes, Czapor & Labahn 1992, ch. 2).  Products
# multiply the contents and the primitive parts; the latter by Kronecker
# substitution (Schönhage 1982; Harvey 2009: pack the coefficients as the
# digits of one big integer, multiply once, unpack).  By Gauss's lemma the
# product of primitive polynomials is primitive, so a product takes no gcd.
# Sums bring the two contents to one denominator and take the content of the
# integer result.  Gcds run the heuristic GCDHEU (Char, Geddes & Gonnet 1989)
# on the primitive parts, retrying at larger points until it succeeds, which
# it provably does.  Fractions are built only when `.coeffs` is read.  Over
# Q(q) the kernel is called only where a common factor can be left: a sum
# takes the gcd g of the two denominators and then reduces its numerator
# against g alone (Henrici 1956; Knuth, TAOCP Vol. 2, §4.5.1), a product
# cross-reduces each numerator against the other denominator, and a dot
# product of two or more terms is reduced once, not once per term.


def _primitive(cs: list[int]) -> list[int]:
    cont = _int_gcd(*cs)
    return cs if cont == 1 else [c // cont for c in cs]


def _bias(n: int, nbytes: int) -> int:
    """Σ_{i<n} 2^(8·nbytes·(i+1) − 1): half a digit in each of n digits.

    All its digits are equal, so its top m digits are _bias(m, nbytes): a
    kernel builds one per digit width, for its longest operand, and each
    `_pack`/`_unpack` shifts it down to its own length."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


# the array type code of each machine-word digit width; digits of these widths
# convert all at once, wider ones one by one
_WORD_CODES = {array(code).itemsize: code for code in "qihb"}
_BIG_ENDIAN = sys.byteorder == "big"


def _digit_width(nbytes: int) -> int:
    """nbytes rounded up to 1, 2, 4 or 8 bytes when at most 8, else nbytes.

    A wider digit only strengthens the bounds that fix a width below."""
    return nbytes if nbytes > 8 else 1 << (nbytes - 1).bit_length()


def _pack(cs: Sequence[int], nbytes: int, bias: int) -> int:
    """Σ cs[i]·2^(8·nbytes·i), for |cs[i]| < 2^(8·nbytes − 1); bias is
    _bias(m, nbytes) for some m >= len(cs).

    At a word width the bytes of the two's-complement words read as one int
    give Σ (cs[i] mod 2^(8·nbytes))·2^(8·nbytes·i); flipping the top bit of
    each word (XOR with the bias) makes every digit cs[i] + half, and
    subtracting the bias leaves cs[i]."""
    bias >>= bias.bit_length() - 8 * nbytes * len(cs)
    code = _WORD_CODES.get(nbytes)
    if code is None:
        half = 1 << (8 * nbytes - 1)
        raw = b"".join((c + half).to_bytes(nbytes, "little") for c in cs)
        return int.from_bytes(raw, "little") - bias
    words = array(code, cs)
    if _BIG_ENDIAN:
        words.byteswap()
    return (int.from_bytes(words, "little") ^ bias) - bias


def _unpack(x: int, n: int, nbytes: int, bias: int) -> list[int]:
    """The n balanced digits d_i of x = Σ d_i·2^(8·nbytes·i), |d_i| < 2^(8·nbytes − 1);
    bias is _bias(m, nbytes) for some m >= n.

    Raises OverflowError when x has no such n-digit form."""
    bias >>= bias.bit_length() - 8 * nbytes * n
    code = _WORD_CODES.get(nbytes)
    if code is None:
        half = 1 << (8 * nbytes - 1)
        raw = (x + bias).to_bytes(n * nbytes, "little")
        return [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, n * nbytes, nbytes)]
    # x + bias has the digits d_i + half; the XOR turns them into two's complement
    words = array(code, ((x + bias) ^ bias).to_bytes(n * nbytes, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words.tolist()


def _int_strip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two nonzero integer polynomials by Kronecker substitution."""
    # every product coefficient is at most this in absolute value; a sign bit
    # on top makes the packed digits independent
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = _digit_width(bound.bit_length() // 8 + 1)
    n = len(a) + len(b) - 1
    bias = _bias(n, nbytes)
    return _unpack(_pack(a, nbytes, bias) * _pack(b, nbytes, bias), n, nbytes, bias)


def _int_exquo(a: Sequence[int], b: Sequence[int]) -> Optional[list[int]]:
    """a / b in Z[q] for nonzero a, b, or None when b does not divide a.

    One packed division, at the narrow width ξ > 2·max|a_i|·||b||_1 + 2 and,
    when that is inconclusive, again at ξ > 2·B·||b||_1 + 2, where
    B = (max|a_i|·len a)·2^(n−1) >= 2^(n−1)·||a||_2 bounds, by Mignotte, the
    coefficients of every factor of a of degree n − 1, the quotient included.
    At either width, b | a in Z[q] gives b(ξ) | a(ξ), so a nonzero remainder
    proves that b does not divide a.  A quotient counts only when it unpacks
    to digits q_i with 2·max|q_i|·||b||_1 < ξ: then every coefficient of q·b,
    like every a_i, is below ξ/2 in absolute value, and (q·b)(ξ) = a(ξ), so
    the balanced digits agree: q·b == a with no multiplication.  The true
    quotient passes that test at the second width, so failing it there, or
    failing to unpack, proves that b does not divide a."""
    n = len(a) - len(b) + 1
    if n <= 0 or a[-1] % b[-1]:
        return None
    norm = sum(map(abs, b))
    top = max(map(abs, a))
    for bound in (top, (top * len(a)) << (n - 1)):
        nbytes = _digit_width((2 * bound * norm + 2).bit_length() // 8 + 1)
        bias = _bias(len(a), nbytes)
        quo, rem = divmod(_pack(a, nbytes, bias), _pack(b, nbytes, bias))
        if rem:
            return None
        try:
            q = _unpack(quo, n, nbytes, bias)
        except OverflowError:
            continue
        if 2 * max(map(abs, q)) * norm < 1 << (8 * nbytes):
            return q
    return None


def _heu_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
    """(g, a/g, b/g) with g = gcd(a, b), g[-1] > 0, for primitive a, b of degree >= 1.

    GCDHEU (Char, Geddes & Gonnet 1989): at an integer ξ >= 2·max(||a||_inf,
    ||b||_inf) + 2 (so that both operands pack; the proofs below need only
    the min), read the candidate g off the balanced ξ-adic digits of
    γ = gcd(a(ξ), b(ξ)) and keep its primitive part; γ > 0, so g[-1] > 0.
    The first try is at ξ = 2^(8·nbytes), where packing evaluates and
    unpacking reads the digits.  A candidate that fails the division test
    sends ξ to the odd point ⌊ξ·73794/27011⌋ | 1 of the published algorithm,
    about 2.73 times larger, where `_evaluate` evaluates and repeated
    division reads the digits.  Odd points matter: when a parameter holds
    2^8 or 2^16, as in (256; q)_n/(q^2; q)_n, a power-of-two point can be
    unlucky at every width.

    Acceptance.  A candidate that divides both a and b is the gcd G: G(ξ)
    divides γ = c·g(ξ), where c is the content of the digits, so f = G/g (a
    polynomial, since g | G) has f(ξ) | c and |c| <= ξ/2.  The roots of a
    (and of b) lie within ||a||_inf + 1 of 0, so a nonconstant f, which
    divides both, has |f(ξ)| > (ξ/2)^deg(f) >= ξ/2.  Hence f = ±1.

    Termination.  The cofactors a' = a/G and b' = b/G are coprime, so
    u·a' + v·b' = Res(a', b') = R ≠ 0 for some u, v in Z[q], and
    c = gcd(a'(ξ), b'(ξ)) divides R.  Then γ = c·|G(ξ)|, the value at ξ of
    ±c·G, whose coefficients are at most |R|·||G||_inf in absolute value.
    Once ξ > 2·|R|·||G||_inf they are the balanced digits of γ, the
    candidate is ±G, and it divides.  ξ grows geometrically, so some try gets
    there."""
    nbytes = _digit_width((2 * max(max(map(abs, a)), max(map(abs, b))) + 2).bit_length() // 8 + 1)
    # gamma <= |a(ξ)| < ξ^len(a), and likewise for b, so its digits number at
    # most min(len(a), len(b)) + 2
    bias = _bias(max(len(a), len(b)) + 2, nbytes)
    gamma = _int_gcd(_pack(a, nbytes, bias), _pack(b, nbytes, bias))
    digits = _unpack(gamma, gamma.bit_length() // (8 * nbytes) + 2, nbytes, bias)
    xi = 1 << (8 * nbytes)
    while True:
        g = _primitive(_int_strip(digits))
        if len(g) == 1:
            return [1], a, b
        qa = _int_exquo(a, g)
        if qa is not None:
            qb = _int_exquo(b, g)
            if qb is not None:
                return g, qa, qb
        xi = xi * 73794 // 27011 | 1
        gamma = _int_gcd(_evaluate(a, xi), _evaluate(b, xi))
        digits = []
        while gamma:
            # the balanced digit of an odd base lies in [-(ξ-1)/2, (ξ-1)/2]
            gamma, d = divmod(gamma, xi)
            if d > xi >> 1:
                d -= xi
                gamma += 1
            digits.append(d)


def _evaluate(cs: Sequence[int], x: int) -> int:
    """Σ cs[i]·x^i, by pairing neighbours: each round halves the list and
    squares x, so the large products are balanced ones, which CPython
    multiplies by Karatsuba (Horner's are all lopsided, and slower)."""
    vals = list(cs)
    while True:
        if len(vals) & 1:
            vals.append(0)
        vals = [vals[i] + vals[i + 1] * x for i in range(0, len(vals), 2)]
        if len(vals) == 1:
            return vals[0]
        x *= x


# ---------------------------------------------------------------------------
# QPolynomial
# ---------------------------------------------------------------------------


class QPolynomial:
    """Dense polynomial in q over Q: the content _n/_d times the primitive _p.

    _d > 0 and gcd(_n, _d) = 1; _p is a tuple of ints with gcd 1 and
    _p[-1] > 0, or () for the zero polynomial, whose content is 0/1.
    """

    __slots__ = ("_n", "_d", "_p")

    def __init__(self, coeffs: Iterable[_Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        n, d, p = 0, 1, ()
        if cs:
            # the lcm of the denominators and the gcd of the numerators it
            # scales to are coprime: each prime of d leaves some numerator
            d = _int_lcm(*[c.denominator for c in cs])
            ints = [c.numerator * (d // c.denominator) for c in cs]
            n = _int_gcd(*ints)
            if ints[-1] < 0:
                n = -n
            p = tuple(x // n for x in ints) if n != 1 else tuple(ints)
        _set_n(self, n)
        _set_d(self, d)
        _set_p(self, p)

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The reduced Fraction coefficients, ascending in q, no trailing zero."""
        n, d = self._n, self._d
        if d == 1:
            return tuple([Fraction(n * x) for x in self._p])
        return tuple([Fraction(n * x, d) for x in self._p])

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return _QP_ZERO

    @classmethod
    def one(cls) -> "QPolynomial":
        return _QP_ONE

    @classmethod
    def q(cls) -> "QPolynomial":
        return _QP_Q

    @classmethod
    def constant(cls, c: _Scalar) -> "QPolynomial":
        c = _as_fraction(c)
        return _qpp(c.numerator, c.denominator, (1,)) if c else _QP_ZERO

    @classmethod
    def monomial(cls, k: int, c: _Scalar = 1) -> "QPolynomial":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        c = _as_fraction(c)
        return _qpp(c.numerator, c.denominator, (0,) * k + (1,)) if c else _QP_ZERO

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._p) - 1

    def is_zero(self) -> bool:
        return not self._p

    def is_one(self) -> bool:
        return self._n == 1 and self._d == 1 and self._p == (1,)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self._p):
            return Fraction(self._n * self._p[k], self._d)
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._n * self._p[-1], self._d) if self._p else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._p)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self._n == other._n and self._d == other._d and self._p == other._p
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals, so hashes like, its Fraction
        if len(self._p) <= 1:
            return hash(Fraction(self._n, self._d))
        return hash(("QPolynomial", self._n, self._d, self._p))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return _qpp(-self._n, self._d, self._p) if self._p else self

    def __sub__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum(other, self, -1)

    def __mul__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._p, other._p
        if not a or not b:
            return _QP_ZERO
        n, d = self._n * other._n, self._d * other._d
        g = _int_gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        # a primitive constant is (1,); by Gauss's lemma a·b is primitive, and
        # its leading coefficient is > 0
        if len(a) == 1:
            return _qpp(n, d, b)
        if len(b) == 1:
            return _qpp(n, d, a)
        return _qpp(n, d, tuple(_int_mul(a, b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative power of a QPolynomial; use QRationalFn")
        return _power(self, n, _QP_ONE)

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Exact polynomial division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        rem = list(self.coeffs)
        bs = other.coeffs
        db = other.degree
        lb = other.leading_coefficient
        quo = [Fraction(0)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = rem[-1] / lb
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i in range(db + 1):
                rem[shift + i] -= c * bs[i]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return QPolynomial(quo), QPolynomial(rem)

    @staticmethod
    def gcd(a: "QPolynomial", b: "QPolynomial") -> "QPolynomial":
        """Monic greatest common divisor (gcd(0,0) = 0)."""
        if not a._p:
            a, b = b, a
        if not a._p:
            return _QP_ZERO
        if not b._p:
            g = a._p
        elif len(a._p) == 1 or len(b._p) == 1:
            return _QP_ONE
        else:
            g = _heu_gcd(a._p, b._p)[0]
        return _poly(1, g[-1], g)

    def evaluate(self, x: _Scalar) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self._p):
            acc = acc * x + c
        return acc * self._n / self._d

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "QPolynomial":
        r = QRationalFn.parse(text)
        if not r.den.is_one():
            raise ValueError(f"not a polynomial: {text!r}")
        return r.num


_set_n = QPolynomial._n.__set__
_set_d = QPolynomial._d.__set__
_set_p = QPolynomial._p.__set__
_new = object.__new__


def _coerce_poly(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial.constant(x)
    return NotImplemented


def _qpp(n: int, d: int, p: tuple[int, ...]) -> QPolynomial:
    """The QPolynomial n/d · p on a triple that is already canonical."""
    poly = _new(QPolynomial)
    _set_n(poly, n)
    _set_d(poly, d)
    _set_p(poly, p)
    return poly


def _poly(n: int, d: int, p: Sequence[int]) -> QPolynomial:
    """n/d · p for nonzero n, d and a nonzero p that is primitive up to sign."""
    if p[-1] < 0:
        p = [-x for x in p]
        n = -n
    if d < 0:
        n, d = -n, -d
    g = _int_gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _qpp(n, d, tuple(p))


def _monic(p: Sequence[int]) -> QPolynomial:
    """The monic polynomial p/p[-1] of a primitive p with p[-1] > 0."""
    return _qpp(1, p[-1], tuple(p))


def _sum(a: QPolynomial, b: QPolynomial, sign: int) -> QPolynomial:
    """a + sign·b for sign = ±1."""
    if not b._p:
        return a
    bn = sign * b._n
    if not a._p:
        return b if sign == 1 else _qpp(bn, b._d, b._p)
    # over the lcm m of the denominators, a + b = g·(x·pa + y·pb)/m with
    # x, y coprime; the content of x·pa + y·pb is all that can be left
    ad, bd = a._d, b._d
    k = _int_gcd(ad, bd)
    x, y = a._n * (bd // k), bn * (ad // k)
    g = _int_gcd(x, y)
    if g != 1:
        x //= g
        y //= g
    pa, pb = a._p, b._p
    if len(pa) < len(pb):
        pa, pb, x, y = pb, pa, y, x
    cs = [x * c for c in pa] if x != 1 else list(pa)
    for i, c in enumerate(pb):
        cs[i] += y * c
    if not _int_strip(cs):
        return _QP_ZERO
    cont = _int_gcd(*cs)
    if cont != 1:
        cs = [c // cont for c in cs]
    return _poly(g * cont, ad // k * bd, cs)


def _coprime_parts(p: QPolynomial, q: QPolynomial) -> Optional[tuple[QPolynomial, QPolynomial]]:
    """(p/g, q/g) for the monic g = gcd(p, q) of nonzero p, q, or None when g = 1."""
    if len(p._p) == 1 or len(q._p) == 1:
        return None
    g, pi, qi = _heu_gcd(p._p, q._p)
    if len(g) == 1:
        return None
    # p = (n/d)·g·pi, and g is g[-1] times the monic gcd
    return _poly(p._n * g[-1], p._d, pi), _poly(q._n * g[-1], q._d, qi)


_QP_ZERO = _qpp(0, 1, ())
_QP_ONE = _qpp(1, 1, (1,))
_QP_Q = _qpp(1, 1, (0, 1))


# ---------------------------------------------------------------------------
# QRationalFn
# ---------------------------------------------------------------------------


class QRationalFn:
    """Reduced rational function num/den in q; den is monic, gcd(num, den) = 1.

    The canonical form makes == a structural comparison, which is what lets
    every identity check below be an exact equality assertion.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: QPolynomial, den: QPolynomial = _QP_ONE):
        if not isinstance(num, QPolynomial):
            num = _coerce_poly(num)
        if not isinstance(den, QPolynomial):
            den = _coerce_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        pn, pd = num._p, den._p
        if not pn:
            num, den = _QP_ZERO, _QP_ONE
        else:
            if len(pn) > 1 and len(pd) > 1:
                # the gcd's lead is > 0, so pd keeps den's sign: pd[-1] > 0
                _, pn, pd = _heu_gcd(pn, pd)
            lead = pd[-1]
            # unless the gcd is 1 (_heu_gcd then hands pd back) and den is
            # already monic: num/den = (nn/nd)·pn / ((dn/dd)·pd) over pd/lead
            if pd is not den._p or den._n != 1 or den._d != lead:
                num = _poly(num._n * den._d, num._d * den._n * lead, pn)
                den = _qpp(1, lead, tuple(pd))
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("QRationalFn is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "QRationalFn":
        return _QR_ZERO

    @classmethod
    def one(cls) -> "QRationalFn":
        return _QR_ONE

    @classmethod
    def q(cls) -> "QRationalFn":
        return _QR_Q

    @classmethod
    def from_fraction(cls, c: _Scalar) -> "QRationalFn":
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"expected an exact rational scalar, got {type(c).__name__}")
        return _ratfn_constant(c)

    @classmethod
    def qpow(cls, k: int) -> "QRationalFn":
        """q**k for any integer k (negative k gives 1/q**|k|)."""
        if k >= 0:
            return cls(QPolynomial.monomial(k))
        return cls(_QP_ONE, QPolynomial.monomial(-k))

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return bool(self.num._p)

    def __eq__(self, other) -> bool:
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # over denominator 1 it equals, so hashes like, its numerator
        if self.den.is_one():
            return hash(self.num)
        return hash(("QRationalFn", self.num, self.den))

    # -- field operations ------------------------------------------------------

    def __add__(self, other) -> "QRationalFn":
        """Henrici's sum (Henrici 1956; Knuth, TAOCP Vol. 2, §4.5.1).

        With a/b and c/d canonical and g = gcd(b, d), b = g·b', d = g·d',
        the sum is t/(g·b'·d') for t = a·d' + c·b'.  t is coprime to b':
        a prime of b' that divides t divides a·d', but it divides neither a
        (gcd(a, b) = 1) nor d' (gcd(b', d') = 1).  Likewise t is coprime to
        d'.  So the one gcd left to take is e = gcd(t, g), and none at all
        when g = 1; the result is (t/e)/((g/e)·b'·d').  Two constants over 1
        add as integers."""
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a._p:
            return other
        if not c._p:
            return self
        pb, pd = b._p, d._p
        if len(pb) == 1 and len(pd) == 1 and len(a._p) == 1 and len(c._p) == 1:
            return _constant_sum(a._n, a._d, c._n, c._d)
        g = (1,)
        if len(pb) > 1 and len(pd) > 1:
            g, pb, pd = _heu_gcd(pb, pd)
        if len(g) == 1:
            t = a * d + c * b
            # t = 0 only when b = d = 1
            return _qr(t, b * d) if t._p else _QR_ZERO
        # the denominators are monic, so each cofactor is its primitive part
        # over its lead
        db = _monic(pd)
        t = a * db + c * _monic(pb)
        if not t._p:
            return _QR_ZERO
        if len(t._p) > 1:
            e, pt, pg = _heu_gcd(t._p, g)
            if len(e) > 1:
                # t = (n/d)·e·pt, and e is e[-1] times the monic gcd
                return _qr(_poly(t._n * e[-1], t._d, pt), _monic(pg) * _monic(pb) * db)
        return _qr(t, b * db)

    __radd__ = __add__

    def __neg__(self) -> "QRationalFn":
        return _qr(-self.num, self.den)

    def __sub__(self, other) -> "QRationalFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRationalFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QRationalFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if self is _QR_ONE or other is _QR_ONE:
            return other if self is _QR_ONE else self
        a, b, c, d = self.num, self.den, other.num, other.den
        if not a._p or not c._p:
            return _QR_ZERO
        if len(b._p) == 1 and len(d._p) == 1 and len(a._p) == 1 and len(c._p) == 1:
            return _constant_product(a._n, a._d, c._n, c._d)
        # cross-reduce before multiplying to keep degrees down; the product is
        # then canonical as it stands: a_num and b_num are coprime to both
        # a_den and b_den, and those are monic (monic denominators divided by
        # monic gcds), so no gcd is left to take
        a_num, b_den = _coprime_parts(a, d) or (a, d)
        b_num, a_den = _coprime_parts(c, b) or (c, b)
        return _qr(a_num * b_num, a_den * b_den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRationalFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * other.reciprocal()

    def __rtruediv__(self, other) -> "QRationalFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def reciprocal(self) -> "QRationalFn":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return QRationalFn(self.den, self.num)

    def __pow__(self, n: int) -> "QRationalFn":
        if n < 0:
            return _power(self.reciprocal(), -n, _QR_ONE)
        return _power(self, n, _QR_ONE)

    # -- analysis ---------------------------------------------------------------

    def taylor(self, order: int) -> "QSeries":
        """Maclaurin expansion to the given order; requires den(0) != 0.

        The division recurrence runs on the integer primitive parts, with the
        denominator's sign turned so that its constant term is positive, and
        the content num._n·den._d/num._d (the monic den has den._n = 1) is
        applied once at the end.  When that constant term is 1, as for every
        divisor generator, the loop creates no Fraction; the returned series
        holds Fractions all the same."""
        num, den = self.num, self.den
        pd = den._p
        if not pd[0]:
            raise ValueError("pole at q=0: denominator has zero constant term")
        content = Fraction(num._n * den._d, num._d)
        if pd[0] < 0:
            pd, content = [-x for x in pd], -content
        return QSeries._quotient(num._p, pd, order) * content

    def evaluate(self, x: _Scalar) -> Fraction:
        x = _as_fraction(x)
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at q={x}")
        return self.num.evaluate(x) / d

    # -- serialization ------------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"QRationalFn({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "QRationalFn":
        """See parse.parse_ratfn; the parser module loads on first use."""
        from .parse import parse_ratfn

        return parse_ratfn(text)


def _coerce_ratfn(x):
    if isinstance(x, QRationalFn):
        return x
    if isinstance(x, QPolynomial):
        return QRationalFn(x)
    if isinstance(x, (int, Fraction)):
        return _ratfn_constant(x)
    return NotImplemented


def _ratfn_constant(c: _Scalar) -> QRationalFn:
    """The canonical constant c/1 for an int or Fraction c, with no gcd taken:
    an int has numerator c and denominator 1, and a Fraction is reduced."""
    return _int_constant(c.numerator, c.denominator)


def _int_constant(n: int, d: int) -> QRationalFn:
    """The canonical constant n/d for coprime n and d > 0."""
    return _qr(_qpp(n, d, (1,)), _QP_ONE) if n else _QR_ZERO


def _constant_sum(n1: int, d1: int, n2: int, d2: int) -> QRationalFn:
    """n1/d1 + n2/d2 for reduced fractions with d1, d2 > 0, by Henrici's sum
    on the integers (the proof is QRationalFn.__add__'s)."""
    if d1 == d2 == 1:
        return _int_constant(n1 + n2, 1)
    g = _int_gcd(d1, d2)
    s = d1 // g
    t = n1 * (d2 // g) + n2 * s
    e = _int_gcd(t, g)
    return _int_constant(t // e, s * (d2 // e))


def _constant_product(n1: int, d1: int, n2: int, d2: int) -> QRationalFn:
    """(n1/d1)·(n2/d2) for nonzero reduced fractions with d1, d2 > 0, cross-reduced."""
    g1, g2 = _int_gcd(n1, d2), _int_gcd(n2, d1)
    return _qr(_qpp(n1 // g1 * (n2 // g2), d1 // g2 * (d2 // g1), (1,)), _QP_ONE)


def _qr(num: QPolynomial, den: QPolynomial) -> QRationalFn:
    """A QRationalFn on a pair that is already canonical (coprime, den monic)."""
    r = _new(QRationalFn)
    _set_num(r, num)
    _set_den(r, den)
    return r


_set_num = QRationalFn.num.__set__
_set_den = QRationalFn.den.__set__


_QR_ZERO = _qr(_QP_ZERO, _QP_ONE)
_QR_ONE = _qr(_QP_ONE, _QP_ONE)
_QR_Q = _qr(_QP_Q, _QP_ONE)


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------


def _convolution(terms: Sequence[tuple], xs: Sequence, k: int):
    """Σ y·xs[k−i] over the (i, y) of terms with i <= k, or None for an empty sum.

    terms holds one operand's nonzero coefficients by ascending index; xs
    holds the other's, with None for a zero coefficient.  The sum starts from
    its first product, so no zero is ever added.  This is the plain sum of
    the int and Fraction fields; `_ratfn_convolution` is the one over Q(q)."""
    s = None
    for i, y in terms:
        if i > k:
            break
        x = xs[k - i]
        if x is not None:
            t = y * x
            s = t if s is None else s + t
    return s


def _ratfn_convolution(terms: Sequence[tuple], xs: Sequence, k: int) -> Optional[QRationalFn]:
    """`_convolution` over QRationalFns, normalised once.

    A single product is the cross-reduced y·x.  Two or more are summed as
    the unreduced y.num·x.num/(y.den·x.den) over a running lcm of their
    denominators, one gcd of denominators per term, and the sum is reduced
    by one gcd at the end instead of one per term; constants over 1 are
    summed so on their content ints."""
    pairs = []
    for i, y in terms:
        if i > k:
            break
        if (x := xs[k - i]) is not None:
            pairs.append((y, x))
    if len(pairs) < 2:
        return pairs[0][0] * pairs[0][1] if pairs else None
    num, den = 0, 1
    for y, x in pairs:
        yn, xn = y.num, x.num
        if len(yn._p) != 1 or len(xn._p) != 1 or len(y.den._p) != 1 or len(x.den._p) != 1:
            break
        n, d = yn._n * xn._n, yn._d * xn._d
        g = _int_gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    else:
        g = _int_gcd(num, den)
        return _int_constant(num // g, den // g)
    (y, x), *rest = pairs
    num, den = y.num * x.num, y.den * x.den
    for y, x in rest:
        n, d = y.num * x.num, y.den * x.den
        # den·(d/g) is the lcm
        den_g, d_g = _coprime_parts(den, d) or (den, d)
        num, den = num * d_g + n * den_g, den * d_g
    return QRationalFn(num, den)


class TruncatedSeries:
    """Truncated power series: the coefficients of x^0 .. x^(order-1).

    Binary operations return a series at the min of the operand orders; the
    truncation order is part of the value, so accuracy never silently grows.
    A subclass names its coefficient field: `_coerce` maps a scalar into it,
    `_zero` and `_one` are its units, `_dot` is its `_convolution`, the sum
    of the products that make one coefficient, `_scalars` are the operand
    types that act coefficientwise, and an operand of type `_poly` is
    truncated to a series.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [self._coerce(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs += [self._zero] * (order - len(cs))
        _set_order(self, order)
        _set_coeffs(self, tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _make(cls, order: int, coeffs: tuple):
        """The series on a tuple of order field elements, taken as it is."""
        s = _new(cls)
        _set_order(s, order)
        _set_coeffs(s, coeffs)
        return s

    @classmethod
    def zero(cls, order: int):
        return cls(order)

    @classmethod
    def one(cls, order: int):
        return cls(order, (cls._one,) if order > 0 else ())

    def __getitem__(self, n: int):
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond series order {self.order}")
        return self.coeffs[n]

    def __iter__(self) -> Iterator:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.order, self.coeffs))

    def _series(self, x):
        """x as a series of this type: a scalar or a polynomial at self.order."""
        if isinstance(x, type(self)):
            return x
        if isinstance(x, self._scalars):
            return type(self)(self.order, (x,) if self.order > 0 else ())
        if isinstance(x, self._poly):
            return type(self)(self.order, x.coeffs[: self.order])
        raise TypeError(f"cannot combine {type(self).__name__} with {type(x).__name__}")

    def __add__(self, other):
        other = self._series(other)
        n = min(self.order, other.order)
        return self._make(n, tuple([a + b for a, b in zip(self.coeffs, other.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.order, tuple([-c for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-self._series(other))

    def __rsub__(self, other):
        return self._series(other) - self

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            c = self._coerce(other)
            return self._make(self.order, tuple([c * x for x in self.coeffs]))
        other = self._series(other)
        n = min(self.order, other.order)
        terms = [(i, x) for i, x in enumerate(self.coeffs[:n]) if x]
        ys = [y if y else None for y in other.coeffs[:n]]
        dot = self._dot
        sums = [dot(terms, ys, k) for k in range(n)]
        return self._make(n, tuple([self._zero if s is None else s for s in sums]))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, self._scalars):
            return self._quotient(self.coeffs, (self._coerce(other),), self.order)
        other = self._series(other)
        return self._quotient(self.coeffs, other.coeffs, min(self.order, other.order))

    def reciprocal(self):
        """1/self; requires a nonzero constant term."""
        return self._quotient((self._one,), self.coeffs, self.order)

    @classmethod
    def _quotient(cls, a: Sequence, b: Sequence, n: int):
        """The series a/b at order n, from coefficient sequences of field elements.

        One pass of j_k = (a_k − Σ_{1<=i<=k} b_i·j_{k−i})·(1/b_0) (Knuth,
        TAOCP Vol. 2, §4.7); coefficients past the end of a or b are zero.
        Zero a_k, b_i and j_k are skipped, 1/b_0 is taken once (not at all
        when b_0 is one), and nothing is coerced.  Raises ZeroDivisionError
        when b_0 is zero, unless n = 0 and b is empty."""
        if n < 0:
            raise ValueError("order must be >= 0")
        if not (b and b[0]):
            if b or n:
                raise ZeroDivisionError("division by a series with zero constant term")
            return cls._make(0, ())
        one = cls._one
        inv = None if b[0] == one else one / b[0]
        neg_inv = None if inv is None else -inv
        terms = [(i, y) for i, y in enumerate(b[1:n], 1) if y]
        la = len(a)
        dot = cls._dot
        js: list = []  # None for a zero coefficient
        for k in range(n):
            s = dot(terms, js, k)
            x = (a[k] or None) if k < la else None
            if s is None:
                j = x if x is None or inv is None else x * inv
            elif x is None:
                j = -s if inv is None else s * neg_inv
            else:
                j = x - s if inv is None else (x - s) * inv
            js.append(j or None)
        zero = cls._zero
        return cls._make(n, tuple([zero if j is None else j for j in js]))


_set_order = TruncatedSeries.order.__set__
_set_coeffs = TruncatedSeries.coeffs.__set__


class QSeries(TruncatedSeries):
    """Truncated power series in q over Q."""

    __slots__ = ()
    _coerce = staticmethod(_as_fraction)
    _zero = Fraction(0)
    _one = Fraction(1)
    _dot = staticmethod(_convolution)
    _scalars = (int, Fraction)
    _poly = QPolynomial

    def shift(self, k: int) -> "QSeries":
        """Multiply by q**k (k >= 0); top coefficients fall off the truncation."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if k >= self.order:
            return QSeries(self.order)
        return QSeries(self.order, (Fraction(0),) * k + self.coeffs[: self.order - k])

    def __str__(self) -> str:
        body = format_poly(self.coeffs) if any(self.coeffs) else "0"
        return f"{body} + O(q^{self.order})"

    def __repr__(self) -> str:
        return f"QSeries({self.order}, {list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def format_poly(coeffs: Sequence[Fraction]) -> str:
    """Ascending-power string like '1 - 2*q + q^2'; '0' for the zero polynomial."""
    terms: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = "q" if k == 1 else f"q^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not terms:
            terms.append(f"-{body}" if c < 0 else body)
        else:
            terms.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(terms) if terms else "0"
