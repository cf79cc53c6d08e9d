"""Exact arithmetic over Q and the rational-function field Q(q).

Everything downstream (convergents, triangle recurrences, divisor tables)
reduces to three value types defined here:

  * QPolynomial  -- dense polynomial in q with Fraction coefficients,
                    canonical form: no trailing zero coefficients.
  * QRationalFn  -- quotient of two QPolynomials, canonical form: fully
                    reduced with a monic denominator, so equality is a
                    plain structural comparison.
  * QSeries      -- truncated power series in q; every value carries its
                    own order and binary operations take the min, so a
                    result never claims more accuracy than its inputs.

All values are immutable; operations are pure functions.  The scalar
field is fractions.Fraction (arbitrary precision, always reduced).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

Rational = Fraction

_Scalar = Union[int, Fraction]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational scalar, got {type(x).__name__}")


# ---------------------------------------------------------------------------
# integer kernel for Q[q]
# ---------------------------------------------------------------------------
#
# The ring operations run on Python ints.  A coefficient tuple is cleared to
# integers over one common denominator, multiplied by Kronecker substitution
# (Schönhage 1982; Harvey 2009: pack the coefficients as the digits of one big
# integer, multiply once, unpack), and reduced by the heuristic gcd GCDHEU
# (Char, Geddes & Gonnet 1989) with a primitive-PRS fallback.  Results go
# back to reduced Fractions once per output coefficient.


def _clear(cs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(ints, d) with cs[i] == ints[i] / d and d the lcm of the denominators."""
    d = _int_lcm(*[c.denominator for c in cs])
    if d == 1:
        return [c.numerator for c in cs], 1
    return [c.numerator * (d // c.denominator) for c in cs], d


def _primitive(cs: list[int]) -> list[int]:
    cont = _int_gcd(*cs)
    return cs if cont == 1 else [c // cont for c in cs]


def _split(cs: Sequence[Fraction]) -> tuple[list[int], int, int]:
    """(p, c, d) with cs[i] == c·p[i] / d and p primitive in Z[q]."""
    ints, d = _clear(cs)
    c = _int_gcd(*ints)
    return (ints if c == 1 else [x // c for x in ints]), c, d


def _scaled(cs: Sequence[int], num: int, den: int) -> tuple[Fraction, ...]:
    """The reduced Fractions cs[i] * num / den."""
    g = _int_gcd(num, den)
    if den < 0:
        g = -g
    num //= g
    den //= g
    if den == 1:
        return tuple(Fraction(c * num) for c in cs)
    return tuple(Fraction(c * num, den) for c in cs)


def _bias(n: int, nbytes: int) -> int:
    """Σ_{i<n} 2^(8·nbytes·(i+1) − 1): half a digit in each of n digits."""
    return int.from_bytes((bytes(nbytes - 1) + b"\x80") * n, "little")


def _pack(cs: Sequence[int], nbytes: int) -> int:
    """Σ cs[i]·2^(8·nbytes·i), for |cs[i]| < 2^(8·nbytes − 1)."""
    half = 1 << (8 * nbytes - 1)
    raw = b"".join((c + half).to_bytes(nbytes, "little") for c in cs)
    return int.from_bytes(raw, "little") - _bias(len(cs), nbytes)


def _unpack(x: int, n: int, nbytes: int) -> list[int]:
    """The n balanced digits d_i of x = Σ d_i·2^(8·nbytes·i), |d_i| < 2^(8·nbytes − 1).

    Raises OverflowError when x has no such n-digit form."""
    half = 1 << (8 * nbytes - 1)
    raw = (x + _bias(n, nbytes)).to_bytes(n * nbytes, "little")
    return [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, n * nbytes, nbytes)]


def _int_strip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two nonzero integer polynomials by Kronecker substitution."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return [c * x for x in b]
    # every product coefficient is at most this in absolute value; a sign bit
    # on top makes the packed digits independent
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nbytes = bound.bit_length() // 8 + 1
    return _unpack(_pack(a, nbytes) * _pack(b, nbytes), len(a) + len(b) - 1, nbytes)


def _int_exquo(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b in Z[q] for nonzero a, b, or None when b does not divide a."""
    n = len(a) - len(b) + 1
    if n <= 0 or a[-1] % b[-1]:
        return None
    if len(b) == 1:
        c = b[0]
        return None if any(x % c for x in a) else [x // c for x in a]
    # Mignotte's bound holds every factor f of a, the quotient included:
    # max|f_i| <= 2^deg(f)·||a||_2.  Digits wider than bound·||b||_1 + max|a_i|
    # then make Q·B == A equivalent to q·b == a: q·b − a vanishes at the base
    # and its coefficients are below half a digit.
    top = max(map(abs, a))
    bound = (top * len(a)) << (n - 1)
    nbytes = (bound * sum(map(abs, b)) + top).bit_length() // 8 + 1
    quo, rem = divmod(_pack(a, nbytes), _pack(b, nbytes))
    if rem:
        return None
    try:
        q = _unpack(quo, n, nbytes)
    except OverflowError:
        return None
    return q if max(map(abs, q)) <= bound else None


_HEU_TRIES = 6


def _heu_gcd(a: list[int], b: list[int]) -> Optional[tuple[list[int], list[int], list[int]]]:
    """(g, a/g, b/g) with g = gcd(a, b) for primitive a, b of degree >= 1, or None.

    GCDHEU: at ξ = 2^(8·nbytes) >= 2·max(||a||_inf, ||b||_inf) + 2 (so that
    both operands pack; the proof below needs only the min), read the
    candidate g off the balanced ξ-adic digits of γ = gcd(a(ξ), b(ξ)) and
    keep its primitive part.  A candidate that divides both a and b is the
    gcd G: G(ξ) divides γ = c·g(ξ), where c is the content of the digits, so
    f = G/g (a polynomial, since g | G) has f(ξ) | c and |c| <= ξ/2.  The
    roots of a (and of b) lie within ||a||_inf + 1 of 0, so a nonconstant f,
    which divides both, has |f(ξ)| > (ξ/2)^deg(f) >= ξ/2.  Hence f = ±1.
    A candidate that fails the division test sends ξ up; None after
    _HEU_TRIES tries."""
    nbytes = (2 * max(max(map(abs, a)), max(map(abs, b))) + 2).bit_length() // 8 + 1
    for _ in range(_HEU_TRIES):
        gamma = _int_gcd(_pack(a, nbytes), _pack(b, nbytes))
        g = _primitive(_int_strip(_unpack(gamma, gamma.bit_length() // (8 * nbytes) + 2, nbytes)))
        if len(g) == 1:
            return [1], a, b
        qa = _int_exquo(a, g)
        if qa is not None:
            qb = _int_exquo(b, g)
            if qb is not None:
                return g, qa, qb
        nbytes += nbytes // 4 + 1
    return None


def _int_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), content-stripped."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        lead = a[-1]
        a = [lb * x for x in a]
        shift = len(a) - 1 - db
        for i in range(db + 1):
            a[shift + i] -= lead * b[i]
        a.pop()
        _int_strip(a)
        cont = _int_gcd(*a)
        if cont > 1:
            a = [x // cont for x in a]
    return a


def _prim_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """(g, a/g, b/g) for primitive a, b of degree >= 1; g = gcd(a, b) up to sign."""
    found = _heu_gcd(a, b)
    if found is not None:
        return found
    x, y = (a, b) if len(a) >= len(b) else (b, a)
    while y:
        x, y = y, _int_pseudo_rem(x, y)
    return x, _int_exquo(a, x), _int_exquo(b, x)


def _poly_gcd_coeffs(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd of two coefficient sequences (either may be empty = zero)."""
    if not a and not b:
        return []
    if not a:
        a, b = b, a
    if not b:
        lead = a[-1]
        return [c / lead for c in a]
    if len(a) == 1 or len(b) == 1:
        return [Fraction(1)]
    g = _prim_gcd(_split(a)[0], _split(b)[0])[0]
    return list(_scaled(g, 1, g[-1]))


# ---------------------------------------------------------------------------
# QPolynomial
# ---------------------------------------------------------------------------


class QPolynomial:
    """Dense polynomial in q over Fraction; zero polynomial has no coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

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
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: _Scalar = 1) -> "QPolynomial":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((0,) * k + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QPolynomial", self.coeffs))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] += c
        return QPolynomial(cs)

    __radd__ = __add__

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "QPolynomial":
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _QP_ZERO
        (ai, da), (bi, db) = _clear(a), _clear(b)
        return _qp(_scaled(_int_mul(ai, bi), 1, da * db))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPolynomial":
        if n < 0:
            raise ValueError("negative power of a QPolynomial; use QRationalFn")
        result = _QP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def divmod(self, other: "QPolynomial") -> tuple["QPolynomial", "QPolynomial"]:
        """Exact polynomial division with remainder: self = q*other + r, deg r < deg other."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by the zero polynomial")
        rem = list(self.coeffs)
        db = other.degree
        lb = other.leading_coefficient
        quo = [Fraction(0)] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = rem[-1] / lb
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i in range(db + 1):
                rem[shift + i] -= c * other.coeffs[i]
            rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
        return QPolynomial(quo), QPolynomial(rem)

    def __divmod__(self, other):
        return self.divmod(_coerce_poly(other))

    def __floordiv__(self, other) -> "QPolynomial":
        return self.divmod(_coerce_poly(other))[0]

    def __mod__(self, other) -> "QPolynomial":
        return self.divmod(_coerce_poly(other))[1]

    @staticmethod
    def gcd(a: "QPolynomial", b: "QPolynomial") -> "QPolynomial":
        """Monic greatest common divisor (gcd(0,0) = 0)."""
        return QPolynomial(_poly_gcd_coeffs(a.coeffs, b.coeffs))

    def evaluate(self, x: _Scalar) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- serialization -------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self.coeffs)

    def __repr__(self) -> str:
        return f"QPolynomial({str(self)!r})"

    def to_pairs(self) -> list[list[int]]:
        """Coefficients as [numerator, denominator] integer pairs, ascending in q."""
        return [[c.numerator, c.denominator] for c in self.coeffs]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "QPolynomial":
        return cls(Fraction(int(p), int(q)) for p, q in pairs)

    @classmethod
    def parse(cls, text: str) -> "QPolynomial":
        r = QRationalFn.parse(text)
        if not r.den.is_one():
            raise ValueError(f"not a polynomial: {text!r}")
        return r.num


def _coerce_poly(x):
    if isinstance(x, QPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return QPolynomial.constant(x)
    return NotImplemented


def _qp(cs: tuple[Fraction, ...]) -> QPolynomial:
    """A QPolynomial on Fractions that are already canonical (no trailing zero)."""
    p = QPolynomial.__new__(QPolynomial)
    object.__setattr__(p, "coeffs", cs)
    return p


def _coprime_parts(p: QPolynomial, q: QPolynomial) -> Optional[tuple[QPolynomial, QPolynomial]]:
    """(p/g, q/g) for the monic g = gcd(p, q) of nonzero p, q, or None when g = 1."""
    if len(p.coeffs) == 1 or len(q.coeffs) == 1:
        return None
    (pi, cp, dp), (qi, cq, dq) = _split(p.coeffs), _split(q.coeffs)
    g, pi, qi = _prim_gcd(pi, qi)
    if len(g) == 1:
        return None
    # p = cp·g·pi / dp, and g is g[-1] times the monic gcd
    return _qp(_scaled(pi, cp * g[-1], dp)), _qp(_scaled(qi, cq * g[-1], dq))


_QP_ZERO = _qp(())
_QP_ONE = _qp((Fraction(1),))
_QP_Q = _qp((Fraction(0), Fraction(1)))


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
        if num.is_zero():
            num, den = _QP_ZERO, _QP_ONE
        elif len(num.coeffs) == 1 or len(den.coeffs) == 1:
            # gcd 1: only the denominator's leading coefficient goes
            lead = den.coeffs[-1]
            if lead != 1:
                num = _qp(tuple(c / lead for c in num.coeffs))
                den = _qp(tuple(c / lead for c in den.coeffs))
        else:
            # num/den = (cn·pn·dd) / (cd·pd·nd) with pn, pd primitive in Z[q]
            (pn, cn, nd), (pd, cd, dd) = _split(num.coeffs), _split(den.coeffs)
            _, pn, pd = _prim_gcd(pn, pd)
            lead = pd[-1]
            num = _qp(_scaled(pn, cn * dd, lead * cd * nd))
            den = _qp(_scaled(pd, 1, lead))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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
        return cls(QPolynomial.constant(c))

    @classmethod
    def from_poly(cls, p: QPolynomial) -> "QRationalFn":
        return cls(p)

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

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.is_one()

    def as_fraction(self) -> Fraction:
        if not self.den.is_one() or self.num.degree > 0:
            raise ValueError(f"not a constant: {self}")
        return self.num.coefficient(0)

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash(("QRationalFn", self.num.coeffs, self.den.coeffs))

    # -- field operations ------------------------------------------------------

    def __add__(self, other) -> "QRationalFn":
        other = _coerce_ratfn(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # lcm denominator keeps the reduction gcd small
        parts = _coprime_parts(self.den, other.den)
        if parts is not None:
            da, db = parts
            num = self.num * db + other.num * da
            den = da * other.den
        else:
            num = self.num * other.den + other.num * self.den
            den = self.den * other.den
        return QRationalFn(num, den)

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
        if self.is_zero() or other.is_zero():
            return _QR_ZERO
        # cross-reduce before multiplying to keep degrees down; the product is
        # then canonical as it stands: a_num and b_num are coprime to both
        # a_den and b_den, and those are monic (monic denominators divided by
        # monic gcds), so no gcd is left to take
        a_num, b_den = _coprime_parts(self.num, other.den) or (self.num, other.den)
        b_num, a_den = _coprime_parts(other.num, self.den) or (other.num, self.den)
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
            return self.reciprocal() ** (-n)
        result = _QR_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- analysis ---------------------------------------------------------------

    def taylor(self, order: int) -> "QSeries":
        """Maclaurin expansion to the given order; requires den(0) != 0."""
        if order < 0:
            raise ValueError("order must be >= 0")
        d0 = self.den.coefficient(0)
        if d0 == 0:
            raise ValueError("pole at q=0: denominator has zero constant term")
        cs: list[Fraction] = []
        for n in range(order):
            acc = self.num.coefficient(n)
            for i in range(1, n + 1):
                di = self.den.coefficient(i)
                if di != 0:
                    acc -= di * cs[n - i]
            cs.append(acc / d0)
        return QSeries(order, cs)

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

    def to_json(self) -> dict:
        return {"num": self.num.to_pairs(), "den": self.den.to_pairs()}

    @classmethod
    def from_json(cls, data: dict) -> "QRationalFn":
        return cls(QPolynomial.from_pairs(data["num"]), QPolynomial.from_pairs(data["den"]))

    @classmethod
    def parse(cls, text: str) -> "QRationalFn":
        return parse_ratfn(text)


def _coerce_ratfn(x):
    if isinstance(x, QRationalFn):
        return x
    if isinstance(x, QPolynomial):
        return QRationalFn(x)
    if isinstance(x, (int, Fraction)):
        return QRationalFn.from_fraction(x)
    return NotImplemented


def _qr(num: QPolynomial, den: QPolynomial) -> QRationalFn:
    """A QRationalFn on a pair that is already canonical (coprime, den monic)."""
    r = QRationalFn.__new__(QRationalFn)
    object.__setattr__(r, "num", num)
    object.__setattr__(r, "den", den)
    return r


_QR_ZERO = _qr(_QP_ZERO, _QP_ONE)
_QR_ONE = _qr(_QP_ONE, _QP_ONE)
_QR_Q = _qr(_QP_Q, _QP_ONE)


# ---------------------------------------------------------------------------
# QSeries
# ---------------------------------------------------------------------------


class QSeries:
    """Truncated power series in q: coefficients for q^0 .. q^(order-1).

    Binary operations return a series at the min of the operand orders; the
    truncation order is part of the value, so accuracy never silently grows.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[_Scalar] = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [_as_fraction(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs.extend(Fraction(0) for _ in range(order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "QSeries":
        return cls(order, (1,) if order > 0 else ())

    @classmethod
    def zero(cls, order: int) -> "QSeries":
        return cls(order)

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond series order {self.order}")
        return self.coeffs[n]

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        if isinstance(other, QSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("QSeries", self.order, self.coeffs))

    def truncate(self, order: int) -> "QSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return QSeries(order, self.coeffs[:order])

    def __add__(self, other) -> "QSeries":
        other = _coerce_series(other, self.order)
        n = min(self.order, other.order)
        return QSeries(n, tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    __radd__ = __add__

    def __neg__(self) -> "QSeries":
        return QSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QSeries":
        return self + (-_coerce_series(other, self.order))

    def __rsub__(self, other) -> "QSeries":
        return _coerce_series(other, self.order) - self

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return QSeries(self.order, tuple(c * x for x in self.coeffs))
        other = _coerce_series(other, self.order)
        n = min(self.order, other.order)
        cs = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a == 0:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if b != 0:
                    cs[i + j] += a * b
        return QSeries(n, cs)

    __rmul__ = __mul__

    def reciprocal(self) -> "QSeries":
        if self.order == 0:
            return self
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("reciprocal of a series with zero constant term")
        cs = [1 / c0]
        for n in range(1, self.order):
            acc = Fraction(0)
            for i in range(1, n + 1):
                ci = self.coeffs[i] if i < self.order else Fraction(0)
                if ci != 0:
                    acc += ci * cs[n - i]
            cs.append(-acc / c0)
        return QSeries(self.order, cs)

    def __truediv__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return QSeries(self.order, tuple(x / c for x in self.coeffs))
        other = _coerce_series(other, self.order)
        return self * other.reciprocal()

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


def _coerce_series(x, order: int) -> QSeries:
    if isinstance(x, QSeries):
        return x
    if isinstance(x, (int, Fraction)):
        return QSeries(order, (x,) if order > 0 else ())
    if isinstance(x, QPolynomial):
        return QSeries(order, x.coeffs[:order])
    raise TypeError(f"cannot combine QSeries with {type(x).__name__}")


# ---------------------------------------------------------------------------
# formatting and parsing
# ---------------------------------------------------------------------------


def format_poly(coeffs: Sequence[Fraction], var: str = "q") -> str:
    """Ascending-power string like '1 - 2*q + q^2'; '0' for the zero polynomial."""
    terms: list[str] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            pw = var if k == 1 else f"{var}^{k}"
            body = pw if mag == 1 else f"{mag}*{pw}"
        if not terms:
            terms.append(f"-{body}" if c < 0 else body)
        else:
            terms.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(terms) if terms else "0"


# deepest nesting of parentheses and unary signs the parser accepts; each level
# costs a few Python frames, so this stays well inside the recursion limit
_MAX_NESTING = 100
# largest |n| the parser accepts in x^n: `jfrac expand --a q^256 --b q^2 --h 4`
# takes about 1 s, and the cost grows 4-7x with each doubling of the exponent
_MAX_EXPONENT = 256


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def take_int(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ValueError(f"expected an integer at position {start} in {self.text!r}")
        return int(self.text[start : self.pos])


def parse_ratfn(text: str) -> QRationalFn:
    """Parse a rational-function expression in q.

    Grammar: integers, the variable q, and the operators + - * / ^ with
    parentheses; ^ takes an (optionally negative) integer exponent.  Input
    nested deeper than _MAX_NESTING parentheses and unary signs, or an
    exponent above _MAX_EXPONENT in absolute value, raises ValueError.
    """
    tok = _Tokenizer(text)
    value = _parse_sum(tok)
    if tok.peek():
        raise ValueError(f"trailing input at position {tok.pos} in {text!r}")
    return value


def _parse_sum(tok: _Tokenizer) -> QRationalFn:
    value = _parse_product(tok)
    while True:
        ch = tok.peek()
        if ch == "+":
            tok.take()
            value = value + _parse_product(tok)
        elif ch == "-":
            tok.take()
            value = value - _parse_product(tok)
        else:
            return value


def _parse_product(tok: _Tokenizer) -> QRationalFn:
    value = _parse_unary(tok)
    while True:
        ch = tok.peek()
        if ch == "*":
            tok.take()
            value = value * _parse_unary(tok)
        elif ch == "/":
            tok.take()
            value = value / _parse_unary(tok)
        else:
            return value


def _parse_unary(tok: _Tokenizer) -> QRationalFn:
    # every nesting level, a parenthesis or a unary sign, passes through here
    if tok.depth > _MAX_NESTING:
        raise ValueError(f"expression nested deeper than {_MAX_NESTING} levels at position {tok.pos}")
    tok.depth += 1
    if tok.peek() == "-":
        tok.take()
        value = -_parse_unary(tok)
    elif tok.peek() == "+":
        tok.take()
        value = _parse_unary(tok)
    else:
        value = _parse_power(tok)
    tok.depth -= 1
    return value


def _parse_power(tok: _Tokenizer) -> QRationalFn:
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.take()
        sign = 1
        if tok.peek() == "-":
            tok.take()
            sign = -1
        exp = sign * tok.take_int()
        if abs(exp) > _MAX_EXPONENT:
            raise ValueError(f"exponent {exp} exceeds {_MAX_EXPONENT} in absolute value")
        return base ** exp
    return base


def _parse_atom(tok: _Tokenizer) -> QRationalFn:
    ch = tok.peek()
    if ch == "(":
        tok.take()
        value = _parse_sum(tok)
        if tok.peek() != ")":
            raise ValueError(f"missing ')' at position {tok.pos}")
        tok.take()
        return value
    if ch == "q":
        tok.take()
        return QRationalFn.q()
    if ch.isdigit():
        return QRationalFn.from_fraction(tok.take_int())
    raise ValueError(f"unexpected character {ch!r} at position {tok.pos}")
