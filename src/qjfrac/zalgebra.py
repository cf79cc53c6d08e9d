"""Polynomials, truncated series, and unreduced fractions in z over Q(q).

The coefficient field is QRationalFn, so everything here is exact.  ZFraction
deliberately performs no gcd reduction: identity checks clear denominators and
compare polynomials instead, which avoids bivariate gcd entirely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .exact import QPolynomial, QRationalFn

_Coeff = Union[int, Fraction, QPolynomial, QRationalFn]


def _as_ratfn(x: _Coeff) -> QRationalFn:
    if isinstance(x, QRationalFn):
        return x
    if isinstance(x, QPolynomial):
        return QRationalFn(x)
    if isinstance(x, (int, Fraction)):
        return QRationalFn.from_fraction(x)
    raise TypeError(f"expected a Q(q) coefficient, got {type(x).__name__}")


_ZERO = QRationalFn.zero()
_ONE = QRationalFn.one()


class ZPolynomial:
    """Dense polynomial in z with QRationalFn coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_Coeff] = ()):
        cs = [_as_ratfn(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ZPolynomial is immutable")

    @classmethod
    def zero(cls) -> "ZPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "ZPolynomial":
        return cls((_ONE,))

    @classmethod
    def constant(cls, c: _Coeff) -> "ZPolynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: _Coeff = 1) -> "ZPolynomial":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return cls((_ZERO,) * k + (_as_ratfn(c),))

    @classmethod
    def linear_factor(cls, c: QRationalFn) -> "ZPolynomial":
        """The factor 1 - c*z."""
        return cls((_ONE, -c))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> QRationalFn:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, ZPolynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, QPolynomial, QRationalFn)):
            return self == ZPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ZPolynomial", self.coeffs))

    def __add__(self, other) -> "ZPolynomial":
        other = _coerce_zpoly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            cs[i] = cs[i] + c
        return ZPolynomial(cs)

    __radd__ = __add__

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "ZPolynomial":
        return self + (-_coerce_zpoly(other))

    def __rsub__(self, other) -> "ZPolynomial":
        return _coerce_zpoly(other) - self

    def __mul__(self, other) -> "ZPolynomial":
        if isinstance(other, (int, Fraction, QPolynomial, QRationalFn)):
            c = _as_ratfn(other)
            if c.is_zero():
                return ZPolynomial()
            return ZPolynomial(tuple(c * x for x in self.coeffs))
        other = _coerce_zpoly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPolynomial()
        cs = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                if not cb.is_zero():
                    cs[i + j] = cs[i + j] + ca * cb
        return ZPolynomial(cs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ZPolynomial":
        if n < 0:
            raise ValueError("negative power of a ZPolynomial")
        result = ZPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def shift(self, k: int) -> "ZPolynomial":
        """Multiply by z**k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
        if not self.coeffs:
            return self
        return ZPolynomial((_ZERO,) * k + self.coeffs)

    def derivative(self) -> "ZPolynomial":
        return ZPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1))

    def evaluate(self, zval: _Coeff) -> QRationalFn:
        zval = _as_ratfn(zval)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * zval + c
        return acc

    def series(self, order: int) -> "ZSeries":
        return ZSeries(order, self.coeffs[:order])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"{c}")
            elif k == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ZPolynomial({str(self)!r})"


def _coerce_zpoly(x) -> ZPolynomial:
    if isinstance(x, ZPolynomial):
        return x
    if isinstance(x, (int, Fraction, QPolynomial, QRationalFn)):
        return ZPolynomial.constant(x)
    raise TypeError(f"cannot combine ZPolynomial with {type(x).__name__}")


class ZSeries:
    """Truncated power series in z over Q(q); length always equals order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[_Coeff] = ()):
        if order < 0:
            raise ValueError("order must be >= 0")
        cs = [_as_ratfn(c) for c in coeffs]
        if len(cs) > order:
            raise ValueError("more coefficients than the stated order")
        cs.extend(_ZERO for _ in range(order - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ZSeries is immutable")

    @classmethod
    def one(cls, order: int) -> "ZSeries":
        return cls(order, (_ONE,) if order > 0 else ())

    def __getitem__(self, n: int) -> QRationalFn:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} beyond series order {self.order}")
        return self.coeffs[n]

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        if isinstance(other, ZSeries):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("ZSeries", self.order, self.coeffs))

    def truncate(self, order: int) -> "ZSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return ZSeries(order, self.coeffs[:order])

    def __add__(self, other) -> "ZSeries":
        other = _coerce_zseries(other, self.order)
        n = min(self.order, other.order)
        return ZSeries(n, tuple(a + b for a, b in zip(self.coeffs[:n], other.coeffs[:n])))

    __radd__ = __add__

    def __neg__(self) -> "ZSeries":
        return ZSeries(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "ZSeries":
        return self + (-_coerce_zseries(other, self.order))

    def __rsub__(self, other) -> "ZSeries":
        return _coerce_zseries(other, self.order) - self

    def __mul__(self, other) -> "ZSeries":
        if isinstance(other, (int, Fraction, QPolynomial, QRationalFn)):
            c = _as_ratfn(other)
            return ZSeries(self.order, tuple(c * x for x in self.coeffs))
        other = _coerce_zseries(other, self.order)
        n = min(self.order, other.order)
        cs = [_ZERO] * n
        for i in range(n):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not b.is_zero():
                    cs[i + j] = cs[i + j] + a * b
        return ZSeries(n, cs)

    __rmul__ = __mul__

    def reciprocal(self) -> "ZSeries":
        """1/self; requires a nonzero constant term."""
        if self.order == 0:
            return self
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise ZeroDivisionError("reciprocal of a series with zero constant term")
        inv0 = c0.reciprocal()
        cs = [inv0]
        for n in range(1, self.order):
            acc = _ZERO
            for i in range(1, n + 1):
                ci = self.coeffs[i]
                if not ci.is_zero():
                    acc = acc + ci * cs[n - i]
            cs.append(-acc * inv0)
        return ZSeries(self.order, cs)

    def __truediv__(self, other) -> "ZSeries":
        if isinstance(other, (int, Fraction, QPolynomial, QRationalFn)):
            c = _as_ratfn(other)
            if c.is_zero():
                raise ZeroDivisionError("division by zero")
            inv = c.reciprocal()
            return ZSeries(self.order, tuple(x * inv for x in self.coeffs))
        other = _coerce_zseries(other, self.order)
        return self * other.reciprocal()

    def divide_z(self) -> "ZSeries":
        """Divide by z; the constant term must be zero.  Drops one order."""
        if self.order == 0:
            return self
        if not self.coeffs[0].is_zero():
            raise ValueError("series not divisible by z (nonzero constant term)")
        return ZSeries(self.order - 1, self.coeffs[1:])

    def __str__(self) -> str:
        parts = [f"({c})*z^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order})"

    def __repr__(self) -> str:
        return f"ZSeries({self.order}, [{', '.join(str(c) for c in self.coeffs)}])"


def _coerce_zseries(x, order: int) -> ZSeries:
    if isinstance(x, ZSeries):
        return x
    if isinstance(x, ZPolynomial):
        return x.series(order)
    if isinstance(x, (int, Fraction, QPolynomial, QRationalFn)):
        return ZSeries(order, (x,) if order > 0 else ())
    raise TypeError(f"cannot combine ZSeries with {type(x).__name__}")


class ZFraction:
    """Unreduced quotient of two ZPolynomials.

    Used wherever a sum of rational functions in z must stay exact without a
    bivariate gcd: equality goes through cross-multiplication, expansion
    through series division.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: ZPolynomial, den: ZPolynomial = None):
        if den is None:
            den = ZPolynomial.one()
        if den.is_zero():
            raise ZeroDivisionError("ZFraction with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("ZFraction is immutable")

    @classmethod
    def zero(cls) -> "ZFraction":
        return cls(ZPolynomial.zero())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "ZFraction") -> "ZFraction":
        if not isinstance(other, ZFraction):
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        return ZFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "ZFraction") -> "ZFraction":
        return self + ZFraction(-other.num, other.den)

    def equals(self, other: "ZFraction") -> bool:
        """Exact equality by cross-multiplication."""
        return self.num * other.den == other.num * self.den

    def series(self, order: int) -> ZSeries:
        return self.num.series(order) * self.den.series(order).reciprocal()

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"ZFraction({self.num!r}, {self.den!r})"
