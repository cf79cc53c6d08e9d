"""Polynomials and truncated series in z over Q(q).

The coefficient field is QRationalFn, so everything here is exact.  ZSeries
is the exact.TruncatedSeries over that field, plus `divide_z`.  There is no
fraction type in z: identity checks clear denominators and compare
polynomials instead, which avoids bivariate gcd entirely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from .exact import QPolynomial, QRationalFn, TruncatedSeries, _coerce_ratfn, _new, _power, _ratfn_convolution

_Coeff = Union[int, Fraction, QPolynomial, QRationalFn]
_SCALARS = (int, Fraction, QPolynomial, QRationalFn)


def _as_ratfn(x: _Coeff) -> QRationalFn:
    r = _coerce_ratfn(x)
    if r is NotImplemented:
        raise TypeError(f"expected a Q(q) coefficient, got {type(x).__name__}")
    return r


_ZERO = QRationalFn.zero()
_ONE = QRationalFn.one()


class ZPolynomial:
    """Dense polynomial in z with QRationalFn coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[_Coeff] = ()):
        cs = [c if type(c) is QRationalFn else _as_ratfn(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        _set_coeffs(self, tuple(cs))

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
        if isinstance(other, _SCALARS):
            return self == ZPolynomial.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals, so hashes like, its coefficient
        if len(self.coeffs) <= 1:
            return hash(self.coefficient(0))
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
        a, b = self.coeffs, _coerce_zpoly(other).coeffs
        if not a or not b:
            return ZPolynomial()
        terms = [(i, x) for i, x in enumerate(a) if x]
        ys = [y if y else None for y in b] + [None] * (len(a) - 1)
        sums = [_ratfn_convolution(terms, ys, k) for k in range(len(ys))]
        # the top coefficient is the product of the operands' nonzero tops, so
        # the coefficients are taken as they are, with no coercion or strip
        p = _new(ZPolynomial)
        _set_coeffs(p, tuple([_ZERO if s is None else s for s in sums]))
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ZPolynomial":
        if n < 0:
            raise ValueError("negative power of a ZPolynomial")
        return _power(self, n, ZPolynomial.one())

    def shift(self, k: int) -> "ZPolynomial":
        """Multiply by z**k."""
        if k < 0:
            raise ValueError("shift must be >= 0")
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


_set_coeffs = ZPolynomial.coeffs.__set__


def _coerce_zpoly(x) -> ZPolynomial:
    if isinstance(x, ZPolynomial):
        return x
    if isinstance(x, _SCALARS):
        return ZPolynomial.constant(x)
    raise TypeError(f"cannot combine ZPolynomial with {type(x).__name__}")


class ZSeries(TruncatedSeries):
    """Truncated power series in z over Q(q); length always equals order."""

    __slots__ = ()
    _coerce = staticmethod(_as_ratfn)
    _zero = _ZERO
    _one = _ONE
    _dot = staticmethod(_ratfn_convolution)
    _scalars = _SCALARS
    _poly = ZPolynomial

    def divide_z(self) -> "ZSeries":
        """Divide by z; the constant term must be zero.  Drops one order."""
        if self.order == 0:
            return self
        if not self.coeffs[0].is_zero():
            raise ValueError("series not divisible by z (nonzero constant term)")
        return self._make(self.order - 1, self.coeffs[1:])

    def __str__(self) -> str:
        parts = [f"({c})*z^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(z^{self.order})"

    def __repr__(self) -> str:
        return f"ZSeries({self.order}, [{', '.join(str(c) for c in self.coeffs)}])"

