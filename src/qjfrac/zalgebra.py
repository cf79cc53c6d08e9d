"""Polynomials and truncated series in z over Q(q).

The coefficient field is QRationalFn, so everything here is exact.  ZSeries
is the exact.TruncatedSeries over that field, plus `divide_z`.  There is no
fraction type in z: identity checks clear denominators and compare
polynomials instead, which avoids bivariate gcd entirely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

from .exact import QPolynomial, QRationalFn, TruncatedSeries, _coerce_ratfn, _power, _ratfn_convolution

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
        if isinstance(other, _SCALARS):
            c = _as_ratfn(other)
            if c.is_zero():
                return ZPolynomial()
            return ZPolynomial(tuple(c * x for x in self.coeffs))
        other = _coerce_zpoly(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZPolynomial()
        terms = [(i, x) for i, x in enumerate(a) if x]
        ys = [y if y else None for y in b] + [None] * (len(a) - 1)
        sums = [_ratfn_convolution(terms, ys, k) for k in range(len(ys))]
        return ZPolynomial([_ZERO if s is None else s for s in sums])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ZPolynomial":
        if n < 0:
            raise ValueError("negative power of a ZPolynomial")
        return _power(self, n, ZPolynomial.one())

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


def linear_step(row: Sequence[QRationalFn], c: QRationalFn) -> list[QRationalFn]:
    """The coefficients of (1 - c z) times the polynomial with coefficients
    row: r_k - c r_(k-1), the row step of the Stirling q-triangle.  A zero
    top coefficient is kept, so a triangle row always has h + 1 entries."""
    if not row:
        return []
    out = [row[0]]
    for k in range(1, len(row)):
        out.append(row[k] - c * row[k - 1])
    out.append(-(c * row[-1]))
    return out


def linear_product(cs: Iterable[QRationalFn], w: _Coeff = _ONE) -> ZPolynomial:
    """w (1 - c_1 z)(1 - c_2 z)... over the c_i of cs, by linear_step."""
    row = [_as_ratfn(w)]
    for c in cs:
        row = linear_step(row, c)
    return ZPolynomial(row)


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

