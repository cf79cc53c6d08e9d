"""The expression parser for rational functions of q, as the CLI reads them.

Kept out of `exact` so that a command that parses no argument compiles none
of it; `QRationalFn.parse` imports it on first use.
"""

from __future__ import annotations

from .exact import QRationalFn

# deepest nesting of parentheses and unary signs the parser accepts; each level
# costs a few Python frames, so this stays well inside the recursion limit
_MAX_NESTING = 100
# largest |n| the parser accepts in x^n: `jfrac expand --a q^256 --b q^2 --h 4`
# takes about 1 s, and the cost grows 4-7x with each doubling of the exponent
_MAX_EXPONENT = 256
# largest degree (of the numerator or the denominator) of any value the parser
# builds, so that nested powers and chains of products stay inside the same
# budget: `--a "q^256*q^256"` took 4.2 s in the command above
_MAX_DEGREE = 256
# largest bit length of any coefficient numerator or denominator of a value the
# parser builds, so that nested powers and chains of products stay small too:
# `((2^256)^256)^256` had 2^24 bits, and one more ^256 would have built 2^32.
# The joint caps admit a value this large only at the smallest depths, where
# printing it is most of the cost: `jfrac expand --h 0` takes 0.2 s with one
# 2^18-bit constant (0.4 s with two), and 3.5 s with one of 2^20 bits
_MAX_BITS = 2**18


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
    nested deeper than _MAX_NESTING parentheses and unary signs, an exponent
    above _MAX_EXPONENT in absolute value, or a value of degree above
    _MAX_DEGREE or with coefficients above _MAX_BITS bits raises ValueError.
    """
    tok = _Tokenizer(text)
    value = _parse_sum(tok)
    if tok.peek():
        raise ValueError(f"trailing input at position {tok.pos} in {text!r}")
    return value


def _degree(value: QRationalFn) -> int:
    return max(value.num.degree, value.den.degree)


def coefficient_bits(value: QRationalFn) -> int:
    """The bit length of the largest coefficient numerator or denominator of
    value's numerator and denominator."""
    cs = [c for c in value.num.coeffs + value.den.coeffs if c]
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in cs)


def _check_bits(bits: int) -> None:
    if bits > _MAX_BITS:
        raise ValueError(f"coefficient size {bits} bits exceeds {_MAX_BITS}")


def _bounded(value: QRationalFn) -> QRationalFn:
    degree = _degree(value)
    if degree > _MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds {_MAX_DEGREE}")
    _check_bits(coefficient_bits(value))
    return value


def _parse_sum(tok: _Tokenizer) -> QRationalFn:
    value = _parse_product(tok)
    while True:
        ch = tok.peek()
        if ch == "+":
            tok.take()
            value = _bounded(value + _parse_product(tok))
        elif ch == "-":
            tok.take()
            value = _bounded(value - _parse_product(tok))
        else:
            return value


def _parse_product(tok: _Tokenizer) -> QRationalFn:
    value = _parse_unary(tok)
    while True:
        ch = tok.peek()
        if ch == "*":
            tok.take()
            value = _bounded(value * _parse_unary(tok))
        elif ch == "/":
            tok.take()
            value = _bounded(value / _parse_unary(tok))
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
        degree = _degree(base) * abs(exp)
        if degree > _MAX_DEGREE:
            raise ValueError(f"degree {degree} exceeds {_MAX_DEGREE}")
        # checked before the power is built, and again on its exact size
        _check_bits(coefficient_bits(base) * abs(exp))
        return _bounded(base ** exp)
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
