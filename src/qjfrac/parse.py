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
    _MAX_DEGREE raises ValueError.
    """
    tok = _Tokenizer(text)
    value = _parse_sum(tok)
    if tok.peek():
        raise ValueError(f"trailing input at position {tok.pos} in {text!r}")
    return value


def _degree(value: QRationalFn) -> int:
    return max(value.num.degree, value.den.degree)


def _bounded(value: QRationalFn) -> QRationalFn:
    degree = _degree(value)
    if degree > _MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds {_MAX_DEGREE}")
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
