"""Divisor-function and sums-of-divisors generating functions built on the
(q, q^2) J-fraction: each table series together with the single reduced
rational function that generates it (`generating_series`), and the table
that `divisor table` prints, plain or modulo an integer (`table`).

Conventions.  The depth-h convergent C_h(q, z) has [z^n] C_h = (1-q)/(1-q^(n+1))
for n < 2h, so q*C_h(q, q)/(1-q) = sum over m >= 1 of q^m/(1-q^m) + error terms,
i.e. the Lambert series of the divisor function.  The generator for the weight
n^alpha is the Stirling-number derivative transform

    sum_n n^alpha f_n z^n = sum_j S(alpha, j) z^j F^(j)(z)

of H(z) = z*C_h(q, z), evaluated at z = q and divided by (1-q); that builds in
the weight exactly and needs no shift afterwards.  At alpha = 0 the divisor
series is 1 + q*C_h(q,q)/(1-q), whose coefficient at q^n is d(n) inside the
accuracy window (the constant 1 is an artifact of the scaling, and tables
start at n = 1).

Only H and its first alpha derivatives at z = q enter, so P_h and Q_h are never
built as polynomials in z: the convergent recurrence of the sequence layer,
sequences.convergent_pair, runs with z the jet q + t, a Taylor jet in t = z - q
truncated after t^alpha (ZSeries of order alpha + 1 over Q(q)), and
H^(j)(q) = j! [t^j] H(q + t).  Every alpha takes this one route.

Every table is an integer table.  With (a, b) = (q, q^2), each C-fraction
coefficient g_k of sequences.cfraction_coefficient is an integer polynomial
over a product of factors 1 - q^e with e >= 1, and so are c_i and ab_i; as
1/(1 - q^e) lies in Z[[q]], the recurrence runs in Z[[q]][t]/(t^(alpha+1)).
The t^0 coefficient of Q_h is Q_h(q, q), which is 1 mod q, since every term
of the recurrence but Q_(i-1) carries z c_i or z^2 ab_i, and z = q at t = 0;
so Q_h is a unit of that ring and H = z*P_h/Q_h is integral.  The transform
multiplies [t^j] H by the integers S(alpha, j) j! and by q^j, and 1/(1-q) is
in Z[[q]] too: every Taylor coefficient of every generator is an integer.  By
Fatou's lemma (1906) a rational function with integer Taylor coefficients is
N/D with N, D in Z[q] and D(0) = 1, so the primitive part of the reduced
denominator has constant term +-1, and QRationalFn.taylor expands it on
integers alone.

Coefficients with 1 <= n < h are certified by the convergent accuracy theorem;
those with h <= n < 2h hold by the (everywhere-tested) 2h-window and are
flagged as empirical; anything beyond is untrusted.
"""

from __future__ import annotations

from math import factorial
from typing import Optional

from .exact import QRationalFn, QSeries
from .sequences import convergent_pair, divisor_spec
from .zalgebra import ZSeries

_ONE = QRationalFn.one()
_ZERO = QRationalFn.zero()
_Q = QRationalFn.q()


def _stirling2_row(alpha: int) -> list[int]:
    """S(alpha, 0..alpha), Stirling numbers of the second kind, from
    S(n,k) = k S(n-1,k) + S(n-1,k-1) with S(0,0) = 1."""
    row = [1]
    for n in range(1, alpha + 1):
        row = [0] + [k * row[k] + row[k - 1] for k in range(1, n)] + [row[n - 1]]
    return row


def _transform_at_q(H: ZSeries, alpha: int) -> QRationalFn:
    """sum_j S(alpha,j) q^j H^(j)(q), read off the jet of H at z = q."""
    total = _ZERO
    for j, s in enumerate(_stirling2_row(alpha)):
        if s:
            total = total + (s * factorial(j)) * QRationalFn.qpow(j) * H[j]
    return total


def _generator(alpha: int, h: int) -> QRationalFn:
    """The reduced one-variable generating function for weight n^alpha at depth h."""
    z = ZSeries(alpha + 1, (_Q, _ONE)[: alpha + 1])  # z = q + t
    spec = divisor_spec()
    jets: list[tuple[ZSeries, ZSeries]] = []
    for i in range(h + 1):
        jets.append(convergent_pair(spec, z, i, jets))
    P, Q = jets[h]
    gen = _transform_at_q(z * P / Q, alpha) / (_ONE - _Q)
    return _ONE + gen if alpha == 0 else gen


def generating_series(alpha: int, h: int, order: int) -> tuple[QRationalFn, QSeries]:
    """(generator, series) for weight n^alpha at depth h: the reduced rational
    function and its expansion to `order` terms, [q^n] = sigma_alpha(n) inside
    the window (d(n) at alpha = 0, whose series keeps the constant-1
    artifact)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if h < 2:
        raise ValueError("h must be >= 2")
    if order < 1:
        raise ValueError("order must be >= 1")
    gen = _generator(alpha, h)
    return gen, gen.taylor(order)


def table(alpha: int, h: int, order: int, modulus: Optional[int] = None) -> tuple[dict, tuple[str, ...]]:
    """The qjfrac/divisor-table/1 payload of generating_series(alpha, h, order),
    and the keys of each of its rows, in order (the csv columns).

    The payload carries the generator, or the modulus when there is one, and
    one row per coefficient 1 <= n < order: its value and window flags.  The
    value is the integer coefficient, or with a modulus p its residue mod p.
    The `flagged` column of a residue table is always false: every
    coefficient is an integer (see the module docstring), and the column
    stays so that the schema does not change.  A coefficient that is not an
    integer would contradict that proof and raises ArithmeticError."""
    if modulus is not None and modulus < 2:
        raise ValueError("modulus must be >= 2")
    gen, series = generating_series(alpha, h, order)
    payload = {"schema": "qjfrac/divisor-table/1", "alpha": alpha, "h": h}
    columns = ("n", "value", "certified", "empirical")
    if modulus is None:
        payload["generator"] = str(gen)
    else:
        payload["modulus"] = modulus
        columns += ("flagged",)
    rows = []
    for n in range(1, series.order):
        c = series[n]
        if c.denominator != 1:
            raise ArithmeticError(f"coefficient {n} of the divisor series is {c}, not an integer")
        value = str(c) if modulus is None else c.numerator % modulus
        # zip drops the trailing flagged of a plain table's row
        rows.append(dict(zip(columns, (n, value, n < h, h <= n < 2 * h, False))))
    payload["rows"] = rows
    return payload, columns
