"""Divisor-function and sums-of-divisors generating functions built on the
(q, q^2) J-fraction: each table series together with the single reduced
rational function that generates it, and its table rows, plain or modulo an
integer.

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
built as polynomials in z: the three-term convergent recurrence runs on Taylor
jets in t = z - q truncated after t^alpha (ZSeries of order alpha + 1 over
Q(q)), and H^(j)(q) = j! [t^j] H(q + t).  Every alpha takes this one route.

Coefficients with 1 <= n < h are certified by the convergent accuracy theorem;
those with h <= n < 2h hold by the (everywhere-tested) 2h-window and are
flagged as empirical; anything beyond is untrusted.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Optional

from .exact import QRationalFn, QSeries
from .sequences import divisor_spec
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


class DivisorGFRequest:
    """Parameters of one generating-function computation."""

    __slots__ = ("alpha", "h", "order", "modulus")

    def __init__(self, alpha: int, h: int, order: int, modulus: Optional[int] = None):
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        if h < 2:
            raise ValueError("h must be >= 2")
        if order < 1:
            raise ValueError("order must be >= 1")
        if modulus is not None and modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.alpha = alpha
        self.h = h
        self.order = order
        self.modulus = modulus

    @property
    def certified_below(self) -> int:
        """Coefficients 1 <= n < h are theorem-certified."""
        return self.h

    @property
    def empirical_below(self) -> int:
        """Coefficients h <= n < 2h hold on the tested window, flagged empirical."""
        return 2 * self.h


class GFResult:
    __slots__ = ("request", "series", "generator")

    def __init__(
        self,
        request: DivisorGFRequest,
        series: QSeries,
        generator: QRationalFn,  # the reduced rational function whose expansion is `series`
    ):
        self.request = request
        self.series = series
        self.generator = generator

    @property
    def columns(self) -> tuple[str, ...]:
        """The keys of each row, in order; a modulus adds `flagged`."""
        cols = ("n", "value", "certified", "empirical")
        return cols if self.request.modulus is None else cols + ("flagged",)

    def rows(self) -> list[dict]:
        """One row per coefficient 1 <= n < order: its value and window flags.

        With a modulus p the value is the residue mod p, unless the
        coefficient's reduced denominator shares a factor with p: then it has
        no inverse mod p, and the row keeps the exact rational and is flagged."""
        req = self.request
        p = req.modulus
        out = []
        for n in range(1, self.series.order):
            c = self.series[n]
            row = [n, str(c), n < req.certified_below, req.certified_below <= n < req.empirical_below]
            if p is not None:
                flagged = gcd(c.denominator, p) > 1
                if not flagged:
                    row[1] = c.numerator * pow(c.denominator, -1, p) % p
                row.append(flagged)
            out.append(dict(zip(self.columns, row)))
        return out


def _z_jet(alpha: int) -> ZSeries:
    """z = q + t as a Taylor jet in t truncated after t^alpha."""
    return ZSeries(alpha + 1, (_Q, _ONE)[: alpha + 1])


def _convergent_jets(z: ZSeries, h: int) -> list[tuple[ZSeries, ZSeries]]:
    """(P_i, Q_i) of the divisor spec for 0 <= i <= h as jets in t, from the
    recurrence of jfraction.convergent_pairs with z replaced by its jet."""
    spec = divisor_spec()
    zero, one = ZSeries(z.order), ZSeries.one(z.order)
    jets = [(zero, one), (one, 1 - z * spec.c(1))]
    z2 = z * z
    for i in range(2, h + 1):
        lin = 1 - z * spec.c(i)
        ab_z2 = z2 * spec.ab(i)
        (P2, Q2), (P1, Q1) = jets[-2], jets[-1]
        jets.append((lin * P1 - ab_z2 * P2, lin * Q1 - ab_z2 * Q2))
    return jets


def _transform_at_q(H: ZSeries, alpha: int) -> QRationalFn:
    """sum_j S(alpha,j) q^j H^(j)(q), read off the jet of H at z = q."""
    total = _ZERO
    for j, s in enumerate(_stirling2_row(alpha)):
        if s:
            total = total + (s * factorial(j)) * QRationalFn.qpow(j) * H[j]
    return total


def _generator(alpha: int, h: int) -> QRationalFn:
    """The reduced one-variable generating function for weight n^alpha at depth h."""
    z = _z_jet(alpha)
    P, Q = _convergent_jets(z, h)[h]
    gen = _transform_at_q(z * P / Q, alpha) / (_ONE - _Q)
    return _ONE + gen if alpha == 0 else gen


def generating_series(req: DivisorGFRequest) -> GFResult:
    """The request's series, [q^n] = sigma_alpha(n) inside the window (d(n) at
    alpha = 0, whose series keeps the constant-1 artifact), together with the
    reduced rational function that it expands."""
    gen = _generator(req.alpha, req.h)
    return GFResult(req, gen.taylor(req.order), gen)
