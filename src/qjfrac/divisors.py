"""Divisor-function and sums-of-divisors generating functions built on the
(q, q^2) J-fraction, their single-rational-function approximants, residue
tables modulo an integer, and partial-sum series.

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

from math import factorial
from typing import Optional

from .exact import QRationalFn, QSeries
from .jfraction import (
    JFractionSpec,
    _poch_step,
    convergent_pairs,
    divisor_spec,
    lambda_modulus,
)
from .zalgebra import ZPolynomial, ZSeries

_ONE = QRationalFn.one()
_ZERO = QRationalFn.zero()
_Q = QRationalFn.q()


class Stirling2Table:
    """Stirling numbers of the second kind, S(n,k) = k S(n-1,k) + S(n-1,k-1)."""

    def __init__(self, n_max: int):
        rows = [[1]]
        for n in range(1, n_max + 1):
            prev = rows[-1]
            row = [0] * (n + 1)
            for k in range(1, n + 1):
                row[k] = k * (prev[k] if k <= n - 1 else 0) + prev[k - 1]
            rows.append(row)
        self._rows = rows

    def value(self, n: int, k: int) -> int:
        if n < 0 or k < 0 or k > n:
            return 0
        return self._rows[n][k]

    def row(self, n: int) -> list[int]:
        return list(self._rows[n])


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

    def rows(self) -> list[dict]:
        req = self.request
        out = []
        for n in range(1, self.series.order):
            c = self.series[n]
            out.append(
                {
                    "n": n,
                    "value": str(c.numerator) if c.denominator == 1 else str(c),
                    "certified": n < req.certified_below,
                    "empirical": req.certified_below <= n < req.empirical_below,
                }
            )
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
    table = Stirling2Table(alpha)
    total = _ZERO
    for j in range(alpha + 1):
        s = table.value(alpha, j)
        if s:
            total = total + (s * factorial(j)) * QRationalFn.qpow(j) * H[j]
    return total


def _generator(alpha: int, h: int) -> QRationalFn:
    """The reduced one-variable generating function for weight n^alpha at depth h."""
    z = _z_jet(alpha)
    P, Q = _convergent_jets(z, h)[h]
    gen = _transform_at_q(z * P / Q, alpha) / (_ONE - _Q)
    return _ONE + gen if alpha == 0 else gen


def divisor_gf(req: DivisorGFRequest) -> GFResult:
    """Divisor-count series: [q^n] = d(n) for 1 <= n inside the window, constant 1."""
    if req.alpha != 0:
        raise ValueError("divisor_gf is the alpha = 0 case; use sigma_gf")
    return generating_series(req)


def sigma_gf(req: DivisorGFRequest) -> GFResult:
    """Sums-of-divisors series: [q^n] = sigma_alpha(n) inside the window, [q^0] = 0."""
    if req.alpha < 1:
        raise ValueError("sigma_gf requires alpha >= 1; use divisor_gf")
    return generating_series(req)


def generating_series(req: DivisorGFRequest) -> GFResult:
    gen = _generator(req.alpha, req.h)
    return GFResult(req, gen.taylor(req.order), gen)


def rational_approximant(req: DivisorGFRequest) -> QRationalFn:
    """Single reduced rational function in q whose expansion is the request's series."""
    return _generator(req.alpha, req.h)


def partial_sums(req: DivisorGFRequest) -> GFResult:
    """Running totals: [q^x] = sum_{n <= x} sigma_alpha(n) inside the window.

    One extra 1/(1-q) factor over the plain series; the alpha = 0 case drops
    the constant-1 artifact first so that [q^0] = 0."""
    gen = _generator(req.alpha, req.h)
    if req.alpha == 0:
        gen = gen - _ONE
    gen = gen / (_ONE - _Q)
    return GFResult(req, gen.taylor(req.order), gen)


def congruence_table(req: DivisorGFRequest) -> list[dict]:
    """Rows of sigma_alpha(n) mod p (or d(n) mod p) over the request window.

    A coefficient whose reduced denominator is divisible by p cannot be read
    modulo p; such rows are flagged and keep the exact rational instead."""
    if req.modulus is None:
        raise ValueError("congruence_table requires a modulus")
    p = req.modulus
    result = generating_series(req)
    rows = []
    for n in range(1, result.series.order):
        c = result.series[n]
        row = {
            "n": n,
            "certified": n < req.certified_below,
            "empirical": req.certified_below <= n < req.empirical_below,
        }
        if c.denominator % p == 0:
            row["residue"] = None
            row["exact"] = str(c)
            row["flagged"] = True
        else:
            inv = pow(c.denominator, -1, p)
            row["residue"] = (c.numerator * inv) % p
            row["flagged"] = False
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the quadruple-sum block and its comparison against Q_j Q_{j+1}
# ---------------------------------------------------------------------------


class TildeDReport:
    """Comparison of the tabulated quadruple-sum denominator block against the
    product Q_j(q,z) Q_{j+1}(q,z) computed from the recurrence.

    `proportional_factor` is set when the two differ by a z-independent
    rational function of q only (measured, not asserted)."""

    __slots__ = ("j", "quad_sum", "product", "equal", "residual", "proportional_factor")

    def __init__(
        self,
        j: int,
        quad_sum: ZPolynomial,
        product: ZPolynomial,
        equal: bool,
        residual: ZPolynomial,
        proportional_factor: Optional[QRationalFn],
    ):
        self.j = j
        self.quad_sum = quad_sum
        self.product = product
        self.equal = equal
        self.residual = residual
        self.proportional_factor = proportional_factor

    def to_json(self) -> dict:
        return {
            "schema": "qjfrac/tilde-d/1",
            "j": self.j,
            "equal": self.equal,
            "proportional_factor": (
                str(self.proportional_factor) if self.proportional_factor is not None else None
            ),
            "quad_sum_degree": self.quad_sum.degree,
            "product_degree": self.product.degree,
        }


def tilde_D0j(j: int, spec: Optional[JFractionSpec] = None) -> TildeDReport:
    """Evaluate the four printed sum blocks verbatim and compare with Q_j Q_{j+1}.

    Block 1 pairs entries along the anti-diagonal sum(2j); blocks 2-4 weight
    triangle entries by series coefficients of the nested sums.  The display
    is internally garbled (the comparison documents how far it lands from the
    denominator block it is said to restate), so this is a measurement, never
    an assertion."""
    if j < 1:
        raise ValueError("j must be >= 1")
    from .stirling import NestedSumSpec, StirlingQTriangle, nested_sum

    if spec is None:
        spec = divisor_spec()
    tri = StirlingQTriangle.from_spec(spec, j + 1)
    order = 2 * j + 2

    series: dict[tuple[int, int, int], ZSeries] = {}

    def s_series(h: int, m: int, s: int) -> ZSeries:
        key = (h, m, s)
        if key not in series:
            series[key] = nested_sum(spec, NestedSumSpec(h, m, s)).series(order)
        return series[key]

    coeffs = [_ZERO] * (2 * j + 2)

    # block 1: sum_{n=0}^{2j} entry(j+1, n) entry(j, 2j-n) z^n
    for n in range(0, 2 * j + 1):
        coeffs[n] = coeffs[n] + tri.entry(j + 1, n) * tri.entry(j, 2 * j - n)

    # block 2: double-(m, s, k) cross terms
    for n in range(0, 2 * j + 2):
        acc = _ZERO
        for m1 in range(1, j // 2 + 1):
            for m2 in range(1, (j + 1) // 2 + 1):
                for s1 in range(1, m1 * j + 1):
                    ser1 = s_series(j, m1, s1)
                    for s2 in range(1, m2 * (j + 1) + 1):
                        ser2 = s_series(j + 1, m2, s2)
                        for k1 in range(1, s1 + 1):
                            if not (0 <= k1 - 2 * m1 < order):
                                continue
                            c1 = ser1[k1 - 2 * m1]
                            if c1.is_zero():
                                continue
                            e1 = tri.entry(j, 2 * j + 1 - n - k1)
                            if e1.is_zero():
                                continue
                            for k2 in range(1, s2 + 1):
                                if not (0 <= k2 - 2 * m2 < order):
                                    continue
                                c2 = ser2[k2 - 2 * m2]
                                if c2.is_zero():
                                    continue
                                e2 = tri.entry(j + 1, n - k2)
                                if e2.is_zero():
                                    continue
                                term = e2 * e1 * c1 * c2
                                acc = acc + term if (m1 + m2) % 2 == 0 else acc - term
        coeffs[n] = coeffs[n] + acc

    def single_block(h: int, fixed: int) -> None:
        # single nested sum: entry(h, n-k) entry(fixed, 2j+1-n) against S_{h,m,s}
        for n in range(0, 2 * j + 2):
            e_fix = tri.entry(fixed, 2 * j + 1 - n)
            if e_fix.is_zero():
                continue
            acc = _ZERO
            for m in range(1, h // 2 + 1):
                for s in range(0, m * h + 1):
                    ser = s_series(h, m, s)
                    for k in range(0, s + 1):
                        if not (0 <= k - 2 * m < order):
                            continue
                        c = ser[k - 2 * m]
                        if c.is_zero():
                            continue
                        term = tri.entry(h, n - k) * c
                        acc = acc + term if m % 2 == 0 else acc - term
            coeffs[n] = coeffs[n] + e_fix * acc

    # block 3 against S_{j+1,m,s}; block 4 against S_{j,m,s}
    single_block(j + 1, j)
    single_block(j, j + 1)

    quad = ZPolynomial(coeffs)
    pairs = convergent_pairs(spec, j + 1)
    product = pairs[j].Q * pairs[j + 1].Q
    residual = quad - product
    factor: Optional[QRationalFn] = None
    if not quad.is_zero() and not product.is_zero():
        # z-independent ratio iff quad == r * product with r from any nonzero column
        for k in range(max(quad.degree, product.degree) + 1):
            pk = product.coefficient(k)
            if not pk.is_zero():
                r = quad.coefficient(k) / pk
                if quad == product * r:
                    factor = r
                break
    return TildeDReport(j, quad, product, residual.is_zero(), residual, factor)


# ---------------------------------------------------------------------------
# explicit low-order sums-of-divisors realizations (cross-check paths)
# ---------------------------------------------------------------------------


class SpecialCaseReport:
    """Cross-check of sigma_gf against the telescoped convergent-block sum and
    against the verbatim printed special-case realization.

    The telescoped path rewrites z*C_h as sum_i lambda_i z^(2i-1)/(Q_{i-1}Q_i)
    and transforms termwise on the same jets at z = q as sigma_gf; it is
    algebraically identical to sigma_gf and its residual must vanish.  The
    printed path evaluates the tabulated special-case display (with its own
    leading term and coefficient set) on the polynomials Q_j(q, z) and is
    reported as-is."""

    __slots__ = (
        "alpha", "h", "order", "primary", "telescoped", "printed",
        "telescoped_residual_zero", "printed_residual",
    )

    def __init__(
        self,
        alpha: int,
        h: int,
        order: int,
        primary: QSeries,
        telescoped: QSeries,
        printed: QSeries,
        telescoped_residual_zero: bool,
        printed_residual: QSeries,
    ):
        self.alpha = alpha
        self.h = h
        self.order = order
        self.primary = primary
        self.telescoped = telescoped
        self.printed = printed
        self.telescoped_residual_zero = telescoped_residual_zero
        self.printed_residual = printed_residual

    def to_json(self) -> dict:
        return {
            "schema": "qjfrac/sigma-special-case/1",
            "alpha": self.alpha,
            "h": self.h,
            "order": self.order,
            "telescoped_residual_zero": self.telescoped_residual_zero,
            "printed_residual": [str(c) for c in self.printed_residual],
        }


def _printed_block_coefficient(j: int) -> QRationalFn:
    """q * q^(j^2) (q;q)_j^4 / ((q;q^2)_j^2 (q^2;q^2)_j^2), the tabulated weight."""
    q2 = _Q * _Q
    num = _Q * QRationalFn.qpow(j * j) * _poch_step(_Q, _Q, j) ** 4
    den = _poch_step(_Q, q2, j) ** 2 * _poch_step(q2, q2, j) ** 2
    return num / den


def sigma_special_case_check(alpha: int, h: int, order: Optional[int] = None) -> SpecialCaseReport:
    """Compare the alpha in {1,2} sums-of-divisors series along three routes.

    primary    : sigma_gf (transform of z*C_h, one quotient of jets at z = q)
    telescoped : termwise transform of lambda_i z^(2i-1)/((1-q) Q_{i-1} Q_i),
                 one block per level, each block a quotient of the same jets
    printed    : the tabulated explicit display, with G_j realized as the
                 recurrence product Q_j(q, z) Q_{j+1}(q, z) of bivariate
                 polynomials, differentiated in z and evaluated at z = q (the
                 quadruple-sum realization is measured separately by tilde_D0j)
    """
    if alpha not in (1, 2):
        raise ValueError("explicit displays exist for alpha in {1, 2} only")
    if order is None:
        order = h + 1
    req = DivisorGFRequest(alpha, h, order)
    primary = sigma_gf(req).series

    spec = divisor_spec()
    one_minus_q = _ONE - _Q

    z = _z_jet(alpha)
    Q = [Q_i for _, Q_i in _convergent_jets(z, h)]
    telescoped = QSeries.zero(order)
    z_power = z  # z^(2i-1)
    for i in range(1, h + 1):
        block = z_power * lambda_modulus(spec, i) / (Q[i - 1] * Q[i])
        telescoped = telescoped + (_transform_at_q(block, alpha) / one_minus_q).taylor(order)
        z_power = z_power * z * z

    pairs = convergent_pairs(spec, h)

    printed = QSeries.zero(order)
    if alpha == 1:
        lead = _Q * _Q * (_ONE + _Q) / one_minus_q
    else:
        lead = _Q * _Q * (_ONE + _Q) * (_ONE + 2 * _Q) / one_minus_q
    printed = printed + lead.taylor(order)
    for j in range(1, h):
        Gpoly = pairs[j].Q * pairs[j + 1].Q
        Gq = Gpoly.evaluate(_Q)
        Gp = Gpoly.derivative().evaluate(_Q)
        coeff = _printed_block_coefficient(j)
        if alpha == 1:
            inner = (2 * j) * QRationalFn.qpow(2 * j) / Gq - QRationalFn.qpow(2 * j + 1) * Gp / Gq ** 2
        else:
            Gpp = Gpoly.derivative().derivative().evaluate(_Q)
            inner = (
                (4 * j * j) * QRationalFn.qpow(2 * j) / Gq
                - (4 * j + 1) * QRationalFn.qpow(2 * j + 1) * Gp / Gq ** 2
                - QRationalFn.qpow(2 * j + 1) * (Gq * Gpp - 2 * Gp ** 2) / Gq ** 3
            )
        printed = printed + (coeff * inner).taylor(order)

    return SpecialCaseReport(
        alpha,
        h,
        order,
        primary,
        telescoped,
        printed,
        (primary - telescoped) == QSeries.zero(order),
        primary - printed,
    )
