"""Reference routes that no command reaches, kept as test oracles.

Each one was library code until the library kept one route per computation:
the thin divisor-table wrappers and the alpha in {1, 2} special-case
realizations, the factored and closed-form displays of the ratio family, the
displayed sequences and direct targets of Table 1, the z -> q substitution,
the verbatim loop of the quadruple-sum block, the sum and equality of
fractions in z by cross-multiplication, the Q(q) sums that normalised every
term and the constants that took the polynomial route, the Fraction route of
the Taylor expansion, the closed forms of the numeric (q, q^2) sequences and
the margin summaries of a convergence report, and the Bell numbers.  The
tests import them from here.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from qjfrac import exact, zalgebra
from qjfrac.divisors import _generator, _transform_at_q, generating_series
from qjfrac.exact import (
    QRationalFn,
    QSeries,
    _bias,
    _coprime_parts,
    _digit_width,
    _int_exquo,
    _int_strip,
    _pack,
    _unpack,
)
from qjfrac.jfraction import PochhammerParams, convergent_pairs, divisor_spec, pochhammer_spec
from qjfrac.oracles import q_pochhammer
from qjfrac.sequences import JFractionSpec, convergent_pair
from qjfrac.stirling import _entry, nested_sum, triangle_row
from qjfrac.zalgebra import ZPolynomial, ZSeries

_ONE = QRationalFn.one()
_ZERO = QRationalFn.zero()
_Q = QRationalFn.q()
_qpow = QRationalFn.qpow


# -- divisor tables: the wrappers over divisors.generating_series --------------


def divisor_gf(alpha: int, h: int, order: int) -> QSeries:
    """Divisor-count series: [q^n] = d(n) for 1 <= n inside the window, constant 1."""
    if alpha != 0:
        raise ValueError("divisor_gf is the alpha = 0 case; use sigma_gf")
    return generating_series(alpha, h, order)[1]


def sigma_gf(alpha: int, h: int, order: int) -> QSeries:
    """Sums-of-divisors series: [q^n] = sigma_alpha(n) inside the window, [q^0] = 0."""
    if alpha < 1:
        raise ValueError("sigma_gf requires alpha >= 1; use divisor_gf")
    return generating_series(alpha, h, order)[1]


def rational_approximant(alpha: int, h: int) -> QRationalFn:
    """Single reduced rational function in q whose expansion is the series of
    weight n^alpha at depth h."""
    return _generator(alpha, h)


def partial_sums(alpha: int, h: int, order: int) -> QSeries:
    """Running totals: [q^x] = sum_{n <= x} sigma_alpha(n) inside the window.

    One extra 1/(1-q) factor over the plain series; the alpha = 0 case drops
    the constant-1 artifact first so that [q^0] = 0."""
    gen = _generator(alpha, h)
    if alpha == 0:
        gen = gen - _ONE
    return (gen / (_ONE - _Q)).taylor(order)


# -- divisor tables: the alpha in {1, 2} special cases along three routes ------


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
    primary = sigma_gf(alpha, h, order)

    spec = divisor_spec()
    one_minus_q = _ONE - _Q

    z = ZSeries(alpha + 1, (_Q, _ONE))  # z = q + t
    jets: list = []
    for i in range(h + 1):
        jets.append(convergent_pair(spec, z, i, jets))
    Q = [Q_i for _, Q_i in jets]
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


# -- the ratio family: factored displays, closed forms and direct targets ------


def pochhammer_ab_closed_form(a: QRationalFn, b: QRationalFn, i: int) -> QRationalFn:
    """The factored display of ab_i for the ratio family (i >= 2):

        q^(2i-4) (1 - b q^(i-3)) (1 - a q^(i-2)) (a - b q^(i-2)) (1 - q^(i-1))
        / ((1 - b q^(2i-5)) (1 - b q^(2i-4))^2 (1 - b q^(2i-3)))

    Equal to the g-product used by pochhammer_spec wherever both are defined."""
    if i < 2:
        raise ValueError("ab is indexed from 2")
    num = (
        _qpow(2 * i - 4)
        * (_ONE - b * _qpow(i - 3))
        * (_ONE - a * _qpow(i - 2))
        * (a - b * _qpow(i - 2))
        * (_ONE - _qpow(i - 1))
    )
    den = (
        (_ONE - b * _qpow(2 * i - 5))
        * (_ONE - b * _qpow(2 * i - 4)) ** 2
        * (_ONE - b * _qpow(2 * i - 3))
    )
    return num / den


def lambda_closed_form(params: PochhammerParams, h: int) -> QRationalFn:
    """The tabulated closed form for the h-th modulus,

        a q^((h-1)^2) (b/q;q)_{h-1} (a;q)_{h-1} (b/a;q)_{h-1} (q;q)_{h-1}
        / ((b/q;q^2)_{h-1} (b;q^2)_{h-1}^2 (b q;q^2)_{h-1}),

    which carries a spurious leading factor q^(h-1)/a^(h-2) relative to the
    product ab_2...ab_h (the empty product at h=1 is 1, the closed form gives
    a).  Compare via lambda_closed_form_report."""
    a, b = params.a, params.b
    n = h - 1
    num = a * _qpow((h - 1) ** 2) * (
        _poch_step(b / _Q, _Q, n) * _poch_step(a, _Q, n) * _poch_step(b / a, _Q, n)
        * _poch_step(_Q, _Q, n)
    )
    q2 = _Q * _Q
    den = (
        _poch_step(b / _Q, q2, n)
        * _poch_step(b, q2, n) ** 2
        * _poch_step(b * _Q, q2, n)
    )
    return num / den


def _poch_step(x: QRationalFn, step: QRationalFn, n: int) -> QRationalFn:
    """(x; step)_n: product of (1 - x*step^k) for 0 <= k < n."""
    acc = _ONE
    xs = x
    for _ in range(n):
        acc = acc * (_ONE - xs)
        xs = xs * step
    return acc


class LambdaReport:
    __slots__ = ("h", "product", "closed_form", "ratio", "expected_ratio", "proportional")

    def __init__(
        self,
        h: int,
        product: QRationalFn,
        closed_form: QRationalFn,
        ratio: QRationalFn,  # closed_form / product
        expected_ratio: QRationalFn,  # q^(h-1) / a^(h-2), the flagged leading factor
        proportional: bool,
    ):
        self.h = h
        self.product = product
        self.closed_form = closed_form
        self.ratio = ratio
        self.expected_ratio = expected_ratio
        self.proportional = proportional


def lambda_closed_form_report(params: PochhammerParams, h: int) -> LambdaReport:
    """Measure the closed-form modulus against the plain ab-product.

    The closed form is off by exactly q^(h-1)/a^(h-2) (= q for (a,b)=(q,q^2));
    the product convention with lambda_1 = 1 is the one forced by the
    telescoping identity, so that is what the library uses everywhere."""
    spec = pochhammer_spec(params)
    prod = lambda_modulus(spec, h)
    closed = lambda_closed_form(params, h)
    ratio = closed / prod
    expected = _qpow(h - 1) / params.a ** (h - 2)
    return LambdaReport(h, prod, closed, ratio, expected, ratio == expected)


# -- Table 1: the displayed c_i and ab_i of the single-parameter rows ----------
#
# The library builds every row from the ratio family's C-fraction; these are
# the displays that the rows were once copied from, each a function of the
# row parameter x (a for pochhammer_a, z for the z rows) and of i.


def _row1_c(a: QRationalFn, i: int) -> QRationalFn:
    if i == 1:
        return _ONE - a
    return _qpow(i - 1) - a * _qpow(i - 2) * (_qpow(i) + _qpow(i - 1) - _ONE)


def _row1_ab(a: QRationalFn, i: int) -> QRationalFn:
    return a * _qpow(2 * i - 4) * (a * _qpow(i - 2) - _ONE) * (_qpow(i - 1) - _ONE)


def _zqn_c(z: QRationalFn, i: int) -> QRationalFn:
    if i == 1:
        return (_Q - z) / _Q
    return (_qpow(i) - z - _Q * z + _qpow(i) * z) / _qpow(2 * i - 1)


def _zqn_ab(z: QRationalFn, i: int) -> QRationalFn:
    return (_qpow(i - 1) - _ONE) * (_qpow(i - 1) - z) * z / _qpow(4 * i - 5)


def _reciprocal_zqn_g_even(z: QRationalFn, m: int) -> QRationalFn:
    """g_{2m} of 1/(z q^-n; q)_n, recovered by exact inversion of the target."""
    return z * _qpow(m) * (_ONE - _qpow(m)) / ((_qpow(2 * m - 1) - z) * (_qpow(2 * m) - z))


def _reciprocal_zqn_g_odd(z: QRationalFn, m: int) -> QRationalFn:
    """g_{2m+1} of 1/(z q^-n; q)_n, recovered by exact inversion of the target."""
    return _qpow(2 * m + 1) * (_qpow(m) - z) / ((_qpow(2 * m) - z) * (_qpow(2 * m + 1) - z))


def _reciprocal_zqn_c(z: QRationalFn, i: int) -> QRationalFn:
    # the tabulated single-fraction c_i display is garbled for i >= 2 (it
    # misses the middle denominator factor), so c_i is the contraction of the
    # g_k above
    if i == 1:
        return _Q / (_Q - z)
    return _reciprocal_zqn_g_even(z, i - 1) + _reciprocal_zqn_g_odd(z, i - 1)


def _reciprocal_zqn_ab(z: QRationalFn, i: int) -> QRationalFn:
    # the tabulated factored display, with the q-bracket [i-1]_q times (1-q)
    # collapsed to (1 - q^(i-1)); equal to g_odd(i-2) * g_even(i-1) where
    # both are defined, and 0/0 at (z, i) = (1, 2)
    num = (_ONE - _qpow(i - 1)) * _qpow(3 * i - 4) * (_qpow(i - 2) - z) * z
    den = (_qpow(2 * i - 4) - z) * (_qpow(2 * i - 3) - z) ** 2 * (_qpow(2 * i - 2) - z)
    return num / den


TABLE1_DISPLAYS = {
    "pochhammer_a": (_row1_c, _row1_ab),
    "pochhammer_zqn": (_zqn_c, _zqn_ab),
    "reciprocal_pochhammer_zqn": (_reciprocal_zqn_c, _reciprocal_zqn_ab),
}


def table1_target(
    row: str,
    n: int,
    a: Optional[QRationalFn] = None,
    b: Optional[QRationalFn] = None,
    z: Optional[QRationalFn] = None,
) -> QRationalFn:
    """Directly computed [z^n] target for a preset row (the oracle side)."""
    if row == "pochhammer_a":
        return q_pochhammer(a, n)
    if row == "reciprocal_qq":
        return q_pochhammer(_Q, n).reciprocal()
    if row == "pochhammer_zqn":
        return q_pochhammer(z * _qpow(-n), n)
    if row == "reciprocal_pochhammer_zqn":
        return q_pochhammer(z * _qpow(-n), n).reciprocal()
    if row == "pochhammer_ratio":
        return q_pochhammer(a, n) / q_pochhammer(b, n)
    raise ValueError(f"unknown preset row {row!r}")


def substitute_z_to_q(pair, order: int, z_multiplier: Optional[QRationalFn] = None):
    """Substitute z := z_multiplier (default q) and expand to a q-series.

    Accepts either a ConvergentPair (P and Q are evaluated and the ratio is
    Taylor-expanded; raises on a pole at q=0, which cannot happen for the
    divisor-spec convergents) or a ZSeries of coefficients (the truncated sum
    of coeff_n * z_multiplier^n is expanded termwise)."""
    zval = _Q if z_multiplier is None else z_multiplier
    if isinstance(pair, ZSeries):
        total = QSeries.zero(order)
        zpow = _ONE
        for n in range(pair.order):
            term = pair[n] * zpow
            if not term.is_zero():
                total = total + term.taylor(order)
            zpow = zpow * zval
        return total
    Pq = pair.P.evaluate(zval)
    Qq = pair.Q.evaluate(zval)
    return (Pq / Qq).taylor(order)


# -- the quadruple-sum block, read verbatim ------------------------------------


def tilde_D0j_verbatim(j: int, spec: Optional[JFractionSpec] = None) -> ZPolynomial:
    """The quadruple-sum block of stirling.tilde_D0j with the four printed sum
    blocks evaluated verbatim, a seven-deep loop over (n, m1, m2, s1, s2, k1,
    k2) in block 2.

    Block 1 pairs entries along the anti-diagonal sum(2j); blocks 2-4 weight
    triangle entries by series coefficients of the nested sums."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if spec is None:
        spec = divisor_spec()
    rows = {h: triangle_row(spec, h) for h in (j, j + 1)}

    def entry(h: int, k: int) -> QRationalFn:
        return _entry(rows[h], k)

    order = 2 * j + 2

    series: dict[tuple[int, int, int], ZSeries] = {}

    def s_series(h: int, m: int, s: int) -> ZSeries:
        key = (h, m, s)
        if key not in series:
            num, den = nested_sum(spec, h, m, s)
            series[key] = num.series(order) / den.series(order)
        return series[key]

    coeffs = [_ZERO] * (2 * j + 2)

    # block 1: sum_{n=0}^{2j} entry(j+1, n) entry(j, 2j-n) z^n
    for n in range(0, 2 * j + 1):
        coeffs[n] = coeffs[n] + entry(j + 1, n) * entry(j, 2 * j - n)

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
                            e1 = entry(j, 2 * j + 1 - n - k1)
                            if e1.is_zero():
                                continue
                            for k2 in range(1, s2 + 1):
                                if not (0 <= k2 - 2 * m2 < order):
                                    continue
                                c2 = ser2[k2 - 2 * m2]
                                if c2.is_zero():
                                    continue
                                e2 = entry(j + 1, n - k2)
                                if e2.is_zero():
                                    continue
                                term = e2 * e1 * c1 * c2
                                acc = acc + term if (m1 + m2) % 2 == 0 else acc - term
        coeffs[n] = coeffs[n] + acc

    def single_block(h: int, fixed: int) -> None:
        # single nested sum: entry(h, n-k) entry(fixed, 2j+1-n) against S_{h,m,s}
        for n in range(0, 2 * j + 2):
            e_fix = entry(fixed, 2 * j + 1 - n)
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
                        term = entry(h, n - k) * c
                        acc = acc + term if m % 2 == 0 else acc - term
            coeffs[n] = coeffs[n] + e_fix * acc

    # block 3 against S_{j+1,m,s}; block 4 against S_{j,m,s}
    single_block(j + 1, j)
    single_block(j, j + 1)

    return ZPolynomial(coeffs)


# -- fractions in z as (numerator, denominator) pairs, unreduced ----------------


ZPair = tuple[ZPolynomial, ZPolynomial]


def zpair_add(x: ZPair, y: ZPair, sign: int = 1) -> ZPair:
    """x + sign * y over the product of the two denominators."""
    return x[0] * y[1] + sign * (y[0] * x[1]), x[1] * y[1]


def zpair_equal(x: ZPair, y: ZPair) -> bool:
    """Whether x and y are the same function of z, by cross-multiplication."""
    return x[0] * y[1] == y[0] * x[1]


# -- the modulus, the product in z and exact division in Z[q] -------------------


def lambda_modulus(spec: JFractionSpec, h: int) -> QRationalFn:
    """lambda_h = ab_2 * ... * ab_h, with the empty product lambda_1 = 1: the
    running lambda of jfraction.convergent_sum_decomposition."""
    if h < 1:
        raise ValueError("h must be >= 1")
    acc = _ONE
    for i in range(2, h + 1):
        acc = acc * spec.ab(i)
    return acc


def schoolbook_zmul(a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
    """a * b by the double loop that ZPolynomial.__mul__ once ran."""
    if not a.coeffs or not b.coeffs:
        return ZPolynomial()
    cs = [_ZERO] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b.coeffs):
            if not cb.is_zero():
                cs[i + j] = cs[i + j] + ca * cb
    return ZPolynomial(cs)


# -- Q(q) sums: one full normalisation per sum, constants as polynomials ------


def full_normalising_add(x: QRationalFn, y: QRationalFn) -> QRationalFn:
    """x + y over the lcm of the denominators, reduced by a gcd against the
    whole lcm, as QRationalFn.__add__ ran before Henrici's sum."""
    y = exact._coerce_ratfn(y)
    if y is NotImplemented:
        return NotImplemented
    if x.is_zero():
        return y
    if y.is_zero():
        return x
    parts = _coprime_parts(x.den, y.den)
    if parts is not None:
        dx, dy = parts
        return QRationalFn(x.num * dy + y.num * dx, dx * y.den)
    return QRationalFn(x.num * y.den + y.num * x.den, x.den * y.den)


def cross_reduced_product(x: QRationalFn, y: QRationalFn) -> QRationalFn:
    """x * y by cross-reduction on the polynomials, the route constants took
    before they multiplied as integers."""
    y = exact._coerce_ratfn(y)
    if y is NotImplemented:
        return NotImplemented
    if x.is_zero() or y.is_zero():
        return _ZERO
    xn, yd = _coprime_parts(x.num, y.den) or (x.num, y.den)
    yn, xd = _coprime_parts(y.num, x.den) or (y.num, x.den)
    return QRationalFn(xn * yn, xd * yd)


def term_by_term_convolution(terms, xs, k: int):
    """exact._ratfn_convolution as one full_normalising_add per product."""
    s = None
    for i, y in terms:
        if i <= k and xs[k - i] is not None:
            t = cross_reduced_product(y, xs[k - i])
            s = t if s is None else full_normalising_add(s, t)
    return s


def use_normalising_route(monkeypatch) -> None:
    """Route every Q(q) sum and product of the library through the three
    functions above, by pytest's monkeypatch."""
    monkeypatch.setattr(QRationalFn, "__add__", full_normalising_add)
    monkeypatch.setattr(QRationalFn, "__radd__", full_normalising_add)
    monkeypatch.setattr(QRationalFn, "__mul__", cross_reduced_product)
    monkeypatch.setattr(QRationalFn, "__rmul__", cross_reduced_product)
    monkeypatch.setattr(zalgebra, "_ratfn_convolution", term_by_term_convolution)
    monkeypatch.setattr(zalgebra.ZSeries, "_dot", staticmethod(term_by_term_convolution))


def packed_division(a, b, nbytes: int):
    """(remainder, n-digit quotient or None) of a(ξ) by b(ξ) at ξ = 2^(8·nbytes)."""
    bias = _bias(len(a), nbytes)
    quo, rem = divmod(_pack(a, nbytes, bias), _pack(b, nbytes, bias))
    try:
        return rem, _unpack(quo, len(a) - len(b) + 1, nbytes, bias)
    except OverflowError:
        return rem, None


def mignotte_exquo(a, b):
    """a / b in Z[q], or None, for deg a >= deg b >= 1 and b[-1] | a[-1]:
    one packed division at a width from Mignotte's bound, max|f_i| <=
    2^deg(f)·||a||_2 for every factor f of a, the quotient included."""
    n = len(a) - len(b) + 1
    top = max(map(abs, a))
    bound = (top * len(a)) << (n - 1)
    rem, q = packed_division(a, b, _digit_width((bound * sum(map(abs, b)) + top).bit_length() // 8 + 1))
    if rem or q is None:
        return None
    return q if max(map(abs, q)) <= bound else None


def narrow_first_exquo(a, b):
    """a / b in Z[q] for nonzero a, b, or None: a packed division at the narrow
    width that holds the digits of a, its quotient kept when
    2·max|q_i|·||b||_1 < ξ, else mignotte_exquo."""
    n = len(a) - len(b) + 1
    if n <= 0 or a[-1] % b[-1]:
        return None
    if len(b) == 1:
        c = b[0]
        return None if any(x % c for x in a) else [x // c for x in a]
    norm = sum(map(abs, b))
    nbytes = _digit_width((2 * max(map(abs, a)) * norm + 2).bit_length() // 8 + 1)
    rem, q = packed_division(a, b, nbytes)
    if rem:
        return None
    if q is not None and 2 * max(map(abs, q)) * norm < 1 << (8 * nbytes):
        return q
    return mignotte_exquo(a, b)


# -- gcd: the primitive PRS that ran when GCDHEU gave up after six tries -------


def int_pseudo_rem(a, b):
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
        cont = gcd(*a)
        if cont > 1:
            a = [x // cont for x in a]
    return a


def prs_gcd_parts(a, b):
    """(g, a/g, b/g) for primitive a, b of degree >= 1 by the primitive PRS;
    g = gcd(a, b) up to sign."""
    x, y = (a, b) if len(a) >= len(b) else (b, a)
    while y:
        x, y = y, int_pseudo_rem(x, y)
    return x, _int_exquo(a, x), _int_exquo(b, x)


# -- the Taylor expansion on the reduced Fraction coefficients -------------------


def fraction_taylor(r: QRationalFn, order: int) -> QSeries:
    """The Maclaurin expansion of r by the division recurrence on the Fraction
    coefficients of its reduced num and den, as QRationalFn.taylor ran before
    it divided the integer primitive parts."""
    return QSeries._quotient(r.num.coeffs, r.den.coeffs, order)


# -- convergence: the numeric (q, q^2) sequences and the reports ---------------


def divisor_c_closed_form(q, i: int):
    """c_i of the (q, q^2) spec at a number q: 2 q^(i-1) / ((1+q^(i-1))(1+q^i)); c_1 = 1/(1+q)."""
    if i == 1:
        return 1 / (1 + q)
    return 2 * q ** (i - 1) / ((1 + q ** (i - 1)) * (1 + q ** i))


def divisor_ab_closed_form(q, i: int):
    """ab_i of the (q, q^2) spec at a number q:
    q^(2i-3) (1-q^(i-1))^4 / ((1-q^(2i-3)) (1-q^(2i-2))^2 (1-q^(2i-1)))."""
    return (
        q ** (2 * i - 3)
        * (1 - q ** (i - 1)) ** 4
        / ((1 - q ** (2 * i - 3)) * (1 - q ** (2 * i - 2)) ** 2 * (1 - q ** (2 * i - 1)))
    )


def min_margin(report: dict) -> float:
    """The smallest margin of a convergence.pringsheim_margins report."""
    return min(r["margin"] for r in report["rows"])


def all_positive(report: dict) -> bool:
    """Whether every margin of a convergence.pringsheim_margins report is positive."""
    return all(r["margin"] > 0 for r in report["rows"])


def bell_numbers(n_max: int) -> list[int]:
    """Bell numbers B_0..B_n via the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(n_max):
        new_row = [row[-1]]
        for x in row:
            new_row.append(new_row[-1] + x)
        bells.append(new_row[0])
        row = new_row
    return bells[: n_max + 1]
