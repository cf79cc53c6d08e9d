"""Jacobi-type continued fraction machinery over Q(q).

A J-fraction
    1 / (1 - c_1 z - ab_2 z^2 / (1 - c_2 z - ab_3 z^2 / ...))
is described by its two implicit coefficient sequences.  This module builds
the depth-h convergents P_h/Q_h from the two-term recurrence, extracts their
power-series coefficients, inverts a target series back into (c, ab), and
provides the parametrized sequence family whose convergents generate the
q-Pochhammer ratio (a;q)_n/(b;q)_n, together with the other tabulated
sequence families.
"""

from __future__ import annotations

import functools
import random
import threading
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact import QRationalFn
from .oracles import q_pochhammer
from .zalgebra import ZPolynomial, ZSeries

_ONE = QRationalFn.one()
_ZERO = QRationalFn.zero()
_Q = QRationalFn.q()
_qpow = QRationalFn.qpow


class JFractionSpec:
    """The sequence pair <c_i> (i >= 1) and <ab_i> (i >= 2) defining a J-fraction.

    Values are computed lazily from the generating callables and memoized;
    all returned values are immutable, so sharing a spec across threads is
    safe (at worst a value is computed twice).
    """

    def __init__(
        self,
        name: str,
        c_fn: Callable[[int], QRationalFn],
        ab_fn: Callable[[int], QRationalFn],
    ):
        self.name = name
        self._c_fn = c_fn
        self._ab_fn = ab_fn
        self._c_memo: dict[int, QRationalFn] = {}
        self._ab_memo: dict[int, QRationalFn] = {}
        # sequence memos tolerate racy duplicate computation (values are
        # immutable and equal); the convergent-pair list is extended under a
        # lock so concurrent callers cannot interleave appends
        self._pairs: list["ConvergentPair"] = []
        self._pairs_lock = threading.Lock()
        self._shifted: Optional["JFractionSpec"] = None

    def c(self, i: int) -> QRationalFn:
        if i < 1:
            raise ValueError("c is indexed from 1")
        v = self._c_memo.get(i)
        if v is None:
            v = self._c_fn(i)
            self._c_memo[i] = v
        return v

    def ab(self, i: int) -> QRationalFn:
        if i < 2:
            raise ValueError("ab is indexed from 2")
        v = self._ab_memo.get(i)
        if v is None:
            v = self._ab_fn(i)
            self._ab_memo[i] = v
        return v

    def shifted(self) -> "JFractionSpec":
        """Same fraction with c_i -> c_{i+1}, ab_i -> ab_{i+1}.

        Memoized on the spec, so the shifted spec's own memos (sequence values
        and convergent pairs) outlive each call.  Two racing first calls may
        each build one; that is harmless, because both read the same
        immutable values and the spec kept is as good as the other."""
        shifted = self._shifted
        if shifted is None:
            shifted = JFractionSpec(
                f"{self.name}<<1",
                lambda i: self.c(i + 1),
                lambda i: self.ab(i + 1),
            )
            self._shifted = shifted
        return shifted

    @classmethod
    def from_tables(
        cls, name: str, c_values: Sequence[QRationalFn], ab_values: Sequence[QRationalFn]
    ) -> "JFractionSpec":
        """Finitely tabulated spec: c_values holds c_1.., ab_values holds ab_2.."""
        c_list = list(c_values)
        ab_list = list(ab_values)

        def c_fn(i: int) -> QRationalFn:
            if i - 1 >= len(c_list):
                raise IndexError(f"c_{i} not tabulated for spec {name!r}")
            return c_list[i - 1]

        def ab_fn(i: int) -> QRationalFn:
            if i - 2 >= len(ab_list):
                raise IndexError(f"ab_{i} not tabulated for spec {name!r}")
            return ab_list[i - 2]

        return cls(name, c_fn, ab_fn)

    def to_json(self, h: int) -> dict:
        """Tabulate c_1..c_h and ab_2..ab_h in the documented JSON shape."""
        return {
            "schema": "qjfrac/jfraction-spec/1",
            "name": self.name,
            "c": [str(self.c(i)) for i in range(1, h + 1)],
            "ab": [str(self.ab(i)) for i in range(2, h + 1)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "JFractionSpec":
        c_vals = [QRationalFn.parse(s) for s in data["c"]]
        ab_vals = [QRationalFn.parse(s) for s in data["ab"]]
        return cls.from_tables(data.get("name", "json"), c_vals, ab_vals)


class PochhammerParams:
    """Nonzero parameters (a, b) of the q-Pochhammer ratio family; b = 1 is a pole of c_1."""

    __slots__ = ("a", "b")

    def __init__(self, a: QRationalFn, b: QRationalFn):
        if a.is_zero() or b.is_zero():
            raise ValueError("parameters a, b must be nonzero")
        if b.is_one():
            raise ValueError("b = 1 makes c_1 = (a-1)/(b-1) undefined")
        self.a = a
        self.b = b


def cfraction_coefficient(a: QRationalFn, b: QRationalFn, k: int) -> QRationalFn:
    """Coefficient g_k of the regular C-fraction underlying the ratio family.

    The series sum_n (a;q)_n/(b;q)_n z^n equals
    1/(1 - g_1 z/(1 - g_2 z/(1 - g_3 z/...))) with

        g_1      = (1-a)/(1-b)
        g_{2m}   = q^(m-1) (a - b q^(m-1)) (1 - q^m)
                   / ((1 - b q^(2m-2)) (1 - b q^(2m-1)))
        g_{2m+1} = q^m (1 - b q^(m-1)) (1 - a q^m)
                   / ((1 - b q^(2m-1)) (1 - b q^(2m)))

    (derived from the contiguous relations of the basic hypergeometric series
    behind the ratio, and verified by exact inversion of the target series).
    The parametrized J-fraction is the even contraction of this C-fraction.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (_ONE - a) / (_ONE - b)
    if k % 2 == 0:
        m = k // 2
        num = _qpow(m - 1) * (a - b * _qpow(m - 1)) * (_ONE - _qpow(m))
        den = (_ONE - b * _qpow(2 * m - 2)) * (_ONE - b * _qpow(2 * m - 1))
        return num / den
    m = (k - 1) // 2
    num = _qpow(m) * (_ONE - b * _qpow(m - 1)) * (_ONE - a * _qpow(m))
    den = (_ONE - b * _qpow(2 * m - 1)) * (_ONE - b * _qpow(2 * m))
    return num / den


def pochhammer_spec(params: PochhammerParams) -> JFractionSpec:
    """The sequence family whose convergents generate (a;q)_n/(b;q)_n.

    The J-fraction is the even contraction of the C-fraction in
    cfraction_coefficient: c_1 = g_1 = (a-1)/(b-1) and, for i >= 2,

        c_i  = g_{2i-2} + g_{2i-1}
        ab_i = g_{2i-3} * g_{2i-2}
             = q^(2i-4) (1 - b q^(i-3)) (1 - a q^(i-2)) (a - b q^(i-2)) (1 - q^(i-1))
               / ((1 - b q^(2i-5)) (1 - b q^(2i-4))^2 (1 - b q^(2i-3))).

    The tabulated single-fraction display for c_i (i >= 3) disagrees with the
    contraction; the contraction is what actually reproduces the target
    coefficients to the full 2h window, so it is used here.
    """
    return _contraction_spec(f"pochhammer_ratio(a={params.a}, b={params.b})", params.a, params.b)


def _contraction_spec(name: str, a: QRationalFn, b: QRationalFn) -> JFractionSpec:
    def c_fn(i: int) -> QRationalFn:
        if i == 1:
            return (a - _ONE) / (b - _ONE)
        return cfraction_coefficient(a, b, 2 * i - 2) + cfraction_coefficient(a, b, 2 * i - 1)

    def ab_fn(i: int) -> QRationalFn:
        # g-product form; regular even where the factored display degenerates
        return cfraction_coefficient(a, b, 2 * i - 3) * cfraction_coefficient(a, b, 2 * i - 2)

    return JFractionSpec(name, c_fn, ab_fn)


def pochhammer_c_display_form(a: QRationalFn, b: QRationalFn, i: int) -> QRationalFn:
    """The tabulated single-fraction display of c_i for the ratio family:

        q^(i-2) (q + a b q^(2i-3) + a(1 - q^(i-1) - q^i) + b(q^i - 1 - q))
        / ((1 - b q^(2i-4)) (1 - b q^(2i-2)))

    It agrees with the contraction value at i = 1, 2 but diverges from it for
    i >= 3, where it no longer reproduces the target coefficients; kept only
    for diagnostics (e.g. the first-column finite-sum formula was evidently
    derived from this variant)."""
    if i == 1:
        return (a - _ONE) / (b - _ONE)
    num = _qpow(i - 2) * (
        _Q + a * b * _qpow(2 * i - 3) + a * (_ONE - _qpow(i - 1) - _qpow(i))
        + b * (_qpow(i) - _ONE - _Q)
    )
    den = (_ONE - b * _qpow(2 * i - 4)) * (_ONE - b * _qpow(2 * i - 2))
    return num / den


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


@functools.cache
def divisor_spec() -> JFractionSpec:
    """The (a, b) = (q, q^2) instance: convergent coefficients are (1-q)/(1-q^(n+1)).

    Returns one shared instance per process, so that its memoized sequences
    and convergents are reused across callers (all cached values are
    immutable)."""
    return pochhammer_spec(PochhammerParams(_Q, _Q * _Q))


def random_rational_spec(seed: int, length: int = 18) -> JFractionSpec:
    """Tabulated spec with small random rational c_i and nonzero ab_i.

    All values come from one seeded stream, the c draws before the ab draws,
    so the spec for a given seed depends on `length` too."""
    rng = random.Random(seed)
    cs = [
        QRationalFn.from_fraction(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(length)
    ]
    abs_ = [
        QRationalFn.from_fraction(
            Fraction(rng.choice([v for v in range(-4, 5) if v]), rng.randint(1, 3))
        )
        for _ in range(length)
    ]
    return JFractionSpec.from_tables(f"random(seed={seed})", cs, abs_)


# ---------------------------------------------------------------------------
# convergents
# ---------------------------------------------------------------------------


class ConvergentPair:
    """Numerator/denominator polynomials of the depth-h convergent P_h/Q_h."""

    __slots__ = ("h", "P", "Q")

    def __init__(self, h: int, P: ZPolynomial, Q: ZPolynomial):
        if h >= 1 and (P.degree > h - 1 or Q.degree > h):
            raise ValueError("convergent degree bounds violated")
        self.h = h
        self.P = P
        self.Q = Q


def convergent_pairs(spec: JFractionSpec, h: int) -> list[ConvergentPair]:
    """All convergents up to depth h, from the two-term recurrence.

    P_0 = 0, P_1 = 1, Q_0 = 1, Q_1 = 1 - c_1 z, then for i >= 2
      P_i = (1 - c_i z) P_{i-1} - ab_i z^2 P_{i-2}
      Q_i = (1 - c_i z) Q_{i-1} - ab_i z^2 Q_{i-2}.

    Pairs are memoized on the spec: convergents are immutable and the
    recurrence only ever extends the cached prefix.
    """
    if h < 0:
        raise ValueError("depth must be >= 0")
    with spec._pairs_lock:
        pairs = spec._pairs
        if not pairs:
            pairs.append(ConvergentPair(0, ZPolynomial.zero(), ZPolynomial.one()))
        if h >= 1 and len(pairs) == 1:
            pairs.append(
                ConvergentPair(1, ZPolynomial.one(), ZPolynomial.linear_factor(spec.c(1)))
            )
        for i in range(len(pairs), h + 1):
            lin = ZPolynomial.linear_factor(spec.c(i))
            ab_z2 = ZPolynomial.monomial(2, spec.ab(i))
            P = lin * pairs[i - 1].P - ab_z2 * pairs[i - 2].P
            Q = lin * pairs[i - 1].Q - ab_z2 * pairs[i - 2].Q
            pairs.append(ConvergentPair(i, P, Q))
        return pairs[: h + 1]


def convergents(spec: JFractionSpec, h: int) -> ConvergentPair:
    return convergent_pairs(spec, h)[h]


def convergent_coefficients(pair: ConvergentPair, n_max: int) -> ZSeries:
    """Power-series coefficients of P/Q via the order-h linear recurrence

        j_n = [z^n]P - sum_{i=1}^{min(n,h)} [z^i]Q * j_{n-i},

    valid because Q(0) = 1."""
    if not pair.Q.coefficient(0).is_one():
        raise ValueError("Q must have unit constant term")
    return ZSeries._quotient(pair.P.coeffs, pair.Q.coeffs, n_max)


def lambda_modulus(spec: JFractionSpec, h: int) -> QRationalFn:
    """lambda_h = ab_2 * ... * ab_h, with the empty product lambda_1 = 1."""
    if h < 1:
        raise ValueError("h must be >= 1")
    acc = _ONE
    for i in range(2, h + 1):
        acc = acc * spec.ab(i)
    return acc


def telescoping_residual(pairs: Sequence[ConvergentPair], lam: QRationalFn, h: int) -> ZPolynomial:
    """P_h Q_{h-1} - P_{h-1} Q_h - lambda_h z^(2h-2); zero when the decomposition holds."""
    det = pairs[h].P * pairs[h - 1].Q - pairs[h - 1].P * pairs[h].Q
    return det - ZPolynomial.monomial(2 * h - 2, lam)


class SumDecomposition:
    """Conv_h written as sum_i lambda_i z^(2i-2) / (Q_{i-1} Q_i), with verification."""

    __slots__ = ("h", "lambdas", "terms", "verified", "first_failure")

    def __init__(
        self,
        h: int,
        lambdas: list[QRationalFn],
        terms: list[tuple[ZPolynomial, ZPolynomial]],  # (Q_{i-1}, Q_i) blocks
        verified: bool,
        first_failure: Optional[int],
    ):
        self.h = h
        self.lambdas = lambdas
        self.terms = terms
        self.verified = verified
        self.first_failure = first_failure


def convergent_sum_decomposition(spec: JFractionSpec, h: int) -> SumDecomposition:
    """Decompose Conv_h into partial-fraction blocks over consecutive denominators.

    Verifies, exactly, the per-level determinant identity
    P_i Q_{i-1} - P_{i-1} Q_i = lambda_i z^(2i-2) for every i <= h.  These
    identities are the whole decomposition: dividing by Q_{i-1} Q_i gives
    P_i/Q_i - P_{i-1}/Q_{i-1} = lambda_i z^(2i-2) / (Q_{i-1} Q_i) (each
    Q_i(0) = 1, so no block divides by zero), and the blocks telescope from
    P_0/Q_0 = 0 to P_h/Q_h.  A failure reports the first bad level and means
    an implementation bug, not a data problem.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    pairs = convergent_pairs(spec, h)
    lambdas: list[QRationalFn] = []
    terms: list[tuple[ZPolynomial, ZPolynomial]] = []
    first_failure: Optional[int] = None
    lam = _ONE
    for i in range(1, h + 1):
        if i >= 2:
            lam = lam * spec.ab(i)
        lambdas.append(lam)
        terms.append((pairs[i - 1].Q, pairs[i].Q))
        if first_failure is None and not telescoping_residual(pairs, lam, i).is_zero():
            first_failure = i
    return SumDecomposition(h, lambdas, terms, first_failure is None, first_failure)


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


# ---------------------------------------------------------------------------
# series -> J-fraction inversion
# ---------------------------------------------------------------------------


class InversionResult:
    __slots__ = ("c", "ab", "terminated")

    def __init__(
        self,
        c: list[QRationalFn],  # c_1 .. c_depth
        ab: list[QRationalFn],  # ab_2 .. ab_depth
        terminated: bool,  # an ab vanished before the requested depth
    ):
        self.c = c
        self.ab = ab
        self.terminated = terminated

    @property
    def depth(self) -> int:
        return len(self.c)

    def spec(self, name: str = "inverted") -> JFractionSpec:
        return JFractionSpec.from_tables(name, self.c, self.ab)


def series_to_jfraction(target: ZSeries, depth: int) -> InversionResult:
    """Recover c_1..c_depth and ab_2..ab_depth from a series with constant term 1.

    Step k peels one layer off the continued fraction:
        u = (1 - 1/r_k)/z,   c_k = u(0),   ab_{k+1} = [z^1](u - c_k),
        r_{k+1} = (u - c_k) / (ab_{k+1} z).
    A vanishing ab_{k+1} means the fraction terminates; the shorter expansion
    is returned with `terminated` set rather than treated as an error.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if target.order < 2 * depth:
        raise ValueError(f"target order {target.order} < 2*depth = {2 * depth}")
    if not target[0].is_one():
        raise ValueError("target must have constant term 1")
    cs: list[QRationalFn] = []
    abs_: list[QRationalFn] = []
    r = target
    for k in range(1, depth + 1):
        u = (ZSeries.one(r.order) - r.reciprocal()).divide_z()
        c_k = u[0]
        cs.append(c_k)
        if k == depth:
            break
        w = u - ZSeries(u.order, (c_k,))
        ab_next = w[1]
        if ab_next.is_zero():
            return InversionResult(cs, abs_, True)
        abs_.append(ab_next)
        r = w.divide_z() / ab_next
    return InversionResult(cs, abs_, False)


# ---------------------------------------------------------------------------
# target series for the inversion golden cases
# ---------------------------------------------------------------------------


def lambert_ratio_target(alpha: int, order: int) -> ZSeries:
    """j_0 = 1, j_n = n^alpha / (1 - q^n) for n >= 1 (j_0 normalized to 1)."""
    coeffs: list[QRationalFn] = [_ONE]
    for n in range(1, order):
        coeffs.append(QRationalFn.from_fraction(n ** alpha) / (_ONE - _qpow(n)))
    return ZSeries(order, coeffs)


INVERSION_TARGETS: dict[str, Callable[[int], ZSeries]] = {
    "one_over_1mqn": lambda order: lambert_ratio_target(0, order),
    "n_over_1mqn": lambda order: lambert_ratio_target(1, order),
    "n2_over_1mqn": lambda order: lambert_ratio_target(2, order),
}


# ---------------------------------------------------------------------------
# tabulated sequence families
# ---------------------------------------------------------------------------

TABLE1_ROWS = (
    "pochhammer_a",
    "reciprocal_qq",
    "pochhammer_zqn",
    "reciprocal_pochhammer_zqn",
    "pochhammer_ratio",
)

_EXCLUDED_ROWS = ("qbinom_exponent_qq",)


def table1_preset(
    row: str,
    a: Optional[QRationalFn] = None,
    b: Optional[QRationalFn] = None,
    z: Optional[QRationalFn] = None,
) -> JFractionSpec:
    """Named sequence families with known coefficient targets.

    Rows and their targets ([z^n] of the generated series):
      pochhammer_a               (a;q)_n                  requires a
      reciprocal_qq              1/(q;q)_n
      pochhammer_zqn             (z q^-n; q)_n            requires z
      reciprocal_pochhammer_zqn  1/(z q^-n; q)_n          requires z
      pochhammer_ratio           (a;q)_n/(b;q)_n          requires a, b

    The q^binom(n,2)/(q;q)_n family is excluded: its tabulated c-entries are
    ambiguous in the source.
    """
    if row in _EXCLUDED_ROWS:
        raise ValueError(f"row {row!r} is ambiguous in source and not provided")
    if row == "pochhammer_a":
        if a is None:
            raise ValueError("row pochhammer_a requires parameter a")
        return _preset_pochhammer_a(a)
    if row == "reciprocal_qq":
        return _preset_reciprocal_qq()
    if row == "pochhammer_zqn":
        if z is None:
            raise ValueError("row pochhammer_zqn requires parameter z")
        return _preset_pochhammer_zqn(z)
    if row == "reciprocal_pochhammer_zqn":
        if z is None:
            raise ValueError("row reciprocal_pochhammer_zqn requires parameter z")
        return _preset_reciprocal_pochhammer_zqn(z)
    if row == "pochhammer_ratio":
        if a is None or b is None:
            raise ValueError("row pochhammer_ratio requires parameters a and b")
        return pochhammer_spec(PochhammerParams(a, b))
    raise ValueError(f"unknown preset row {row!r}; choose from {TABLE1_ROWS}")


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


def _preset_pochhammer_a(a: QRationalFn) -> JFractionSpec:
    def c_fn(i: int) -> QRationalFn:
        if i == 1:
            return _ONE - a
        return _qpow(i - 1) - a * _qpow(i - 2) * (_qpow(i) + _qpow(i - 1) - _ONE)

    def ab_fn(i: int) -> QRationalFn:
        return a * _qpow(2 * i - 4) * (a * _qpow(i - 2) - _ONE) * (_qpow(i - 1) - _ONE)

    return JFractionSpec(f"pochhammer_a(a={a})", c_fn, ab_fn)


def _preset_reciprocal_qq() -> JFractionSpec:
    # the ratio family evaluated at (a, b) = (0, q); the g-product form keeps
    # ab_2 regular where the factored ab display degenerates
    return _contraction_spec("reciprocal_qq", _ZERO, _Q)


def _preset_pochhammer_zqn(z: QRationalFn) -> JFractionSpec:
    def c_fn(i: int) -> QRationalFn:
        if i == 1:
            return (_Q - z) / _Q
        return (_qpow(i) - z - _Q * z + _qpow(i) * z) / _qpow(2 * i - 1)

    def ab_fn(i: int) -> QRationalFn:
        return (_qpow(i - 1) - _ONE) * (_qpow(i - 1) - z) * z / _qpow(4 * i - 5)

    return JFractionSpec(f"pochhammer_zqn(z={z})", c_fn, ab_fn)


def _preset_reciprocal_pochhammer_zqn(z: QRationalFn) -> JFractionSpec:
    # Underlying C-fraction (recovered by exact inversion of the target):
    #   g_{2m}   = z q^m (1-q^m) / ((q^(2m-1)-z)(q^(2m)-z))
    #   g_{2m+1} = q^(2m+1) (q^m-z) / ((q^(2m)-z)(q^(2m+1)-z))
    # Its even contraction gives the tabulated ab_h verbatim; the tabulated
    # single-fraction c_h display is garbled for h >= 2 (it misses the middle
    # denominator factor), so c is built from the contraction instead.
    def g_even(m: int) -> QRationalFn:
        return z * _qpow(m) * (_ONE - _qpow(m)) / ((_qpow(2 * m - 1) - z) * (_qpow(2 * m) - z))

    def g_odd(m: int) -> QRationalFn:
        return _qpow(2 * m + 1) * (_qpow(m) - z) / ((_qpow(2 * m) - z) * (_qpow(2 * m + 1) - z))

    def c_fn(i: int) -> QRationalFn:
        if i == 1:
            return _Q / (_Q - z)
        return g_even(i - 1) + g_odd(i - 1)

    def ab_fn(i: int) -> QRationalFn:
        # equals g_odd(i-2) * g_even(i-1); the tabulated factored display,
        # with the q-bracket [i-1]_q times (1-q) collapsed to (1 - q^(i-1))
        num = (_ONE - _qpow(i - 1)) * _qpow(3 * i - 4) * (_qpow(i - 2) - z) * z
        den = (
            (_qpow(2 * i - 4) - z)
            * (_qpow(2 * i - 3) - z) ** 2
            * (_qpow(2 * i - 2) - z)
        )
        return num / den

    return JFractionSpec(f"reciprocal_pochhammer_zqn(z={z})", c_fn, ab_fn)


# ---------------------------------------------------------------------------
# substitution z -> function of q
# ---------------------------------------------------------------------------


def substitute_z_to_q(pair, order: int, z_multiplier: Optional[QRationalFn] = None):
    """Substitute z := z_multiplier (default q) and expand to a q-series.

    Accepts either a ConvergentPair (P and Q are evaluated and the ratio is
    Taylor-expanded; raises on a pole at q=0, which cannot happen for the
    divisor-spec convergents) or a ZSeries of coefficients (the truncated sum
    of coeff_n * z_multiplier^n is expanded termwise)."""
    zval = _Q if z_multiplier is None else z_multiplier
    if isinstance(pair, ZSeries):
        from .exact import QSeries

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
