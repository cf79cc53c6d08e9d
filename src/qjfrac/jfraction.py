"""Jacobi-type continued fraction machinery over Q(q).

This module builds the depth-h convergents P_h/Q_h of a J-fraction (its
coefficient sequences and their three-term recurrence live in `sequences`),
extracts their power-series coefficients, verifies their telescoping
decomposition into blocks, inverts a target series back into (c, ab), and
provides the other tabulated sequence families.  `invert` builds the JSON
record that `jfrac invert` prints, and `lemma_report` the one that every
exact identity check returns, here and in `stirling`.  The names of the
sequence layer that callers import from here are re-exported.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .exact import QRationalFn
from .sequences import (  # noqa: F401  (re-exported)
    JFractionSpec,
    PochhammerParams,
    _contraction_spec,
    cfraction_coefficient,
    convergent_pair,
    divisor_spec,
    pochhammer_c_display_form,
    pochhammer_spec,
    random_rational_spec,
)
from .zalgebra import ZPolynomial, ZSeries

_ONE = QRationalFn.one()
_ZERO = QRationalFn.zero()
_Q = QRationalFn.q()
_qpow = QRationalFn.qpow
_Z = ZPolynomial.monomial(1)


# ---------------------------------------------------------------------------
# convergents
# ---------------------------------------------------------------------------


class ConvergentPair:
    """Numerator/denominator polynomials of the depth-h convergent P_h/Q_h;
    unpacks as (P, Q)."""

    __slots__ = ("h", "P", "Q")

    def __init__(self, h: int, P: ZPolynomial, Q: ZPolynomial):
        if h >= 1 and (P.degree > h - 1 or Q.degree > h):
            raise ValueError("convergent degree bounds violated")
        self.h = h
        self.P = P
        self.Q = Q

    def __iter__(self):
        return iter((self.P, self.Q))


def convergent_pairs(spec: JFractionSpec, h: int) -> list[ConvergentPair]:
    """All convergents up to depth h, from the three-term recurrence of
    sequences.convergent_pair with z the polynomial z.

    Pairs are memoized on the spec, filled in ascending order.
    """
    if h < 0:
        raise ValueError("depth must be >= 0")

    def pair(i: int) -> ConvergentPair:
        return ConvergentPair(i, *convergent_pair(spec, _Z, i, pairs))

    pairs: list[ConvergentPair] = []
    for i in range(h + 1):
        pairs.append(spec.memo("pair", i, pair))
    return pairs


def convergents(spec: JFractionSpec, h: int) -> ConvergentPair:
    return convergent_pairs(spec, h)[h]


def convergent_coefficients(pair: ConvergentPair, n_max: int) -> ZSeries:
    """Power-series coefficients of P/Q via the order-h linear recurrence

        j_n = [z^n]P - sum_{i=1}^{min(n,h)} [z^i]Q * j_{n-i},

    valid because Q(0) = 1."""
    if not pair.Q.coefficient(0).is_one():
        raise ValueError("Q must have unit constant term")
    return ZSeries._quotient(pair.P.coeffs, pair.Q.coeffs, n_max)


def telescoping_residual(pairs: Sequence[ConvergentPair], lam: QRationalFn, h: int) -> ZPolynomial:
    """P_h Q_{h-1} - P_{h-1} Q_h - lambda_h z^(2h-2); zero when the decomposition holds."""
    det = pairs[h].P * pairs[h - 1].Q - pairs[h - 1].P * pairs[h].Q
    return det - ZPolynomial.monomial(2 * h - 2, lam)


def lemma_report(name: str, h: int, first_failure=None) -> dict:
    """The qjfrac/lemma-report/1 record of one exact identity check; the check
    passed exactly when there is no first failing index (a level, or a list
    of the level and the failing column)."""
    return {
        "schema": "qjfrac/lemma-report/1",
        "lemma": name,
        "h": h,
        "status": "ok" if first_failure is None else "mismatch",
        "first_failure": first_failure,
    }


def convergent_sum_decomposition(spec: JFractionSpec, h: int) -> dict:
    """Verify Conv_h as the sum of partial-fraction blocks over consecutive
    denominators, as a lemma report.

    Checks, exactly, the per-level determinant identity
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
    lam = _ONE
    for i in range(1, h + 1):
        if i >= 2:
            lam = lam * spec.ab(i)
        if not telescoping_residual(pairs, lam, i).is_zero():
            return lemma_report("convergent-sum-decomposition", h, i)
    return lemma_report("convergent-sum-decomposition", h)


# ---------------------------------------------------------------------------
# series -> J-fraction inversion
# ---------------------------------------------------------------------------


def series_to_jfraction(
    target: ZSeries, depth: int
) -> tuple[list[QRationalFn], list[QRationalFn], bool]:
    """Recover (c, ab, terminated), c_1..c_depth and ab_2..ab_depth, from a
    series with constant term 1.

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
            return cs, abs_, True
        abs_.append(ab_next)
        r = w.divide_z() / ab_next
    return cs, abs_, False


# ---------------------------------------------------------------------------
# target series for the inversion golden cases
# ---------------------------------------------------------------------------


def lambert_ratio_target(alpha: int, order: int) -> ZSeries:
    """j_0 = 1, j_n = n^alpha / (1 - q^n) for n >= 1 (j_0 normalized to 1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs: list[QRationalFn] = [_ONE]
    for n in range(1, order):
        coeffs.append(QRationalFn.from_fraction(n ** alpha) / (_ONE - _qpow(n)))
    return ZSeries(order, coeffs)


INVERSION_TARGETS: dict[str, Callable[[int], ZSeries]] = {
    "one_over_1mqn": lambda order: lambert_ratio_target(0, order),
    "n_over_1mqn": lambda order: lambert_ratio_target(1, order),
    "n2_over_1mqn": lambda order: lambert_ratio_target(2, order),
}


def invert(target: str, depth: int) -> dict:
    """The qjfrac/invert/1 record of the named target series inverted to
    depth `depth` (from its first 2*depth coefficients)."""
    if target not in INVERSION_TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {sorted(INVERSION_TARGETS)}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    c, ab, terminated = series_to_jfraction(INVERSION_TARGETS[target](2 * depth), depth)
    return {
        "schema": "qjfrac/invert/1",
        "target": target,
        "depth": len(c),
        "terminated": terminated,
        "c": [str(v) for v in c],
        "ab": [str(v) for v in ab],
    }


# ---------------------------------------------------------------------------
# tabulated sequence families
# ---------------------------------------------------------------------------

# each row with the parameters it takes; it must be given these and no other
_ROW_PARAMETERS = {
    "pochhammer_a": ("a",),
    "reciprocal_qq": (),
    "pochhammer_zqn": ("z",),
    "reciprocal_pochhammer_zqn": ("z",),
    "pochhammer_ratio": ("a", "b"),
}
TABLE1_ROWS = tuple(_ROW_PARAMETERS)

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

    A parameter that the row does not take is an error, like a missing one.

    Every row is the even contraction of one C-fraction, the ratio family's
    (cfraction_coefficient), at (a, b) = (a, 0), (0, q), (z/q, 0), (0, z/q)
    and (a, b); the two z rows take it in base 1/q, because
    (z q^-n; q)_n = (z/q; 1/q)_n.  The g-products keep every ab_i regular
    where a factored display degenerates (ab_2 of reciprocal_qq; ab_2 of
    reciprocal_pochhammer_zqn at z = 1).

    The q^binom(n,2)/(q;q)_n family is excluded: its tabulated c-entries are
    ambiguous in the source.
    """
    if row in _EXCLUDED_ROWS:
        raise ValueError(f"row {row!r} is ambiguous in source and not provided")
    if row not in _ROW_PARAMETERS:
        raise ValueError(f"unknown preset row {row!r}; choose from {TABLE1_ROWS}")
    takes = _ROW_PARAMETERS[row]
    for name, value in (("a", a), ("b", b), ("z", z)):
        if value is None and name in takes:
            plural = "s" if len(takes) > 1 else ""
            raise ValueError(f"row {row} requires parameter{plural} {' and '.join(takes)}")
        if value is not None and name not in takes:
            raise ValueError(f"row {row} does not take parameter {name}")
    if row == "pochhammer_a":
        return _contraction_spec(f"pochhammer_a(a={a})", a, _ZERO, _qpow)
    if row == "reciprocal_qq":
        return _contraction_spec("reciprocal_qq", _ZERO, _Q, _qpow)
    if row == "pochhammer_zqn":
        return _contraction_spec(f"pochhammer_zqn(z={z})", z / _Q, _ZERO, lambda e: _qpow(-e))
    if row == "reciprocal_pochhammer_zqn":
        return _contraction_spec(f"reciprocal_pochhammer_zqn(z={z})", _ZERO, z / _Q, lambda e: _qpow(-e))
    return pochhammer_spec(PochhammerParams(a, b))
