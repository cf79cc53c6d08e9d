"""The coefficient sequences of a J-fraction.

A J-fraction
    1 / (1 - c_1 z - ab_2 z^2 / (1 - c_2 z - ab_3 z^2 / ...))
is described by its two implicit coefficient sequences.  This module holds
the sequence pair with its memos (`JFractionSpec`), the three-term recurrence
of its convergents (`convergent_pair`), the parametrized family whose
convergents generate the q-Pochhammer ratio (a;p)_n/(b;p)_n in base p = q or
1/q, its (q, q^2) instance behind the divisor tables, and seeded random specs.
The memoized convergent polynomials, the inversion and the tabulated families
live in `jfraction`; `divisors` needs only this layer.

The C-fraction coefficients, their contraction and the convergent recurrence
are generic over their arithmetic: they use only + - * / and integer
constants, and the coefficients take the powers p^e from a function, so the
same code builds the exact specs over Q(q) and the numeric (q, q^2) spec of
`convergence` on mpmath numbers, and runs the recurrence with z a polynomial
(`jfraction`) or a Taylor jet (`divisors`).  `exact`,
`fractions` and `random` are imported only by the functions that build exact
values, so loading this module compiles none of them.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Any, Callable, Sequence

if TYPE_CHECKING:
    from .exact import QRationalFn


class JFractionSpec:
    """The sequence pair <c_i> (i >= 1) and <ab_i> (i >= 2) defining a J-fraction.

    Every value derived from the spec is memoized on it by `memo`: the
    sequence values, the C-fraction coefficients of a contraction spec, the
    convergent pairs, the triangle rows and the shifted spec.  The values of
    the exact specs are QRationalFn; `convergence` builds a contraction spec
    on mpmath numbers, and reads only its sequence values.
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
        self._memo: dict = {}

    def memo(self, name: str, i: int, compute: Callable[[int], Any]) -> Any:
        """The memo entry (name, i), filled with compute(i) on first use.

        The values are immutable, so no lock is taken: two racing first calls
        may both compute the entry, and both return the value stored first.
        An entry whose compute raises stays empty, and blocks no other index.
        A memo that a recurrence fills (pairs, rows) is filled in ascending
        order, so each compute reads entries already stored."""
        key = (name, i)
        v = self._memo.get(key)
        if v is None:
            v = self._memo.setdefault(key, compute(i))
        return v

    def c(self, i: int) -> QRationalFn:
        if i < 1:
            raise ValueError("c is indexed from 1")
        return self.memo("c", i, self._c_fn)

    def ab(self, i: int) -> QRationalFn:
        if i < 2:
            raise ValueError("ab is indexed from 2")
        return self.memo("ab", i, self._ab_fn)

    def shifted(self) -> "JFractionSpec":
        """Same fraction with c_i -> c_{i+1}, ab_i -> ab_{i+1}.

        Memoized, so the shifted spec's own memos outlive each call."""
        return self.memo(
            "shifted",
            1,
            lambda _: JFractionSpec(f"{self.name}<<1", lambda i: self.c(i + 1), lambda i: self.ab(i + 1)),
        )

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


def convergent_pair(spec: JFractionSpec, z, i: int, pairs: Sequence) -> tuple:
    """(P_i, Q_i) of the J-fraction of spec at z, in the ring of z:

    P_0 = 0, Q_0 = 1, P_1 = 1, Q_1 = 1 - c_1 z, then for i >= 2
      P_i = (1 - c_i z) P_{i-1} - ab_i z^2 P_{i-2}
      Q_i = (1 - c_i z) Q_{i-1} - ab_i z^2 Q_{i-2},

    with pairs[i-1] and pairs[i-2] unpacking as (P, Q).  The ring is that of
    z times the spec's values: z in Q(q)[z] gives the convergent polynomials,
    a Taylor jet in t = z - z_0 their jets at z_0, a number their values."""
    if i == 0:
        return 0 * z, 1 + 0 * z
    lin = 1 - z * spec.c(i)
    if i == 1:
        return 1 + 0 * z, lin
    ab_z2 = z * z * spec.ab(i)
    (P2, Q2), (P1, Q1) = pairs[i - 2], pairs[i - 1]
    return lin * P1 - ab_z2 * P2, lin * Q1 - ab_z2 * Q2


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


def cfraction_coefficient(a, b, k: int, power: Callable[[int], Any]):
    """Coefficient g_k of the regular C-fraction underlying the ratio family.

    In base p, the series sum_n (a;p)_n/(b;p)_n z^n equals
    1/(1 - g_1 z/(1 - g_2 z/(1 - g_3 z/...))) with

        g_1      = (1-a)/(1-b)
        g_{2m}   = p^(m-1) (a - b p^(m-1)) (1 - p^m)
                   / ((1 - b p^(2m-2)) (1 - b p^(2m-1)))
        g_{2m+1} = p^m (1 - b p^(m-1)) (1 - a p^m)
                   / ((1 - b p^(2m-1)) (1 - b p^(2m)))

    (derived from the contiguous relations of the basic hypergeometric series
    behind the ratio, and verified by exact inversion of the target series).
    Every power p^e is power(e), and the arithmetic is that of a, b and the
    powers: QRationalFn.qpow gives base q over Q(q), lambda e: qpow(-e) base
    1/q, and a power function on mpmath numbers the numeric coefficients.
    The parametrized J-fraction is the even contraction of this C-fraction;
    base 1/q serves the Table 1 rows in (z q^-n; q)_n = (z/q; 1/q)_n.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (1 - a) / (1 - b)
    m = k // 2
    if k % 2 == 0:
        num = power(m - 1) * (a - b * power(m - 1)) * (1 - power(m))
        den = (1 - b * power(2 * m - 2)) * (1 - b * power(2 * m - 1))
        return num / den
    num = power(m) * (1 - b * power(m - 1)) * (1 - a * power(m))
    den = (1 - b * power(2 * m - 1)) * (1 - b * power(2 * m))
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
    from .exact import QRationalFn

    return _contraction_spec(
        f"pochhammer_ratio(a={params.a}, b={params.b})", params.a, params.b, QRationalFn.qpow
    )


def _contraction_spec(name: str, a, b, power: Callable[[int], Any]) -> JFractionSpec:
    """The even contraction of the C-fraction at (a, b) with powers p^e =
    power(e), in the arithmetic of a, b and the powers."""
    # c_i and ab_i share g_{2i-2}, and ab_{i+1} reuses g_{2i-1}: the g_k are
    # memoized on the spec, so each is computed once per spec
    def g_fn(k: int):
        return cfraction_coefficient(a, b, k, power)

    def g(k: int):
        return spec.memo("g", k, g_fn)

    def c_fn(i: int):
        if i == 1:
            return g(1)
        return g(2 * i - 2) + g(2 * i - 1)

    def ab_fn(i: int):
        # g-product form; regular even where the factored display degenerates
        return g(2 * i - 3) * g(2 * i - 2)

    spec = JFractionSpec(name, c_fn, ab_fn)
    return spec


def pochhammer_c_display_form(a: QRationalFn, b: QRationalFn, i: int) -> QRationalFn:
    """The tabulated single-fraction display of c_i for the ratio family:

        q^(i-2) (q + a b q^(2i-3) + a(1 - q^(i-1) - q^i) + b(q^i - 1 - q))
        / ((1 - b q^(2i-4)) (1 - b q^(2i-2)))

    It agrees with the contraction value at i = 1, 2 but diverges from it for
    i >= 3, where it no longer reproduces the target coefficients; kept only
    for diagnostics (e.g. the first-column finite-sum formula was evidently
    derived from this variant)."""
    from .exact import QRationalFn

    if i == 1:
        return (a - 1) / (b - 1)
    q, qpow = QRationalFn.q(), QRationalFn.qpow
    num = qpow(i - 2) * (
        q + a * b * qpow(2 * i - 3) + a * (1 - qpow(i - 1) - qpow(i))
        + b * (qpow(i) - 1 - q)
    )
    den = (1 - b * qpow(2 * i - 4)) * (1 - b * qpow(2 * i - 2))
    return num / den


def divisor_contraction(power: Callable[[int], Any]) -> JFractionSpec:
    """The (a, b) = (q, q^2) instance in the arithmetic of power(e) = q^e:
    convergent coefficients are (1-q)/(1-q^(n+1)).

    QRationalFn.qpow gives the exact spec of divisor_spec; `convergence`
    passes a memoized power on the numbers of an mpmath context, so that
    each q^e is computed once."""
    return _contraction_spec("pochhammer_ratio(a=q, b=q^2)", power(1), power(2), power)


@functools.cache
def divisor_spec() -> JFractionSpec:
    """The exact (q, q^2) spec over Q(q), divisor_contraction(QRationalFn.qpow).

    Returns one shared instance per process, so that its memoized sequences
    and convergents are reused across callers (all cached values are
    immutable)."""
    from .exact import QRationalFn

    return divisor_contraction(QRationalFn.qpow)


def random_rational_spec(seed: int, length: int = 18) -> JFractionSpec:
    """Tabulated spec with small random rational c_i and nonzero ab_i.

    All values come from one seeded stream, the c draws before the ab draws,
    so the spec for a given seed depends on `length` too."""
    import random
    from fractions import Fraction

    from .exact import QRationalFn

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
