"""High-precision numeric checks of the continued-fraction convergence claims
for the divisor-generating J-fraction: elementwise margin tests against the
classical |b_h| >= |a_h| + 1 sufficient criterion, the numeric threshold
radius where the governing inequality flips, and direct convergent-vs-target
probes.  Each diagnostic returns the JSON report that the CLI prints.

The probe and the margins read c_i and ab_i from the exact stack's own
construction: `sequences.divisor_contraction`, the even contraction of the
C-fraction coefficients g_k of `sequences.cfraction_coefficient` at
(a, b) = (q, q^2), run on the numbers of the diagnostic's context.  `exact` is
never imported, and `converge radius` does not load `sequences` either.

These are diagnostics at extended precision, not interval-arithmetic proofs.
Each call computes on an mpmath context of its own: 128 bits, and for
margins the bits of margin_precision, max(128, 2 h_max log2(1/|q|) + 64), so
that margins of size |q|^(2h) stay resolvable.  The global mpmath.mp is never
read or written, and diagnostics run at once in two threads share no
precision setting.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import mpmath

_PRECISION_BITS = 128

_B_READING_NOTE = (
    "partial-denominator display read with the adjacent 'q^i q^(i+1)' taken as "
    "the product q^(2i+1)"
)


def _context(bits: int) -> mpmath.MPContext:
    """A new mpmath context at the given precision; building one takes about
    half a millisecond."""
    ctx = mpmath.MPContext()
    ctx.prec = bits
    return ctx


def _pair(x) -> list[float]:
    """[re, im] of a context value, as JSON floats."""
    c = complex(x)
    return [c.real, c.imag]


def margin_precision(q: complex, h_max: int) -> int:
    """The bits of pringsheim_margins(q, h_max): max(128, 2 h_max log2(1/|q|)
    + 64), since margins at level h decay like |q|^(2h-2) and must stay
    resolvable.  Raises ValueError unless 0 < |q| < 1."""
    if abs(q) >= 1 or q == 0:
        raise ValueError("need 0 < |q| < 1")
    return max(_PRECISION_BITS, int(2 * h_max * math.log2(1 / abs(q))) + 64)


def pringsheim_margins(q: complex, h_max: int = 100) -> dict:
    """Evaluate the displayed a_h, b_h with z = q and report |b_h| - |a_h| - 1.

    a_h = z^2 ab_h, with ab_h that of the (q, q^2) spec (divisor_contraction)
    b_h = (1 + q^(h-1)(2q + q^(2h) + q^(h+2)) - q^(h-1)(q^(2h+1) + q^2 + q^3))
          / ((1-q^(2h-2)) (1-q^(2h)))

    The level h = 1 partial term is degenerate (0/0); rows start at h = 2."""
    if h_max < 2:
        raise ValueError("h_max must be >= 2")
    from .sequences import divisor_contraction

    bits = margin_precision(q, h_max)
    qq = _context(bits).mpc(q)
    z = qq
    # one memo of q^e for the spec's g_k and for b_h
    power = functools.cache(qq.__pow__)
    spec = divisor_contraction(power)
    rows = []
    for h in range(2, h_max + 1):
        a_h = spec.ab(h) * power(2)  # z^2, with z = q
        b_num = (
            1
            + power(h - 1) * (2 * qq + power(2 * h) + power(h + 2))
            - power(h - 1) * (power(2 * h + 1) + power(2) + power(3))
        )
        b_h = b_num / ((1 - power(2 * h - 2)) * (1 - power(2 * h)))
        # the margin must be formed at working precision; at float precision
        # |b_h| - 1 underflows to zero for moderate h already
        margin = abs(b_h) - abs(a_h) - 1
        rows.append({"h": h, "abs_a": float(abs(a_h)), "abs_b": float(abs(b_h)), "margin": float(margin)})
    return {
        "schema": "qjfrac/pringsheim/1",
        "q": _pair(qq),
        "z": _pair(z),
        "precision_bits": bits,
        "reading_note": _B_READING_NOTE,
        "rows": rows,
    }


def threshold_inequality_gap(t: float, ctx: Optional[mpmath.MPContext] = None) -> float:
    """LHS - RHS of the governing inequality

        (1-t)^2/(1+t^2)  >=  sqrt(((1-t)^4 + t^2 (1+t)^2) / (1+t+t^2+t^3)),

    positive inside the provable region, on ctx (by default a new 128-bit
    context)."""
    if ctx is None:
        ctx = _context(_PRECISION_BITS)
    tt = ctx.mpf(t)
    lhs = (1 - tt) ** 2 / (1 + tt ** 2)
    rhs = ctx.sqrt(((1 - tt) ** 4 + tt ** 2 * (1 + tt) ** 2) / (1 + tt + tt ** 2 + tt ** 3))
    return float(lhs - rhs)


def threshold_radius(tolerance: float) -> float:
    """Bisection root of the governing inequality on (0, 1); near 0.206783.

    The gap vanishes at t = 0 as well, so the bracket is located by scanning
    for the interior sign change; a missing sign change signals a
    transcription bug and raises.  Bisection also stops once lo and hi are
    adjacent doubles, so a tolerance below their spacing still ends."""
    if not 0 < tolerance < math.inf:
        raise ValueError("tolerance must be > 0 and finite")
    # one context for the ~100 gap evaluations of the scan and the bisection
    ctx = _context(_PRECISION_BITS)
    lo, hi = None, None
    prev_t, prev_g = None, None
    steps = 400
    for k in range(1, steps + 1):
        t = 0.001 + (0.999 - 0.001) * k / steps
        g = threshold_inequality_gap(t, ctx)
        if prev_t is not None and prev_g > 0 >= g:
            lo, hi = prev_t, t
            break
        prev_t, prev_g = t, g
    if lo is None:
        raise ArithmeticError("no sign change found for the threshold inequality")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if mid == lo or mid == hi:
            break
        if threshold_inequality_gap(mid, ctx) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# terms the direct sum takes at most; at q = 0.1, z = 0.9999 the tail left
# after them is about 0.4
_MAX_TERMS = 100_000


def _direct_sum(ctx: mpmath.MPContext, q, z) -> tuple:
    """((1-q) * sum_{n >= 0} z^n/(1-q^(n+1)), converged), on ctx: the sum is
    taken to a numerically negligible tail, or to _MAX_TERMS terms, and then
    converged is False."""
    total = ctx.mpc(0)
    zn = ctx.mpc(1)
    eps = ctx.mpf(2) ** (-ctx.prec - 8)
    gap = 1 - abs(z)
    for n in range(1, _MAX_TERMS + 1):
        total += zn / (1 - q ** n)
        zn *= z
        if abs(zn) / gap < eps * max(abs(total), 1) and n > 4:
            return (1 - q) * total, True
    return (1 - q) * total, False


def numeric_convergence_probe(q: complex, z: complex, h_max: int = 20) -> dict:
    """Backward-recurrence evaluation of each convergent against the direct sum.

    Conv_h = 1/(1 - c_1 z - t_2) with t_i = ab_i z^2 / (1 - c_i z - t_{i+1});
    the gap |Conv_h - target| is reported per level, and is expected to fall
    monotonically to zero inside the provable radius.  target_converged is
    False when the direct sum stopped at _MAX_TERMS."""
    if abs(q) >= 1 or abs(z) >= 1:
        raise ValueError("need |q| < 1 and |z| < 1")
    from .sequences import divisor_contraction

    ctx = _context(_PRECISION_BITS)
    qq, zz = ctx.mpc(q), ctx.mpc(z)
    target, converged = _direct_sum(ctx, qq, zz) if q != 0 else (1 / (1 - zz) * (1 - qq), True)
    spec = divisor_contraction(functools.cache(qq.__pow__))
    rows = []
    # c_i z and ab_i z^2 of the levels reached so far, each evaluated once
    # (the Nones pad the unused indices 0 and 1); a level that fails stays
    # missing, so every later h retries it and is flagged too
    cz: list = [None]
    abz: list = [None, None]
    for h in range(1, h_max + 1):
        tail = 0
        try:
            while len(cz) <= h:
                cz.append(spec.c(len(cz)) * zz)
            while len(abz) <= h:
                abz.append(spec.ab(len(abz)) * zz ** 2)
            for i in range(h, 1, -1):
                tail = abz[i] / (1 - cz[i] - tail)
            gap, overflow = float(abs(1 / (1 - cz[1] - tail) - target)), False
        except (ZeroDivisionError, OverflowError):
            gap, overflow = float("inf"), True
        rows.append({"h": h, "gap": gap, "overflow": overflow})
    return {
        "schema": "qjfrac/converge-probe/1",
        "q": _pair(qq),
        "z": _pair(zz),
        "target": _pair(target),
        "target_converged": converged,
        "precision_bits": _PRECISION_BITS,
        "rows": rows,
    }
