"""Independent brute-force ground truth: divisor sums, Pochhammer products,
Lambert series, Gaussian binomials, and a truncated q-binomial-theorem check.

Nothing here shares a code path with the machinery it is used to check,
beyond the exact arithmetic primitives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# `exact` is imported by the functions that use it, so `oracle sigma`, which
# sums over ints, does not load it
if TYPE_CHECKING:
    from .exact import QPolynomial, QRationalFn, QSeries


def sigma_alpha(alpha: int, n: int) -> int:
    """Sum of alpha-th powers of the divisors of n, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** alpha
            e = n // d
            if e != d:
                total += e ** alpha
        d += 1
    return total


def divisor_count(n: int) -> int:
    return sigma_alpha(0, n)


def q_pochhammer(x: QRationalFn, n: int) -> QRationalFn:
    """(x; q)_n = product of (1 - x*q^k) for 0 <= k < n; the empty product is 1."""
    from .exact import QRationalFn

    if n < 0:
        raise ValueError("n must be >= 0")
    q = QRationalFn.q()
    acc = QRationalFn.one()
    xq = x
    for _ in range(n):
        acc = acc * (QRationalFn.one() - xq)
        xq = xq * q
    return acc


def pochhammer_ratio(a: QRationalFn, b: QRationalFn, n: int) -> QRationalFn:
    """(a; q)_n / (b; q)_n."""
    return q_pochhammer(a, n) / q_pochhammer(b, n)


def lambert_truncated(alpha: int, order: int) -> QSeries:
    """Double-sum expansion of sum_n n^alpha * q^n/(1-q^n); coefficient m is sigma_alpha(m)."""
    from .exact import QSeries

    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [0] * order
    for n in range(1, order):
        w = n ** alpha
        for m in range(n, order, n):
            coeffs[m] += w
    return QSeries(order, coeffs)


def q_binomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial coefficient via the q-Pascal recurrence."""
    from .exact import QPolynomial

    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    # row[j] holds [i choose j]_q while i sweeps upward
    row: list[QPolynomial] = [QPolynomial.one()]
    for i in range(1, n + 1):
        new_row = [QPolynomial.one()]
        for j in range(1, min(i, k) + 1):
            prev = row[j] if j < len(row) else QPolynomial.zero()
            # [i choose j]_q = [i-1 choose j]_q + q^(i-j) * [i-1 choose j-1]_q
            new_row.append(prev + QPolynomial.monomial(i - j) * row[j - 1])
        row = new_row
    return row[k]


def q_binomial_theorem_check(a: QRationalFn, z_val: QRationalFn, order: int) -> bool:
    """Truncated check of sum_n (a;q)_n/(q;q)_n * z^n = (a*z; q)_inf / (z; q)_inf.

    z_val must vanish at q=0 (e.g. q times a unit), so that both sides are
    power series in q and every factor beyond index `order` is 1 + O(q^order).
    """
    from .exact import QRationalFn, QSeries

    if order < 1:
        raise ValueError("order must be >= 1")
    if z_val.is_zero() or z_val.taylor(1)[0] != 0:
        raise ValueError("z must vanish at q=0 for the truncated comparison")
    q = QRationalFn.q()
    one = QRationalFn.one()

    lhs = QSeries.zero(order)
    term = QRationalFn.one()  # (a;q)_n/(q;q)_n * z^n, built incrementally
    aq = a
    qq = q
    for n in range(order):
        lhs = lhs + term.taylor(order)
        term = term * (one - aq) / (one - qq) * z_val
        aq = aq * q
        qq = qq * q

    rhs = QSeries.one(order)
    az = a * z_val
    zz = z_val
    for _ in range(order):
        if not az.is_zero():
            rhs = rhs * (one - az).taylor(order)
        rhs = rhs / (one - zz).taylor(order)
        az = az * q
        zz = zz * q

    return lhs == rhs
