"""The rows of the triangle of signed elementary-symmetric coefficients of the
c-sequence, memoized on the spec; the paired nested sums over the ab-sequence;
exact verification of the expansion identities for the convergent numerator
and denominator polynomials; and the measured comparison of the tabulated
quadruple-sum block with Q_j Q_{j+1} (`tilde_D0j`).

Every check here clears denominators down to a ZPolynomial identity over
Q(q)[z], all through one builder (`_cleared`); no two-variable gcd is ever
needed.  Each check returns a JSON report: the identity checks a lemma
report (jfraction.lemma_report), the measured ones their own schema.
`lemma_suite` runs the checks of one spec and returns the record that
`verify lemmas` prints.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations
from typing import Callable, Iterable, Optional

from .exact import QRationalFn
from .jfraction import convergent_pairs, convergent_sum_decomposition, lemma_report
from .sequences import JFractionSpec, divisor_spec, pochhammer_c_display_form
from .zalgebra import ZPolynomial

_ONE = QRationalFn.one()
_ZERO = QRationalFn.zero()


def triangle_row(spec: JFractionSpec, h: int) -> tuple[QRationalFn, ...]:
    """Row h of the triangle entry(h,k) = entry(h-1,k) - c_h entry(h-1,k-1),
    entry(0,0) = 1: its h + 1 entries entry(h,k) = [z^k] (1-c_1 z)...(1-c_h z),
    up to sign the elementary symmetric functions (-1)^k e_k(c_1, ..., c_h).

    Rows are memoized on the spec, filled in ascending order, the way
    jfraction.convergent_pairs fills the convergents."""
    if h < 0:
        raise ValueError("row must be >= 0")
    row = spec.memo("row", 0, lambda _: (_ONE,))
    for i in range(1, h + 1):
        # row i is (1 - c_i z) times row i - 1; the product leaves out the
        # zero top entries that zero c values make, and the row keeps them
        row = spec.memo(
            "row", i, lambda i: (_times_factors(spec, ZPolynomial(row), (i,)).coeffs + (_ZERO,) * i)[: i + 1]
        )
    return row


def _times_factors(spec: JFractionSpec, p: ZPolynomial, indices: Iterable[int]) -> ZPolynomial:
    """p (1 - c_i z)... over the indices i.  Each linear factor is the left
    operand of the product, whose convolution then walks its two
    coefficients rather than all of p's."""
    for c in map(spec.c, indices):
        p = ZPolynomial((_ONE, -c)) * p
    return p


def _entry(row: tuple[QRationalFn, ...], k: int) -> QRationalFn:
    """entry(h,k) of row h; zero outside the triangle."""
    return row[k] if 0 <= k < len(row) else _ZERO


def power_sum(c_source: Callable[[int], QRationalFn], h: int, m: int) -> QRationalFn:
    """S_m = c_1^m + ... + c_h^m."""
    acc = _ZERO
    for j in range(1, h + 1):
        acc = acc + c_source(j) ** m
    return acc


def newton_girard_check(spec: JFractionSpec, h: int, k: int) -> dict:
    """Newton's identities connecting triangle entries and power sums.

    Adopted reading (k-m column index, signs absorbed by the signed entries):
        k*entry(h,k) + sum_{m=1}^{k} S_m(c_1..c_h) * entry(h, k-m) = 0.
    The verbatim display indexes entries at m-k (zero for m < k) and keeps
    alternating signs; its residual is reported but not expected to vanish.
    Returns the qjfrac/newton-girard/1 report.
    """
    if not 0 <= k <= h:
        raise ValueError("need 0 <= k <= h")
    row = triangle_row(spec, h)
    adopted = k * row[k]
    printed = ((-1) ** k * k) * row[k]
    for m in range(1, k + 1):
        sm = power_sum(spec.c, h, m)
        adopted = adopted + sm * row[k - m]
        printed = printed + ((-1) ** (k - m)) * sm * _entry(row, m - k)
    return {
        "schema": "qjfrac/newton-girard/1",
        "h": h,
        "k": k,
        "adopted_residual": str(adopted),
        "printed_residual": str(printed),
        "adopted_ok": adopted.is_zero(),
    }


# ---------------------------------------------------------------------------
# nested sums
# ---------------------------------------------------------------------------


def _spaced_tuples(h: int, m: int):
    """All (k_1..k_m) with k_1 >= 2, k_{p+1} >= k_p + 2, k_m <= h, in
    lexicographic order."""
    # k_p = j_p + p - 1 maps the spaced tuples onto the m-subsets of 2..h-m+1
    for js in combinations(range(2, h - m + 2), m):
        yield tuple(j + p for p, j in enumerate(js))


def _term(spec: JFractionSpec, ks: tuple[int, ...]) -> tuple[QRationalFn, list[int]]:
    """(prod ab_{k_p}, factor indices k_p - 1, k_p, repeated if adjacent) of one index tuple."""
    w = _ONE
    fs: list[int] = []
    for k in ks:
        w = w * spec.ab(k)
        fs += (k - 1, k)
    return w, fs


def _cleared(
    spec: JFractionSpec,
    terms: Iterable[tuple[QRationalFn, Iterable[int]]],
    lcm: Optional[Counter] = None,
) -> tuple[Counter, ZPolynomial]:
    """(L, N): the sum over the items (w, fs) of terms of
    w / prod_{i in fs}(1 - c_i z) is N / prod_{i in L}(1 - c_i z).

    L is lcm when given, which must contain every index multiset fs, and
    otherwise the lcm of the fs.  Each term contributes w times the linear
    factors of L minus its fs."""
    terms = [(w, Counter(fs)) for w, fs in terms]
    if lcm is None:
        lcm = Counter()
        for _, fs in terms:
            lcm |= fs
    cofactors = (_times_factors(spec, ZPolynomial.constant(w), (lcm - fs).elements()) for w, fs in terms)
    return lcm, sum(cofactors, ZPolynomial.zero())


def nested_sum(spec: JFractionSpec, h: int, m: int, s: int) -> tuple[ZPolynomial, ZPolynomial]:
    """The sum over spaced tuples 2 <= k_1, k_p + 2 <= k_{p+1}, k_m <= h with
    sum k_p = s of the terms

        prod_p ab_{k_p} / ((1 - c_{k_p - 1} z)(1 - c_{k_p} z)).

    The numerator expansion uses the index-shifted sums
    S^[P]_{h,m,s} = nested_sum(spec.shifted(), h, m, s - m):
    terms ab_{k_p + 1} / ((1 - c_{k_p} z)(1 - c_{k_p + 1} z)) with sum k_p = s - m.

    Returns the pair (numerator, denominator) of ZPolynomials, the sum over
    the product of the linear factors actually used, each once (the spacing
    keeps a tuple's factors distinct); the empty sum is (0, 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    terms = [_term(spec, ks) for ks in _spaced_tuples(h, m) if sum(ks) == s]
    used, num = _cleared(spec, terms)
    return num, _times_factors(spec, ZPolynomial.one(), used.elements())


# ---------------------------------------------------------------------------
# expansion identities for Q_h and P_h
# ---------------------------------------------------------------------------


def _verify_expansion(
    name: str, level: int, spec: JFractionSpec, h: int, target: ZPolynomial
) -> dict:
    """Exact check of both expansion identities of Q_h(spec), with target
    standing for Q_h; a failure is reported as name(i) or name(ii) at level.

    With D = (1-c_1 z)...(1-c_h z), row h of the triangle, and N_m = D S_{h,m},
    the sum over the spaced tuples of m indices of ab-weight * (the linear
    factors the tuple leaves unused), both identities are read from the same
    D and N_m:

    (i)  Q_h = D + sum_{m=1}^{floor(h/2)} (-z^2)^m N_m, a plain ZPolynomial
         identity (every nested-sum denominator is cleared against D).
    (ii) [z^n] Q_h = entry(h,n)
         + sum_m sum_{k=2m}^{n} (-1)^m entry(h, n-k) [z^(k-2m)] S_{h,m}
         for all 0 <= n <= h, where S_{h,m} = sum_s S_{h,m,s} is expanded
         as N_m times the one series reciprocal of D.
    """
    row = triangle_row(spec, h)
    D = ZPolynomial(row)
    factors = Counter(range(1, h + 1))
    numerators = {
        m: _cleared(spec, (_term(spec, ks) for ks in _spaced_tuples(h, m)), factors)[1]
        for m in range(1, h // 2 + 1)
    }
    rhs = D
    for m, N in numerators.items():
        rhs = rhs + N.shift(2 * m) if m % 2 == 0 else rhs - N.shift(2 * m)
    if target != rhs:
        return lemma_report(f"{name}(i)", level, [level])

    inv_D = D.series(h + 1).reciprocal()
    # (ii) reads [z^j] S_{h,m} only for j <= h - 2m
    series = {m: N.series(h + 1 - 2 * m) * inv_D for m, N in numerators.items()}
    for n in range(0, h + 1):
        total = _entry(row, n)
        for m, ser in series.items():
            for k in range(2 * m, n + 1):
                coeff = ser[k - 2 * m]
                if not coeff.is_zero():
                    term = _entry(row, n - k) * coeff
                    total = total + term if m % 2 == 0 else total - term
        if total != target.coefficient(n):
            return lemma_report(f"{name}(ii)", level, [level, n])
    return lemma_report(name, level)


def verify_Qh_expansion(spec: JFractionSpec, h: int) -> dict:
    """Exact check of both denominator expansion identities (i) and (ii) of Q_h."""
    if h < 2:
        raise ValueError("h must be >= 2")
    Qh = convergent_pairs(spec, h)[h].Q
    return _verify_expansion("denominator-expansion", h, spec, h, Qh)


def verify_Ph_expansion(spec: JFractionSpec, h: int) -> dict:
    """Exact check of the numerator expansion identities.

    First the shift rule P_h(c, ab) = Q_{h-1}(c_{i+1}, ab_{i+1}); then P_h
    must satisfy the denominator identities (i) and (ii) of Q_{h-1} on
    spec.shifted(): the product over (1-c_2 z)...(1-c_h z) with the
    index-shifted nested sums S^[P], and the shifted triangle
    entry_P(h,k) = [z^k](1-c_2 z)...(1-c_h z)."""
    if h < 2:
        raise ValueError("h must be >= 2")
    Ph = convergent_pairs(spec, h)[h].P
    shifted_spec = spec.shifted()
    if Ph != convergent_pairs(shifted_spec, h - 1)[h - 1].Q:
        return lemma_report("numerator-shift-rule", h, [h])
    return _verify_expansion("numerator-expansion", h, shifted_spec, h - 1, Ph)


# ---------------------------------------------------------------------------
# the index-shift claim (first relation provable, second a measured conjecture)
# ---------------------------------------------------------------------------


def claim_triangle_residual(spec: JFractionSpec, h: int, k: int) -> QRationalFn:
    """Residual of entry_P(h,k) = entry(h-1,k) + (c_1 - c_h) [z^(k-1)] prod_{i=2}^{h-1}(1-c_i z)."""
    if not 1 <= k <= h:
        raise ValueError("need 1 <= k <= h")
    shifted = spec.shifted()
    entry_c = _entry(triangle_row(spec, h - 1), k)
    # [z^(k-1)] prod_{i=2}^{h-1}(1-c_i z) is the shifted triangle's entry(h-2,k-1)
    below = _entry(triangle_row(shifted, h - 2), k - 1) if h >= 2 else _ZERO
    correction = (spec.c(1) - spec.c(h)) * below
    return _entry(triangle_row(shifted, h - 1), k) - entry_c - correction


def _cell_is_zero(spec: JFractionSpec, terms: dict[tuple[int, ...], QRationalFn]) -> bool:
    """Whether the sum of w / prod_{i in fs}(1 - c_i z) over the items (fs, w)
    of terms is zero: its numerator over the lcm of the index multisets fs,
    whose linear factors all have constant term 1, is the zero polynomial."""
    return not _cleared(spec, ((w, fs) for fs, w in terms.items() if w))[1]


def verify_claim_relations(spec: JFractionSpec, h: int, k: int) -> dict:
    """Evaluate both displayed index-shift relations exactly.

    The triangle relation is provable and its residual is expected to vanish.
    The nested-sum difference formula, a conjecture in the source material,

        S_{h-1,m,s} - S^[P]_{h,m,s} =
            sum over 2 <= i_1 < ... < i_m <= h with sum i = s of
            prod ab_{i_k} / ((1 - c_{i_k - 1} z)(1 - c_{i_k} z)),

    where the right side allows adjacent indices (so factors may repeat), is
    reported cell by cell on the full (m, s) grid, as whether the difference
    of the two sides is zero, without assertion.

    The formula cannot hold as printed.  With e_k = ab_k / ((1 - c_{k-1} z)
    (1 - c_k z)) and T(a..b; m', t) the sum of prod e_k over the spaced
    m'-tuples with labels in a..b and label sum t (T = 1 for m' = 0 and
    t = 0), S^[P]_{h,m,s} is the spaced sum over the labels 3..h+1, so the
    tuples inside 3..h-1 cancel against S_{h-1,m,s} and

        S_{h-1,m,s} - S^[P]_{h,m,s} = e_2 T(4..h-1; m-1, s-2)
            - e_h T(3..h-2; m-1, s-h) - e_{h+1} T(3..h-1; m-1, s-h-1),

    which the adjacent-allowed sum over 2..h does not match in general.

    Each term of the three sums is a signed weight over its multiset of
    factor indices; the shifted family's indices move up by one, since
    spec.shifted().c(i) == spec.c(i + 1) (and so for ab).  Terms with equal
    index multisets are summed first, which cancels the twins above, and the
    cell is zero iff the rest cleared against the lcm of their index
    multisets leaves the zero numerator (_cell_is_zero).  Returns the
    qjfrac/claim-report/3 report."""
    tri_res = claim_triangle_residual(spec, h, k)
    nested = []
    for m in range(1, h // 2 + 1):
        # cells[s][factor indices] = summed signed weight
        cells = defaultdict(lambda: defaultdict(lambda: _ZERO))
        for sign, tuples in (
            (1, _spaced_tuples(h - 1, m)),
            (-1, (tuple(i + 1 for i in ks) for ks in _spaced_tuples(h, m))),
            (-1, combinations(range(2, h + 1), m)),
        ):
            for ks in tuples:
                w, fs = _term(spec, ks)
                cells[sum(ks)][tuple(fs)] += sign * w
        for s in range(0, m * h + 1):
            nested.append({"m": m, "s": s, "zero": _cell_is_zero(spec, cells[s])})
    return {
        "schema": "qjfrac/claim-report/3",
        "h": h,
        "k": k,
        "triangle_residual": str(tri_res),
        "triangle_ok": tri_res.is_zero(),
        "nested_residuals": nested,
    }


# ---------------------------------------------------------------------------
# coefficient relation between P_h and Q_h for the divisor spec
# ---------------------------------------------------------------------------


def verify_PQ_coefficient_relation(spec: JFractionSpec, h: int) -> dict:
    """For the (q, q^2) sequences: [z^n] P_h = sum_{i=0}^n [z^i] Q_h (1-q)/(1-q^(n+1-i)),
    exactly, for all 0 <= n < h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    pairs = convergent_pairs(spec, h)
    q = QRationalFn.q()
    one = _ONE
    for n in range(h):
        acc = _ZERO
        for i in range(n + 1):
            qi = pairs[h].Q.coefficient(i)
            if not qi.is_zero():
                acc = acc + qi * ((one - q) / (one - QRationalFn.qpow(n + 1 - i)))
        if acc != pairs[h].P.coefficient(n):
            return lemma_report("numerator-from-denominator-coefficients", h, [h, n])
    return lemma_report("numerator-from-denominator-coefficients", h)


# ---------------------------------------------------------------------------
# first-column finite-sum formula for the (q, q^2) triangle
# ---------------------------------------------------------------------------


def first_column_formula_check(spec: JFractionSpec, h: int) -> dict:
    """Evaluate the finite-sum formula for entry(h,1) of the (q,q^2) triangle,

        -1/(1+q) + sum_{k=0}^{h-2} [ q/(2(1-q^(k+2)))
                                     - (q^3+2q^2-3q-2)/(2(q^2-1)(1+q^(k+2)))
                                     - 1/(2(1+q)(1-q^(k+1)))
                                     - (2q-3)/(2(1-q)(1+q^(k+1))) ],

    and compare it exactly with the recurrence triangle (residual reported).
    The formula turns out to be the partial-fraction expansion of minus the
    running sum of the single-fraction c display, so the report also records
    whether it matches the triangle built from that display variant.  Returns
    the qjfrac/first-column/1 report."""
    if h < 1:
        raise ValueError("h must be >= 1")
    q = QRationalFn.q()
    one = _ONE
    value = -(one / (one + q))
    num_a = q
    num_b = (q ** 3 + 2 * q ** 2 - 3 * q - 2)
    num_d = (2 * q - 3)
    for k in range(0, h - 1):
        t1 = num_a / (2 * (one - QRationalFn.qpow(k + 2)))
        t2 = num_b / (2 * (q * q - one) * (one + QRationalFn.qpow(k + 2)))
        t3 = one / (2 * (one + q) * (one - QRationalFn.qpow(k + 1)))
        t4 = num_d / (2 * (one - q) * (one + QRationalFn.qpow(k + 1)))
        value = value + t1 - t2 - t3 - t4
    triangle = triangle_row(spec, h)[1]
    residual = value - triangle
    # entry(h,1) = -(c_1 + ... + c_h), here of the single-fraction c display
    qq2_display = -sum((pochhammer_c_display_form(q, q * q, i) for i in range(1, h + 1)), _ZERO)
    return {
        "schema": "qjfrac/first-column/1",
        "h": h,
        "formula": str(value),
        "triangle": str(triangle),
        "residual": str(residual),
        "status": "ok" if residual.is_zero() else "nonzero-residual",
        "matches_display_variant": (value - qq2_display).is_zero(),
    }


# ---------------------------------------------------------------------------
# the quadruple-sum block and its comparison against Q_j Q_{j+1}
# ---------------------------------------------------------------------------


def tilde_D0j(j: int, spec: Optional[JFractionSpec] = None) -> dict:
    """Evaluate the four printed sum blocks of spec (default the (q, q^2)
    spec) and compare them with Q_j Q_{j+1}, as the qjfrac/tilde-d/1 report.

    The display is internally garbled (the comparison documents how far it
    lands from the denominator block it is said to restate), so this is a
    measurement, never an assertion."""
    if j < 1:
        raise ValueError("j must be >= 1")
    if spec is None:
        spec = divisor_spec()
    return _tilde_d_report(j, spec, _tilde_d_block(j, spec))


def _tilde_d_block(j: int, spec: JFractionSpec) -> ZPolynomial:
    """The quadruple-sum block of the display, for j >= 1.

    With e(h, k) = entry(h, k) and c_{h,m,s}(k) = (-1)^m [z^(k-2m)] S_{h,m,s}
    (zero for k < 2m), where 1 <= m <= floor(h/2) and s <= m h, the display
    reads, for 0 <= n <= 2j + 1,

        [z^n] = e(j+1, n) e(j, 2j-n)
              + sum_{m1,s1>=1} sum_{k1=1}^{s1} sum_{m2,s2>=1} sum_{k2=1}^{s2}
                  e(j, 2j+1-n-k1) c_{j,m1,s1}(k1) e(j+1, n-k2) c_{j+1,m2,s2}(k2)
              + e(j, 2j+1-n) sum_{m,s>=0} sum_{k=0}^{s} e(j+1, n-k) c_{j+1,m,s}(k)
              + e(j+1, 2j+1-n) sum_{m,s>=0} sum_{k=0}^{s} e(j, n-k) c_{j,m,s}(k).

    Block 1 pairs entries along the anti-diagonal; the summand of block 2 is
    a (k1, m1, s1) factor times a (k2, m2, s2) factor.  Summing over s first,
    every block reads the same single sum per level h in {j, j+1},

        A_h(k) = sum_{m=1}^{floor(h/2)} sum_{s=k}^{m h} c_{h,m,s}(k),

    the k = 0 terms (and with them the s = 0 terms of blocks 3 and 4)
    vanishing because k < 2m.  With U_h(n) = sum_k e(h, n-k) A_h(k), the
    z^n coefficient of (row h of the triangle) times A_h,

        [z^n] = e(j+1, n) e(j, 2j-n) + U_{j+1}(n) (U_j(2j+1-n) + e(j, 2j+1-n))
              + e(j+1, 2j+1-n) U_j(n).

    U_h(n) reads A_h(k) only for k <= n <= 2j + 1, so each S_{h,m,s} is
    expanded to order 2j."""
    rows = {h: triangle_row(spec, h) for h in (j, j + 1)}
    U: dict[int, ZPolynomial] = {}
    for h in (j, j + 1):
        A = [_ZERO] * (2 * j + 2)
        for m in range(1, h // 2 + 1):
            for s in range(2 * m, m * h + 1):
                num, den = nested_sum(spec, h, m, s)
                ser = num.series(2 * j) / den.series(2 * j)
                for k in range(2 * m, min(s, 2 * j + 1) + 1):
                    A[k] = A[k] + ser[k - 2 * m] if m % 2 == 0 else A[k] - ser[k - 2 * m]
        U[h] = ZPolynomial(rows[h]) * ZPolynomial(A)

    def e(h: int, k: int) -> QRationalFn:
        return _entry(rows[h], k)

    return ZPolynomial(
        e(j + 1, n) * e(j, 2 * j - n)
        + U[j + 1].coefficient(n) * (U[j].coefficient(2 * j + 1 - n) + e(j, 2 * j + 1 - n))
        + e(j + 1, 2 * j + 1 - n) * U[j].coefficient(n)
        for n in range(2 * j + 2)
    )


def _tilde_d_report(j: int, spec: JFractionSpec, quad: ZPolynomial) -> dict:
    """Compare a quadruple-sum block with Q_j Q_{j+1} of spec.

    `proportional_factor` is set when the two differ by a z-independent
    rational function of q only (measured, not asserted)."""
    pairs = convergent_pairs(spec, j + 1)
    product = pairs[j].Q * pairs[j + 1].Q
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
    return {
        "schema": "qjfrac/tilde-d/1",
        "j": j,
        "equal": quad == product,
        "proportional_factor": str(factor) if factor is not None else None,
        "quad_sum_degree": quad.degree,
        "product_degree": product.degree,
    }


# ---------------------------------------------------------------------------
# the suite that `verify lemmas` runs
# ---------------------------------------------------------------------------


def lemma_suite(spec: JFractionSpec, h: int) -> dict:
    """The qjfrac/verify-lemmas/1 record of spec to depth h.

    Its status is "ok" when every identity check in `reports` passed: the
    Q_h and P_h expansions at each depth 2..h and the convergent-sum
    decomposition at h.  `checker_reports` holds the measured residuals
    (Newton-Girard and the claim, at k = min(2, h)), which never set the
    status.  When spec is the shared divisor_spec(), the checks that hold for
    the (q, q^2) sequences only run too: the numerator-from-denominator
    relation at each depth among the identity checks, and the first-column
    formula and the quadruple-sum block at j = 1 among the measured ones."""
    qq2 = spec is divisor_spec()
    reports = []
    for i in range(2, h + 1):
        reports.append(verify_Qh_expansion(spec, i))
        reports.append(verify_Ph_expansion(spec, i))
        if qq2:
            reports.append(verify_PQ_coefficient_relation(spec, i))
    reports.append(convergent_sum_decomposition(spec, h))
    checker_reports = [
        newton_girard_check(spec, h, min(2, h)),
        verify_claim_relations(spec, h, min(2, h)),
    ]
    if qq2:
        checker_reports.append(first_column_formula_check(spec, h))
        checker_reports.append(tilde_D0j(1))
    return {
        "schema": "qjfrac/verify-lemmas/1",
        "spec": spec.name,
        "h_max": h,
        "status": "ok" if all(r["status"] == "ok" for r in reports) else "mismatch",
        "reports": reports,
        "checker_reports": checker_reports,
    }
