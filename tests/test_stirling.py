"""Triangle recurrences, nested sums, and the expansion-identity checkers."""

import json
import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from qjfrac import stirling
from qjfrac.exact import QRationalFn
from qjfrac.jfraction import ConvergentPair, JFractionSpec, convergents, random_rational_spec
from qjfrac.stirling import (
    claim_triangle_residual,
    first_column_formula_check,
    nested_sum,
    newton_girard_check,
    power_sum,
    triangle_row,
    verify_claim_relations,
    verify_Ph_expansion,
    verify_PQ_coefficient_relation,
    verify_Qh_expansion,
)
from qjfrac.zalgebra import ZPolynomial, linear_product

from conftest import triangle_via_products
from reference import ZPair, zpair_add, zpair_equal


ONE = QRationalFn.one()
ZERO = QRationalFn.zero()
Q = QRationalFn.q()


def _not_memoized(i):
    raise AssertionError(f"memo entry {i} was not filled")


def monomial_spec() -> JFractionSpec:
    cs = [QRationalFn.qpow(k) for k in (1, 2, 5, 9, 14, 20)]
    abs_ = [QRationalFn.qpow(k) for k in (27, 41, 56, 72, 89)]
    return JFractionSpec.from_tables("monomials", cs, abs_)


ZPAIR_ZERO = (ZPolynomial.zero(), ZPolynomial.one())


def shifted_nested_sum_reference(spec: JFractionSpec, h: int, m: int, s: int) -> ZPair:
    """S^[P]_{h,m,s} written out in the original indices: spaced tuples in
    [2..h] with sum k = s - m, terms ab_{k+1} / ((1 - c_k z)(1 - c_{k+1} z))."""
    tuples = [
        t for t in combinations(range(2, h + 1), m)
        if all(b - a >= 2 for a, b in zip(t, t[1:])) and sum(t) == s - m
    ]
    if not tuples:
        return ZPAIR_ZERO
    used = sorted({i for t in tuples for k in t for i in (k, k + 1)})
    lin = {i: ZPolynomial([ONE, -spec.c(i)]) for i in used}
    den = ZPolynomial.one()
    for f in lin.values():
        den = den * f
    num = ZPolynomial.zero()
    for t in tuples:
        w = ONE
        for k in t:
            w = w * spec.ab(k + 1)
        cof = ZPolynomial.constant(w)
        for i in used:
            if i not in {j for k in t for j in (k, k + 1)}:
                cof = cof * lin[i]
        num = num + cof
    return num, den


def claim_nested_difference_residual(
    spec: JFractionSpec, h: int, m: int, s: int
) -> tuple[ZPair, bool]:
    """The per-(m, s) route for the residual of the conjectured difference
    formula: S_{h-1,m,s} - S^[P]_{h,m,s} minus the sum over the
    adjacent-allowed m-subsets of 2..h with sum s, as an unreduced
    (numerator, denominator) pair, with whether it is zero."""
    lhs = zpair_add(nested_sum(spec, h - 1, m, s), nested_sum(spec.shifted(), h, m, s - m), -1)
    rhs = ZPAIR_ZERO
    for idx in combinations(range(2, h + 1), m):
        if sum(idx) == s:
            num = ONE
            den = ZPolynomial.one()
            for i in idx:
                num = num * spec.ab(i)
                den = den * ZPolynomial([ONE, -spec.c(i - 1)])
                den = den * ZPolynomial([ONE, -spec.c(i)])
            rhs = zpair_add(rhs, (ZPolynomial.constant(num), den))
    residual = zpair_add(lhs, rhs, -1)
    return residual, residual[0].is_zero()


def per_slice_coefficients(spec: JFractionSpec, h: int) -> tuple:
    """[z^0..z^h] of Q_h(spec) predicted by identity (ii), with the series of
    each slice S_{h,m,s} taken by its own series division."""
    row = triangle_row(spec, h)
    slices = []
    for m in range(1, h // 2 + 1):
        for s in range(0, m * h + 1):
            num, den = nested_sum(spec, h, m, s)
            slices.append((m, num.series(h + 1) / den.series(h + 1)))
    coeffs = []
    for n in range(0, h + 1):
        total = row[n]
        for m, ser in slices:
            for k in range(2 * m, n + 1):
                total = total + (-1) ** m * row[n - k] * ser[k - 2 * m]
        coeffs.append(total)
    return tuple(coeffs)


class TestTriangle:
    def test_base_entry(self, qq2_spec):
        (e00,) = triangle_row(qq2_spec, 0)
        assert e00.is_one()
        row1 = triangle_row(qq2_spec, 1)
        assert stirling._entry(row1, -1).is_zero()
        assert stirling._entry(row1, 2).is_zero()
        with pytest.raises(ValueError):
            triangle_row(qq2_spec, -1)

    def test_rows_are_memoized_on_the_spec(self):
        spec = random_rational_spec(37)
        row = triangle_row(spec, 4)
        rows = [spec.memo("row", h, _not_memoized) for h in range(5)]
        assert [len(r) for r in rows] == [1, 2, 3, 4, 5] and rows[4] is row
        assert triangle_row(spec, 4) is row and triangle_row(spec, 2) is rows[2]
        # row 5 was never filled: the memo takes the value offered
        assert spec.memo("row", 5, lambda h: "unfilled") == "unfilled"

    @pytest.mark.parametrize("spec_seed", range(39, 45))
    def test_concurrent_rows_extend_the_memo_once(self, spec_seed):
        # more threads than cores, started together and switching often: a
        # row computed twice in a race must still reach every caller as the
        # one object stored first, and every row must be the product oracle's
        spec = random_rational_spec(spec_seed)
        errors = []
        seen = [[] for _ in range(6)]
        start = threading.Barrier(6)

        def work(seed):
            try:
                start.wait(timeout=60)
                for h in random.Random(seed).sample(range(13), 13):
                    seen[seed].append((h, triangle_row(spec, h)))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not errors
        rows = [spec.memo("row", h, _not_memoized) for h in range(13)]
        assert [len(r) for r in rows] == list(range(1, 14))
        for h, row in enumerate(rows):
            assert list(row) == [triangle_via_products(spec.c, h, k) for k in range(h + 1)]
        for calls in seen:
            assert len(calls) == 13 and all(row is rows[h] for h, row in calls)

    def test_first_column_is_minus_sum(self, qq2_spec):
        for h in range(1, 6):
            total = ZERO
            for i in range(1, h + 1):
                total = total + qq2_spec.c(i)
            assert triangle_row(qq2_spec, h)[1] == -total

    def test_entry_3_2_symmetric_function(self):
        spec = monomial_spec()
        c1, c2, c3 = spec.c(1), spec.c(2), spec.c(3)
        assert triangle_row(spec, 3)[2] == c1 * c2 + c1 * c3 + c2 * c3

    def test_products_equal_recurrence(self, qq2_spec):
        for spec in (qq2_spec, random_rational_spec(41), monomial_spec()):
            for h in range(0, 7):
                for k in range(0, h + 1):
                    assert triangle_row(spec, h)[k] == triangle_via_products(spec.c, h, k)

    def test_products_equal_recurrence_deep(self):
        spec = random_rational_spec(43)
        for h in range(0, 9):
            for k in range(0, h + 1):
                assert triangle_row(spec, h)[k] == triangle_via_products(spec.c, h, k)

    def test_row_sum_is_product_at_one(self):
        spec = random_rational_spec(47)
        for h in range(0, 7):
            total = ZERO
            for entry in triangle_row(spec, h):
                total = total + entry
            prod = ONE
            for i in range(1, h + 1):
                prod = prod * (ONE - spec.c(i))
            assert total == prod

    def test_degenerate_all_zero_c(self):
        spec = JFractionSpec.from_tables("zero-c", [ZERO] * 8, [ONE] * 8)
        for h in range(7):
            for k in range(h + 1):
                assert triangle_row(spec, h)[k] == (ONE if k == 0 else ZERO)
        Q6 = convergents(spec, 6).Q
        assert all(Q6.coefficient(k).is_zero() for k in range(1, 7, 2))


class TestNewtonGirard:
    def test_k_zero_trivial(self, qq2_spec):
        rep = newton_girard_check(qq2_spec, 3, 0)
        assert rep["adopted_ok"] and rep["printed_residual"] == "0"

    def test_k1_h2_symbolic(self):
        rep = newton_girard_check(monomial_spec(), 2, 1)
        assert rep["adopted_ok"]

    def test_adopted_reading_holds_generally(self):
        spec = random_rational_spec(53)
        for h in range(1, 6):
            for k in range(0, h + 1):
                assert newton_girard_check(spec, h, k)["adopted_ok"]

    def test_printed_reading_reported(self, qq2_spec):
        data = newton_girard_check(qq2_spec, 3, 2)
        assert data["schema"] == "qjfrac/newton-girard/1"
        assert data["printed_residual"] != "0"

    def test_power_sum(self):
        spec = monomial_spec()
        assert power_sum(spec.c, 2, 2) == spec.c(1) ** 2 + spec.c(2) ** 2


class TestNestedSums:
    def test_m1_collapse(self, qq2_spec):
        for s in range(2, 5):
            got = nested_sum(qq2_spec, 4, 1, s)
            expect = (
                ZPolynomial.constant(qq2_spec.ab(s)),
                ZPolynomial([ONE, -qq2_spec.c(s - 1)])
                * ZPolynomial([ONE, -qq2_spec.c(s)]),
            )
            assert zpair_equal(got, expect)

    def test_out_of_range_is_zero(self, qq2_spec):
        assert nested_sum(qq2_spec, 4, 1, 9)[0].is_zero()
        assert nested_sum(qq2_spec, 4, 2, 3)[0].is_zero()
        with pytest.raises(ValueError, match="m must be >= 1"):
            nested_sum(qq2_spec, 4, 0, 3)

    def test_h4_m2_s6_single_pair(self, qq2_spec):
        got = nested_sum(qq2_spec, 4, 2, 6)
        den = ZPolynomial.one()
        for i in range(1, 5):
            den = den * ZPolynomial([ONE, -qq2_spec.c(i)])
        expect = (ZPolynomial.constant(qq2_spec.ab(2) * qq2_spec.ab(4)), den)
        assert zpair_equal(got, expect)

    def test_brute_force_tuple_enumeration(self):
        # definition cross-check: sum over all spaced tuples of the term
        # products equals the (m, s)-bucketed values summed over s
        spec = random_rational_spec(59)
        h, m = 6, 2
        total = ZPAIR_ZERO
        for s in range(0, m * h + 1):
            total = zpair_add(total, nested_sum(spec, h, m, s))
        brute = ZPAIR_ZERO
        for k1 in range(2, h + 1):
            for k2 in range(k1 + 2, h + 1):
                num = ZPolynomial.constant(spec.ab(k1) * spec.ab(k2))
                den = ZPolynomial.one()
                for i in (k1 - 1, k1, k2 - 1, k2):
                    den = den * ZPolynomial([ONE, -spec.c(i)])
                brute = zpair_add(brute, (num, den))
        assert zpair_equal(total, brute)

    def test_shifted_variant_constraint(self, qq2_spec):
        # S^[P] on the shifted spec uses ab_{k+1} terms and the sum-s-minus-m constraint
        got = nested_sum(qq2_spec.shifted(), 3, 1, 3 - 1)
        expect = (
            ZPolynomial.constant(qq2_spec.ab(3)),
            ZPolynomial([ONE, -qq2_spec.c(2)])
            * ZPolynomial([ONE, -qq2_spec.c(3)]),
        )
        assert zpair_equal(got, expect)

    @pytest.mark.parametrize("which, h_max", [("qq2", 5), ("random", 7)])
    def test_shifted_spec_matches_index_shifted_reference(self, qq2_spec, which, h_max):
        spec = qq2_spec if which == "qq2" else random_rational_spec(83)
        shifted = spec.shifted()
        for h in range(2, h_max + 1):
            for m in range(1, h // 2 + 2):
                for s in range(0, m * (h + 2) + 1):
                    got = nested_sum(shifted, h, m, s - m)
                    ref = shifted_nested_sum_reference(spec, h, m, s)
                    assert got == ref, (h, m, s)


def brute_force_pair(spec: JFractionSpec, terms) -> ZPair:
    """The sum of w / prod_{i in fs}(1 - c_i z) over the items (w, fs) of
    terms, one cross-multiplied fraction at a time."""
    total = ZPAIR_ZERO
    for w, fs in terms:
        den = ZPolynomial.one()
        for i in fs:
            den = den * ZPolynomial([ONE, -spec.c(i)])
        total = zpair_add(total, (ZPolynomial.constant(w), den))
    return total


class TestClearedSums:
    @pytest.mark.parametrize("which", ["qq2", "random"])
    def test_repeated_indices_over_their_lcm(self, qq2_spec, which):
        # the adjacent-allowed tuples of a claim cell repeat the shared index
        # of neighbours: (2, 3) has the factor indices 1, 2, 2, 3
        spec = qq2_spec if which == "qq2" else random_rational_spec(31)
        for h, m in ((4, 2), (5, 2), (5, 3)):
            terms = [stirling._term(spec, ks) for ks in combinations(range(2, h + 1), m)]
            assert any(len(set(fs)) < len(fs) for _, fs in terms)
            lcm, num = stirling._cleared(spec, terms)
            # each index as often as the term that repeats it most
            assert lcm == {i: max(fs.count(i) for _, fs in terms) for _, fs in terms for i in fs}
            den = linear_product(spec.c(i) for i in lcm.elements())
            assert zpair_equal((num, den), brute_force_pair(spec, terms)), (h, m)

    @pytest.mark.parametrize("which", ["qq2", "random"])
    def test_explicit_denominator(self, qq2_spec, which):
        spec = qq2_spec if which == "qq2" else random_rational_spec(31)
        h = 6
        full = Counter(range(1, h + 1))
        for m in (1, 2, 3):
            terms = [stirling._term(spec, ks) for ks in stirling._spaced_tuples(h, m)]
            lcm, num = stirling._cleared(spec, terms, full)
            assert lcm is full
            den = linear_product(spec.c(i) for i in range(1, h + 1))
            assert zpair_equal((num, den), brute_force_pair(spec, terms)), m

    @pytest.mark.parametrize("which", ["qq2", "random"])
    def test_empty_sum(self, qq2_spec, which):
        spec = qq2_spec if which == "qq2" else random_rational_spec(31)
        assert stirling._cleared(spec, []) == (Counter(), ZPolynomial.zero())
        assert nested_sum(spec, 4, 2, 3) == (ZPolynomial.zero(), ZPolynomial.one())


class TestExpansionLemmas:
    @pytest.mark.parametrize("which, h_max", [("qq2", 5), ("random", 7)])
    def test_per_slice_route_for_identity_ii(self, qq2_spec, which, h_max):
        # (ii) with every slice S_{h,m,s} expanded by its own series division
        # must predict the same coefficients the verifier accepts
        spec = qq2_spec if which == "qq2" else random_rational_spec(83)
        for h in range(2, h_max + 1):
            pair = convergents(spec, h)
            assert verify_Qh_expansion(spec, h)["status"] == "ok"
            assert per_slice_coefficients(spec, h) == pair.Q.series(h + 1).coeffs
            assert verify_Ph_expansion(spec, h)["status"] == "ok"
            assert per_slice_coefficients(spec.shifted(), h - 1) == pair.P.series(h).coeffs

    def test_shifted_spec_is_memoized(self):
        spec = random_rational_spec(79)
        shifted = spec.shifted()
        assert spec.shifted() is shifted
        for h in range(2, 6):
            assert verify_Ph_expansion(spec, h)["status"] == "ok"
        # the checks filled the shifted spec's pairs 0..4, and no more
        pairs = [shifted.memo("pair", i, _not_memoized) for i in range(5)]
        assert [p.h for p in pairs] == [0, 1, 2, 3, 4]
        assert shifted.memo("pair", 5, lambda i: "unfilled") == "unfilled"

    def test_h2_symbolic_algebra(self):
        # Q_2 = (1-c1 z)(1-c2 z) - ab2 z^2 equals the product form directly
        spec = monomial_spec()
        rep = verify_Qh_expansion(spec, 2)
        assert rep["status"] == "ok"

    def test_special_pair(self, qq2_spec):
        for h in (2, 3, 4):
            assert verify_Qh_expansion(qq2_spec, h)["status"] == "ok"
            assert verify_Ph_expansion(qq2_spec, h)["status"] == "ok"

    def test_random_specs(self):
        for seed in (61, 67):
            spec = random_rational_spec(seed)
            for h in (2, 5):
                assert verify_Qh_expansion(spec, h)["status"] == "ok"
                assert verify_Ph_expansion(spec, h)["status"] == "ok"

    def test_P1_is_one(self, qq2_spec):
        assert convergents(qq2_spec, 1).P == ZPolynomial.one()

    def test_P2_printed_value(self, qq2_spec):
        expect = ZPolynomial.one() - ZPolynomial.monomial(
            1, 2 * Q * (ONE - Q) / (ONE - Q ** 4)
        )
        assert convergents(qq2_spec, 2).P == expect

    def test_shift_rule_exact(self):
        spec = random_rational_spec(71)
        shifted = spec.shifted()
        for h in range(1, 7):
            assert convergents(spec, h).P == convergents(shifted, h - 1).Q

    def test_report_shape_on_mismatch(self, monkeypatch):
        # memoized convergents deliberately broken at level h: report the level
        spec = random_rational_spec(73)
        h = 3
        pair = convergents(random_rational_spec(73), h)
        z2 = ZPolynomial.monomial(2, ONE)
        spec.memo("pair", h, lambda i: ConvergentPair(i, pair.P + z2, pair.Q + z2))
        data = verify_Qh_expansion(spec, h)
        assert data["schema"] == "qjfrac/lemma-report/1"
        assert data["status"] == "mismatch"
        assert (data["lemma"], data["first_failure"]) == ("denominator-expansion(i)", [h])
        rep = verify_Ph_expansion(spec, h)
        assert (rep["lemma"], rep["status"], rep["first_failure"]) == ("numerator-shift-rule", "mismatch", [h])
        # a wrong triangle entry (3, 2) is read by (ii) only, at the z^2 column:
        # (i) reads row h whole, as the polynomial D, and (ii) entry by entry
        real_entry = stirling._entry

        def corrupted_entry(row, k):
            value = real_entry(row, k)
            return value + ONE if (len(row) - 1, k) == (h, 2) else value

        monkeypatch.setattr(stirling, "_entry", corrupted_entry)
        rep = verify_Qh_expansion(random_rational_spec(73), h)
        assert (rep["lemma"], rep["status"], rep["first_failure"]) == ("denominator-expansion(ii)", "mismatch", [h, 2])


class TestClaim:
    def test_triangle_relation_k1(self, qq2_spec):
        assert claim_triangle_residual(qq2_spec, 4, 1).is_zero()

    def test_triangle_relation_symbolic(self):
        assert claim_triangle_residual(monomial_spec(), 4, 2).is_zero()

    def test_triangle_relation_random(self):
        spec = random_rational_spec(79)
        for h in (2, 3, 5):
            for k in range(1, h + 1):
                assert claim_triangle_residual(spec, h, k).is_zero()

    def test_nested_difference_measured(self, qq2_spec):
        residual, is_zero = claim_nested_difference_residual(qq2_spec, 4, 1, 3)
        assert isinstance(is_zero, bool)

    def test_full_report_well_formed(self, qq2_spec):
        data = verify_claim_relations(qq2_spec, 4, 2)
        assert data["schema"] == "qjfrac/claim-report/3"
        assert data["triangle_ok"]
        assert len(data["nested_residuals"]) > 0
        for row in data["nested_residuals"]:
            assert list(row) == ["m", "s", "zero"]

    @pytest.mark.parametrize(
        "seed, h_max", [(None, 6), (3, 8), (11, 8), (29, 8), (47, 8), (61, 8)]
    )
    def test_one_pass_matches_the_per_slice_route(self, qq2_spec, seed, h_max):
        # each cell of the (m, s) grid is zero exactly when the oracle's
        # unreduced residual is
        spec = qq2_spec if seed is None else random_rational_spec(seed)
        for h in range(2, h_max + 1):
            rows = verify_claim_relations(spec, h, 2)["nested_residuals"]
            grid = [(m, s) for m in range(1, h // 2 + 1) for s in range(0, m * h + 1)]
            assert [(row["m"], row["s"]) for row in rows] == grid
            for row in rows:
                _, ref_zero = claim_nested_difference_residual(spec, h, row["m"], row["s"])
                assert row["zero"] == ref_zero, (h, row)

    @pytest.mark.parametrize("seed, h", [(None, 5), (7, 8)])
    def test_residual_text_does_not_depend_on_term_order(self, qq2_spec, monkeypatch, seed, h):
        spec = qq2_spec if seed is None else random_rational_spec(seed)
        forward = json.dumps(verify_claim_relations(spec, h, 2))
        real = stirling._cell_is_zero
        monkeypatch.setattr(stirling, "_cell_is_zero", lambda sp, terms: real(sp, dict(reversed(terms.items()))))
        assert json.dumps(verify_claim_relations(spec, h, 2)) == forward

    def test_cell_is_zero_across_equal_c_values(self):
        # indices 1 and 4 share c = a, and c_2 = 0 gives the factor 1: the
        # cleared numerator is exact whether or not the c-values coincide
        a, b = Q, Q * Q
        spec = JFractionSpec.from_tables("equal-c", [a, ZERO, b, a], [ONE] * 3)
        assert stirling._cell_is_zero(spec, {(1,): ONE, (2, 4): -ONE})
        assert stirling._cell_is_zero(spec, {})
        assert stirling._cell_is_zero(spec, {(1,): ZERO})
        # 1/((1-az)(1-bz)) = a/(a-b)/(1-az) - b/(a-b)/(1-bz), with 1 - az as c_1 or c_4
        for i in (1, 4):
            assert stirling._cell_is_zero(spec, {(3, i): ONE, (1,): -a / (a - b), (3,): b / (a - b)})
        # a/(a-b)/(1-az)^2 - 1/((1-az)^2 (1-bz)) = b/(a-b) / ((1-az)(1-bz)) is not zero
        assert not stirling._cell_is_zero(spec, {(1, 1): a / (a - b), (1, 2, 3, 4): -ONE})
        assert not stirling._cell_is_zero(spec, {(1, 1): ONE, (1,): -ONE})

    @pytest.mark.parametrize("seed, h_max", [(None, 6), (5, 8), (13, 8)])
    def test_difference_is_three_boundary_terms(self, qq2_spec, seed, h_max):
        # S_{h-1,m,s} - S^[P]_{h,m,s} = e_2 T(4..h-1; m-1, s-2)
        #     - e_h T(3..h-2; m-1, s-h) - e_{h+1} T(3..h-1; m-1, s-h-1),
        # the identity stated in verify_claim_relations
        spec = qq2_spec if seed is None else random_rational_spec(seed)

        def e_product(ks) -> ZPair:
            num, den = ONE, ZPolynomial.one()
            for k in ks:
                num = num * spec.ab(k)
                den = den * ZPolynomial([ONE, -spec.c(k - 1)]) * ZPolynomial([ONE, -spec.c(k)])
            return ZPolynomial.constant(num), den

        def boundary(first, low, high, m, t) -> ZPair:
            # e_first T(low..high; m, t): spaced m-tuples of low..high with label sum t
            total = ZPAIR_ZERO
            for ks in combinations(range(low, high + 1), m):
                if sum(ks) == t and all(b - a >= 2 for a, b in zip(ks, ks[1:])):
                    total = zpair_add(total, e_product((first, *ks)))
            return total

        cells = 0
        for h in range(2, h_max + 1):
            for m in range(1, h // 2 + 2):
                for s in range(0, m * (h + 1) + 1):
                    lhs = zpair_add(nested_sum(spec, h - 1, m, s), nested_sum(spec.shifted(), h, m, s - m), -1)
                    rhs = zpair_add(
                        zpair_add(boundary(2, 4, h - 1, m - 1, s - 2), boundary(h, 3, h - 2, m - 1, s - h), -1),
                        boundary(h + 1, 3, h - 1, m - 1, s - h - 1),
                        -1,
                    )
                    assert zpair_equal(lhs, rhs), (h, m, s)
                    cells += 1
        assert cells > 100


class TestPQRelation:
    def test_n0_trivial(self, qq2_spec):
        assert verify_PQ_coefficient_relation(qq2_spec, 1)["status"] == "ok"

    def test_h2_printed_coefficient(self, qq2_spec):
        assert verify_PQ_coefficient_relation(qq2_spec, 2)["status"] == "ok"

    def test_h5_all_columns(self, qq2_spec):
        assert verify_PQ_coefficient_relation(qq2_spec, 5)["status"] == "ok"


class TestFirstColumn:
    def test_h1_reduces_to_c1(self, qq2_spec):
        rep = first_column_formula_check(qq2_spec, 1)
        assert rep["status"] == "ok"
        assert rep["formula"] == str(-(ONE / (ONE + Q)))

    def test_h2_exact(self, qq2_spec):
        assert first_column_formula_check(qq2_spec, 2)["status"] == "ok"

    def test_h4_residual_reported(self, qq2_spec):
        data = first_column_formula_check(qq2_spec, 4)
        assert data["schema"] == "qjfrac/first-column/1"
        # the finite sum tracks the single-fraction display variant, which
        # departs from the true sequence at h >= 3
        assert data["matches_display_variant"]
        assert data["status"] == "nonzero-residual"
