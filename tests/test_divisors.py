"""Divisor and sums-of-divisors generating functions, approximants,
residue tables, partial sums, and the cross-check paths."""

from fractions import Fraction
from math import comb, factorial

import pytest

from qjfrac import cli
from qjfrac.divisors import _stirling2_row, generating_series, table
from qjfrac.exact import QRationalFn
from qjfrac.jfraction import JFractionSpec, convergent_pairs, divisor_spec, random_rational_spec
from qjfrac.oracles import sigma_alpha
from qjfrac.stirling import _tilde_d_block, _tilde_d_report, tilde_D0j
from qjfrac.zalgebra import ZPolynomial

from conftest import parse
from reference import (
    bell_numbers,
    divisor_gf,
    partial_sums,
    rational_approximant,
    sigma_gf,
    sigma_special_case_check,
    tilde_D0j_verbatim,
)

ONE = QRationalFn.one()
ZERO = QRationalFn.zero()
Q = QRationalFn.q()


def _stirling_derivative_transform(
    num: ZPolynomial, den: ZPolynomial, alpha: int
) -> tuple[ZPolynomial, ZPolynomial]:
    """(N, D) with N/D = sum_j S(alpha,j) z^j d^j/dz^j (num/den), exactly.

    Uses H^(j) = N_j / den^(j+1) with N_{j+1} = N_j' den - (j+1) N_j den',
    so repeated differentiation never squares the denominator."""
    den_prime = den.derivative()
    N_j = num
    total = ZPolynomial.zero()
    den_pow = [ZPolynomial.one()]
    for _ in range(alpha + 1):
        den_pow.append(den_pow[-1] * den)
    for j, s in enumerate(_stirling2_row(alpha)):
        if s:
            total = total + (N_j * den_pow[alpha - j]).shift(j) * QRationalFn.from_fraction(s)
        if j < alpha:
            N_j = N_j.derivative() * den - (j + 1) * N_j * den_prime
    return total, den_pow[alpha + 1]


class TestDivisorGF:
    def test_h5_order5(self):
        series = divisor_gf(0, 5, 5)
        assert [int(c) for c in series] == [1, 1, 2, 2, 3]

    def test_matches_brute_force_through_window(self):
        series = divisor_gf(0, 6, 12)
        for n in range(1, 12):
            assert series[n] == sigma_alpha(0, n)

    def test_lambert_cross_check(self):
        from qjfrac.oracles import lambert_truncated

        series = divisor_gf(0, 6, 11)
        lam = lambert_truncated(0, 11)
        for n in range(1, 11):
            assert series[n] == lam[n]

    def test_row_flags(self):
        rows = table(0, 3, 8)[0]["rows"]
        by_n = {r["n"]: r for r in rows}
        assert by_n[2]["certified"] and not by_n[2]["empirical"]
        assert not by_n[4]["certified"] and by_n[4]["empirical"]
        assert not by_n[6]["certified"] and not by_n[6]["empirical"]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            divisor_gf(1, 4, 4)
        with pytest.raises(ValueError):
            sigma_gf(0, 4, 4)
        with pytest.raises(ValueError):
            generating_series(0, 1, 4)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: generating_series(-1, 4, 4), "alpha must be >= 0"),
            (lambda: generating_series(0, 1, 4), "h must be >= 2"),
            (lambda: generating_series(0, 4, 0), "order must be >= 1"),
            (lambda: table(-1, 4, 4), "alpha must be >= 0"),
            (lambda: table(0, 4, 4, 1), "modulus must be >= 2"),
        ],
        ids=["alpha", "h", "order", "table-alpha", "table-modulus"],
    )
    def test_arguments_are_checked(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestIntegerTables:
    # the proof in the divisors docstring: every Taylor coefficient of every
    # generator is an integer, and by Fatou's lemma the primitive part of its
    # reduced denominator has constant term +-1
    @pytest.mark.parametrize("alpha", [0, 1, 3, 8])
    @pytest.mark.parametrize("h", [2, 5, 9, 16])
    def test_every_coefficient_is_an_integer_over_a_unit_denominator(self, alpha, h):
        gen, series = generating_series(alpha, h, 4 * h + 8)
        assert all(c.denominator == 1 for c in series)
        assert gen.den._p[0] in (1, -1)


class TestSigmaGF:
    def test_alpha1_h4(self):
        series = sigma_gf(1, 4, 4)
        assert [int(c) for c in series] == [0, 1, 3, 4]

    def test_alpha1_printed_approximant(self):
        printed = parse("q*(1+3*q+3*q^2)/((1-q)*(1+q))")
        series = sigma_gf(1, 2, 4)
        assert series == printed.taylor(4)

    def test_alpha2_h5(self):
        series = sigma_gf(2, 5, 5)
        assert [int(c) for c in series] == [0, 1, 5, 10, 21]

    def test_oracle_grid(self):
        # certified windows across the full (alpha, h) grid
        for h in range(2, 7):
            series0 = divisor_gf(0, h, h)
            for n in range(1, h):
                assert series0[n] == sigma_alpha(0, n), (0, h, n)
        for alpha in (1, 2, 3):
            for h in range(2, 7):
                series = sigma_gf(alpha, h, h)
                for n in range(1, h):
                    assert series[n] == sigma_alpha(alpha, n), (alpha, h, n)
        # beyond the reach of bivariate differentiation: the full 2h window
        series = sigma_gf(3, 8, 16)
        for n in range(1, 16):
            assert series[n] == sigma_alpha(3, n), (3, 8, n)


class TestApproximants:
    def test_divisor_h3_vs_printed(self):
        printed = parse("(1+4*q+8*q^2+11*q^3+10*q^4)/(1+2*q+2*q^2-2*q^4)")
        mine = rational_approximant(0, 3)
        # the tabulated function carries the divisor counts one q-power early;
        # aligning with one shift they agree through the stated order q^4
        a, b = printed.taylor(5), mine.taylor(6)
        for n in range(5):
            assert a[n] == b[n + 1] == sigma_alpha(0, n + 1)

    def test_sigma_h3_vs_printed(self):
        printed = parse(
            "q*(1+7*q+25*q^2+62*q^3+115*q^4)/((1+q+3*q^2)*(1+3*q+3*q^2))"
        )
        mine = rational_approximant(1, 3)
        assert printed.taylor(6) == mine.taylor(6)

    def test_expansion_consistency(self):
        for alpha, h in ((0, 4), (1, 3), (2, 3)):
            approx = rational_approximant(alpha, h)
            series = (divisor_gf if alpha == 0 else sigma_gf)(alpha, h, 2 * h)
            assert approx.taylor(2 * h) == series


class TestBivariateOracle:
    def test_generator_matches_bivariate_transform(self):
        # the jet route against differentiating P_h(q,z), Q_h(q,z) in full
        pairs = convergent_pairs(divisor_spec(), 5)
        for alpha in range(4):
            for h in range(2, 6):
                num, den = _stirling_derivative_transform(pairs[h].P.shift(1), pairs[h].Q, alpha)
                want = num.evaluate(Q) / den.evaluate(Q) / (ONE - Q)
                if alpha == 0:
                    want = ONE + want
                assert rational_approximant(alpha, h) == want, (alpha, h)


class TestPartialSums:
    def test_divisor_partial_sums(self):
        series = partial_sums(0, 5, 5)
        assert [int(c) for c in series] == [0, 1, 3, 5, 8]

    def test_sigma_partial_sums(self):
        series = partial_sums(1, 5, 4)
        assert [int(c) for c in series] == [0, 1, 4, 8]

    def test_constant_term_zero(self):
        series = partial_sums(0, 3, 1)
        assert list(series) == [0]


def _residue_rows(alpha: int, h: int, order: int, p: int) -> list[dict]:
    return table(alpha, h, order, modulus=p)[0]["rows"]


class TestCongruences:
    def test_sigma_mod5_h4(self):
        rows = _residue_rows(1, 4, 8, 5)
        assert [r["value"] for r in rows] == [1, 3, 4, 2, 1, 2, 3]
        assert all(not r["flagged"] for r in rows)

    def test_divisor_mod2_square_characterization(self):
        rows = _residue_rows(0, 11, 21, 2)
        squares = {k * k for k in range(1, 5)}
        for r in rows:
            assert r["value"] == (1 if r["n"] in squares else 0)

    def test_printed_display_h4(self):
        printed = parse("(q+4*q^2+4*q^3+3*q^6)/(1+q+2*q^2+3*q^3+4*q^5)")
        rows = _residue_rows(1, 4, 8, 5)
        series = printed.taylor(8)
        for r in rows:
            assert series[r["n"]].denominator == 1
            assert int(series[r["n"]]) % 5 == r["value"]

    def test_plain_and_residue_rows_share_keys_and_flags(self):
        plain = table(1, 4, 8)[0]["rows"]
        mod = _residue_rows(1, 4, 8, 5)
        assert [list(r) for r in plain] == [["n", "value", "certified", "empirical"]] * 7
        assert [list(r) for r in mod] == [["n", "value", "certified", "empirical", "flagged"]] * 7
        for a, b in zip(plain, mod):
            assert (a["n"], a["certified"], a["empirical"]) == (b["n"], b["certified"], b["empirical"])
            assert int(a["value"]) % 5 == b["value"]


class TestTildeD:
    def test_reports_well_formed(self):
        for j in (1, 2):
            data = tilde_D0j(j)
            assert data["schema"] == "qjfrac/tilde-d/1"
            assert data["j"] == j
            assert isinstance(data["equal"], bool)
            assert data["product_degree"] == 2 * j + 1

    def test_product_side_matches_recurrence(self):
        from qjfrac.jfraction import convergent_pairs, divisor_spec

        pairs = convergent_pairs(divisor_spec(), 3)
        rep = _tilde_d_report(2, divisor_spec(), pairs[2].Q * pairs[3].Q)
        assert rep["equal"] is True and rep["proportional_factor"] == "1"

    def test_degenerate_all_zero_c(self):
        # with every c_i = 0 the triangle collapses to the k = 0 column and
        # all four sum blocks vanish identically
        spec = JFractionSpec.from_tables("zero-c", [ZERO] * 10, [ONE] * 10)
        assert _tilde_d_block(2, spec).is_zero()
        rep = tilde_D0j(2, spec)
        assert rep["quad_sum_degree"] == -1
        assert rep["product_degree"] >= 0

    @pytest.mark.parametrize(
        "spec, js",
        [
            (divisor_spec(), range(1, 6)),
            (random_rational_spec(7), range(1, 6)),
            (JFractionSpec.from_tables("zero-c", [ZERO] * 10, [ONE] * 10), range(1, 4)),
        ],
        ids=["qq2", "random-7", "zero-c"],
    )
    def test_factored_blocks_match_verbatim_loop(self, spec, js):
        for j in js:
            got, want = _tilde_d_block(j, spec), tilde_D0j_verbatim(j, spec)
            assert got == want and str(got) == str(want)
            assert tilde_D0j(j, spec) == _tilde_d_report(j, spec, want)


class TestSpecialCases:
    def test_telescoped_path_is_exact(self):
        for alpha in (1, 2):
            rep = sigma_special_case_check(alpha, 3)
            assert rep.telescoped_residual_zero

    def test_printed_path_residual_is_the_shift_defect(self):
        # the tabulated displays generate sum (m-1)^alpha q^m/(1-q^m); the
        # defect against sigma_alpha is exactly d(n) for alpha = 1 and
        # 2 sigma_1(n) - d(n) for alpha = 2
        rep1 = sigma_special_case_check(1, 4, 5)
        for n in range(1, 4):
            assert rep1.printed_residual[n] == sigma_alpha(0, n)
        rep2 = sigma_special_case_check(2, 4, 5)
        for n in range(1, 4):
            assert rep2.printed_residual[n] == 2 * sigma_alpha(1, n) - sigma_alpha(0, n)

    def test_report_shape(self):
        rep = sigma_special_case_check(2, 3)
        data = rep.to_json()
        assert data["schema"] == "qjfrac/sigma-special-case/1"
        assert data["telescoped_residual_zero"] is True

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            sigma_special_case_check(3, 3)


class TestDerivativeTransform:
    def test_geometric_polynomial(self):
        # F = 1 + z + ... + z^(N-1): the transform must give sum n^m z^n exactly
        N = 8
        F = ZPolynomial([ONE] * N)
        for m in range(0, 5):
            num, den = _stirling_derivative_transform(F, ZPolynomial.one(), m)
            assert den == ZPolynomial.one()
            for n in range(N):
                assert num.coefficient(n) == QRationalFn.from_fraction(n ** m)

    def test_quotient_rule_power(self):
        # with G = 1: z * d/dz [z^(2j)] = 2j z^(2j)
        num, den = _stirling_derivative_transform(
            ZPolynomial.monomial(4, ONE), ZPolynomial.one(), 1
        )
        assert num.coefficient(4) == QRationalFn.from_fraction(4)
        assert num.degree == 4


class TestStirling2:
    def test_recurrence_values(self):
        assert _stirling2_row(0) == [1]
        assert _stirling2_row(4)[2] == 7
        assert _stirling2_row(6)[3] == 90
        assert len(_stirling2_row(3)) == 4  # S(3, k) = 0 for k > 3 is not stored

    def test_row_sums_are_bell_numbers(self):
        assert [sum(_stirling2_row(n)) for n in range(9)] == bell_numbers(8)

    def test_explicit_formula_up_to_alpha_cap(self):
        # S(n, k) = (1/k!) sum_j (-1)^j C(k, j) (k - j)^n, for every --alpha the CLI accepts
        for n in range(cli._MAX_ALPHA + 1):
            explicit = [
                Fraction(sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)), factorial(k))
                for k in range(n + 1)
            ]
            assert _stirling2_row(n) == explicit, n
