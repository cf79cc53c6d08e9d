"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from contextlib import contextmanager

import pytest

from qjfrac.convergence import numeric_convergence_probe, pringsheim_margins, threshold_radius
from qjfrac.divisors import (
    DivisorGFRequest,
    congruence_table,
    divisor_gf,
    rational_approximant,
    sigma_gf,
    sigma_special_case_check,
    tilde_D0j,
)
from qjfrac.exact import QRationalFn
from qjfrac.jfraction import (
    convergent_coefficients,
    convergent_pairs,
    convergents,
    divisor_spec,
    lambert_ratio_target,
    pochhammer_spec,
    random_rational_spec,
    series_to_jfraction,
    telescoping_residual,
)
from qjfrac.oracles import (
    pochhammer_ratio,
    q_binomial_theorem_check,
    q_pochhammer,
    sigma_alpha,
)
from qjfrac.stirling import (
    StirlingQTriangle,
    first_column_formula_check,
    newton_girard_check,
    triangle_via_products,
    verify_claim_relations,
    verify_Ph_expansion,
    verify_PQ_coefficient_relation,
    verify_Qh_expansion,
)

from conftest import parse, random_pochhammer_params

ONE = QRationalFn.one()
Q = QRationalFn.q()


@contextmanager
def criterion(number: int, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.1f}s)")


def test_criterion_1_theorem_coefficient_identity():
    with criterion(1, "convergent coefficients equal (a;q)_n/(b;q)_n; 2h window"):
        start = time.monotonic()
        rng = random.Random(2024)
        for trial in range(4):
            params = random_pochhammer_params(rng)
            spec = pochhammer_spec(params)
            for h in range(2, 6):
                coeffs = convergent_coefficients(convergents(spec, h), 2 * h)
                for n in range(h):  # certified window
                    assert coeffs[n] == pochhammer_ratio(params.a, params.b, n)
                for n in range(h, 2 * h):  # reported window, holds on all tests
                    assert coeffs[n] == pochhammer_ratio(params.a, params.b, n)
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_2_inversion_golden_values():
    with criterion(2, "series inversion reproduces both tabulated value lists"):
        start = time.monotonic()
        inv0 = series_to_jfraction(lambert_ratio_target(0, 8), 3)
        assert inv0.c[0] == parse("1/(1-q)")
        assert inv0.c[1] == parse("(1+q+4*q^2)/(2*(q^3-1))")
        assert inv0.c[2] == parse(
            "(1+5*q+14*q^2+26*q^3+34*q^4+25*q^5+9*q^6)"
            "/(2*(1+q+q^2)*(1+2*q+3*q^2)*(1+q+q^2+q^3+q^4))"
        )
        assert inv0.ab[0] == parse("-2*q/((1-q)^2*(1+q))")
        # the ab_3 display omits the square on (1+q+q^2); the corrected value
        # is forced by the moment determinants (see test_jfraction)
        assert inv0.ab[1] == parse(
            "-(1-q)*(1+2*q+3*q^2)/(4*(1+q)*(1+q^2)*(1+q+q^2)^2)"
        )

        inv1 = series_to_jfraction(lambert_ratio_target(1, 8), 3)
        assert inv1.c[0] == parse("1/(1-q)")
        assert inv1.c[1] == parse("q*(-1-q+8*q^2)/((1-q)*(1-3*q)*(1+q+q^2))")
        assert inv1.c[2] == parse(
            "-(1-5*q^2-16*q^3-16*q^4+40*q^5+136*q^6+144*q^7+67*q^8+8*q^9+q^10)"
            "/((1-3*q)*(1+q+q^2)*(1+q+q^2+q^3+q^4)*(-1+4*q^2+8*q^3+q^4))"
        )
        assert inv1.ab[0] == parse("(1-3*q)/((1-q)^2*(1+q))")
        assert inv1.ab[1] == parse(
            "(1-q)^3*(-1+4*q^2+8*q^3+q^4)/((1+q)*(1-3*q)^2*(1+q^2)*(1+q+q^2)^2)"
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30, f"runtime {elapsed:.1f}s exceeds 30s"


_D_DISPLAYS = [
    # (h, stated order K, display): [q^n] display = d(n+1) for n <= K
    (3, 4, "(1+4*q+8*q^2+11*q^3+10*q^4)/(1+2*q+2*q^2-2*q^4)"),
    (4, 6, "(-1-5*q-14*q^2-29*q^3-46*q^4-62*q^5-71*q^6)"
           "/(-1-3*q-6*q^2-8*q^3-7*q^4-4*q^5+q^6)"),
    (5, 7, "(1+6*q+20*q^2+50*q^3+101*q^4+175*q^5+267*q^6+369*q^7+472*q^8)"
           "/(1+4*q+10*q^2+19*q^3+29*q^4+37*q^5+40*q^6+38*q^7+32*q^8)"),
]

_S_DISPLAYS = [
    (2, 3, "q*(1+3*q+3*q^2)/((1-q)*(1+q))"),
    (3, 5, "q*(1+7*q+25*q^2+62*q^3+115*q^4)/((1+q+3*q^2)*(1+3*q+3*q^2))"),
    (4, 7, "q*(1+9*q+44*q^2+155*q^3+430*q^4+998*q^5+2000*q^6)"
           "/(1+6*q+22*q^2+58*q^3+120*q^4+204*q^5+290*q^6+350*q^7)"),
    (5, 9, "q*(1+11*q+65*q^2+276*q^3+935*q^4+2676*q^5+6696*q^6+14998*q^7+30592*q^8)"
           "/(1+8*q+37*q^2+126*q^3+347*q^4+812*q^5+1664*q^6+3050*q^7+5079*q^8+7776*q^9)"),
]


def test_criterion_3_rational_approximants():
    with criterion(3, "tabulated approximants match series output and brute force"):
        for h, order_k, text in _D_DISPLAYS:
            display = parse(text).taylor(order_k + 1)
            mine = rational_approximant(DivisorGFRequest(0, h, order_k + 2))
            series = divisor_gf(DivisorGFRequest(0, h, order_k + 2)).series
            assert mine.taylor(order_k + 2) == series
            # the tabulated functions carry d one q-power early: align by one
            # shift, then both sides must equal the brute-force counts
            for n in range(order_k + 1):
                assert display[n] == sigma_alpha(0, n + 1)
                assert series[n + 1] == sigma_alpha(0, n + 1)
                assert display[n] == series[n + 1]
        for h, order_k, text in _S_DISPLAYS:
            display = parse(text).taylor(order_k + 1)
            mine = rational_approximant(DivisorGFRequest(1, h, order_k + 1))
            series = sigma_gf(DivisorGFRequest(1, h, order_k + 1)).series
            assert mine.taylor(order_k + 1) == series
            assert display == series
            for n in range(1, order_k + 1):
                assert series[n] == sigma_alpha(1, n)


_MOD5_DISPLAYS = [
    (4, 7, "(q+4*q^2+4*q^3+3*q^6)/(1+q+2*q^2+3*q^3+4*q^5)"),
    (5, 9, "(q+q^2+q^4+q^6+q^7+3*q^8+2*q^9)"
           "/(1+3*q+2*q^2+q^3+2*q^4+2*q^5+4*q^6+4*q^8+q^9)"),
]


def test_criterion_4_mod5_congruences():
    with criterion(4, "mod-5 tables match both tabulated displays and brute force"):
        for h, order_k, text in _MOD5_DISPLAYS:
            display = parse(text).taylor(order_k + 1)
            rows = congruence_table(DivisorGFRequest(1, h, order_k + 1, modulus=5))
            assert len(rows) == order_k
            for row in rows:
                n = row["n"]
                assert not row["flagged"]
                assert row["residue"] == sigma_alpha(1, n) % 5
                coeff = display[n]
                assert coeff.denominator == 1
                assert int(coeff) % 5 == row["residue"]


def test_criterion_5_lemma_suite():
    with criterion(5, "expansion lemmas exact for h <= 6 on (q,q^2) and 20 random specs"):
        start = time.monotonic()
        qq2 = divisor_spec()
        specs = [qq2] + [random_rational_spec(1000 + k) for k in range(20)]
        for spec in specs:
            tri = StirlingQTriangle.from_spec(spec, 6)
            for h in range(2, 7):
                assert verify_Qh_expansion(spec, h).ok, (spec.name, h)
                assert verify_Ph_expansion(spec, h).ok, (spec.name, h)
                for k in range(h + 1):
                    assert tri.entry(h, k) == triangle_via_products(spec.c, h, k)
        for h in range(1, 7):
            assert verify_PQ_coefficient_relation(qq2, h).ok
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"runtime {elapsed:.1f}s exceeds 5 min"


def test_criterion_6_telescoping_and_modulus():
    with criterion(6, "telescoping identity h <= 8; modulus carries (q;q)_{h-1}^4"):
        qq2 = divisor_spec()
        pairs = convergent_pairs(qq2, 8)
        q2 = Q * Q

        def poch2(x, n):
            acc = ONE
            xs = x
            for _ in range(n):
                acc = acc * (ONE - xs)
                xs = xs * q2
            return acc

        lam = ONE
        for h in range(1, 9):
            if h >= 2:
                lam = lam * qq2.ab(h)
            assert telescoping_residual(pairs, lam, h).is_zero(), h
            n = h - 1
            closed = (
                QRationalFn.qpow((h - 1) ** 2)
                * q_pochhammer(Q, n) ** 4
                / (poch2(Q, n) * poch2(q2, n) ** 2 * poch2(Q ** 3, n))
            )
            assert lam == closed, h


def test_criterion_7_convergence():
    with criterion(7, "threshold radius, positive margins, probe gap"):
        assert abs(threshold_radius(1e-8) - 0.206783) < 1e-5
        rng = random.Random(7001)
        for _ in range(10):
            qv = 0.02 + 0.18 * rng.random()
            rep = pringsheim_margins(qv, 100)
            assert rep.all_positive(), (qv, rep.min_margin())
        probe = numeric_convergence_probe(0.15, 0.15, 20)
        gaps = [r.gap for r in probe.rows]
        assert gaps[-1] < 1e-10
        for i in range(3, len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] + 1e-12


def test_criterion_8_sigma_alpha_correctness():
    with criterion(8, "sigma_alpha coefficients 1..5 at h=6; cross-check paths"):
        for alpha in (1, 2, 3):
            series = sigma_gf(DivisorGFRequest(alpha, 6, 6)).series
            for n in range(1, 6):
                assert series[n] == sigma_alpha(alpha, n), (alpha, n)
        # alpha = 2 cross-checked: the convergent-block (Q_j Q_{j+1}) path is
        # exact; the verbatim tabulated display differs by a recorded shift
        # defect (Open-Question report, see the module tests)
        rep = sigma_special_case_check(2, 4)
        assert rep.telescoped_residual_zero
        assert rep.to_json()["schema"] == "qjfrac/sigma-special-case/1"


def test_criterion_9_q_binomial_theorem():
    with criterion(9, "q-binomial theorem truncated checks to order 12"):
        assert q_binomial_theorem_check(QRationalFn.zero(), Q, 12)
        assert q_binomial_theorem_check(Q, Q, 12)
        assert q_binomial_theorem_check(Q * Q, Q, 12)


def test_criterion_10_conjecture_checkers_report():
    with criterion(10, "conjecture checkers emit structured, well-formed reports"):
        qq2 = divisor_spec()

        ng = newton_girard_check(qq2.c, 4, 2).to_json()
        assert ng["schema"] == "qjfrac/newton-girard/1"
        assert {"adopted_residual", "printed_residual", "adopted_ok"} <= set(ng)

        claim = verify_claim_relations(qq2, 4, 2).to_json()
        assert claim["schema"] == "qjfrac/claim-report/1"
        assert isinstance(claim["nested_residuals"], list) and claim["nested_residuals"]
        assert all({"m", "s", "zero", "residual"} == set(r) for r in claim["nested_residuals"])

        fc = first_column_formula_check(qq2, 4).to_json()
        assert fc["schema"] == "qjfrac/first-column/1"
        assert {"formula", "triangle", "residual", "status"} <= set(fc)

        for j in (1, 2):
            td = tilde_D0j(j).to_json()
            assert td["schema"] == "qjfrac/tilde-d/1"
            assert {"j", "equal", "proportional_factor"} <= set(td)
