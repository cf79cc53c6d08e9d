"""Numeric convergence diagnostics: threshold radius, elementwise margins,
and convergent-vs-target probes."""

import functools
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from mpmath.ctx_iv import MPIntervalContext

import qjfrac.convergence as convergence
from qjfrac.convergence import (
    numeric_convergence_probe,
    pringsheim_margins,
    threshold_inequality_gap,
    threshold_radius,
)

from qjfrac.jfraction import divisor_spec
from qjfrac.sequences import divisor_contraction

from reference import all_positive, divisor_ab_closed_form, divisor_c_closed_form, min_margin


def numeric_spec(q):
    """The diagnostics' (q, q^2) spec at the context number q."""
    return divisor_contraction(functools.cache(q.__pow__))


class TestNumericSequences:
    # the numeric c_i and ab_i are the exact stack's contraction, run on the
    # numbers of an mpmath context
    def test_one_builder_for_both_arithmetics(self):
        # divisor_spec is the family instance at (q, q^2), and the numeric
        # spec carries its name
        from qjfrac.exact import QRationalFn
        from qjfrac.jfraction import PochhammerParams, pochhammer_spec

        spec = divisor_spec()
        assert spec is divisor_spec()
        family = pochhammer_spec(PochhammerParams(QRationalFn.q(), QRationalFn.qpow(2)))
        assert spec.name == family.name == numeric_spec(mpmath.MPContext().mpf(0.1)).name
        assert [spec.c(i) for i in range(1, 6)] == [family.c(i) for i in range(1, 6)]
        assert [spec.ab(i) for i in range(2, 6)] == [family.ab(i) for i in range(2, 6)]

    @pytest.mark.parametrize("q", [Fraction(1, 5), Fraction(-1, 3), Fraction(1, 7)])
    def test_match_exact_spec(self, q):
        spec = divisor_spec()
        ctx = mpmath.MPContext()
        ctx.prec = bits = 128
        numeric = numeric_spec(ctx.mpc(ctx.mpf(q.numerator) / q.denominator))
        for i in range(1, 13):
            pairs = [(numeric.c(i), spec.c(i))]
            if i >= 2:
                pairs.append((numeric.ab(i), spec.ab(i)))
            for got, exact in pairs:
                value = exact.evaluate(q)
                want = ctx.mpf(value.numerator) / value.denominator
                assert abs(got - want) <= abs(want) * ctx.mpf(2) ** (8 - bits)

    @pytest.mark.parametrize("q, bits, levels", [(0.1, 8192, 500), (complex(0.0356, -0.1285), 128, 100)])
    def test_match_closed_forms(self, q, bits, levels):
        ctx = mpmath.MPContext()
        ctx.prec = bits
        z = ctx.mpc(q)
        numeric = numeric_spec(z)
        tolerance = ctx.mpf(2) ** (8 - bits)
        for i in range(1, levels + 1):
            pairs = [(numeric.c(i), divisor_c_closed_form(z, i))]
            if i >= 2:
                pairs.append((numeric.ab(i), divisor_ab_closed_form(z, i)))
            for got, want in pairs:
                assert abs(got - want) <= abs(want) * tolerance, i

    @pytest.mark.parametrize("q", [0.1, -0.15, complex(0.0356, -0.1285)])
    def test_intervals_enclose_the_mp_values(self, q):
        # the same spec on mpmath.iv numbers: at the same precision each
        # interval contains the value of the mp context
        iv = MPIntervalContext()
        mp = mpmath.MPContext()
        iv.prec = mp.prec = 128
        enclosure = numeric_spec(iv.mpc(q.real, q.imag) if isinstance(q, complex) else iv.mpf(q))
        numeric = numeric_spec(mp.mpc(q))
        for i in range(1, 100):
            pairs = [(enclosure.c(i), numeric.c(i))]
            if i >= 2:
                pairs.append((enclosure.ab(i), numeric.ab(i)))
            for interval, value in pairs:
                if isinstance(q, complex):
                    assert value.real in interval.real and value.imag in interval.imag, i
                else:
                    assert value.imag == 0 and value.real in interval, i


class TestThresholdRadius:
    def test_value(self):
        assert abs(threshold_radius(1e-8) - 0.206783) < 1e-5

    def test_inside_region_positive(self):
        assert threshold_inequality_gap(0.1) > 0

    def test_outside_region_negative(self):
        assert threshold_inequality_gap(0.3) < 0

    def test_tolerance_below_double_spacing_ends(self):
        # bisection used to spin forever once lo and hi were adjacent doubles
        assert 0.2067 <= threshold_radius(1e-300) <= 0.2068

    def test_bad_tolerance(self):
        for tolerance in (0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance must be > 0"):
                threshold_radius(tolerance)


class TestMargins:
    def test_q_01_h50_all_positive(self):
        rep = pringsheim_margins(0.1, 50)
        assert all_positive(rep)
        assert len(rep["rows"]) == 49  # levels 2..50

    def test_random_real_q_h100(self):
        rng = random.Random(101)
        for _ in range(10):
            qv = 0.02 + 0.18 * rng.random()
            rep = pringsheim_margins(qv, 100)
            assert all_positive(rep), (qv, min_margin(rep))

    def test_small_q_margins_approach_zero_from_above(self):
        rep = pringsheim_margins(1e-6, 10)
        assert all_positive(rep)
        assert min_margin(rep) < 1e-5

    def test_q_05_recorded_not_asserted(self):
        # outside the provable region the margins are only recorded
        rep = pringsheim_margins(0.5, 30)
        assert len(rep["rows"]) == 29

    def test_complex_q_recorded(self):
        # phases can push isolated levels below zero even for |q| <= 0.2;
        # recorded as a diagnostic, convergence itself is probed separately
        data = pringsheim_margins(complex(0.0356, -0.1285), 100)
        assert data["schema"] == "qjfrac/pringsheim/1"
        assert "reading_note" in data

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            pringsheim_margins(0.0, 10)
        with pytest.raises(ValueError):
            pringsheim_margins(1.5, 10)
        with pytest.raises(ValueError):
            pringsheim_margins(0.1, 1)


class TestProbe:
    def test_gap_below_1e10_by_h20(self):
        rep = numeric_convergence_probe(0.15, 0.15, 20)
        assert rep["rows"][-1]["gap"] < 1e-10

    def test_monotone_after_transient(self):
        rep = numeric_convergence_probe(0.15, 0.15, 20)
        gaps = [r["gap"] for r in rep["rows"]]
        for i in range(3, len(gaps) - 1):
            assert gaps[i + 1] <= gaps[i] + 1e-12

    def test_q_z_zero_exact(self):
        rep = numeric_convergence_probe(0.0, 0.0, 3)
        assert rep["rows"][-1]["gap"] == 0.0

    def test_z_zero_only_constant_survives(self):
        rep = numeric_convergence_probe(0.15, 0.0, 3)
        assert rep["rows"][-1]["gap"] == 0.0

    def test_complex_q_converges_inside_radius(self):
        qv = complex(0.0356, -0.1285)
        rep = numeric_convergence_probe(qv, qv, 20)
        assert rep["rows"][-1]["gap"] < 1e-10

    def test_target_converged_flag(self, monkeypatch):
        # the direct sum stops after _MAX_TERMS terms (100,000; at z = 0.9999
        # the tail it drops is about 0.4); with 1000 terms, z = 0.999 leaves a
        # tail, so the target is flagged and not trusted
        monkeypatch.setattr(convergence, "_MAX_TERMS", 1000)
        rep = numeric_convergence_probe(0.1, 0.999, 1)
        assert rep["target_converged"] is False
        assert numeric_convergence_probe(0.15, 0.15, 1)["target_converged"] is True
        assert numeric_convergence_probe(0.0, 0.5, 1)["target_converged"] is True

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            numeric_convergence_probe(1.2, 0.1, 5)


class TestPrivateContext:
    def test_reports_are_the_json_the_cli_prints(self):
        margins = pringsheim_margins(0.1, 3)
        assert list(margins) == ["schema", "q", "z", "precision_bits", "reading_note", "rows"]
        assert list(margins["rows"][0]) == ["h", "abs_a", "abs_b", "margin"]
        probe = numeric_convergence_probe(0.15, 0.15, 2)
        assert list(probe) == ["schema", "q", "z", "target", "target_converged", "precision_bits", "rows"]
        assert list(probe["rows"][0]) == ["h", "gap", "overflow"]

    def test_precision_rule(self):
        assert numeric_convergence_probe(0.15, 0.15, 2)["precision_bits"] == 128
        assert pringsheim_margins(0.5, 10)["precision_bits"] == 128  # 2*10*1 + 64 = 84 < 128
        assert pringsheim_margins(0.1, 100)["precision_bits"] == int(200 * math.log2(10)) + 64

    @pytest.mark.parametrize("q, h_max", [(0.5, 10), (0.1, 100), (1e-6, 10), (-0.01, 60), (0.3j, 7)])
    def test_the_cli_cap_reads_the_bits_of_the_report(self, q, h_max):
        # margin_precision is the one statement of the rule, for the report and
        # for the cli's cap alike
        assert convergence.margin_precision(q, h_max) == pringsheim_margins(q, h_max)["precision_bits"]

    def test_threads_do_not_share_a_precision(self):
        # each diagnostic computes on a context of its own: two margin reports
        # at different precisions, built at once in two threads, equal the
        # serial ones (with one shared context the threads reset each other's
        # precision between operations)
        cases = [(0.1, 300), (0.15, 40)]
        serial = [pringsheim_margins(*case) for case in cases]
        assert serial[0]["precision_bits"] != serial[1]["precision_bits"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                got = [None, None]

                def run(i):
                    got[i] = pringsheim_margins(*cases[i])

                threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == serial
        finally:
            sys.setswitchinterval(interval)

    def test_global_precision_is_never_written(self, monkeypatch):
        # every write to prec or dps of any mpmath context is recorded with
        # whether its target is the global mpmath.mp
        cls = type(mpmath.mp)
        writes = []
        for name in ("prec", "dps"):
            old = getattr(cls, name)

            def record(ctx, value, old=old):
                writes.append(ctx is mpmath.mp)
                old.fset(ctx, value)

            monkeypatch.setattr(cls, name, property(old.fget, record))
        before = mpmath.mp.prec
        threshold_radius(1e-6)
        numeric_convergence_probe(0.15, 0.15, 5)
        numeric_convergence_probe(0.0, 0.0, 2)
        pringsheim_margins(0.1, 20)
        assert writes and not any(writes)
        assert mpmath.mp.prec == before
