"""Exit codes, schemas, and determinism of the command-line front end."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qjfrac

from qjfrac.cli import run
from qjfrac.oracles import sigma_alpha


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestDivisorTable:
    def test_values_match_oracle(self, capsys):
        code, out = run_capture(capsys, ["divisor", "table", "--alpha", "0", "--h", "5", "--order", "5"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "qjfrac/divisor-table/1"
        values = {row["n"]: int(row["value"]) for row in data["rows"]}
        assert values == {n: sigma_alpha(0, n) for n in range(1, 5)}

    def test_mod_table(self, capsys):
        code, out = run_capture(
            capsys,
            ["divisor", "table", "--alpha", "1", "--h", "4", "--order", "8", "--mod", "5"],
        )
        assert code == 0
        data = json.loads(out)
        assert [row["value"] for row in data["rows"]] == [1, 3, 4, 2, 1, 2, 3]
        assert all(not row["flagged"] for row in data["rows"])

    def test_csv_format(self, capsys):
        code, out = run_capture(
            capsys,
            ["divisor", "table", "--alpha", "1", "--h", "3", "--order", "3", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value,certified,empirical"
        assert lines[1].startswith("1,1,True")

    def test_deterministic(self, capsys):
        argv = ["divisor", "table", "--alpha", "1", "--h", "3", "--order", "4"]
        _, out1 = run_capture(capsys, argv)
        _, out2 = run_capture(capsys, argv)
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--alpha", "0", "--h", "24", "--order", "48"],
                "05a62d6b86c02d6807fd9c0722a29b674ad112641a7d34e19ab132b67d4d6a71",
            ),
            (
                ["--alpha", "3", "--h", "6", "--order", "12"],
                "cb550ce6c513ed241e9da5763192cc7dee5ed54b93a11eade1bc627e38b3697b",
            ),
        ],
        ids=["alpha0-h24", "alpha3-h6"],
    )
    def test_golden_output(self, capsys, argv, digest):
        # pinned stdout of the Fraction-kernel build; every row is in the
        # certified (n < h) or empirical (h <= n < 2h) window and matches the oracle
        code, out = run_capture(capsys, ["divisor", "table", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        data = json.loads(out)
        assert all(row["certified"] or row["empirical"] for row in data["rows"])
        assert len(data["rows"]) == 2 * data["h"] - 1
        assert [int(row["value"]) for row in data["rows"]] == [
            sigma_alpha(data["alpha"], row["n"]) for row in data["rows"]
        ]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--alpha", "1", "--h", "6", "--order", "12", "--mod", "7"],
                "447d11d0f2f12e512023a01a19bf75ce49a0dd88d2d67151c09b7eae58fb2857",
            ),
            (
                ["--alpha", "1", "--h", "6", "--order", "12", "--mod", "7", "--format", "csv"],
                "d1b793010803d8c9be53e0a0394dd388da9d7986686d510426b1115b9a296729",
            ),
            (
                ["--alpha", "1", "--h", "6", "--order", "12", "--mod", "7", "--format", "pretty"],
                "22f5cfb068c04e3c35f528140482324ccc060a5db0995c57b757c1721b45a09c",
            ),
            (
                ["--alpha", "0", "--h", "3", "--order", "1", "--format", "csv"],
                "d6ebda7ac607c26dbb4686f5984ab5af15ddc03997232305786cac6da8302e3e",
            ),
        ],
        ids=["mod7-json", "mod7-csv", "mod7-pretty", "header-only-csv"],
    )
    def test_golden_output_of_each_format(self, capsys, argv, digest):
        # pinned stdout of the residue table in every format, and of a csv
        # table with no rows, which prints its header alone
        code, out = run_capture(capsys, ["divisor", "table", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bounds_checked(self, capsys):
        assert run(["divisor", "table", "--alpha", "-1", "--h", "4", "--order", "4"]) == 2
        assert run(["divisor", "table", "--alpha", "0", "--h", "4", "--order", "0"]) == 2
        assert run(["divisor", "table", "--alpha", "0", "--h", "4", "--order", "4", "--mod", "1"]) == 2

    @pytest.mark.parametrize("mod", ["0", "1", "-3"])
    def test_modulus_below_two_names_its_flag(self, capsys, mod):
        # the parser used to take any int, and the library's error did not name --mod
        assert run(["divisor", "table", "--alpha", "0", "--h", "4", "--order", "4", f"--mod={mod}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --mod: expected >= 2, got {mod}" in captured.err

    def test_a_non_integer_coefficient_is_an_internal_error(self, capsys, monkeypatch):
        # every real table has integer coefficients (the proof is in the
        # divisors docstring), so the series are built by hand: 1/3 modulo 3
        # once kept its exact value with flagged: true, and so did 1/3 modulo 6,
        # although 6 does not divide 3; now no table has a rational row
        from fractions import Fraction

        from qjfrac import divisors
        from qjfrac.exact import QRationalFn, QSeries

        cases = [
            ([0, Fraction(1, 3), Fraction(5, 2)], ["--mod", "3"]),
            ([0, Fraction(1, 3), Fraction(5, 7)], ["--mod", "6"]),
            ([0, Fraction(1, 3), Fraction(5, 7)], []),
        ]
        for coeffs, mod in cases:
            series = QSeries(3, coeffs)
            monkeypatch.setattr(divisors, "generating_series", lambda alpha, h, order: (QRationalFn.zero(), series))
            argv = ["divisor", "table", "--alpha", "0", "--h", "2", "--order", "3", *mod]
            assert run(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "internal error: ArithmeticError: coefficient 1 of the divisor series is 1/3, not an integer\n"
            )

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["divisor", "table", "--alpha", "0", "--h", "x", "--order", "4"], "--h"),
            (["divisor", "table", "--alpha", "0", "--h", "4", "--order", "4", "--mod", "x"], "--mod"),
            (["jfrac", "invert", "--target", "one_over_1mqn", "--depth", "x"], "--depth"),
            (["jfrac", "triangle", "--preset", "reciprocal_qq", "--h", "x"], "--h"),
        ],
    )
    def test_non_integer_names_the_type(self, capsys, argv, flag):
        # argparse names the type function in the error, so it must read "int"
        assert run(argv) == 2
        assert f"argument {flag}: invalid int value: 'x'" in capsys.readouterr().err


class TestSizeCaps:
    # each of these ran past a 15 s timeout before its cap; the parser now
    # rejects them, so the command never starts
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["divisor", "table", "--alpha", "0", "--h", "4", "--order", "200000"], "--order: expected 1..1024"),
            (["divisor", "table", "--alpha", "300", "--h", "4", "--order", "8"], "--alpha: expected 0..32"),
            (["jfrac", "expand", "--preset", "reciprocal_qq", "--h", "4", "--zorder", "100000"], "--zorder: expected 1..64"),
            (["converge", "margins", "--q=0.1", "--hmax", "10000000"], "--hmax: expected 2..500"),
            (["converge", "probe", "--q=0.1", "--hmax", "100000"], "--hmax: expected 1..100"),
            (["oracle", "qbinomial", "--n", "81", "--k", "40"], "--n: expected 0..80"),
            (["oracle", "qbinomial", "--n", "80", "--k", "81"], "--k: expected 0..80"),
            (["oracle", "qpochhammer", "--x", "q", "--n", "129"], "--n: expected 0..128"),
            (
                ["oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "65"],
                "--order: expected 1..64",
            ),
            (["oracle", "sigma", "--alpha", "1", "--n", "100000000000001"], "--n: expected 1..100000000000000"),
            (["oracle", "sigma", "--alpha", "33", "--n", "12"], "--alpha: expected 0..32"),
            (["oracle", "lambert", "--alpha", "2", "--order", "200001"], "--order: expected 1..200000"),
            (["oracle", "lambert", "--alpha", "33", "--order", "10"], "--alpha: expected 0..32"),
            (["verify", "lemmas", "--h", "9"], "--h: expected 1..8"),
            # --depth 12 of this target ran past 60 s under the old shared cap of 64
            (["jfrac", "invert", "--target", "n2_over_1mqn", "--depth", "12"], "--depth: expected 1..7"),
        ],
        ids=[
            "order",
            "alpha",
            "zorder",
            "margins-hmax",
            "probe-hmax",
            "qbinomial-n",
            "qbinomial-k",
            "qpochhammer-n",
            "qbinomialtheorem-order",
            "sigma-n",
            "sigma-alpha",
            "lambert-order",
            "lambert-alpha",
            "lemmas-h",
            "invert-depth",
        ],
    )
    def test_size_above_the_cap_is_a_usage_error(self, capsys, argv, message):
        from qjfrac.cli import build_parser

        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert run(argv) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["divisor", "table", "--alpha", "32", "--h", "4", "--order", "1024"],
            ["jfrac", "expand", "--preset", "reciprocal_qq", "--h", "4", "--zorder", "64"],
            ["converge", "margins", "--q=0.1", "--hmax", "500"],
            ["converge", "probe", "--q=0.1", "--hmax", "100"],
            ["oracle", "qbinomial", "--n", "80", "--k", "80"],
            ["oracle", "qpochhammer", "--x", "q", "--n", "128"],
            ["oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "64"],
            ["oracle", "sigma", "--alpha", "32", "--n", "100000000000000"],
            ["oracle", "lambert", "--alpha", "32", "--order", "200000"],
            ["verify", "lemmas", "--h", "8"],
            ["jfrac", "invert", "--target", "n2_over_1mqn", "--depth", "7"],
        ],
    )
    def test_size_at_the_cap_parses(self, argv):
        from qjfrac.cli import build_parser

        build_parser().parse_args(argv)

    def test_readme_caps_table_matches_the_code(self):
        from qjfrac import cli, parse

        constants = {
            "exponent in `^`, in absolute value": parse._MAX_EXPONENT,
            "degree of any parsed value (numerator or denominator)": parse._MAX_DEGREE,
            "bits of any coefficient numerator or denominator of a parsed value": parse._MAX_BITS,
            "`divisor table --order`": cli._MAX_ORDER,
            "`divisor table --alpha`": cli._MAX_ALPHA,
            "`divisor table` joint cost (`--alpha` + 9)·`--h`": cli._MAX_DIVISOR_COST,
            "`jfrac expand --zorder` (default 2h, so `--h` above 32 needs `--zorder`)": cli._MAX_ZORDER,
            "`converge probe --hmax`": cli._MAX_PROBE_LEVELS,
            "`converge margins --hmax`": cli._MAX_MARGIN_LEVELS,
            "`converge margins` joint precision in bits, from `--q` and `--hmax`": cli._MAX_MARGIN_BITS,
            "`oracle sigma --n`": cli._MAX_SIGMA_N,
            "`oracle sigma --alpha`, `oracle lambert --alpha`": cli._MAX_ALPHA,
            "`oracle lambert --order`": cli._MAX_LAMBERT_ORDER,
            "`oracle qbinomial --n`, `--k`": cli._MAX_QBINOMIAL_N,
            "`oracle qpochhammer --n`": cli._MAX_POCHHAMMER_N,
            "`oracle qbinomialtheorem --order`": cli._MAX_QBT_ORDER,
            "`oracle qpochhammer` joint cost `--n`⁴·size·(32 + d)/32": cli._MAX_POCHHAMMER_COST,
            "`oracle qbinomialtheorem` joint cost `--order`⁴·size, (168 + d)/168 per denominator": cli._MAX_QBT_COST,
            "`verify lemmas --h`": cli._MAX_LEMMA_H,
            "`jfrac expand --h`, `jfrac triangle --h`, `divisor table --h`": cli._MAX_DEPTH,
            "`jfrac expand` joint cost `--h`⁶·size": cli._MAX_EXPAND_COST,
            "`jfrac triangle` joint cost `--h`⁷·size, `--z` squared": cli._MAX_TRIANGLE_COST,
            "`jfrac invert --depth`": cli._MAX_INVERT_DEPTH,
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| size | cap |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        listed = {}
        for line in table.splitlines():
            size, cap = (cell.strip() for cell in line.strip("|").split("|"))
            base, _, exponent = cap.partition("^")
            listed[size] = int(base) ** int(exponent) if exponent else int(base)
        assert listed == constants

    @pytest.mark.parametrize(
        "q, hmax",
        # 10,029, 996,642, 199,379 and 8,701 bits: --q 1e-3 --hmax 500 took
        # 1.4-1.8 s and --q 1e-300 --hmax 100 35 s
        [("1e-3", "500"), ("1e-300", "500"), ("1e-300", "100"), ("1e-13", "100"), ("0,-1e-3", "500")],
    )
    def test_margins_above_the_precision_cap_is_a_usage_error(self, capsys, monkeypatch, q, hmax):
        import qjfrac.convergence as convergence

        def never(*args):
            raise AssertionError("the margins must not run")

        monkeypatch.setattr(convergence, "pringsheim_margins", never)
        assert run(["converge", "margins", f"--q={q}", "--hmax", hmax]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --q of modulus ") and f"--hmax {hmax}:" in err
        assert "bits exceeds 8192" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "q, hmax",
        # 8,181 and 8,036 bits, the README and CI cases, and the benchmark's
        # smallest --q at --hmax 100
        [("0.0036", "500"), ("-0.0036", "500"), ("1e-12", "100"), ("0.1", "500"), ("0.1", "100"), ("0.05", "100")],
    )
    def test_margins_at_the_precision_cap_runs(self, capsys, monkeypatch, q, hmax):
        import qjfrac.convergence as convergence

        monkeypatch.setattr(convergence, "pringsheim_margins", lambda q, h_max: {"rows": []})
        assert run(["converge", "margins", f"--q={q}", "--hmax", hmax]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "alpha, h", [(32, 12), (32, 8), (3, 26), (0, 64), (16, 13), (30, 8), (4, 24), (1, 31), (0, 34)]
    )
    def test_divisor_table_above_the_joint_cap_is_a_usage_error(self, capsys, monkeypatch, alpha, h):
        # each size is inside its own cap, but --alpha 32 --h 12 took 16 s and
        # the points just above the bound 1.4-2.6 s; the command must not start
        import qjfrac.divisors as divisors

        def never(*args):
            raise AssertionError("the generator must not run")

        monkeypatch.setattr(divisors, "generating_series", never)
        argv = ["divisor", "table", "--alpha", str(alpha), "--h", str(h), "--order", str(2 * h)]
        assert run(argv) == 2
        assert run(argv + ["--mod", "5"]) == 2
        assert f"(alpha + 9)*h = {(alpha + 9) * h} exceeds 300" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, h",
        [(0, 32), (3, 20), (3, 12), (16, 10), (32, 7), (32, 2), (16, 12), (16, 11), (1, 27), (0, 33), (4, 22),
         (1, 30), (3, 25), (24, 9)],
    )
    def test_divisor_table_at_the_joint_cap_runs(self, monkeypatch, alpha, h):
        # the benchmark's sizes (alpha <= 3 at h <= 12) stay legal, and so do
        # the points on the bound, which take 0.6-1.5 s
        import qjfrac.divisors as divisors
        from qjfrac.exact import QRationalFn, QSeries

        def stub(alpha, h, order):
            return QRationalFn.zero(), QSeries.zero(2)

        monkeypatch.setattr(divisors, "generating_series", stub)
        assert run(["divisor", "table", "--alpha", str(alpha), "--h", str(h), "--order", "1"]) == 0

    @staticmethod
    def _stub_expansion(monkeypatch, command, stub_pairs, stub_row):
        """Replace the work of the command: convergents for expand, rows for triangle."""
        import qjfrac.jfraction as jfraction

        if command == "expand":
            monkeypatch.setattr(jfraction, "convergents", stub_pairs)
        else:
            import qjfrac.stirling as stirling

            monkeypatch.setattr(stirling, "triangle_row", stub_row)

    @pytest.mark.parametrize(
        "argv",
        [
            ["jfrac", "expand", "--a", "q", "--b", "q^2", "--h", "32"],
            ["jfrac", "expand", "--a", "3/7*q", "--b", "2/5*q^2", "--h", "24"],
            ["jfrac", "expand", "--a", "(1+q)^8", "--b", "q^2", "--h", "16"],
            ["jfrac", "expand", "--a", "(1+q)^64", "--b", "q^2", "--h", "8"],
            ["jfrac", "expand", "--a", "(1+q)^256", "--b", "q^2", "--h", "4"],
            ["jfrac", "expand", "--a", "q", "--b", "q^2", "--h", "15"],
            ["jfrac", "expand", "--preset", "pochhammer_zqn", "--z", "(1+q)^8", "--h", "11", "--zorder", "4"],
        ],
    )
    def test_expand_above_the_joint_cap_is_a_usage_error(self, capsys, monkeypatch, argv):
        # each size is inside its own cap, but the first five took 9 s to over
        # 60 s; the command must not start
        def never(*args):
            raise AssertionError("the expansion must not run")

        self._stub_expansion(monkeypatch, argv[1], never, never)
        assert run(argv) == 2
        assert "exceeds 67108864" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            # 29 s at --h 30, 4.0 s, 3.6 s and 9.9 s (in-process, one run each)
            ["--a", "3/7*q", "--b", "2/5*q^2", "--h", "32"],
            ["--a", "(1+q)^256", "--b", "q^2", "--h", "7"],
            ["--preset", "reciprocal_qq", "--h", "21"],
            # one power of 3 above each constant of the test below
            ["--a", "(3^256)^256*(3^256)^66*3^245", "--b", "q^2", "--h", "2"],
            ["--a", "(3^256)^78*3^18", "--b", "q^2", "--h", "3"],
            ["--a", "(3^256)^12*3^255", "--b", "q^2", "--h", "5"],
            ["--a", "3^97", "--b", "q^2", "--h", "13"],
            # --z weighs its square: linearly weighed these took 24 s and 23 s
            ["--preset", "reciprocal_pochhammer_zqn", "--z", "(1+q)^256", "--h", "4"],
            ["--preset", "reciprocal_pochhammer_zqn", "--z", "(3^256)^12", "--h", "5"],
            ["--preset", "reciprocal_pochhammer_zqn", "--z", "1234567/891011", "--h", "13"],
        ],
    )
    def test_triangle_above_its_joint_cap_is_a_usage_error(self, capsys, monkeypatch, flags):
        def never(*args):
            raise AssertionError("the triangle must not run")

        self._stub_expansion(monkeypatch, "triangle", never, never)
        assert run(["jfrac", "triangle", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --h {flags[-1]} with parameter size ") and "h^7*size" in err
        assert "exceeds 34359738368" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            # on the bound; in-process these took 0.4-1.9 s, and the expand
            # cap, which triangle shared, refused all but the last
            ["--a", "(3^256)^256*(3^256)^66*3^244", "--b", "q^2", "--h", "2"],
            ["--a", "(3^256)^78*3^17", "--b", "q^2", "--h", "3"],
            ["--a", "(3^256)^12*3^254", "--b", "q^2", "--h", "5"],
            ["--a", "3^96", "--b", "q^2", "--h", "13"],
            ["--a", "(1+q)^256", "--b", "q^2", "--h", "6"],
            ["--a", "1/(1-3*q)^64", "--b", "q^2", "--h", "8"],
            ["--a", "(1-q)/(1-q^256)", "--b", "q^2", "--h", "12"],
            ["--preset", "reciprocal_pochhammer_zqn", "--z", "1234567/891011", "--h", "12"],
            ["--preset", "reciprocal_qq", "--h", "20"],
        ],
    )
    def test_triangle_at_its_joint_cap_runs(self, capsys, monkeypatch, flags):
        self._stub_expansion(monkeypatch, "triangle", None, lambda spec, h: ())
        assert run(["jfrac", "triangle", *flags]) == 0
        assert capsys.readouterr().err == ""

    def test_triangle_of_a_large_constant_runs(self, capsys):
        # refused by the expand cap that triangle shared, though it takes
        # about 0.2 s
        code, out = run_capture(capsys, ["jfrac", "triangle", "--a", "(2^256)^15", "--b", "q^2", "--h", "5"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [len(row) for row in rows] == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize(
        "argv",
        [
            ["jfrac", "expand", "--a", "q", "--b", "q^2", "--h", "14"],
            ["jfrac", "expand", "--a", "(1+q)^8", "--b", "q^2", "--h", "10"],
            ["jfrac", "expand", "--a", "(1+q)^64", "--b", "q^2", "--h", "5"],
            ["jfrac", "triangle", "--a", "(1+q)^256", "--b", "q^2", "--h", "3"],
            ["jfrac", "expand", "--a", "1234567/891011*q", "--b", "2/5*q^2", "--h", "10"],
            ["jfrac", "triangle", "--preset", "reciprocal_qq", "--h", "20"],
            ["jfrac", "expand", "--preset", "reciprocal_pochhammer_zqn", "--z", "1/3", "--h", "16"],
        ],
    )
    def test_expand_at_the_joint_cap_runs(self, monkeypatch, argv):
        from qjfrac.jfraction import ConvergentPair
        from qjfrac.zalgebra import ZPolynomial

        self._stub_expansion(
            monkeypatch,
            argv[1],
            lambda spec, h: ConvergentPair(0, ZPolynomial.zero(), ZPolynomial.one()),
            lambda spec, h: (),
        )
        assert run(argv) == 0

    @pytest.mark.parametrize(
        "flags",
        [
            # the README examples and the benchmark's largest draws
            ["--a", "q", "--b", "q^2", "--h", "5"],
            ["--a=-3/2*q^2", "--b", "2/3*q^2", "--h", "5"],
            ["--preset", "reciprocal_qq", "--h", "4"],
            # the CI presets
            ["--preset", "pochhammer_a", "--a", "1/3", "--h", "6"],
            ["--preset", "reciprocal_qq", "--h", "6"],
            ["--preset", "pochhammer_zqn", "--z", "1/3", "--h", "6"],
            ["--preset", "reciprocal_pochhammer_zqn", "--z", "1/3", "--h", "6"],
            ["--preset", "reciprocal_pochhammer_zqn", "--z", "1", "--h", "6"],
            ["--preset", "pochhammer_ratio", "--a", "q", "--b", "q^2", "--h", "6"],
        ],
    )
    def test_documented_expansions_stay_inside_the_joint_cap(self, capsys, flags):
        for command in ("expand", "triangle"):
            assert run(["jfrac", command, *flags]) == 0
        assert capsys.readouterr().err == ""

    def test_default_zorder_above_the_cap_is_a_usage_error(self, capsys, monkeypatch):
        # the default zorder is 2h, so h > 32 needs an explicit --zorder
        import qjfrac.jfraction as jfraction

        def never(*args):
            raise AssertionError("convergents must not run")

        monkeypatch.setattr(jfraction, "convergents", never)
        assert run(["jfrac", "expand", "--preset", "reciprocal_qq", "--h", "33"]) == 2
        assert "--zorder 66 (default 2h) exceeds 64" in capsys.readouterr().err

    @staticmethod
    def _stub_oracles(monkeypatch, pochhammer, theorem):
        import qjfrac.oracles as oracles

        monkeypatch.setattr(oracles, "q_pochhammer", pochhammer)
        monkeypatch.setattr(oracles, "q_binomial_theorem_check", theorem)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["oracle", "qpochhammer", "--x", "3*q^2+5", "--n", "128"], "n^4*size = 2415919104 exceeds 536870912"),
            (["oracle", "qpochhammer", "--x", "(3*q^2+5)^2", "--n", "128"], "exceeds 536870912"),
            (["oracle", "qpochhammer", "--x", "(3*q^2+5)^8", "--n", "128"], "exceeds 536870912"),
            (["oracle", "qpochhammer", "--x", "(1+q)^256", "--n", "16"], "exceeds 536870912"),
            (["oracle", "qpochhammer", "--x", "(1+q)^256", "--n", "64"], "exceeds 536870912"),
            (["oracle", "qpochhammer", "--x", "1/(1-3*q)^64", "--n", "17"], "exceeds 536870912"),
            (
                ["oracle", "qbinomialtheorem", "--a", "(1+q)^8", "--z", "q", "--order", "64"],
                "order^4*size = 1107296256 exceeds 134217728",
            ),
            (["oracle", "qbinomialtheorem", "--a", "(1+q)^32", "--z", "q", "--order", "64"], "exceeds 134217728"),
            (
                ["oracle", "qbinomialtheorem", "--a", "(1+q)^64/(1-3*q)^64", "--z", "2*q/(1+q)", "--order", "64"],
                "exceeds 134217728",
            ),
            (["oracle", "qbinomialtheorem", "--a", "q", "--z", "(1+q)^32*q", "--order", "20"], "exceeds 134217728"),
            # a denominator of degree d weighs (32 + d)/32: --n 16 took 4.4 s
            (
                ["oracle", "qpochhammer", "--x", "1/(1-3*q)^64", "--n", "13"],
                "n^4*size = 568078290 exceeds 536870912",
            ),
            (["oracle", "qpochhammer", "--x", "1/(1-3*q)^64", "--n", "16"], "exceeds 536870912"),
            (["oracle", "qpochhammer", "--x", "(1-q)/(1-q^256)", "--n", "22"], "exceeds 536870912"),
            # so does each of --a and --z in qbinomialtheorem, by (168 + d)/168:
            # --order 22 took 4.1 s inside the old order^4*size cap
            (
                ["oracle", "qbinomialtheorem", "--a", "(1-q)/(1-q^256)", "--z", "q*(1-q)/(1-q^256)", "--order", "18"],
                "order^4*size = 135314064 exceeds 134217728",
            ),
            (
                ["oracle", "qbinomialtheorem", "--a", "(1-q)/(1-q^256)", "--z", "q*(1-q)/(1-q^256)", "--order", "22"],
                "exceeds 134217728",
            ),
        ],
    )
    def test_oracle_above_the_joint_cap_is_a_usage_error(self, capsys, monkeypatch, argv, message):
        # each size is inside its own cap, but the first took 3.2 s and the
        # (1+q)^256 and (1+q)^32 cases 35 s to over 60 s; the oracle must not start
        def never(*args):
            raise AssertionError("the oracle must not run")

        self._stub_oracles(monkeypatch, never, never)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            # the README and benchmark examples, and the bound itself
            ["oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "12"],
            ["oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "64"],
            ["oracle", "qpochhammer", "--x", "q", "--n", "128"],
            ["oracle", "qpochhammer", "--x", "1+q", "--n", "128"],
            ["oracle", "qpochhammer", "--x", "3*q^2+5", "--n", "87"],
            ["oracle", "qpochhammer", "--x", "(1+q)^256", "--n", "9"],
            ["oracle", "qpochhammer", "--x", "1/(1-3*q)^64", "--n", "12"],
            ["oracle", "qbinomialtheorem", "--a", "q^2/(1-3*q)", "--z", "2*q/(1+q)", "--order", "59"],
            ["oracle", "qbinomialtheorem", "--a", "(1+q)^64/(1-3*q)^64", "--z", "2*q/(1+q)", "--order", "11"],
            ["oracle", "qpochhammer", "--x", "(1-q)/(1-q^256)", "--n", "21"],
            ["oracle", "qbinomialtheorem", "--a", "(1-q)/(1-q^256)", "--z", "q*(1-q)/(1-q^256)", "--order", "17"],
        ],
    )
    def test_oracle_at_the_joint_cap_runs(self, capsys, monkeypatch, argv):
        self._stub_oracles(monkeypatch, lambda x, n: 1, lambda a, z, order: True)
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            # weighed linearly in their bits these sat inside the caps, and took
            # 8.7 s, 29 s, 3.1 s, 9.4 s and 9.4 s
            (["jfrac", "expand", "--a", "(2^256)^8", "--b", "q^2", "--h", "5"], "--h 5"),
            (["jfrac", "expand", "--a", "(2^256)^15", "--b", "q^2", "--h", "5"], "--h 5"),
            (["jfrac", "expand", "--a", "2^62", "--b", "q^2", "--h", "10"], "--h 10"),
            (["oracle", "qbinomialtheorem", "--a", "(2^256)^15", "--z", "q", "--order", "12"], "--order 12"),
            (["oracle", "qpochhammer", "--x", "((2^250)^25)^4", "--n", "12"], "--n 12"),
            # one power of 3 above each constant of the test below
            (["jfrac", "expand", "--a", "3^256*3^56", "--b", "q^2", "--h", "5"], "--h 5"),
            (["jfrac", "expand", "--a", "3^63", "--b", "q^2", "--h", "8"], "--h 8"),
            (["jfrac", "expand", "--a", "3^25", "--b", "q^2", "--h", "10"], "--h 10"),
            (["jfrac", "expand", "--a", "3^6", "--b", "q^2", "--h", "13"], "--h 13"),
            (["oracle", "qpochhammer", "--x", "(3^256)^8*3^93", "--n", "12"], "--n 12"),
            (["oracle", "qpochhammer", "--x", "3^101", "--n", "40"], "--n 40"),
            (["oracle", "qbinomialtheorem", "--a", "(3^256)^2*3^224", "--z", "q", "--order", "12"], "--order 12"),
            (["oracle", "qbinomialtheorem", "--a", "3^72", "--z", "q", "--order", "30"], "--order 30"),
        ],
    )
    def test_large_constants_above_the_joint_cap_are_a_usage_error(self, capsys, monkeypatch, argv, flag):
        # bits above twice the degree cost about like bits^1.8, and weigh more
        def never(*args):
            raise AssertionError("the command must not run")

        self._stub_expansion(monkeypatch, argv[1], never, never)
        self._stub_oracles(monkeypatch, never, never)
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} with parameter size ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            # on each bound; in-process these took 0.2-1.8 s
            ["jfrac", "expand", "--a", "(3^256)^5*3^231", "--b", "q^2", "--h", "3"],
            ["jfrac", "expand", "--a", "3^256*3^55", "--b", "q^2", "--h", "5"],
            ["jfrac", "expand", "--a", "3^62", "--b", "q^2", "--h", "8"],
            ["jfrac", "expand", "--a", "3^24", "--b", "q^2", "--h", "10"],
            ["jfrac", "triangle", "--a", "3^5", "--b", "q^2", "--h", "13"],
            ["oracle", "qpochhammer", "--x", "(3^256)^8*3^92", "--n", "12"],
            ["oracle", "qpochhammer", "--x", "3^100", "--n", "40"],
            ["oracle", "qbinomialtheorem", "--a", "(3^256)^2*3^223", "--z", "q", "--order", "12"],
            ["oracle", "qbinomialtheorem", "--a", "3^71", "--z", "q", "--order", "30"],
        ],
    )
    def test_large_constants_at_the_joint_cap_run(self, capsys, monkeypatch, argv):
        from qjfrac.jfraction import ConvergentPair
        from qjfrac.zalgebra import ZPolynomial

        self._stub_expansion(
            monkeypatch,
            argv[1],
            lambda spec, h: ConvergentPair(0, ZPolynomial.zero(), ZPolynomial.one()),
            lambda spec, h: (),
        )
        self._stub_oracles(monkeypatch, lambda x, n: 1, lambda a, z, order: True)
        assert run(argv) == 0
        assert capsys.readouterr().err == ""


class TestInvert:
    def test_golden_ab2(self, capsys):
        code, out = run_capture(capsys, ["jfrac", "invert", "--target", "one_over_1mqn", "--depth", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "qjfrac/invert/1"
        from qjfrac.exact import QRationalFn

        got = QRationalFn.parse(data["ab"][0])
        assert got == QRationalFn.parse("-2*q/((1-q)^2*(1+q))")

    def test_unknown_target_rejected(self):
        assert run(["jfrac", "invert", "--target", "nope", "--depth", "2"]) == 2
        assert run(["jfrac", "invert", "--target", "one_over_1mqn", "--depth", "0"]) == 2

    @pytest.mark.parametrize(
        "target, digest",
        [
            ("one_over_1mqn", "a2d31f194e5e9bfaa644a31b454356fcf1cedd7a6b06470f3c0c4e6e05a0b0d8"),
            ("n_over_1mqn", "862709b6fd59175780d3ecba0005ae1850b9c880209c07b72df9ff60c832c2da"),
        ],
    )
    def test_golden_output(self, capsys, target, digest):
        # pinned stdout of the README inversions
        code, out = run_capture(capsys, ["jfrac", "invert", "--target", target, "--depth", "3"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_deterministic(self, capsys):
        argv = ["jfrac", "invert", "--target", "n_over_1mqn", "--depth", "3"]
        _, out1 = run_capture(capsys, argv)
        _, out2 = run_capture(capsys, argv)
        assert out1 == out2


class TestExpand:
    def test_custom_parameters(self, capsys):
        code, out = run_capture(
            capsys,
            ["jfrac", "expand", "--a", "q", "--b", "q^2", "--h", "3", "--zorder", "6"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "qjfrac/expand/1"
        from qjfrac.exact import QRationalFn

        coeffs = [QRationalFn.parse(c) for c in data["coefficients"]]
        one, q = QRationalFn.one(), QRationalFn.q()
        for n in range(6):
            assert coeffs[n] == (one - q) / (one - QRationalFn.qpow(n + 1))

    def test_preset(self, capsys):
        code, out = run_capture(
            capsys, ["jfrac", "expand", "--preset", "reciprocal_qq", "--h", "2"]
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["c"]) == 2

    @pytest.mark.parametrize("h", [4, 5])
    def test_reciprocal_zqn_row_at_z_one(self, capsys, h):
        # the tabulated ab_2 display of this row is 0/0 at z = 1; the
        # contraction's g-product is regular there and reproduces the target
        from qjfrac.exact import QRationalFn
        from reference import table1_target

        code, out = run_capture(
            capsys, ["jfrac", "expand", "--preset", "reciprocal_pochhammer_zqn", "--z", "1", "--h", str(h)]
        )
        assert code == 0
        coeffs = [QRationalFn.parse(c) for c in json.loads(out)["coefficients"]]
        assert coeffs == [
            table1_target("reciprocal_pochhammer_zqn", n, z=QRationalFn.one()) for n in range(2 * h)
        ]

    def test_missing_parameters(self, capsys):
        code = run(["jfrac", "expand", "--h", "3"])
        assert code == 2

    def test_bad_expression(self):
        assert run(["jfrac", "expand", "--a", "q+*2", "--b", "q", "--h", "2"]) == 2

    def test_excluded_preset_rejected(self):
        # the excluded family is not even a CLI choice
        assert run(["jfrac", "expand", "--preset", "qbinom_exponent_qq", "--h", "2"]) == 2

    @pytest.mark.parametrize("command", ["expand", "triangle"])
    @pytest.mark.parametrize(
        "flags, unused",
        [
            (["--preset", "reciprocal_qq", "--z", "5"], "z"),
            (["--preset", "reciprocal_qq", "--a", "q"], "a"),
            (["--preset", "pochhammer_a", "--a", "1/3", "--b", "7"], "b"),
            (["--preset", "pochhammer_zqn", "--z", "1/3", "--a", "q"], "a"),
            (["--preset", "reciprocal_pochhammer_zqn", "--z", "1", "--b", "q"], "b"),
            (["--preset", "pochhammer_ratio", "--a", "q", "--b", "q^2", "--z", "5"], "z"),
            (["--a", "q", "--b", "q^2", "--z", "5"], "z"),
        ],
        ids=["qq-z", "qq-a", "a-b", "zqn-a", "rzqn-b", "ratio-z", "no-preset-z"],
    )
    def test_a_parameter_the_family_does_not_take_is_a_usage_error(self, capsys, command, flags, unused):
        # the flag used to be ignored, with exit 0
        assert run(["jfrac", command, *flags, "--h", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--{unused}" in captured.err or f"parameter {unused}" in captured.err


class TestTriangle:
    def test_dump(self, capsys):
        code, out = run_capture(
            capsys, ["jfrac", "triangle", "--a", "q", "--b", "q^2", "--h", "3"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == "qjfrac/triangle/1"
        assert data["rows"][0] == ["1"]
        assert len(data["rows"]) == 4
        assert len(data["rows"][3]) == 4

    def test_needs_a_spec(self):
        assert run(["jfrac", "triangle", "--h", "3"]) == 2


class TestVerify:
    def test_lemmas_pass_qq2(self, capsys):
        code, out = run_capture(capsys, ["verify", "lemmas", "--h", "3"])
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "ok"
        assert all(rep["status"] == "ok" for rep in data["reports"])

    def test_lemmas_pass_random(self, capsys):
        code, out = run_capture(capsys, ["verify", "lemmas", "--h", "3", "--spec", "random", "--seed", "4"])
        assert code == 0

    def test_exit_one_on_mismatch(self, capsys, monkeypatch):
        import qjfrac.stirling as stirling_mod

        real = stirling_mod.verify_Qh_expansion

        def broken(spec, h):
            rep = real(spec, h)
            rep["status"] = "mismatch"
            return rep

        monkeypatch.setattr(stirling_mod, "verify_Qh_expansion", broken)
        code, out = run_capture(capsys, ["verify", "lemmas", "--h", "2"])
        assert code == 1
        assert json.loads(out)["status"] == "mismatch"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--h", "4"],
                "a572c2bb2b6c6ff35fd47f8a3c298289a48c811bfa2231c85e286ab8c533ef44",
            ),
            (
                ["--h", "5"],
                "20d5c7366e04cc0e34e14b269822e8c1acb0543d6f2a2944ea2ef73820069fbc",
            ),
            (
                ["--spec", "random", "--seed", "0", "--h", "6"],
                "401ff1c77224368504a10b76f65d459b6f3630faf5cd32a327dd570c31e762ac",
            ),
            (
                ["--h", "4", "--format", "pretty"],
                "2cadd93063a548c8b32606cf28a4a124756df70bbb3aaacd1da4e81cfe577466",
            ),
            (
                ["--spec", "random", "--seed", "3", "--h", "8"],
                "49a63a1ccf7d1b44cc57f87804dfe35f0e24bdd1fd8c5e817475e3fd47a257f2",
            ),
            (
                # the random spec of the benchmark's lemma_suite at seed 1
                ["--spec", "random", "--seed", "948928", "--h", "8"],
                "1b03932f5c5fea1822ac303bf6df146a09c0f80aad8acdbb7d729790320ea6ea",
            ),
        ],
        ids=["qq2-h4", "qq2-h5", "random-seed0-h6", "qq2-h4-pretty", "random-seed3-h8", "random-seed948928-h8"],
    )
    def test_lemmas_golden_output(self, capsys, argv, digest):
        # pinned stdout: refactors of the lemma layer must not change a byte.
        # Pinned from the claim-report/2 output, whose `zero` flags the
        # per-(m, s) route confirmed, with each nested row's `residual` entry
        # deleted and the schema bumped to claim-report/3
        code, out = run_capture(capsys, ["verify", "lemmas", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConverge:
    def test_radius(self, capsys):
        code, out = run_capture(capsys, ["converge", "radius", "--tol", "1e-8"])
        assert code == 0
        data = json.loads(out)
        assert abs(data["radius"] - 0.206783) < 1e-5

    def test_radius_rejects_nonpositive_tolerance(self, capsys):
        # nan and inf used to exit 0 with a scan-step radius and non-standard JSON
        for tol in ("0", "-1e-8", "nan", "inf"):
            assert run(["converge", "radius", f"--tol={tol}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "tolerance must be > 0" in captured.err

    @pytest.mark.parametrize(
        "argv, flag, text",
        [
            (["converge", "probe", "--q", "nan", "--hmax", "3"], "--q", "nan"),
            (["converge", "probe", "--q", "0.1,nan", "--hmax", "3"], "--q", "0.1,nan"),
            (["converge", "probe", "--q", "0.1", "--z", "inf", "--hmax", "3"], "--z", "inf"),
            (["converge", "margins", "--q", "nan", "--hmax", "3"], "--q", "nan"),
            (["converge", "margins", "--q=-inf,0", "--hmax", "3"], "--q", "-inf,0"),
        ],
        ids=["probe-q", "probe-q-imag", "probe-z", "margins-q", "margins-q-real"],
    )
    def test_non_finite_point_is_a_usage_error(self, capsys, argv, flag, text):
        # a nan q used to sum the direct series to its term limit and exit 0
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected RE or RE,IM with finite parts, got {text!r}" in captured.err

    def test_probe_csv(self, capsys):
        code, out = run_capture(capsys, ["converge", "probe", "--q", "0.15", "--hmax", "20"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "h,gap,overflow"
        assert len(lines) == 21
        assert float(lines[-1].split(",")[1]) < 1e-10

    def test_probe_complex_argument(self, capsys):
        code, out = run_capture(
            capsys, ["converge", "probe", "--q", "0.1,0.05", "--hmax", "5", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["schema"] == "qjfrac/converge-probe/1"

    def test_margins(self, capsys):
        code, out = run_capture(capsys, ["converge", "margins", "--q", "0.1", "--hmax", "10"])
        assert code == 0
        data = json.loads(out)
        assert all(row["margin"] > 0 for row in data["rows"])

    def test_probe_flags_a_truncated_target(self, capsys, monkeypatch):
        # the direct sum stops at its term limit (lowered here to keep the test
        # fast) with a tail left: JSON says so, csv keeps stdout and adds one
        # stderr line
        import qjfrac.convergence as convergence

        monkeypatch.setattr(convergence, "_MAX_TERMS", 1000)
        argv = ["converge", "probe", "--q", "0.1", "--z", "0.999", "--hmax", "1"]
        code, out = run_capture(capsys, argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["target_converged"] is False
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == "h,gap,overflow" and len(captured.out.splitlines()) == 2
        assert captured.err.count("\n") == 1 and "not converged" in captured.err

    def test_probe_converged_target_is_silent(self, capsys):
        code, out = run_capture(capsys, ["converge", "probe", "--q", "0.15", "--hmax", "3", "--format", "json"])
        assert code == 0 and json.loads(out)["target_converged"] is True
        assert run(["converge", "probe", "--q", "0.15", "--hmax", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_q(self):
        assert run(["converge", "probe", "--q", "abc"]) == 2
        assert run(["converge", "probe", "--q", "1.5"]) == 2

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["radius", "--tol", "1e-8"], "2c8b3abde2b56db7bfff219f2e4f9db76ad6b4b16846075af5b3dd851789be74"),
            (
                ["probe", "--q", "0.15", "--hmax", "20", "--format", "json"],
                "c9190721e17abe207457dd48ac6ef868984780371cf9a372dda5d8d7b0c92aef",
            ),
            (
                ["probe", "--q", "0.15", "--hmax", "20", "--format", "csv"],
                "71939a8e3bcdfcb41480e3bfae0d491eb2cb47557fd7b155814fb7dca39baa8a",
            ),
            (
                ["probe", "--q", "0.15", "--hmax", "20", "--format", "pretty"],
                "6a5c336e74e9e4a86a674cf726ed86bf9eaba55fb59808ed3c70578ad75b0c7b",
            ),
            (
                ["margins", "--q", "0.1", "--hmax", "100", "--format", "json"],
                "05253d5077d13dbf2cde9cb3aaa22ebbaad24cf7398da63f26be1a1c65177452",
            ),
            (
                ["margins", "--q", "0.1", "--hmax", "100", "--format", "csv"],
                "155722c6cf6b801933271cc61b2a550242b29c1124582674357e66c7dfb3e7bb",
            ),
            (
                ["margins", "--q", "0.1", "--hmax", "100", "--format", "pretty"],
                "db6f333b9869087b04761fc15f81e6bb8687871255e1bff623a37af42e2a718b",
            ),
            (
                ["margins", "--q", "0.0036", "--hmax", "500"],
                "e013f69d9d9e3b0a17157cceb6e97e1432556d25e006cb930f7e4814fd78b3ed",
            ),
        ],
        ids=[
            "radius", "probe-json", "probe-csv", "probe-pretty", "margins-json", "margins-csv",
            "margins-pretty", "margins-8181-bits",
        ],
    )
    def test_golden_output(self, capsys, argv, digest):
        # stdout pinned from the closed-form sequences, so that a drift of the
        # numeric sequences fails here; the last case sits on the joint bits cap
        code, out = run_capture(capsys, ["converge", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOracle:
    def test_sigma(self, capsys):
        code, out = run_capture(capsys, ["oracle", "sigma", "--alpha", "1", "--n", "6"])
        assert code == 0 and out.strip() == "12"

    def test_lambert(self, capsys):
        code, out = run_capture(capsys, ["oracle", "lambert", "--alpha", "0", "--order", "7"])
        assert code == 0
        assert json.loads(out) == ["0", "1", "2", "2", "3", "2", "4"]

    def test_qbinomial(self, capsys):
        code, out = run_capture(capsys, ["oracle", "qbinomial", "--n", "4", "--k", "2"])
        assert code == 0 and out.strip() == "1 + q + 2*q^2 + q^3 + q^4"
        assert run(["oracle", "qbinomial", "--n", "2", "--k", "3"]) == 2
        assert "need 0 <= k <= n" in capsys.readouterr().err

    def test_qpochhammer(self, capsys):
        code, out = run_capture(capsys, ["oracle", "qpochhammer", "--x", "q", "--n", "2"])
        assert code == 0 and out.strip() == "1 - q - q^2 + q^3"

    def test_qbinomialtheorem(self, capsys):
        code, out = run_capture(
            capsys,
            ["oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "8"],
        )
        assert code == 0 and out.strip() == "equal"


class TestUsage:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "lemmas", "--h", "0"], "argument --h: expected 1..8, got 0"),
            (["divisor", "table", "--alpha", "0", "--h", "0", "--order", "4"], "argument --h: expected 2..64, got 0"),
            (["divisor", "table", "--alpha", "0", "--h", "1", "--order", "4"], "argument --h: expected 2..64, got 1"),
        ],
        ids=["lemmas-h0", "table-h0", "table-h1"],
    )
    def test_depth_below_the_floor_names_its_flag(self, capsys, argv, message):
        # these used to reach the library and print its "h must be >= ..." error
        assert run(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expression",
        ["(" * 3000 + "q" + ")" * 3000, "-" * 3000 + "q"],
        ids=["parentheses", "unary-minus"],
    )
    def test_deep_nesting_is_a_usage_error(self, expression):
        # the recursive-descent parser used to overflow the stack: a
        # RecursionError traceback and exit 1, the code for a mismatch
        src = os.path.dirname(os.path.dirname(qjfrac.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "qjfrac.cli", "jfrac", "expand", f"--a={expression}", "--b", "q^2", "--h", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "nested deeper than" in proc.stderr

    def test_closed_stdout_exits_quietly_with_141(self):
        # the table's JSON is ~105 KB, more than a 64 KB pipe buffer, so the
        # write meets the closed pipe; that is no internal error (exit 3)
        src = os.path.dirname(os.path.dirname(qjfrac.__file__))
        argv = ["divisor", "table", "--alpha", "0", "--h", "12", "--order", "1024"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "qjfrac.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert err == b""

    def test_no_command(self):
        assert run([]) == 2

    def test_exponent_above_the_cap_is_a_usage_error(self, capsys):
        assert run(["jfrac", "expand", "--a", "q^257", "--b", "q^2", "--h", "2"]) == 2
        assert "exponent 257 exceeds 256" in capsys.readouterr().err

    def test_degree_above_the_cap_is_a_usage_error(self, capsys):
        assert run(["jfrac", "expand", "--a=q^256*q", "--b=q^2", "--h", "2"]) == 2
        assert "degree 257 exceeds 256" in capsys.readouterr().err
        # ((1+q)^256)^256 has degree 65,536; it ran past a 15 s timeout
        assert run(["jfrac", "expand", "--a=((1+q)^256)^256", "--b=q^2", "--h", "2"]) == 2
        assert "degree 65536 exceeds 256" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "a, bits",
        [
            # parsed in 0.14 s to a 16,777,217-bit integer; a power is refused
            # on bits * |exponent| before it is built
            ("((2^256)^256)^256", 16777472),
            ("1/((2^256)^256)^256", 16777472),
            # a product is refused on its exact size, right after it is built
            ("((2^255)^256)^4*(2^255)^4*16", 262145),
            ("((2^255)^256)^4*(2^255)^4*8+1/((2^255)^256)^4/(2^255)^4/16", 262145),
        ],
    )
    def test_coefficient_bits_above_the_cap_are_a_usage_error(self, capsys, a, bits):
        from qjfrac.parse import parse_ratfn

        with pytest.raises(ValueError, match=f"coefficient size {bits} bits exceeds 262144"):
            parse_ratfn(a)
        assert run(["jfrac", "expand", f"--a={a}", "--b=q^2", "--h", "0"]) == 2
        err = capsys.readouterr().err
        assert f"argument --a: bad rational-function expression {a!r}: coefficient size {bits} bits" in err

    def test_coefficient_bits_at_the_cap_parse(self):
        from qjfrac.parse import coefficient_bits, parse_ratfn

        # 2^262143 has 262,144 bits; the documented inputs stay inside
        for text, bits in [
            ("((2^255)^256)^4*(2^255)^4*8", 262144),
            ("1/(((2^255)^256)^4*(2^255)^4*8)", 262144),
            ("(1+q)^256", 252),
            ("1/(1-3*q)^64", 102),
            ("(1-q)/(1-q^256)", 1),
        ]:
            assert coefficient_bits(parse_ratfn(text)) == bits

    @pytest.mark.parametrize(
        "argv",
        [
            ["jfrac", "expand", "--a", "(2^256)^64", "--b", "q^2", "--h", "1"],
            ["jfrac", "triangle", "--a", "(2^256)^64", "--b", "q^2", "--h", "1"],
            ["oracle", "qpochhammer", "--x", "(2^256)^64", "--n", "1"],
        ],
    )
    def test_values_above_the_int_digit_limit_print(self, capsys, argv):
        # 2^16384 has 4,933 digits, above the 4,300-digit limit that Python
        # 3.10.7+ puts on int-to-str conversion by default: these exited 2
        # with the interpreter's message
        limit = sys.get_int_max_str_digits()
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and max(len(digits) for digits in re.findall("[0-9]+", out)) == 4933
        # run lifts the limit for the command alone, and restores it after
        assert sys.get_int_max_str_digits() == limit

    def test_int_digit_limit_still_guards_the_arguments(self, capsys):
        # --mod has no upper bound: its digits are read under the limit
        limit = sys.get_int_max_str_digits()
        argv = ["divisor", "table", "--alpha", "0", "--h", "2", "--order", "2", "--mod", "7" * (limit + 1)]
        assert run(argv) == 2
        assert "argument --mod" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit

    def test_internal_error_exits_three(self, capsys, monkeypatch):
        # exit 1 is kept for a verification mismatch; a crash gets 3 and one line
        import qjfrac.cli as cli

        def crash(args):
            raise RuntimeError("boom")

        text, add_arguments, _ = cli._COMMANDS["oracle", "sigma"]
        monkeypatch.setitem(cli._COMMANDS, ("oracle", "sigma"), (text, add_arguments, crash))
        assert run(["oracle", "sigma", "--alpha", "1", "--n", "6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: boom\n"

    @pytest.mark.parametrize(
        "argv, stream, digest",
        [
            (["--help"], "out", "fd0ad2fadce8c8a394f0cf873e29b8b4877ab9df20e50d18754ef828509c3c4e"),
            (
                ["jfrac", "expand", "--help"],
                "out",
                "53d9a30dd9db8f9a2696e06e7f49c307c90dd4e14268f706bf5288d7469a6b4e",
            ),
            (
                ["jfrac", "invert", "--help"],
                "out",
                "cc1518114ccf2140c8b9449a6d122c5d43651d3778739bb4e94b26e0a91c7497",
            ),
            (
                ["jfrac", "expand", "--preset", "bogus", "--h", "2"],
                "err",
                "aea38a2b2968a020ac4cedc2fec37775be41f35cf2937b3990c1f11fb27313df",
            ),
        ],
        ids=["help", "expand-help", "invert-help", "bad-preset"],
    )
    def test_golden_help_and_usage(self, capsys, monkeypatch, argv, stream, digest):
        # pinned from the build whose parser read its choices from jfraction;
        # argparse wraps at $COLUMNS - 2
        monkeypatch.setenv("COLUMNS", "80")
        run(argv)
        text = getattr(capsys.readouterr(), stream)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_parser_choices_match_the_library(self):
        import qjfrac.cli as cli
        from qjfrac import jfraction

        assert cli._PRESETS == jfraction.TABLE1_ROWS
        assert list(cli._TARGETS) == sorted(jfraction.INVERSION_TARGETS)

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = run(["oracle", "sigma", "--alpha", "0", "--n", "9"])
        assert code == 0
        code = run(
            ["divisor", "table", "--alpha", "0", "--h", "3", "--order", "3", "--output", str(path)]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert data["schema"] == "qjfrac/divisor-table/1"

    @pytest.mark.parametrize("target", ["missing/x.json", "."], ids=["missing-directory", "a-directory"])
    def test_unwritable_output_is_a_usage_error(self, tmp_path, capsys, target):
        path = tmp_path / target
        code = run(["divisor", "table", "--alpha", "0", "--h", "3", "--order", "4", "--output", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: --output {path}: ") and "internal error" not in captured.err

class TestOneCommandParser:
    """`run` builds the parser of the one command that argv[:2] names, and the
    full tree for anything else; either way, every output is the full
    parser's.  Each case hashes the exit code, stdout and stderr; the digests
    are pinned from the parser that always built the full tree (argparse
    wraps at $COLUMNS - 2)."""

    DIGESTS = {
            "--help": "f4e45a286c44cdf97dbc16c24275a5d26ddb8a357044ddf39f91fa32239cf862",
            "": "39b533c69a951f54855a58efe79a631880d19018fc90d161ad290df51d8e17fe",
            "bogus": "e6237d311d0adeff779622c97080c5589931af1bd6cb8d9bcd54d6e63162019d",
            "jfrac --help": "f1cb5b0f343ccb65aeb88e7aa0da5dfc32840bedd6b3ac1fd115d1c1771c52ce",
            "jfrac": "1adfccdbc44f192ed63601adcb1ee90200af6d3a4fc6a827274f9b95537ad839",
            "jfrac bogus": "927097ada9b3accc23a5ca6add7556331624f0b87918ad5ab51a0016b0f516bb",
            "jfrac expand --help": "006e9caceabfe5569c1c3be5ba9c0b8602889cb61ecf24aebc5b8308541ef72d",
            "jfrac expand --no-such-flag": "fd037a65ef952ef263f638a03cfe855750d9f7944c2b0184b843e9bf8d5b568e",
            "jfrac invert --help": "94c8d53395c91849ac57d76646e6ce7e64dc9739f34a6716c1f2d8b288b632ab",
            "jfrac invert --no-such-flag": "8cbb4a560d5e79ff4266e240e9624dca8d5668fd52ef37bd9bc286b8ffc87955",
            "jfrac triangle --help": "d69d030624ed2708f0d46aefed5f318274d43d140375658ee857003d1d616c27",
            "jfrac triangle --no-such-flag": "2718f798319116bae2a803071f87ff8978cdda82bb28acedec3065440cbbd574",
            "verify --help": "9ac98c74e6c56b0b2ce70d54707fc347f051dddf285755e4085dfb0db9c71fa4",
            "verify": "fa320b34ce64f1e659c4c39dd375c03f9a424f30770701ed9dd6489ba2c0d0fd",
            "verify bogus": "564650ce228912ecfac400b02c9e49bf0a8160c25410627ad68db276a4ec7fea",
            "verify lemmas --help": "b874bee1c5915de6adf325ab0129d7693af611156ec8117e298eb503b52db002",
            "verify lemmas --no-such-flag": "f89144691d8434457fce80f3947b565bb5646de1218642c342bdb3c797007204",
            "divisor --help": "47e49105a13c8464d512e0090fcd78d0b6560523b87672037ec78c941029d7b7",
            "divisor": "f1e230dc4d80c09b5df330b4637613b35f96e597bac4afd8501f77babd69bcdc",
            "divisor bogus": "c9b28a52e36c0e7129206c0ecfa7de385e8e6b720e83064b7f2a8644808eef60",
            "divisor table --help": "6ed480ee2d1c210dd16299208ae794a6f2581bf206dc0acf69849bc4693e290a",
            "divisor table --no-such-flag": "a3ad2b567314215ee44129a5be19f4fcfc3ca9ec1e8607d0f4b35063e9b64aef",
            "converge --help": "0a3a01cf39c1c226bbd47a5d3a15b886f0e3857494dcbedb2ccc4b56f225f10d",
            "converge": "c033dd97cff7afc5e0fac11355a4a3e234c0fa545df65c5141bcbfe9b983aca6",
            "converge bogus": "1944d46e0df427cd52edb5d140885e3deb8436d2461ed944a93c22fcecf35e98",
            "converge probe --help": "6545950f2c9c26bdd7a5acf706b35832ed0504810bc995f74930c11ec7dd65f8",
            "converge probe --no-such-flag": "11eb6260e3690daae30ab6b2e5c863d84341cb18c097a81bb2ece048d009e352",
            "converge radius --help": "7f98c1d8b80f02561d717fdfe9eb5b83ebcfdce53a932befde4d8ba5e3840c92",
            "converge radius --no-such-flag": "f89144691d8434457fce80f3947b565bb5646de1218642c342bdb3c797007204",
            "converge margins --help": "608ed05b82cbd4b2797fc933e308ed71bd11433b4d9284ab4271d6089bd053fa",
            "converge margins --no-such-flag": "07b35749822c6de7ddc7f8e4ef13ca6d6d3e56226aa819d0ed229336f17257c1",
            "oracle --help": "63919f1f5f9b417eda67c8efc3e65e76d8914a209178546c06699fcc24eca747",
            "oracle": "31ea88fc7165f8f22d2a9a4b2730c3f6c41e8a678b9928708e18ea64d5001740",
            "oracle bogus": "63a604df9c798aa4037b924553f152999602f7530a7bb1f4dc89f38dcc0c30fe",
            "oracle sigma --help": "42d8f76a3f7113ee5a83e7ce00395b49a18f0da1478314370c090f0dfedfe95c",
            "oracle sigma --no-such-flag": "ee53b323be87a53f907568204577fb55d9be649f5df1b00436f3cc1fc50450dd",
            "oracle lambert --help": "a9c5c3b7ccd77e2074a03c92020e15185fd2df7feaccfb6506e32c154b6307de",
            "oracle lambert --no-such-flag": "b27be5c2b99a6cdd7021dce2e254e661c9e0f7b457b16c85ef59b3504f6a0928",
            "oracle qbinomial --help": "afe439c56d50d8b445cb5c813494f62815e6cb7f5592fe00df36ca6d3571dc6d",
            "oracle qbinomial --no-such-flag": "d8249b7a5d2d6ad69d93fa23b448ea675af09a14385a6a19ef33f4df6d3049c8",
            "oracle qpochhammer --help": "b761f5d54c3817154cf97568384e637c485b02dd07ac0c0ae287e3f3d98b125a",
            "oracle qpochhammer --no-such-flag": "c3289f3ea8643351438ca8170f60ecaa3b1dcf587fba06d2f6f08c6211574824",
            "oracle qbinomialtheorem --help": "5fa99406ad95f0b441349949b2557cb11a55ac109865ced4691b794d1f0a68a3",
            "oracle qbinomialtheorem --no-such-flag": "d6eacca7b0cf4884f7e28f8c5214b2a63639bf4e926e6a58f6c838beb5f0ad72",
    }

    @staticmethod
    def outcome(call, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = call(argv)
            except SystemExit as exc:
                rc = 0 if exc.code in (0, None) else 2
        return hashlib.sha256(f"{rc}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()

    @pytest.mark.parametrize("command", list(DIGESTS))
    def test_outputs_match_the_full_parser(self, monkeypatch, command):
        from qjfrac.cli import build_parser

        monkeypatch.setenv("COLUMNS", "80")
        argv = command.split()
        digest = self.outcome(run, argv)
        assert digest == self.outcome(build_parser().parse_args, argv)
        assert digest == self.DIGESTS[command]

    def test_a_named_command_builds_only_its_subparser(self):
        import argparse

        from qjfrac.cli import _COMMANDS, _GROUPS, build_parser

        def tree(parser):
            (top,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            return {
                group: sorted(sub.choices)
                for group, p in top.choices.items()
                for sub in p._actions
                if isinstance(sub, argparse._SubParsersAction)
            }

        full = tree(build_parser())
        assert list(full) == list(_GROUPS)
        assert sorted((g, s) for g, subs in full.items() for s in subs) == sorted(_COMMANDS)
        for group, name in _COMMANDS:
            assert tree(build_parser((group, name))) == {group: [name]}


class TestLazyLoading:
    """`import qjfrac` loads nothing, and each command loads only what it runs;
    `csv` loads only for csv output.

    No command loads `dataclasses` or, through it, `inspect`: the records are
    plain classes, so start-up compiles and execs none of their methods."""

    PROBE = """
import contextlib, io, json, sys
import qjfrac.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = qjfrac.cli.run(sys.argv[1:])
print(json.dumps([rc, sorted(m for m in sys.modules if m in ("mpmath", "dataclasses", "inspect", "csv") or m.split(".")[0] == "qjfrac")]))
"""
    NUMERIC = ["qjfrac.convergence", "mpmath"]
    # the probe and the margins run the contraction of the sequence layer
    SPEC = NUMERIC + ["qjfrac.sequences"]
    ORACLE = ["qjfrac.exact", "qjfrac.oracles"]
    # the sequence layer and the convergents; only --a/--b/--z/--x load the parser
    EXACT = ["qjfrac.exact", "qjfrac.sequences", "qjfrac.jfraction", "qjfrac.zalgebra"]
    PARSE = ["qjfrac.parse"]
    DIVISOR = ["qjfrac.exact", "qjfrac.sequences", "qjfrac.zalgebra", "qjfrac.divisors"]

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["converge", "radius", "--tol", "1e-8"], NUMERIC),
            (["converge", "probe", "--q", "0.15", "--hmax", "5"], SPEC + ["csv"]),  # csv by default
            (["converge", "margins", "--q", "0.1", "--hmax", "5"], SPEC),
            (["oracle", "sigma", "--alpha", "1", "--n", "6"], ["qjfrac.oracles"]),
            (["oracle", "qpochhammer", "--x", "q", "--n", "2"], ORACLE + PARSE),
            (["oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "3"], ORACLE + PARSE),
            (["jfrac", "expand", "--a", "q", "--b", "q^2", "--h", "2"], EXACT + PARSE),
            (["jfrac", "expand", "--preset", "reciprocal_qq", "--h", "2"], EXACT),
            (["jfrac", "invert", "--target", "one_over_1mqn", "--depth", "2"], EXACT),
            (["jfrac", "triangle", "--a", "q", "--b", "q^2", "--h", "2"], EXACT + PARSE + ["qjfrac.stirling"]),
            (["verify", "lemmas", "--h", "2", "--spec", "random"], EXACT + ["qjfrac.stirling"]),
            (["verify", "lemmas", "--h", "2"], EXACT + ["qjfrac.stirling"]),
            (["divisor", "table", "--alpha", "0", "--h", "3", "--order", "3"], DIVISOR),
            (["divisor", "table", "--alpha", "1", "--h", "3", "--order", "3", "--format", "csv"], DIVISOR + ["csv"]),
            (["--help"], []),
        ],
        ids=[
            "radius", "probe", "margins", "sigma", "qpochhammer", "qbinomialtheorem", "expand",
            "expand-preset", "invert", "triangle", "lemmas-random", "lemmas-qq2", "divisor",
            "divisor-csv", "help",
        ],
    )
    def test_command_loads_only_its_modules(self, argv, extra):
        src = os.path.dirname(os.path.dirname(qjfrac.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, sorted(["qjfrac", "qjfrac.cli", *extra])]

    def test_converge_loads_no_exact_arithmetic(self):
        # the numeric diagnostics run on mpmath numbers alone: no converge
        # command imports the exact stack or fractions
        script = """
import contextlib, io, json, sys
import qjfrac.cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [qjfrac.cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([rcs, [m for m in ("qjfrac.exact", "fractions") if m in sys.modules]]))
"""
        commands = [
            ["converge", "radius", "--tol", "1e-8"],
            ["converge", "probe", "--q", "0.15", "--hmax", "5"],
            ["converge", "margins", "--q", "0.1", "--hmax", "5", "--format", "pretty"],
        ]
        src = os.path.dirname(os.path.dirname(qjfrac.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0, 0, 0], []]

    def test_exports_resolve(self):
        namespace = {}
        exec("from qjfrac import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(qjfrac.__all__)
        for name in qjfrac.__all__:
            assert namespace[name] is getattr(qjfrac, name)
        assert qjfrac.nested_sum is qjfrac.stirling.nested_sum
        assert qjfrac.QRationalFn.__module__ == "qjfrac.exact"
        with pytest.raises(AttributeError):
            qjfrac.no_such_name


class TestPlainRecords:
    """The records are plain `__slots__` classes, so that start-up needs no
    `dataclasses`; each `__init__` keeps the checks of the old `__post_init__`.
    No caller compares or hashes a record, so none defines `__eq__`."""

    @staticmethod
    def records():
        from qjfrac import jfraction, sequences

        import reference

        return [
            sequences.PochhammerParams, jfraction.ConvergentPair, reference.LambdaReport,
            reference.SpecialCaseReport,
        ]

    def test_records_are_slotted_plain_classes(self):
        for cls in self.records():
            assert "__slots__" in vars(cls) and "__dataclass_fields__" not in vars(cls), cls
            assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls

    @staticmethod
    def invalid_builds():
        from qjfrac.exact import QRationalFn
        from qjfrac.jfraction import ConvergentPair, PochhammerParams
        from qjfrac.zalgebra import ZPolynomial

        one, zero, q = QRationalFn.one(), QRationalFn.zero(), QRationalFn.q()
        return [
            (lambda: PochhammerParams(zero, q), "parameters a, b must be nonzero"),
            (lambda: PochhammerParams(q, zero), "parameters a, b must be nonzero"),
            (lambda: PochhammerParams(q, one), "b = 1 makes c_1"),
            (lambda: ConvergentPair(1, ZPolynomial([one, q]), ZPolynomial.one()), "degree bounds"),
            (lambda: ConvergentPair(2, ZPolynomial.one(), ZPolynomial([one, q, q, q])), "degree bounds"),
        ]

    def test_init_keeps_the_checks(self):
        for build, message in self.invalid_builds():
            with pytest.raises(ValueError, match=message):
                build()

    def test_valid_records_keep_their_fields(self):
        from qjfrac.exact import QRationalFn
        from qjfrac.jfraction import ConvergentPair, PochhammerParams
        from qjfrac.zalgebra import ZPolynomial

        q = QRationalFn.q()
        params = PochhammerParams(q, q * q)
        assert (params.a, params.b) == (q, q * q)
        pair = ConvergentPair(0, ZPolynomial.zero(), ZPolynomial.one())
        assert (pair.h, pair.P, pair.Q) == (0, ZPolynomial.zero(), ZPolynomial.one())
