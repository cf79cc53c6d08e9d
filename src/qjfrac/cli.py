"""Command-line front end.

Subcommands:
  jfrac expand     build a sequence family and print sequences, convergent
                   polynomials, and series coefficients
  jfrac triangle   dump the coefficient triangle of a sequence family
  jfrac invert     recover (c, ab) from a named target series
  verify lemmas    run the exact expansion-identity suite; exit 1 on mismatch
  divisor table    divisor / sums-of-divisors tables, optionally modulo p
  converge probe   numeric convergent-vs-target gaps at a point
  converge radius  numeric threshold radius of the margin inequality
  converge margins per-level margins of the elementwise criterion
  oracle ...       brute-force reference values

Rational-function arguments (--a, --b, --z, --x) accept integers, q, and the
operators + - * / ^ with parentheses, e.g. --a "q^2/(1-3*q)".
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import convergence, divisors, jfraction, oracles, stirling
from .exact import QRationalFn


def _ratfn(text: str) -> QRationalFn:
    try:
        return QRationalFn.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational-function expression {text!r}: {exc}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _depth_int(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 64:
        raise argparse.ArgumentTypeError("depth/h must be between 0 and 64")
    return value


def _positive_depth_int(text: str) -> int:
    value = _depth_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("depth must be between 1 and 64")
    return value


def _modulus_int(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("modulus must be >= 2")
    return value


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")


def _emit(payload, fmt: str, output: Optional[str], csv_rows=None, csv_header=None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError("csv format not supported for this subcommand")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        writer.writerows(csv_rows)
        text = buf.getvalue().rstrip("\n")
    else:  # pretty
        text = _pretty(payload)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _pretty(payload, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(payload, dict):
        lines = []
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_pretty(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_pretty(v, indent) for v in payload)
    return f"{pad}{payload}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qjfrac",
        description="Exact Jacobi-type continued fractions over Q(q).",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top = parser.add_subparsers(dest="command", required=True)

    jf = top.add_parser("jfrac", help="J-fraction construction and inversion")
    jf_sub = jf.add_subparsers(dest="subcommand", required=True)

    expand = jf_sub.add_parser("expand", help="expand a sequence family")
    expand.add_argument("--preset", choices=jfraction.TABLE1_ROWS, help="named sequence family")
    expand.add_argument("--a", type=_ratfn, help="parameter a (rational function of q)")
    expand.add_argument("--b", type=_ratfn, help="parameter b (rational function of q)")
    expand.add_argument("--z", type=_ratfn, help="parameter z for the families that need one")
    expand.add_argument("--h", type=_depth_int, required=True, help="convergent depth")
    expand.add_argument("--zorder", type=_positive_int, default=None, help="series order (default 2h)")
    expand.add_argument("--format", choices=("json", "pretty"), default="json")
    expand.add_argument("--output", default=None)

    invert = jf_sub.add_parser("invert", help="series -> (c, ab) inversion")
    invert.add_argument(
        "--target",
        required=True,
        choices=sorted(jfraction.INVERSION_TARGETS),
        help="named target series",
    )
    invert.add_argument("--depth", type=_positive_depth_int, required=True)
    invert.add_argument("--format", choices=("json", "pretty"), default="json")
    invert.add_argument("--output", default=None)

    triangle = jf_sub.add_parser(
        "triangle", help="dump the coefficient triangle of a sequence family"
    )
    triangle.add_argument("--preset", choices=jfraction.TABLE1_ROWS)
    triangle.add_argument("--a", type=_ratfn)
    triangle.add_argument("--b", type=_ratfn)
    triangle.add_argument("--z", type=_ratfn)
    triangle.add_argument("--h", type=_depth_int, required=True, help="number of rows")
    triangle.add_argument("--format", choices=("json", "pretty"), default="json")
    triangle.add_argument("--output", default=None)

    verify = top.add_parser("verify", help="exact identity verification")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    lemmas = verify_sub.add_parser("lemmas", help="run the expansion-identity suite")
    lemmas.add_argument("--h", type=_depth_int, default=4, help="max depth (default 4)")
    lemmas.add_argument(
        "--spec", choices=("qq2", "random"), default="qq2", help="sequence source"
    )
    lemmas.add_argument("--seed", type=int, default=0, help="seed for --spec random")
    lemmas.add_argument("--format", choices=("json", "pretty"), default="json")
    lemmas.add_argument("--output", default=None)

    div = top.add_parser("divisor", help="divisor-function tables")
    div_sub = div.add_subparsers(dest="subcommand", required=True)
    table = div_sub.add_parser("table", help="sigma_alpha(n) table from the J-fraction")
    table.add_argument("--alpha", type=_nonneg_int, required=True)
    table.add_argument("--h", type=_depth_int, required=True)
    table.add_argument("--order", type=_positive_int, required=True)
    table.add_argument("--mod", type=_modulus_int, default=None)
    table.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    table.add_argument("--output", default=None)

    conv = top.add_parser("converge", help="numeric convergence diagnostics")
    conv_sub = conv.add_subparsers(dest="subcommand", required=True)
    probe = conv_sub.add_parser("probe", help="convergent-vs-target gaps")
    probe.add_argument("--q", type=_complex_arg, required=True, help="RE or RE,IM with |q|<1")
    probe.add_argument("--z", type=_complex_arg, default=None, help="defaults to q")
    probe.add_argument("--hmax", type=_positive_int, default=20)
    probe.add_argument("--format", choices=("json", "csv", "pretty"), default="csv")
    probe.add_argument("--output", default=None)
    radius = conv_sub.add_parser("radius", help="threshold radius of the margin inequality")
    radius.add_argument("--tol", type=float, default=1e-8)
    radius.add_argument("--format", choices=("json", "pretty"), default="json")
    radius.add_argument("--output", default=None)
    margins = conv_sub.add_parser("margins", help="per-level margin report")
    margins.add_argument("--q", type=_complex_arg, required=True)
    margins.add_argument("--hmax", type=_positive_int, default=100)
    margins.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
    margins.add_argument("--output", default=None)

    oracle = top.add_parser("oracle", help="brute-force reference values")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    o_sigma = oracle_sub.add_parser("sigma", help="sigma_alpha(n) by trial division")
    o_sigma.add_argument("--alpha", type=_nonneg_int, required=True)
    o_sigma.add_argument("--n", type=_positive_int, required=True)
    o_lambert = oracle_sub.add_parser("lambert", help="truncated Lambert series coefficients")
    o_lambert.add_argument("--alpha", type=_nonneg_int, required=True)
    o_lambert.add_argument("--order", type=_positive_int, required=True)
    o_qbin = oracle_sub.add_parser("qbinomial", help="Gaussian binomial coefficient")
    o_qbin.add_argument("--n", type=_nonneg_int, required=True)
    o_qbin.add_argument("--k", type=_nonneg_int, required=True)
    o_poch = oracle_sub.add_parser("qpochhammer", help="(x; q)_n as a rational function")
    o_poch.add_argument("--x", type=_ratfn, required=True)
    o_poch.add_argument("--n", type=_nonneg_int, required=True)
    o_qbt = oracle_sub.add_parser(
        "qbinomialtheorem", help="truncated sum-vs-product comparison"
    )
    o_qbt.add_argument("--a", type=_ratfn, required=True)
    o_qbt.add_argument("--z", type=_ratfn, required=True)
    o_qbt.add_argument("--order", type=_positive_int, required=True)

    return parser


def _cmd_expand(args) -> int:
    spec = _spec_from_flags(args)
    if spec is None:
        print("error: need --preset or both --a and --b", file=sys.stderr)
        return 2
    h = args.h
    zorder = args.zorder if args.zorder is not None else max(2 * h, 1)
    pair = jfraction.convergents(spec, h)
    coeffs = jfraction.convergent_coefficients(pair, zorder)
    tabulated = spec.to_json(max(h, 1))
    payload = {
        "schema": "qjfrac/expand/1",
        "name": tabulated["name"],
        "c": tabulated["c"],
        "ab": tabulated["ab"],
        "P": [str(c) for c in pair.P.coeffs],
        "Q": [str(c) for c in pair.Q.coeffs],
        "coefficients": [str(c) for c in coeffs],
    }
    _emit(payload, args.format, args.output)
    return 0


def _spec_from_flags(args) -> Optional[object]:
    if args.preset:
        return jfraction.table1_preset(args.preset, a=args.a, b=args.b, z=args.z)
    if args.a is not None and args.b is not None:
        return jfraction.pochhammer_spec(jfraction.PochhammerParams(args.a, args.b))
    return None


def _cmd_triangle(args) -> int:
    spec = _spec_from_flags(args)
    if spec is None:
        print("error: need --preset or both --a and --b", file=sys.stderr)
        return 2
    from .stirling import StirlingQTriangle

    tri = StirlingQTriangle.from_spec(spec, args.h)
    payload = {
        "schema": "qjfrac/triangle/1",
        "name": spec.name,
        "rows": [[str(v) for v in tri.row(h)] for h in range(args.h + 1)],
    }
    _emit(payload, args.format, args.output)
    return 0


def _cmd_invert(args) -> int:
    order = 2 * args.depth
    target = jfraction.INVERSION_TARGETS[args.target](order)
    result = jfraction.series_to_jfraction(target, args.depth)
    payload = {
        "schema": "qjfrac/invert/1",
        "target": args.target,
        "depth": result.depth,
        "terminated": result.terminated,
        "c": [str(v) for v in result.c],
        "ab": [str(v) for v in result.ab],
    }
    _emit(payload, args.format, args.output)
    return 0


def _cmd_lemmas(args) -> int:
    if args.spec == "qq2":
        spec = jfraction.divisor_spec()
    else:
        spec = jfraction.random_rational_spec(args.seed, length=16)
    reports = []
    ok = True
    for h in range(2, args.h + 1):
        for rep in (
            stirling.verify_Qh_expansion(spec, h),
            stirling.verify_Ph_expansion(spec, h),
        ):
            reports.append(rep.to_json())
            ok = ok and rep.ok
        if args.spec == "qq2":
            rep = stirling.verify_PQ_coefficient_relation(spec, h)
            reports.append(rep.to_json())
            ok = ok and rep.ok
    decomposition = jfraction.convergent_sum_decomposition(spec, args.h)
    reports.append(
        {
            "schema": "qjfrac/lemma-report/1",
            "lemma": "convergent-sum-decomposition",
            "h": args.h,
            "status": "ok" if decomposition.verified else "mismatch",
            "first_failure": decomposition.first_failure,
        }
    )
    ok = ok and decomposition.verified
    # measured residual reports: emitted for inspection, never gate the exit code
    checker_reports = [
        stirling.newton_girard_check(spec.c, args.h, min(2, args.h)).to_json(),
        stirling.verify_claim_relations(spec, args.h, min(2, args.h)).to_json(),
    ]
    if args.spec == "qq2":
        checker_reports.append(stirling.first_column_formula_check(spec, args.h).to_json())
        checker_reports.append(divisors.tilde_D0j(1).to_json())
    payload = {
        "schema": "qjfrac/verify-lemmas/1",
        "spec": spec.name,
        "h_max": args.h,
        "status": "ok" if ok else "mismatch",
        "reports": reports,
        "checker_reports": checker_reports,
    }
    _emit(payload, args.format, args.output)
    return 0 if ok else 1


def _cmd_divisor_table(args) -> int:
    req = divisors.DivisorGFRequest(args.alpha, args.h, args.order, args.mod)
    if args.mod is not None:
        rows = [
            {
                "n": r["n"],
                "value": r["residue"] if not r["flagged"] else r["exact"],
                "certified": r["certified"],
                "empirical": r["empirical"],
                "flagged": r["flagged"],
            }
            for r in divisors.congruence_table(req)
        ]
        header = ["n", "value", "certified", "empirical", "flagged"]
        csv_rows = [
            [r["n"], r["value"], r["certified"], r["empirical"], r["flagged"]] for r in rows
        ]
        payload = {
            "schema": "qjfrac/divisor-table/1",
            "alpha": args.alpha,
            "h": args.h,
            "modulus": args.mod,
            "rows": rows,
        }
    else:
        result = divisors.generating_series(req)
        rows = result.rows()
        header = ["n", "value", "certified", "empirical"]
        csv_rows = [[r["n"], r["value"], r["certified"], r["empirical"]] for r in rows]
        payload = {
            "schema": "qjfrac/divisor-table/1",
            "alpha": args.alpha,
            "h": args.h,
            "generator": str(result.generator),
            "rows": rows,
        }
    _emit(payload, args.format, args.output, csv_rows=csv_rows, csv_header=header)
    return 0


def _cmd_probe(args) -> int:
    z = args.z if args.z is not None else args.q
    report = convergence.numeric_convergence_probe(args.q, z, args.hmax)
    payload = report.to_json()
    csv_rows = [[r.h, f"{r.gap:.6e}", r.overflow] for r in report.rows]
    _emit(payload, args.format, args.output, csv_rows=csv_rows, csv_header=["h", "gap", "overflow"])
    return 0


def _cmd_radius(args) -> int:
    if args.tol <= 0:
        print("error: --tol must be > 0", file=sys.stderr)
        return 2
    value = convergence.threshold_radius(args.tol)
    payload = {"schema": "qjfrac/converge-radius/1", "tolerance": args.tol, "radius": value}
    _emit(payload, args.format, args.output)
    return 0


def _cmd_margins(args) -> int:
    report = convergence.pringsheim_margins(args.q, args.hmax)
    payload = report.to_json()
    csv_rows = [[r.h, f"{r.abs_a:.6e}", f"{r.abs_b:.6e}", f"{r.margin:.6e}"] for r in report.rows]
    _emit(
        payload, args.format, args.output, csv_rows=csv_rows, csv_header=["h", "abs_a", "abs_b", "margin"]
    )
    return 0


def _cmd_oracle(args) -> int:
    if args.subcommand == "sigma":
        print(oracles.sigma_alpha(args.alpha, args.n))
    elif args.subcommand == "lambert":
        series = oracles.lambert_truncated(args.alpha, args.order)
        print(json.dumps([str(c) for c in series]))
    elif args.subcommand == "qbinomial":
        if args.k > args.n:
            print("error: need k <= n", file=sys.stderr)
            return 2
        print(oracles.q_binomial(args.n, args.k))
    elif args.subcommand == "qpochhammer":
        print(oracles.q_pochhammer(args.x, args.n))
    elif args.subcommand == "qbinomialtheorem":
        ok = oracles.q_binomial_theorem_check(args.a, args.z, args.order)
        print("equal" if ok else "MISMATCH")
        return 0 if ok else 1
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.command == "jfrac" and args.subcommand == "expand":
            return _cmd_expand(args)
        if args.command == "jfrac" and args.subcommand == "invert":
            return _cmd_invert(args)
        if args.command == "jfrac" and args.subcommand == "triangle":
            return _cmd_triangle(args)
        if args.command == "verify":
            return _cmd_lemmas(args)
        if args.command == "divisor":
            return _cmd_divisor_table(args)
        if args.command == "converge" and args.subcommand == "probe":
            return _cmd_probe(args)
        if args.command == "converge" and args.subcommand == "radius":
            return _cmd_radius(args)
        if args.command == "converge" and args.subcommand == "margins":
            return _cmd_margins(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("error: unknown command", file=sys.stderr)
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
