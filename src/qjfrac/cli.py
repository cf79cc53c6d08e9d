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
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .exact import QRationalFn
    from .sequences import JFractionSpec

# Each command imports the library modules it runs, and `run` builds the
# parser of that command alone, so a process compiles and builds only what it
# runs; the parser's choices are spelled out here for the same reason, in the
# order of jfraction.TABLE1_ROWS and sorted(jfraction.INVERSION_TARGETS).
_PRESETS = (
    "pochhammer_a",
    "reciprocal_qq",
    "pochhammer_zqn",
    "reciprocal_pochhammer_zqn",
    "pochhammer_ratio",
)
_TARGETS = ("n2_over_1mqn", "n_over_1mqn", "one_over_1mqn")


def _ratfn(text: str) -> QRationalFn:
    from .parse import parse_ratfn

    try:
        return parse_ratfn(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational-function expression {text!r}: {exc}")


# Size caps, measured on 2 CPUs with CPython 3.11.7: at its cap each size takes
# 1-2 s with the other sizes small, and the cost grows steeply past it.
_MAX_ORDER = 1024  # divisor table --alpha 0 --h 12 --order 1024: 1.5 s; --h 4 --order 4000: 15.7 s
# also the --alpha of oracle sigma and oracle lambert, whose --n and --order caps
# below are measured at alpha 32
_MAX_ALPHA = 32  # divisor table --alpha 32 --h 4 --order 8: 1.2 s; --alpha 80: 18.9 s
# divisor table's joint cap: its cost grows about like ((alpha + 8) * h)^4.8, so
# (alpha + 9) * h bounds it.  Along the bound a table takes 0.6-1.4 s (--alpha 0
# --h 33: 0.6 s; --alpha 2 --h 27: 1.4 s; --alpha 16 --h 12: 1.3 s; --alpha 32
# --h 7: 1.0 s); above it, --alpha 16 --h 13 took 2.3 s, --alpha 32 --h 8 2.1 s
# and --alpha 32 --h 10 6.9 s (generating_series at --order 8, one run each)
_MAX_DIVISOR_COST = 300
_MAX_ZORDER = 64  # jfrac expand --preset reciprocal_qq --h 4 --zorder 64: 1.8 s; --zorder 96: 8.8 s
_MAX_MARGIN_LEVELS = 500  # converge margins --q=0.1 --hmax 500: 1.0 s; --hmax 1000: 3.7 s
# converge margins' joint cap, on the bits of convergence.margin_precision, which
# grow like hmax*log2(1/|q|): the cost grows with both, so along the bound it
# is largest at --hmax 500, where --q 0.0036 (8,181 bits) takes 1.2-1.4 s;
# above it, --q 1e-3 --hmax 500 (10,029 bits) took 1.4-1.8 s, --q 1e-4 (13,351
# bits) 1.8-2.2 s and --q 1e-300 --hmax 100 (199,379 bits) 35 s (three runs
# each, the last one)
_MAX_MARGIN_BITS = 8192
_MAX_PROBE_LEVELS = 100  # converge probe --q=0.1 --hmax 100: 0.3 s; --hmax 400: 2.1 s
_MAX_LEMMA_H = 8  # verify lemmas --h 8: 0.6-0.8 s (--spec random --h 10: 0.2 s); --h 9: 1.7-2.0 s
# the --h of jfrac expand, jfrac triangle and divisor table, a bound on the
# argument alone: their joint caps, _MAX_EXPAND_COST, _MAX_TRIANGLE_COST and
# _MAX_DIVISOR_COST, bound the cost and bind first
_MAX_DEPTH = 64
# jfrac expand and jfrac triangle build the even contraction of one
# C-fraction at (a, b) (jfraction.table1_preset), and their joint caps weigh
# each parameter by the slot it fills (_slot_size): --a and pochhammer_zqn's
# --z fill slot a, --b and reciprocal_pochhammer_zqn's --z slot b.
# jfrac expand: the cost grew about like h^6 times the size of the
# parameters, (degree + 1) * bits each (_parameter_size), so the joint cap
# bounds h^6 * (1 + their weights), and slot a weighs the size.  Along the
# bound expand takes 1.2-1.8 s (--a "(1+q)^8" --b q^2 --h 10, --preset
# reciprocal_qq --h 20, --a "(1+q)^256" --b q^2 --h 3); above it, expand --a q
# --b q^2 --h 32 took 21 s and --a "(1+q)^8" --b q^2 --h 16 over 60 s.
# Bits above twice the degree cost more, about like bits^1.8 for a constant
# at one h, and weigh their size by (64 + e)/64 for e such bits: along the
# bound --a 3^k --b q^2 takes 0.8-1.4 s from --h 6 (k = 171) to --h 13 (k =
# 5), and less below (0.2 s at --h 3, k = 1511; in-process, one run each);
# linearly weighed, --a "(2^256)^15" --b q^2 --h 5 took 29 s inside the cap.
# A parameter holding a power of two retries many gcds at an odd point and
# costs more: --a=256 --b=q^2 --h 13, now just above the bound, took 0.55-0.57
# s (255 and 257: 0.42-0.53 s; whole process, three runs each)
_MAX_EXPAND_COST = 2**26
# b sits in every denominator 1 - b p^e of the C-fraction, so its powers
# build the spec, and its size t weighs t*(S + t)/S for S = _EXPAND_B_SCALE:
# about linearly when small, and like t^2, close to the measured t^1.8, when
# large.  Linearly weighed, --preset reciprocal_pochhammer_zqn --z
# "(1+q)^256" took 30.6 s at --h 3 and --z "(1+q)^64" 3.8 s at --h 5
# (in-process, one run each), and --a=q --b="(1+q)^256" 33-35 s at --h 3
# (whole process).  Any S from about 1,300 to 4,200 refuses these and still admits --z 1/3 at --h
# 16.  The powers of a constant grow in bits instead, and its cost grew about
# like h^7: that --z 1234567/891011 took 2.0-2.4 s at --h 11 and --z 7 1.8-2.1
# s at --h 16, and --a=q --b=256 2.4-2.6 s at --h 13 (whole process, three
# runs each).  So the bits above twice the degree weigh the first t by (Z +
# e)/Z for e such bits and Z = _EXPAND_B_BITS, which refuses these and still
# admits --z 1/3 at --h 16.  A denominator of degree d makes each 1 - b p^e
# of degree d, and the gcds of their products cost about like d^2, so it
# weighs ((64 + d)/64)^2: without it --a=q --b="(1-q)/(1-q^256)" took 2.4 s
# at --h 5 and 10.3 s at --h 7 (whole process), and --b="(1-q)/(1-q^128)"
# 4.3 s at --h 8 (in-process).  Along the bound of slot b, --b and that --z
# take 0.1-0.8 s: (1+q)^256 at --h 1, (1+q)^16 at 7, 1/(1-3*q)^64 at 2,
# (1-q)/(1-q^256) at 4, 3^100 at 5 and 1234567/891011 at 9 (whole process,
# three runs each)
_EXPAND_B_SCALE = 2048
_EXPAND_B_BITS = 8
# jfrac triangle multiplies only linear factors 1 - c_i z, with no gcds of the
# growing ab products, so its parameters cost far less than expand's: --a
# "(2^256)^4" --b q^2 --h 5 took 0.07 s against 2.8 s for expand.  Its cost
# grew about like h^7 times (24 + the size of slot a + the square of the
# size of slot b), each size weighed by (64 + d)/64 for a denominator of
# degree d: with (128 + d)/128, --preset pochhammer_zqn --z "(1-q)/(1-q^256)"
# took 2.2-2.7 s at --h 12 and --a "(1-q)/(1-q^256)" --b q^2 2.1-3.2 s (whole
# process, three runs each).  The spec's own c_i weigh 24, which --preset
# reciprocal_qq needs (1.1 s at --h 20, 4.4 s at --h 24).  Linearly weighed,
# slot b's --z "(1+q)^256" took 24 s at --h 4 and --z "(3^256)^12" 23 s at
# --h 5, and --a=q --b="(1+q)^256" 44 s at --h 4 and --b="3^100*q^2" 28 s at
# --h 11.  Along the bound a constant --a takes 0.4-1.9 s from --h 2 to --h
# 18, --a "(1+q)^256" --b q^2 0.9 s at --h 6, --a "1/(1-3*q)^64" --b q^2 and
# --a "(1-q)/(1-q^256)" --b q^2 1.6-2.8 s at --h 8 and 11, slot b 0.1-1.7 s
# (the families above, from (1+q)^256 at --h 1 to 1234567/891011 at --h 12;
# whole process, three runs each); above it, a 185,000-bit --a took 3.6 s at
# --h 2, --a "(3^256)^10" 9.9 s at --h 8, --a "(1+q)^256" 4.0 s at --h 8, --a
# 3/7*q --b 2/5*q^2 29 s at --h 30 and reciprocal_pochhammer_zqn's --z
# 1234567/891011 4.6 s at --h 15 (in-process, one run each)
_MAX_TRIANGLE_COST = 2**35
_MAX_INVERT_DEPTH = 7  # jfrac invert --target n2_over_1mqn --depth 7: 0.6 s; --depth 8: 2.6 s
_MAX_SIGMA_N = 10**14  # oracle sigma --alpha 32 --n 10^14: 2.0 s; the time grows with sqrt(n)
_MAX_LAMBERT_ORDER = 200_000  # oracle lambert --alpha 32 --order 200000: 1.9 s; --alpha 2 --order 10^6: 7.8 s
_MAX_QBINOMIAL_N = 80  # oracle qbinomial --n 80 --k 40: 1.7 s; --n 100 --k 50: 4.0 s
# binds only for an --x of size <= 2 (q, 1 + q, 2): for any larger --x the joint
# cap below stops --n first.  oracles.q_pochhammer at --n 128 takes 0.15-0.2 s
# for --x q and 0.5-0.9 s for --x "1+q"; --x q --n 300: 5.1 s (in-process)
_MAX_POCHHAMMER_N = 128
# oracle qbinomialtheorem --a "q^2/(1-3*q)" --z "2*q/(1+q)" --order 64: 1.9 s; --order 100: 7.6 s
_MAX_QBT_ORDER = 64
# the oracles' joint caps, in sizes as for _MAX_EXPAND_COST, with bits above
# twice the degree weighed by (512 + e)/512 and (256 + e)/256; they bind before
# the two caps above for all but the smallest parameters.  oracle qpochhammer
# grows about like n^4 * size of --x, and the gcds against a denominator of
# degree d add a factor of about 1 + d/32: along the bound it takes 0.1-0.9 s
# for a polynomial --x (--x q --n 128, --x "(1+q)^256" --n 9), 0.4-1.4 s for
# a rational one (--x "1/(1-3*q)^16" --n 29, --x "(1-q)/(1-q^256)" --n 21,
# --x "1/(1-3*q)^64" --n 12) and 0.1-1.5 s for a constant (--x 3^100 --n 40;
# --x of 20,716 bits --n 5: 0.1 s); above it, --x "1/(1-3*q)^64" --n 13 took
# 1.9 s and --n 16 4.4 s, --x "(1+q)^256" --n 64 over 60 s (oracles.q_pochhammer,
# one run each) and a linearly weighed --x of 25,001 bits at --n 12 9.4 s
_MAX_POCHHAMMER_COST = 2**29
# oracle qbinomialtheorem grew about like order^4 * (1 + the sizes of --a and
# --z), and a denominator of degree d weighs its parameter's size by about
# (168 + d)/168: the products and gcds of the n-th term carry that denominator
# to the power n.  The factor is fitted between two points on the bound, --a
# "(1+q)^64/(1-3*q)^64" --z "2*q/(1+q)" --order 11 (1.5 s) and --a
# "(1-q)/(1-q^256)" --z "q*(1-q)/(1-q^256)" --order 17 (1.5 s); along it the
# check takes 0.1-1.5 s (--a "q^2/(1-3*q)" --z "2*q/(1+q)" --order 59: 0.8 s),
# and with a constant --a 0.4-1.8 s (--a 3^71 --z q --order 30: 1.8 s; 2,771
# bits at --order 8: 0.4 s).  Above it, that degree-255 pair took 1.9 s at
# --order 18 and 4.1 s at --order 22, --a "(1+q)^32" --z q --order 64 35 s
# (the check in-process, one run each), and --a "(2^256)^15" --z q --order 12,
# linearly weighed, 9.4 s
_MAX_QBT_COST = 2**27


def _int_in(low: int, high: Optional[int] = None):
    """An argparse type for the integers low..high, or for those >= low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            expected = f">= {low}" if high is None else f"{low}..{high}"
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(*map(float, parts))
            if math.isfinite(value.real) and math.isfinite(value.imag):
                return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected RE or RE,IM with finite parts, got {text!r}")


def _emit(payload, fmt: str, output: Optional[str], columns=None) -> None:
    """Write payload as JSON, pretty text or, for the commands that offer it,
    csv: the `columns` of each of payload["rows"], with floats as %.6e."""
    if fmt == "json":
        text = json.dumps(payload, indent=2)
    elif fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(columns)
        for row in payload["rows"]:
            cells = (row[c] for c in columns)
            writer.writerow(f"{v:.6e}" if isinstance(v, float) else v for v in cells)
        text = buf.getvalue().rstrip("\n")
    else:  # pretty
        text = _pretty(payload)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"--output {output}: {exc.strerror or exc}") from None
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


def _add_output_flags(parser: argparse.ArgumentParser, formats=("json", "pretty"), default="json") -> None:
    parser.add_argument("--format", choices=formats, default=default)
    parser.add_argument("--output", default=None)


def _args_expand(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=_PRESETS, default="pochhammer_ratio", help="named sequence family")
    p.add_argument("--a", type=_ratfn, help="parameter a (rational function of q)")
    p.add_argument("--b", type=_ratfn, help="parameter b (rational function of q)")
    p.add_argument("--z", type=_ratfn, help="parameter z for the families that need one")
    p.add_argument("--h", type=_int_in(0, _MAX_DEPTH), required=True, help="convergent depth")
    p.add_argument(
        "--zorder", type=_int_in(1, _MAX_ZORDER), default=None, help="series order (default 2h)"
    )
    _add_output_flags(p)


def _args_invert(p: argparse.ArgumentParser) -> None:
    p.add_argument("--target", required=True, choices=_TARGETS, help="named target series")
    p.add_argument("--depth", type=_int_in(1, _MAX_INVERT_DEPTH), required=True)
    _add_output_flags(p)


def _args_triangle(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", choices=_PRESETS, default="pochhammer_ratio")
    p.add_argument("--a", type=_ratfn)
    p.add_argument("--b", type=_ratfn)
    p.add_argument("--z", type=_ratfn)
    p.add_argument("--h", type=_int_in(0, _MAX_DEPTH), required=True, help="number of rows")
    _add_output_flags(p)


def _args_lemmas(p: argparse.ArgumentParser) -> None:
    p.add_argument("--h", type=_int_in(1, _MAX_LEMMA_H), default=4, help="max depth (default 4)")
    p.add_argument("--spec", choices=("qq2", "random"), default="qq2", help="sequence source")
    p.add_argument("--seed", type=int, default=0, help="seed for --spec random")
    _add_output_flags(p)


def _args_table(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_int_in(0, _MAX_ALPHA), required=True)
    p.add_argument("--h", type=_int_in(2, _MAX_DEPTH), required=True)
    p.add_argument("--order", type=_int_in(1, _MAX_ORDER), required=True)
    p.add_argument("--mod", type=_int_in(2), default=None)
    _add_output_flags(p, ("json", "csv", "pretty"))


def _args_probe(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_complex_arg, required=True, help="RE or RE,IM with |q|<1")
    p.add_argument("--z", type=_complex_arg, default=None, help="defaults to q")
    p.add_argument("--hmax", type=_int_in(1, _MAX_PROBE_LEVELS), default=20)
    _add_output_flags(p, ("json", "csv", "pretty"), "csv")


def _args_radius(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-8)
    _add_output_flags(p)


def _args_margins(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=_complex_arg, required=True)
    p.add_argument("--hmax", type=_int_in(2, _MAX_MARGIN_LEVELS), default=100)
    _add_output_flags(p, ("json", "csv", "pretty"))


def _args_sigma(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_int_in(0, _MAX_ALPHA), required=True)
    p.add_argument("--n", type=_int_in(1, _MAX_SIGMA_N), required=True)


def _args_lambert(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_int_in(0, _MAX_ALPHA), required=True)
    p.add_argument("--order", type=_int_in(1, _MAX_LAMBERT_ORDER), required=True)


def _args_qbinomial(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_in(0, _MAX_QBINOMIAL_N), required=True)
    p.add_argument("--k", type=_int_in(0, _MAX_QBINOMIAL_N), required=True)


def _args_qpochhammer(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=_ratfn, required=True)
    p.add_argument("--n", type=_int_in(0, _MAX_POCHHAMMER_N), required=True)


def _args_qbinomialtheorem(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=_ratfn, required=True)
    p.add_argument("--z", type=_ratfn, required=True)
    p.add_argument("--order", type=_int_in(1, _MAX_QBT_ORDER), required=True)


def _cmd_expand(args) -> int:
    from . import jfraction

    spec = _spec_from_flags(args)
    h = args.h
    zorder = args.zorder if args.zorder is not None else max(2 * h, 1)
    if zorder > _MAX_ZORDER:
        raise ValueError(f"--zorder {zorder} (default 2h) exceeds {_MAX_ZORDER}; pass a smaller --zorder")
    _check_family_cost(args)
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


def _spec_from_flags(args) -> JFractionSpec:
    from . import jfraction

    return jfraction.table1_preset(args.preset, a=args.a, b=args.b, z=args.z)


def _parameter_size(x: QRationalFn, scale: int) -> int:
    """(degree + 1) * bits * (scale + e) // scale of a parsed value: the larger
    degree of its numerator and denominator, the bit length of its largest
    coefficient numerator or denominator, and e the bits above twice the
    degree.  Those cost more than linearly, about like bits^1.8 for a
    constant; a coefficient of at most two bits per degree, like those of
    (1+q)^256 or of the monic 1/(1-3*q)^64, weighs linearly."""
    from .parse import coefficient_bits

    degree = max(x.num.degree, x.den.degree)
    bits = coefficient_bits(x)
    return (degree + 1) * bits * (scale + max(bits - 2 * degree, 0)) // scale


def _check_cost(flag: str, value: int, power: int, size: int, size_text: str, cap: int) -> None:
    """Raise ValueError when a command's joint cost, value^power * size, exceeds cap."""
    cost = value ** power * size
    if cost > cap:
        raise ValueError(
            f"{flag} {value} with parameter size {size}: {flag[2:]}^{power}*size = {cost} exceeds {cap}, "
            f"where size = {size_text}; pass a smaller {flag} or smaller parameters"
        )


def _slot_size(command: str, slot: str, x: QRationalFn) -> int:
    """The weight of x in slot "a" or "b" of the C-fraction in the joint cost
    of jfrac `command`, for a denominator of degree d.  b sits in every
    denominator 1 - b p^e, so slot b weighs more: the triangle squares the
    size, and expand weighs it as the comment on _EXPAND_B_SCALE says."""
    if command == "triangle":
        size = _parameter_size(x, 64) * (64 + x.den.degree) // 64
        return size if slot == "a" else size ** 2
    if slot == "a":
        return _parameter_size(x, 64)
    from .parse import coefficient_bits

    plain = (max(x.num.degree, x.den.degree) + 1) * coefficient_bits(x)
    size = _parameter_size(x, _EXPAND_B_BITS) * (_EXPAND_B_SCALE + plain) // _EXPAND_B_SCALE
    return size * (64 + x.den.degree) ** 2 // 64**2


def _check_family_cost(args) -> None:
    """Raise ValueError when --h and the parsed parameters of jfrac expand or
    jfrac triangle are jointly above _MAX_EXPAND_COST or _MAX_TRIANGLE_COST,
    each parameter weighed by the slot that the family's row gives it."""
    from .jfraction import _ROW_PARAMETERS

    slots = _ROW_PARAMETERS[args.preset].items()
    size = sum(_slot_size(args.subcommand, slot, getattr(args, flag)) for flag, slot in slots)
    given = ", ".join(f"--{flag} in slot {slot}" for flag, slot in slots) or "no parameter"
    if args.subcommand == "expand":
        base, power, cap = 1, 6, _MAX_EXPAND_COST
        weights = "1 + t*(64 + e)/64 in slot a and t*(8 + e)/8*(2048 + t)/2048*((64 + d)/64)^2 in slot b"
    else:
        base, power, cap = 24, 7, _MAX_TRIANGLE_COST
        weights = "24 + t*(64 + e)/64*(64 + d)/64 in slot a and its square in slot b"
    text = (
        f"{weights} of the C-fraction ({given}), for t = (degree + 1)*bits, e bits above twice the "
        "degree and d the degree of the denominator"
    )
    _check_cost("--h", args.h, power, base + size, text, cap)


def _cmd_triangle(args) -> int:
    spec = _spec_from_flags(args)
    _check_family_cost(args)
    from .stirling import triangle_row

    payload = {
        "schema": "qjfrac/triangle/1",
        "name": spec.name,
        "rows": [[str(v) for v in triangle_row(spec, h)] for h in range(args.h + 1)],
    }
    _emit(payload, args.format, args.output)
    return 0


def _cmd_invert(args) -> int:
    from . import jfraction

    _emit(jfraction.invert(args.target, args.depth), args.format, args.output)
    return 0


def _cmd_lemmas(args) -> int:
    from . import jfraction, stirling

    if args.spec == "qq2":
        spec = jfraction.divisor_spec()
    else:
        spec = jfraction.random_rational_spec(args.seed, length=16)
    payload = stirling.lemma_suite(spec, args.h)
    _emit(payload, args.format, args.output)
    return 0 if payload["status"] == "ok" else 1


def _cmd_divisor_table(args) -> int:
    cost = (args.alpha + 9) * args.h
    if cost > _MAX_DIVISOR_COST:
        raise ValueError(
            f"--alpha {args.alpha} with --h {args.h}: (alpha + 9)*h = {cost} exceeds "
            f"{_MAX_DIVISOR_COST}; pass a smaller --alpha or --h"
        )
    from . import divisors

    payload, columns = divisors.table(args.alpha, args.h, args.order, args.mod)
    _emit(payload, args.format, args.output, columns)
    return 0


def _cmd_probe(args) -> int:
    from . import convergence

    z = args.z if args.z is not None else args.q
    report = convergence.numeric_convergence_probe(args.q, z, args.hmax)
    if not report["target_converged"] and args.format != "json":
        print(
            "warning: target not converged: the direct sum stopped at its term limit,"
            " so the gaps are measured against a truncated sum",
            file=sys.stderr,
        )
    _emit(report, args.format, args.output, ("h", "gap", "overflow"))
    return 0


def _cmd_radius(args) -> int:
    from . import convergence

    value = convergence.threshold_radius(args.tol)
    payload = {"schema": "qjfrac/converge-radius/1", "tolerance": args.tol, "radius": value}
    _emit(payload, args.format, args.output)
    return 0


def _cmd_margins(args) -> int:
    from . import convergence

    bits = convergence.margin_precision(args.q, args.hmax)
    if bits > _MAX_MARGIN_BITS:
        raise ValueError(
            f"--q of modulus {abs(args.q):g} with --hmax {args.hmax}: 2*hmax*log2(1/|q|) + 64 = {bits} bits "
            f"exceeds {_MAX_MARGIN_BITS}; pass a larger |q| in --q or a smaller --hmax"
        )
    report = convergence.pringsheim_margins(args.q, args.hmax)
    _emit(report, args.format, args.output, ("h", "abs_a", "abs_b", "margin"))
    return 0


def _cmd_sigma(args) -> int:
    from .oracles import sigma_alpha

    print(sigma_alpha(args.alpha, args.n))
    return 0


def _cmd_lambert(args) -> int:
    from .oracles import lambert_truncated

    series = lambert_truncated(args.alpha, args.order)
    print(json.dumps([str(c) for c in series]))
    return 0


def _cmd_qbinomial(args) -> int:
    from .oracles import q_binomial

    print(q_binomial(args.n, args.k))
    return 0


def _cmd_qpochhammer(args) -> int:
    # each factor 1 - x q^k brings in the denominator of x, whose gcds with the
    # growing product cost more the higher its degree d
    size = _parameter_size(args.x, 512) * (32 + args.x.den.degree) // 32
    text = (
        "(degree + 1)*bits*(512 + e)/512 of --x, for e bits above twice the degree, "
        "times (32 + d)/32 for a denominator of degree d"
    )
    _check_cost("--n", args.n, 4, size, text, _MAX_POCHHAMMER_COST)
    from .oracles import q_pochhammer

    print(q_pochhammer(args.x, args.n))
    return 0


def _cmd_qbinomialtheorem(args) -> int:
    size = 1 + sum(_parameter_size(x, 256) * (168 + x.den.degree) // 168 for x in (args.a, args.z))
    text = (
        "1 + (degree + 1)*bits*(256 + e)/256 of each of --a, --z, for e bits above twice the degree, "
        "times (168 + d)/168 for a denominator of degree d"
    )
    _check_cost("--order", args.order, 4, size, text, _MAX_QBT_COST)
    from .oracles import q_binomial_theorem_check

    ok = q_binomial_theorem_check(args.a, args.z, args.order)
    print("equal" if ok else "MISMATCH")
    return 0 if ok else 1


# The one table of commands, in --help order: group -> help, and
# (group, subcommand) -> (help, argument builder, handler).
_GROUPS = {
    "jfrac": "J-fraction construction and inversion",
    "verify": "exact identity verification",
    "divisor": "divisor-function tables",
    "converge": "numeric convergence diagnostics",
    "oracle": "brute-force reference values",
}
_COMMANDS = {
    ("jfrac", "expand"): ("expand a sequence family", _args_expand, _cmd_expand),
    ("jfrac", "invert"): ("series -> (c, ab) inversion", _args_invert, _cmd_invert),
    ("jfrac", "triangle"): (
        "dump the coefficient triangle of a sequence family", _args_triangle, _cmd_triangle
    ),
    ("verify", "lemmas"): ("run the expansion-identity suite", _args_lemmas, _cmd_lemmas),
    ("divisor", "table"): ("sigma_alpha(n) table from the J-fraction", _args_table, _cmd_divisor_table),
    ("converge", "probe"): ("convergent-vs-target gaps", _args_probe, _cmd_probe),
    ("converge", "radius"): ("threshold radius of the margin inequality", _args_radius, _cmd_radius),
    ("converge", "margins"): ("per-level margin report", _args_margins, _cmd_margins),
    ("oracle", "sigma"): ("sigma_alpha(n) by trial division", _args_sigma, _cmd_sigma),
    ("oracle", "lambert"): ("truncated Lambert series coefficients", _args_lambert, _cmd_lambert),
    ("oracle", "qbinomial"): ("Gaussian binomial coefficient", _args_qbinomial, _cmd_qbinomial),
    ("oracle", "qpochhammer"): ("(x; q)_n as a rational function", _args_qpochhammer, _cmd_qpochhammer),
    ("oracle", "qbinomialtheorem"): (
        "truncated sum-vs-product comparison", _args_qbinomialtheorem, _cmd_qbinomialtheorem
    ),
}


def build_parser(command: Optional[tuple[str, str]] = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a key of _COMMANDS, of that one.

    A one-command parser builds only that command's subparser, and it prints
    what the full parser prints for that command's arguments: its one error
    of its own, on an unrecognized argument, shows the top-level usage line,
    so that line names every group, as the full parser's does."""
    parser = argparse.ArgumentParser(
        prog="qjfrac",
        description="Exact Jacobi-type continued fractions over Q(q).",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    metavar = "{" + ",".join(_GROUPS) + "}" if command else None
    top = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    groups = {}
    for (group, name), (text, add_arguments, _) in _COMMANDS.items():
        if command is not None and (group, name) != command:
            continue
        if group not in groups:
            groups[group] = top.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest="subcommand", required=True
            )
        add_arguments(groups[group].add_parser(name, help=text))
    return parser


def run(argv=None) -> int:
    """Run one command; the exit code is 0 on success, 1 on a verification
    mismatch, 2 on a usage error, 3 on an internal error and 141 when the
    reader closed stdout (128 + SIGPIPE)."""
    if argv is None:
        argv = sys.argv[1:]
    command = tuple(argv[:2])
    try:
        args = build_parser(command if command in _COMMANDS else None).parse_args(argv)
        # the interpreter's limit on int-to-str digits guards the integers that
        # parse_args reads; every value a command builds after it is bounded by
        # the caps, so the command may print any of them (Python 3.10.7+ has a
        # limit; the one in force is restored, as run may be called in-process)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            rc = _COMMANDS[args.command, args.subcommand][2](args)
            sys.stdout.flush()  # a closed pipe shows here, not at the interpreter's exit
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        return rc
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the
        # interpreter's last flush stays quiet, and exit as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
