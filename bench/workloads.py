"""Seeded job lists for the benchmark workloads, and the oracle check of each job.

A job is one `qjfrac` CLI invocation.  `build_pass(workload, seed)` returns the
job list of one pass; the same seed always gives the same list.  `check(job,
rc, stdout)` returns None when the output is right and a short reason when it
is not; it compares against `qjfrac.oracles`, or re-derives the value by
another route (the triangle as a product expansion, an inversion by expanding
its result again).  `corrupt(job, stdout)` returns a deliberately wrong
output of the same shape, which `check` must reject.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from qjfrac import oracles
from qjfrac.exact import QRationalFn
from qjfrac.jfraction import (
    JFractionSpec,
    PochhammerParams,
    convergent_coefficients,
    convergents,
    pochhammer_spec,
)

WORKLOADS = ("sigma_tables", "lemma_suite", "readme_session")

# the README session is the documented example list run this many times per
# pass, each round with fresh seeded inputs
README_ROUNDS = 2

RADIUS = 0.206783
_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple
    ctx: dict = field(default_factory=dict, compare=False)

    def label(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def draw_ab(rng: random.Random) -> tuple[str, str]:
    """(a, b) as small rationals times q^k, k in {1, 2}.

    k >= 1 rules out b in {0, 1}; a = b q^m (m >= 0, which includes a = b)
    would make an ab_i vanish and is redrawn, so every draw has the same shape
    and roughly the same cost."""
    while True:
        (ra, ka), (rb, kb) = (_draw_monomial(rng) for _ in range(2))
        if not (ra == rb and ka >= kb):
            return _monomial_text(ra, ka), _monomial_text(rb, kb)


def _draw_monomial(rng: random.Random) -> tuple[Fraction, int]:
    r = Fraction(rng.choice((1, 2, 3)) * rng.choice((1, -1)), rng.choice((1, 2, 3)))
    return r, rng.choice((1, 2))


def _monomial_text(r: Fraction, k: int) -> str:
    return f"{r}*q^{k}"


def draw_q(rng: random.Random) -> str:
    """A real q well inside the ~0.2068 convergence radius."""
    return f"{rng.uniform(0.05, 0.19):.3f}"


def _flag(name: str, value: str) -> str:
    # "--b=-3/4*q^2": argparse would read a separate "-3/4*q^2" as a flag
    return f"--{name}={value}"


def _divisor_job(alpha: int, h: int, order: int, mod=None, fmt: str = "json") -> Job:
    argv = ["divisor", "table", "--alpha", str(alpha), "--h", str(h), "--order", str(order)]
    if mod is not None:
        argv += ["--mod", str(mod)]
    if fmt != "json":
        argv += ["--format", fmt]
    return Job("divisor_table", tuple(argv), {"alpha": alpha, "h": h, "order": order, "mod": mod, "fmt": fmt})


def _sigma_tables(rng: random.Random) -> list[Job]:
    return [
        _divisor_job(0, 12, 24),
        _divisor_job(1, 6, 12, mod=rng.choice(_PRIMES)),
        _divisor_job(2, 6, 10),
        _divisor_job(3, 4, 8),
    ]


def _lemma_suite(rng: random.Random) -> list[Job]:
    spec_seed = rng.randrange(10**6)
    return [
        Job("lemmas", ("verify", "lemmas", "--h", "5"), {"h": 5}),
        Job(
            "lemmas",
            ("verify", "lemmas", "--spec", "random", "--seed", str(spec_seed), "--h", "8"),
            {"h": 8},
        ),
    ]


def _readme_round(rng: random.Random) -> list[Job]:
    """The README CLI examples at their documented sizes, minus `verify lemmas
    --h 5` and `divisor table --alpha 1 --h 6`, which the other two workloads
    already run at the same size."""
    a, b = draw_ab(rng)
    ta, tb = draw_ab(rng)
    q_probe, q_margins = draw_q(rng), draw_q(rng)
    return [
        Job("expand", ("jfrac", "expand", _flag("a", a), _flag("b", b), "--h", "4"), {"a": a, "b": b, "h": 4}),
        Job("expand_preset", ("jfrac", "expand", "--preset", "reciprocal_qq", "--h", "4"), {"h": 4}),
        Job("triangle", ("jfrac", "triangle", _flag("a", ta), _flag("b", tb), "--h", "5"), {"a": ta, "b": tb, "h": 5}),
        Job("invert", ("jfrac", "invert", "--target", "one_over_1mqn", "--depth", "3"), {"alpha": 0, "depth": 3}),
        Job("invert", ("jfrac", "invert", "--target", "n_over_1mqn", "--depth", "3"), {"alpha": 1, "depth": 3}),
        _divisor_job(1, 4, 8, mod=rng.choice(_PRIMES), fmt="csv"),
        Job("radius", ("converge", "radius", "--tol", "1e-8"), {}),
        Job("probe", ("converge", "probe", _flag("q", q_probe), "--hmax", "20"), {"hmax": 20}),
        Job("margins", ("converge", "margins", _flag("q", q_margins), "--hmax", "100"), {"hmax": 100}),
        Job("oracle_sigma", ("oracle", "sigma", "--alpha", "2", "--n", "12"), {"alpha": 2, "n": 12}),
        Job("oracle_qbt", ("oracle", "qbinomialtheorem", "--a", "q", "--z", "q", "--order", "12"), {}),
    ]


def _readme_session(rng: random.Random) -> list[Job]:
    return [job for _ in range(README_ROUNDS) for job in _readme_round(rng)]


_BUILDERS = {
    "sigma_tables": _sigma_tables,
    "lemma_suite": _lemma_suite,
    "readme_session": _readme_session,
}


def build_pass(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; a function of (workload, seed) only."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def check(job: Job, rc: int, stdout: str):
    """None if the job's exit code and output are right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[job.kind](job.ctx, stdout)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError, ZeroDivisionError, csv.Error) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


def _window_reason(ctx: dict, rows: list[dict]):
    """Shared divisor-table check: rows 1..order-1, flags match the h and 2h
    windows, and each value with n < 2h matches the trial-division oracle."""
    alpha, h, order, p = ctx["alpha"], ctx["h"], ctx["order"], ctx["mod"]
    if [r["n"] for r in rows] != list(range(1, order)):
        return "row indices"
    for r in rows:
        n = r["n"]
        if r["certified"] != (n < h) or r["empirical"] != (h <= n < 2 * h):
            return f"flags at n={n}"
        if n >= 2 * h:
            continue
        want = oracles.divisor_count(n) if alpha == 0 else oracles.sigma_alpha(alpha, n)
        if p is None:
            ok = r["value"] == str(want)
        else:
            ok = not r["flagged"] and int(r["value"]) == want % p
        if not ok:
            return f"value at n={n}"
    return None


def _check_divisor_table(ctx: dict, out: str):
    if ctx["fmt"] == "csv":
        parsed = list(csv.DictReader(io.StringIO(out)))
        truth = {"True": True, "False": False}
        rows = [
            {
                "n": int(r["n"]),
                "value": r["value"],
                "certified": truth[r["certified"]],
                "empirical": truth[r["empirical"]],
                "flagged": truth[r["flagged"]] if "flagged" in r else False,
            }
            for r in parsed
        ]
        return _window_reason(ctx, rows)
    payload = json.loads(out)
    if (payload["alpha"], payload["h"]) != (ctx["alpha"], ctx["h"]):
        return "header"
    return _window_reason(ctx, payload["rows"])


def _check_lemmas(ctx: dict, out: str):
    payload = json.loads(out)
    if payload["status"] != "ok" or payload["h_max"] != ctx["h"]:
        return f"status {payload['status']}"
    return None


def _check_coefficients(got: list[str], want) -> str | None:
    for n, w in enumerate(want):
        if got[n] != str(w):
            return f"coefficient {n}"
    return None


def _check_expand(ctx: dict, out: str):
    a, b = QRationalFn.parse(ctx["a"]), QRationalFn.parse(ctx["b"])
    got = json.loads(out)["coefficients"]
    return _check_coefficients(got, (oracles.pochhammer_ratio(a, b, n) for n in range(2 * ctx["h"])))


def _check_expand_preset(ctx: dict, out: str):
    # reciprocal_qq generates 1/(q;q)_n
    q = QRationalFn.q()
    got = json.loads(out)["coefficients"]
    return _check_coefficients(got, (oracles.q_pochhammer(q, n).reciprocal() for n in range(2 * ctx["h"])))


def _check_triangle(ctx: dict, out: str):
    """Row h must be the coefficients of (1 - c_1 z) ... (1 - c_h z)."""
    spec = pochhammer_spec(PochhammerParams(QRationalFn.parse(ctx["a"]), QRationalFn.parse(ctx["b"])))
    rows = json.loads(out)["rows"]
    if len(rows) != ctx["h"] + 1:
        return "row count"
    prod = [QRationalFn.one()]
    for h, row in enumerate(rows):
        if h:
            c = spec.c(h)
            prod = [
                (prod[k] if k < len(prod) else QRationalFn.zero()) - (c * prod[k - 1] if k else 0)
                for k in range(h + 1)
            ]
        if row != [str(v) for v in prod]:
            return f"row {h}"
    return None


def _check_invert(ctx: dict, out: str):
    """Re-expand the returned (c, ab) and compare with n^alpha / (1 - q^n)."""
    payload = json.loads(out)
    depth = ctx["depth"]
    cs = [QRationalFn.parse(s) for s in payload["c"]]
    abs_ = [QRationalFn.parse(s) for s in payload["ab"]]
    if payload["terminated"] or len(cs) != depth:
        return "depth"
    pair = convergents(JFractionSpec.from_tables("check", cs, abs_), depth)
    got = convergent_coefficients(pair, 2 * depth)
    one, q = QRationalFn.one(), QRationalFn.q()
    want = [one] + [QRationalFn.from_fraction(n ** ctx["alpha"]) / (one - q ** n) for n in range(1, 2 * depth)]
    for n in range(2 * depth):
        if got[n] != want[n]:
            return f"re-expanded coefficient {n}"
    return None


def _check_radius(ctx: dict, out: str):
    value = json.loads(out)["radius"]
    return None if abs(value - RADIUS) < 1e-6 else f"radius {value}"


def _check_probe(ctx: dict, out: str):
    rows = list(csv.DictReader(io.StringIO(out)))
    if [int(r["h"]) for r in rows] != list(range(1, ctx["hmax"] + 1)):
        return "row indices"
    gaps = [float(r["gap"]) for r in rows]
    if any(r["overflow"] != "False" for r in rows) or not all(math.isfinite(g) and g >= 0 for g in gaps):
        return "gap not finite"
    # inside the radius the convergents reach the target to working precision
    return None if gaps[-1] < 1e-20 else f"final gap {gaps[-1]}"


def _check_margins(ctx: dict, out: str):
    rows = json.loads(out)["rows"]
    if [r["h"] for r in rows] != list(range(2, ctx["hmax"] + 1)):
        return "row indices"
    # every level satisfies the elementwise criterion inside the radius
    return None if all(r["margin"] > 0 for r in rows) else "non-positive margin"


def _check_oracle_sigma(ctx: dict, out: str):
    want = sum(d ** ctx["alpha"] for d in range(1, ctx["n"] + 1) if ctx["n"] % d == 0)
    return None if int(out) == want else "value"


def _check_oracle_qbt(ctx: dict, out: str):
    return None if out.strip() == "equal" else out.strip()


_CHECKS = {
    "divisor_table": _check_divisor_table,
    "lemmas": _check_lemmas,
    "expand": _check_expand,
    "expand_preset": _check_expand_preset,
    "triangle": _check_triangle,
    "invert": _check_invert,
    "radius": _check_radius,
    "probe": _check_probe,
    "margins": _check_margins,
    "oracle_sigma": _check_oracle_sigma,
    "oracle_qbt": _check_oracle_qbt,
}


# ---------------------------------------------------------------------------
# corrupted outputs for the self-check
# ---------------------------------------------------------------------------


def _edit_json(out: str, edit) -> str:
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload, indent=2)


def _bump(text: str) -> str:
    return str(int(text) + 1)


def _corrupt_divisor_table(ctx: dict, out: str) -> str:
    if ctx["fmt"] == "csv":
        lines = out.splitlines()
        cells = lines[1].split(",")
        cells[1] = _bump(cells[1])
        lines[1] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return _edit_json(out, lambda p: p["rows"][0].update(value=_bump(p["rows"][0]["value"])))


def _corrupt_margins(ctx: dict, out: str) -> str:
    return _edit_json(out, lambda p: p["rows"][-1].update(margin=-p["rows"][-1]["margin"]))


_CORRUPTERS = {
    "divisor_table": _corrupt_divisor_table,
    "lemmas": lambda ctx, out: _edit_json(out, lambda p: p.update(status="mismatch")),
    "expand": lambda ctx, out: _edit_json(out, lambda p: p["coefficients"].__setitem__(1, "0")),
    "expand_preset": lambda ctx, out: _edit_json(out, lambda p: p["coefficients"].__setitem__(1, "0")),
    "triangle": lambda ctx, out: _edit_json(out, lambda p: p["rows"][1].__setitem__(1, "0")),
    "invert": lambda ctx, out: _edit_json(out, lambda p: p["c"].__setitem__(0, "0")),
    "radius": lambda ctx, out: _edit_json(out, lambda p: p.update(radius=p["radius"] + 1e-3)),
    "probe": lambda ctx, out: "\n".join(out.splitlines()[:-1]) + "\n",
    "margins": _corrupt_margins,
    "oracle_sigma": lambda ctx, out: _bump(out.strip()) + "\n",
    "oracle_qbt": lambda ctx, out: "MISMATCH\n",
}


def corrupt(job: Job, stdout: str) -> str:
    return _CORRUPTERS[job.kind](job.ctx, stdout)
