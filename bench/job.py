"""Run one qjfrac CLI job in this (fresh) interpreter, optionally traced.

    python3 bench/job.py [--trace SPANS_FILE] -- <qjfrac CLI arguments>

The job's stdout is the CLI's stdout.  The last line on stderr is a report
prefixed with REPORT_TAG: the CLOCK_MONOTONIC time at which `import
qjfrac.cli` finished (the parent subtracts its spawn time to get set-up time),
the peak RSS, and, when traced, per-span-name aggregates and counters.

Tracing wraps the public entry points of each qjfrac module from outside: the
class attributes of the exact and Z-layer kernels, and every module-level
binding of the wrapped functions (a `from .jfraction import convergent_pairs`
in another module is a separate binding that must be patched too).  Each call
records a span (name, start, end, parent) in memory; the spans are written to
SPANS_FILE when the job ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from array import array

REPORT_TAG = "@qjfrac-bench "
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory spans plus running per-name aggregates.

    stats[name] = [calls, total_s, self_s]: total_s sums only the outermost
    span of a name (so recursion is not counted twice); self_s is each span's
    duration minus the time its wrapped children took."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[list] = []  # [span index, time spent in wrapped children]
        self.stats: dict[str, list] = {}
        self.counters = {
            "gcd_trivial": 0,
            "polymul_max_degree": 0,
            "swell_max_q_degree": 0,
            "swell_max_coeff_bits": 0,
        }

    def wrap(self, name: str, fn, after=None):
        if name not in self.stats:
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0, 0]  # calls, total, self, active depth
        idx = self.names.index(name)
        stat = self.stats[name]
        stack = self.stack
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            names.append(idx)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            stat[3] += 1
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[span] = t1
                stack.pop()
                stat[3] -= 1
                dur = t1 - t0
                stat[0] += 1
                stat[2] += dur - frame[1]
                if not stat[3]:
                    stat[1] += dur
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "stats": {n: s[:3] for n, s in self.stats.items()},
            "counters": self.counters,
            "spans": len(self.span_start),
        }

    def write_spans(self, path: str, job_id: str) -> None:
        """Header line (JSON) then the raw name/start/end/parent arrays."""
        header = {
            "job": job_id,
            "names": self.names,
            "count": len(self.span_start),
            "layout": ["name:uint16", "start:float64", "end:float64", "parent:int32"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every loaded qjfrac module."""
    from qjfrac import convergence, divisors, exact, jfraction, stirling, zalgebra
    from qjfrac import cli

    counters = tracer.counters

    def after_gcd(args, g):
        if g.coeffs == (1,):
            counters["gcd_trivial"] += 1

    def after_polymul(args, p):
        if p is not NotImplemented and len(p.coeffs) - 1 > counters["polymul_max_degree"]:
            counters["polymul_max_degree"] = len(p.coeffs) - 1

    def after_ratfn_new(args, _):
        r = args[0]
        num, den = r.num.coeffs, r.den.coeffs
        deg = max(len(num), len(den)) - 1
        if deg > counters["swell_max_q_degree"]:
            counters["swell_max_q_degree"] = deg
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length()) for c in num + den)
        if bits > counters["swell_max_coeff_bits"]:
            counters["swell_max_coeff_bits"] = bits

    QP, QR = exact.QPolynomial, exact.QRationalFn
    mul = tracer.wrap("exact.polymul", QP.__mul__, after_polymul)
    QP.__mul__ = QP.__rmul__ = mul
    QP.divmod = tracer.wrap("exact.divmod", QP.divmod)
    QP.gcd = staticmethod(tracer.wrap("exact.gcd", QP.gcd, after_gcd))
    QR.__init__ = tracer.wrap("exact.ratfn_new", QR.__init__, after_ratfn_new)
    QR.taylor = tracer.wrap("exact.taylor", QR.taylor)
    ZP = zalgebra.ZPolynomial
    ZP.__mul__ = tracer.wrap("zalgebra.zmul", ZP.__mul__)
    ZP.evaluate = tracer.wrap("zalgebra.evaluate", ZP.evaluate)
    zalgebra.ZSeries.reciprocal = tracer.wrap("zalgebra.series_reciprocal", zalgebra.ZSeries.reciprocal)

    functions = [
        (jfraction, "convergent_pairs"),
        (jfraction, "series_to_jfraction"),
        (jfraction, "convergent_coefficients"),
        (stirling, "verify_Qh_expansion"),
        (stirling, "verify_Ph_expansion"),
        (stirling, "nested_sum"),
        (divisors, "generating_series"),
        (convergence, "numeric_convergence_probe"),
        (convergence, "pringsheim_margins"),
        (convergence, "threshold_radius"),
        (cli, "run"),
    ]
    modules = [m for n, m in sys.modules.items() if n == "qjfrac" or n.startswith("qjfrac.")]
    for module, attr in functions:
        original = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        traced = tracer.wrap(f"{layer}.{attr}", original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: job.py [--trace SPANS_FILE] -- <qjfrac arguments>", file=sys.stderr)
        return 2
    cli_argv = argv[1:]
    sys.path.insert(0, SRC)
    import qjfrac.cli

    import_done = _now()
    report = {"import_done": import_done, "module": qjfrac.cli.__file__}
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        install(tracer)
    rc = qjfrac.cli.run(cli_argv) if cli_argv else 0
    sys.stdout.flush()
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write_spans(spans_path, " ".join(cli_argv))
    report["rc"] = rc
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(REPORT_TAG + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
