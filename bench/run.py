"""qjfrac benchmark: closed-loop CLI workloads, one fresh interpreter per job.

    python3 bench/run.py --workload sigma_tables --seed 1 --seconds 30 --trace 0

One client runs one job at a time.  A pass is the workload's job list, built
from --seed; passes repeat until --seconds is used up, so a run measures at
least --seconds and at most one pass more.  After each job, outside the timed
interval, its output is checked against `qjfrac.oracles` (see workloads.py).

--trace 0 reports the end-to-end metrics: median pass wall time, pass CPU time
of the child processes, set-up time (spawn to `import qjfrac.cli` done, median
over every job), and peak child RSS.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of the traced passes (see job.py)
plus the tracing overhead.  The last stdout line is one JSON object with keys
correct, attempted, failed and metrics; a fuller record (environment, per-job
stdout SHA-256 digests, per-pass figures) goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
JOB = Path(__file__).resolve().parent / "job.py"
OUT = ROOT / ".bench_out"

# a workload's run must end within 180 s: no pass starts and no job runs
# past this many seconds after the run began
DEADLINE_S = 165.0
JOB_TIMEOUT_S = 120.0

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))

from job import REPORT_TAG  # noqa: E402  (bench/ is on sys.path from here on)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}

# per-layer metrics read off one span name: "<span name>.<calls|total_s|self_s>"
_SPAN_METRICS = (
    "exact.gcd.calls",
    "exact.gcd.self_s",
    "exact.polymul.calls",
    "exact.polymul.self_s",
    "exact.divmod.calls",
    "exact.divmod.self_s",
    "exact.ratfn_new.calls",
    "exact.ratfn_new.self_s",
    "exact.taylor.self_s",
    "zalgebra.zmul.calls",
    "zalgebra.zmul.self_s",
    "zalgebra.evaluate.calls",
    "zalgebra.evaluate.self_s",
    "zalgebra.series_reciprocal.calls",
    "zalgebra.series_reciprocal.self_s",
    "jfraction.convergent_pairs.total_s",
    "jfraction.convergent_pairs.self_s",
    "jfraction.series_to_jfraction.total_s",
    "jfraction.convergent_coefficients.total_s",
    "stirling.verify_Qh_expansion.total_s",
    "stirling.verify_Ph_expansion.total_s",
    "stirling.nested_sum.calls",
    "stirling.nested_sum.total_s",
    "divisors.generating_series.total_s",
    "divisors.generating_series.self_s",
    "cli.run.self_s",
)
_AGGREGATE = {"calls": 0, "total_s": 1, "self_s": 2}  # index into job.py's stats
_CONVERGENCE_SPANS = (
    "convergence.numeric_convergence_probe",
    "convergence.pringsheim_margins",
    "convergence.threshold_radius",
)

PER_LAYER_UNITS = {
    **{name: "count" if name.endswith(".calls") else "s" for name in _SPAN_METRICS},
    "exact.gcd.trivial_share": "ratio",
    "exact.polymul.max_degree": "degree",
    "exact.swell.max_q_degree": "degree",
    "exact.swell.max_coeff_bits": "bits",
    "convergence.total_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------


def run_job(job, spans_path, timeout: float) -> dict:
    """Spawn a fresh interpreter for the job; time it, reap it, check it."""
    from workloads import check

    cmd = [sys.executable, str(JOB)]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += ["--", *job.argv]
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    except BaseException:
        # interrupted (SIGTERM is turned into SystemExit): leave no child behind
        proc.kill()
        proc.wait()
        raise
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawn
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)

    stdout = out.decode()
    report = _parse_report(err.decode())
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rc": proc.returncode,
        "sha256": hashlib.sha256(out).hexdigest(),
        "stdout": stdout,
    }
    if timed_out:
        result["error"] = f"timed out after {timeout:.0f} s"
    elif report is None:
        result["error"] = "no job report: " + err.decode()[-500:]
    elif Path(report["module"]).resolve().parent != SRC / "qjfrac":
        result["error"] = f"imported qjfrac from {report['module']}, not from this checkout"
    else:
        result["error"] = check(job, proc.returncode, stdout)
        result["setup_s"] = report["import_done"] - spawn
        result["peak_rss_mib"] = report["maxrss_kib"] / 1024.0
        if "trace" in report:
            result["trace"] = report["trace"]
    return result


def _parse_report(stderr: str):
    for line in reversed(stderr.splitlines()):
        if line.startswith(REPORT_TAG):
            return json.loads(line[len(REPORT_TAG):])
    return None


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------


def run_pass(jobs, traced: bool, trace_dir: Path, deadline: float) -> dict:
    results = []
    for i, job in enumerate(jobs):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        spans = trace_dir / f"job{i:02d}.spans" if traced else None
        results.append(run_job(job, spans, min(JOB_TIMEOUT_S, remaining)))
    timed = [r for r in results if "setup_s" in r]
    return {
        "traced": traced,
        "complete": len(results) == len(jobs),
        "jobs": results,
        "wall_s": sum(r["wall_s"] for r in results),
        "cpu_s": sum(r["cpu_s"] for r in results),
        "peak_rss_mib": max((r["peak_rss_mib"] for r in timed), default=0.0),
    }


def warm_up() -> None:
    """Compile bytecode and fill the page cache before timing: a CLI user
    does not pay that on every run."""
    proc = subprocess.run(
        [sys.executable, str(JOB), "--"], capture_output=True, timeout=JOB_TIMEOUT_S, cwd=ROOT
    )
    if proc.returncode != 0 or _parse_report(proc.stderr.decode()) is None:
        raise RuntimeError("cannot start a qjfrac job:\n" + proc.stderr.decode()[-2000:])


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end_metrics(passes: list[dict]) -> dict:
    """Median over passes; set-up time is the median over every job."""
    setups = [j["setup_s"] for p in passes for j in p["jobs"] if "setup_s" in j]
    return {
        "wall_s": _quartiles([p["wall_s"] for p in passes]),
        "cpu_s": _quartiles([p["cpu_s"] for p in passes]),
        "setup_s": _quartiles(setups or [0.0]),
        "peak_rss_mib": _quartiles([p["peak_rss_mib"] for p in passes]),
    }


def _pass_layers(p: dict) -> dict:
    """Per-layer figures of one traced pass, summed (or maxed) over its jobs."""
    stats: dict[str, list] = {}
    counters = {"gcd_trivial": 0, "polymul_max_degree": 0, "swell_max_q_degree": 0, "swell_max_coeff_bits": 0}
    for job in p["jobs"]:
        trace = job.get("trace")
        if trace is None:
            continue
        for name, values in trace["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += values[k]
        c = trace["counters"]
        counters["gcd_trivial"] += c["gcd_trivial"]
        for key in ("polymul_max_degree", "swell_max_q_degree", "swell_max_coeff_bits"):
            counters[key] = max(counters[key], c[key])
    layers = {}
    for metric in _SPAN_METRICS:
        span, agg = metric.rsplit(".", 1)
        layers[metric] = stats.get(span, [0, 0.0, 0.0])[_AGGREGATE[agg]]
    gcd_calls = layers["exact.gcd.calls"]
    layers["exact.gcd.trivial_share"] = counters["gcd_trivial"] / gcd_calls if gcd_calls else 0.0
    layers["exact.polymul.max_degree"] = counters["polymul_max_degree"]
    layers["exact.swell.max_q_degree"] = counters["swell_max_q_degree"]
    layers["exact.swell.max_coeff_bits"] = counters["swell_max_coeff_bits"]
    layers["convergence.total_s"] = sum(stats.get(s, [0, 0.0, 0.0])[1] for s in _CONVERGENCE_SPANS)
    return layers


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Medians of the traced passes' times; counts (every figure not in
    seconds) come from the first traced pass, and the flag says whether every
    traced pass repeated them exactly."""
    per_pass = [_pass_layers(p) for p in traced] or [_pass_layers({"jobs": []})]
    layers = {}
    counts_repeat = bool(traced)
    for name, first in per_pass[0].items():
        if PER_LAYER_UNITS[name] == "s":
            layers[name] = statistics.median(pp[name] for pp in per_pass)
        else:
            layers[name] = first
            counts_repeat = counts_repeat and all(pp[name] == first for pp in per_pass)
    walls = [statistics.median(p["wall_s"] for p in ps) if ps else 0.0 for ps in (traced, untraced)]
    layers["trace.overhead_s"] = walls[0] - walls[1]
    return layers, counts_repeat


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import build_pass, check, corrupt

    deadline = time.monotonic() + DEADLINE_S
    jobs = build_pass(workload, seed)
    trace_dir = OUT / "spans" / workload
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)

    warm_up()
    start = time.monotonic()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(jobs, traced, trace_dir, deadline))
        if not passes[-1]["complete"]:
            break
        # passes repeat until --seconds is used up, and none starts that
        # would likely cross the deadline; a traced run needs one of each kind
        now = time.monotonic()
        next_wall = max(p["wall_s"] for p in passes[-2:])
        if (not trace or len(passes) >= 2) and (now - start >= seconds or now + 1.5 * next_wall > deadline):
            break

    # correctness: oracle checks, identical output across passes, self-check
    failures = []
    attempted = failed = 0
    for p in passes:
        for i, r in enumerate(p["jobs"]):
            attempted += 1
            reason = r["error"]
            if reason is None and r["sha256"] != passes[0]["jobs"][i]["sha256"]:
                reason = "stdout differs from the first pass"
            if reason is not None:
                failed += 1
                failures.append({"job": jobs[i].label(), "reason": reason})
    self_check = {"corrupted": 0, "rejected": 0}
    for i, r in enumerate(passes[0]["jobs"]):
        if r["error"] is None:
            self_check["corrupted"] += 1
            if check(jobs[i], 0, corrupt(jobs[i], r["stdout"])) is not None:
                self_check["rejected"] += 1

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "failures": failures,
        "self_check": self_check,
        "jobs": [
            {"argv": list(job.argv), "sha256": r["sha256"]}
            for job, r in zip(jobs, passes[0]["jobs"])
        ],
        "passes": [
            {
                "traced": p["traced"],
                "wall_s": p["wall_s"],
                "cpu_s": p["cpu_s"],
                "peak_rss_mib": p["peak_rss_mib"],
                "jobs": [{k: v for k, v in j.items() if k != "stdout"} for j in p["jobs"]],
            }
            for p in passes
        ],
        "end_to_end": end_to_end_metrics(untraced),
    }
    counts_repeat = True
    if trace:
        record["per_layer"], counts_repeat = per_layer_metrics(untraced, traced_passes)
        record["counts_repeat"] = counts_repeat
        record["spans_dir"] = str(trace_dir.relative_to(ROOT))
    record["correct"] = failed == 0 and self_check["rejected"] == self_check["corrupted"] and counts_repeat
    return record


def environment() -> dict:
    import mpmath.libmp

    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
        "load_avg_1m_start": os.getloadavg()[0],
    }


def _git_rev():
    """HEAD of the checkout, read from .git directly (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_summary(record: dict) -> None:
    print(
        f"== {record['workload']} seed={record['seed']} trace={int(record['trace'])}: "
        f"{len(record['passes'])} passes, {record['attempted']} jobs, {record['failed']} failed"
    )
    for name, q in record["end_to_end"].items():
        print(
            f"  {name:<14} {q['median']:12.6f} {END_TO_END_UNITS[name]:<6}"
            f" (q1 {q['q1']:.6f}, q3 {q['q3']:.6f}, n={q['n']})"
        )
    print(f"  {'error_rate':<14} {record['error_rate']:12.6f} {'ratio':<6} ({record['failed']}/{record['attempted']})")
    sc = record["self_check"]
    print(f"  self-check: {sc['rejected']}/{sc['corrupted']} corrupted outputs rejected")
    for f in record["failures"][:10]:
        print(f"  FAILED {f['job']}: {f['reason']}")
    if record["trace"]:
        for name, value in record["per_layer"].items():
            print(f"  {name:<42} {value:14.6f} {PER_LAYER_UNITS[name]}")
        print(f"  counts repeat across traced passes: {record['counts_repeat']}")


def result_line(records: list[dict], trace: bool) -> dict:
    metrics = {}
    for rec in records:
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        if trace:
            for name, value in rec["per_layer"].items():
                metrics[prefix + name] = {"value": value, "unit": PER_LAYER_UNITS[name]}
        else:
            for name, q in rec["end_to_end"].items():
                metrics[prefix + name] = {"value": q["median"], "unit": END_TO_END_UNITS[name]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(rec)
        records.append(rec)
    env["load_avg_1m_end"] = os.getloadavg()[0]

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"schema": "qjfrac/bench/1", "environment": env, "runs": records}, indent=1))
    print(f"record: {path.relative_to(ROOT)}")
    result = result_line(records, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "qjfrac" / "cli.py").is_file():
        print(f"error: no qjfrac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
