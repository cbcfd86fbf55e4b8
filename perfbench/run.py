"""acspectra benchmark: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload report_suite --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root; the program is imported from src/.  One run
is a closed loop with one client: operations of the workload run back to
back, in whole rotations (see workloads.py).  A run does a fixed amount of
work: as many rotations (at least two) as fill --seconds at the pace the
seed commit keeps on a 2-core 2.1 GHz Xeon (rotation_s of each workload).
So the parent and a change always run the same operations, and a run
lasts about --seconds.  Every operation's output is checked against an
independent oracle outside the timed region; an operation fails when it
raises or misses its oracle.

--trace 0 prints the end-to-end metrics: setup_s (median of five fresh
processes, each from process start through imports, input generation and
one warm-up operation), ops_per_s, op_s.p50, op_s.tail and peak_rss_mb;
the summary lines also give failed_ops_ratio and, for the grid workloads,
points_per_s.  --trace 1 does half the rotations and runs every operation
twice, once traced and once not, alternating which goes first; it prints
the per-layer metrics from the traced runs (see tracing.py) together with
trace.overhead_ratio.  --workload all runs each workload in a fresh
process of its own.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (with --workload all: workloads, holding
each workload's metrics): correct is false when some output misses
its oracle, and failed also counts operations that raised.  Details of
each run, and the spans of a traced run, are written under
perfbench/results/.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _cur = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_cur), NPROC) if _cur.isdigit() and int(_cur) > 0 else NPROC)

import argparse
import gzip
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
MIN_ROTATIONS = 2          # the verdict counts and digest cover these
SETUP_PROBES = 5
HARD_STOP_S = 140.0        # start no rotation past this, so a run ends within 180 s
TAIL_BEYOND = 10           # samples required beyond the tail percentile
# workloads whose operations sweep a boundary grid; they alone print
# points_per_s (grid points / busy time).  A run does fixed work, so it is
# ops_per_s times a constant and is printed, not a metric of BENCHMARK.json.
GRID_WORKLOADS = ("report_suite", "dense_sweep")

perf = time.perf_counter


def import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import acspectra  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import acspectra from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)
    global workloads, tracing
    import tracing
    import workloads


def environment() -> dict:
    import importlib.metadata as md
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": NPROC,
           "blas_threads_cap": {v: os.environ[v] for v in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        env["blas"] = None
    try:
        env["pytest_benchmark"] = md.version("pytest-benchmark")
    except md.PackageNotFoundError:
        env["pytest_benchmark"] = None
    return env


# ---------------------------------------------------------------------------
# one operation

class Record:
    __slots__ = ("rotation", "kind", "points", "latency", "problem", "status",
                 "digest", "written", "traced", "raised")

    def __init__(self, rotation, op, latency, result, error, traced):
        self.rotation, self.kind, self.points = rotation, op.kind, op.points
        self.latency, self.traced, self.raised = latency, traced, error is not None
        self.status, self.digest, self.written = "error", b"", 0
        if error is None:
            try:
                out = op.check(result)
                self.problem, self.status, self.digest = out.problem, out.status, out.digest
                self.written = out.written
            except Exception:   # a check that cannot read the output fails the op
                self.problem = "check raised: " + traceback.format_exc(limit=3)
        else:
            self.problem = f"raised {type(error).__name__}: {error}"

    @property
    def failed(self) -> bool:
        return bool(self.problem)


def run_plain(op, rotation):
    t0 = perf()
    result = error = None
    try:
        result = op.run()
    except Exception as exc:
        error = exc
    return Record(rotation, op, perf() - t0, result, error, False)


def run_traced(op, rotation, tracer, stats):
    tracer.install()
    result = error = None
    first = len(tracer.spans)
    try:
        result, first = tracer.run_op(op.run)
    except Exception as exc:
        error = exc
    finally:
        tracer.uninstall()
    stats.add_op(tracer.spans, first)
    _, t0, t1, _, _ = tracer.spans[first]
    return Record(rotation, op, t1 - t0, result, error, True)


# ---------------------------------------------------------------------------
# a run

def workdir_for(name: str) -> str:
    return os.path.join(HERE, "_work", f"{os.getpid()}-{name}")


def setup_probe(name: str, seed: int):
    """Import (already done), input generation and one warm-up operation,
    then report the monotonic clock to the parent."""
    wd = workdir_for(name)
    try:
        op = workloads.WORKLOADS[name](seed, wd).rotation(0)[0]
        op.run()
        print(f"ready {time.monotonic()!r}", flush=True)
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def setup_seconds(name: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) < 2 or lines[-2] != "ready":
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(lines[-1]) - t0)
    return out


def rotations_for(wl, seconds: float, minimum: int) -> int:
    """Whole rotations that fill `seconds` at the seed commit's pace: a run
    does a fixed amount of work, the same on every commit, so a faster
    program finishes sooner instead of running other operations."""
    return max(minimum, round(seconds / wl.rotation_s))


def tail(latencies):
    """(value, percentile): the highest sample with at least TAIL_BEYOND
    samples beyond it, and the percentile it stands at; the median when
    there are fewer than 2 * TAIL_BEYOND samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wd = workdir_for(name)
    try:
        return _measure(name, seed, seconds, trace, wd)
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def _measure(name, seed, seconds, trace, wd):
    setup = [] if trace else setup_seconds(name, seed)
    wl = workloads.WORKLOADS[name](seed, wd)
    rotation0 = wl.rotation(0)
    rotation0[0].run()                                   # warm-up
    tracer, stats = tracing.Tracer(), tracing.LayerStats()
    records = []
    t_start = perf()
    k = 0
    # a traced run executes every operation twice, so it does half the rotations
    if trace:
        rotations = rotations_for(wl, seconds / 2, 1)
    else:
        rotations = rotations_for(wl, seconds, MIN_ROTATIONS)
    while k < rotations and perf() - t_start < HARD_STOP_S:
        for op in rotation0 if k == 0 else wl.rotation(k):
            if not trace:
                records.append(run_plain(op, k))
            elif (len(records) // 2) % 2 == 0:
                records += [run_plain(op, k), run_traced(op, k, tracer, stats)]
            else:
                records += [run_traced(op, k, tracer, stats), run_plain(op, k)]
        k += 1
    wall = perf() - t_start

    prefix = [r for r in records if r.rotation < MIN_ROTATIONS and not r.traced]
    digest = hashlib.sha256(b"".join(hashlib.sha256(r.digest).digest() for r in prefix))
    failed = sum(r.failed for r in records)
    summary = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rotations": k, "wall_s": wall, "attempted": len(records), "failed": failed,
        "wrong_outputs": sum(r.failed and not r.raised for r in records),
        "failed_ops_ratio": failed / len(records),
        "prefix_statuses": dict(sorted(Counter(r.status for r in prefix).items())),
        "prefix_digest": digest.hexdigest()[:16],
        "statuses": dict(sorted(Counter(r.status for r in records if not r.traced).items())),
        "problems": [f"{r.kind}: {r.problem}" for r in records if r.failed][:20],
    }
    if trace:
        plain = sum(r.latency for r in records if not r.traced)
        traced = sum(r.latency for r in records if r.traced)
        written = sum(r.written for r in records if r.traced)
        metrics = tracing.layer_metrics(stats, tracer, traced, plain, written)
        summary["absent_hooks"] = tracer.absent
        summary["spans"] = len(tracer.spans)
    else:
        lat = [r.latency for r in records]
        busy = math.fsum(lat)
        tail_value, tail_pct = tail(lat)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(lat) / busy, "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(lat), "unit": "s"},
            "op_s.tail": {"value": tail_value, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        if name in GRID_WORKLOADS:
            summary["points_per_s"] = sum(r.points for r in records) / busy
        summary.update({"setup_runs_s": setup, "op_samples": len(lat),
                        "ops": [[r.kind, r.points, r.latency, r.status] for r in records],
                        "tail_percentile": tail_pct,
                        "per_kind_median_s": {
                            kind: statistics.median(r.latency for r in records if r.kind == kind)
                            for kind in sorted({r.kind for r in records})}})
    summary["metrics"] = metrics
    summary["env"] = environment()
    write_results(summary, tracer.spans if trace else None)
    return summary


def write_results(summary: dict, spans):
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{summary['workload']}-seed{summary['seed']}"
                                 f"-trace{summary['trace']}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, default=str)
    if spans is not None:
        with gzip.open(stem + "-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump([[s[0], s[1], s[2], s[3], s[4] if isinstance(s[4], int) else None]
                       for s in spans], fh)


def print_summary(s: dict):
    print(f"# {s['workload']} seed={s['seed']} trace={s['trace']}: {s['attempted']} ops in "
          f"{s['rotations']} rotations, {s['wall_s']:.2f} s, failed_ops_ratio="
          f"{s['failed_ops_ratio']:.4g} ({s['failed']} of {s['attempted']})")
    print(f"#   verdicts of the first {min(s['rotations'], MIN_ROTATIONS)} rotations "
          f"{s['prefix_statuses']} "
          f"digest {s['prefix_digest']}; all verdicts {s['statuses']}")
    if "tail_percentile" in s:
        print(f"#   op_s.tail is p{s['tail_percentile']:.1f} of {s['op_samples']} samples; "
              f"setup runs {[round(x, 3) for x in s['setup_runs_s']]}")
    if s.get("absent_hooks"):
        print(f"#   absent hooks: {', '.join(s['absent_hooks'])}")
    for p in s["problems"]:
        print(f"#   FAILED {p}")
    for k, m in s["metrics"].items():
        print(f"{s['workload']} {k} {m['value']:.6g} {m['unit']}")
    if "points_per_s" in s:
        print(f"{s['workload']} points_per_s {s['points_per_s']:.6g} 1/s")
    print(f"{s['workload']} failed_ops_ratio {s['failed_ops_ratio']:.6g} ratio")


# ---------------------------------------------------------------------------
# self-test

def self_test() -> int:
    """Each workload for one operation, plain and traced; and the band check
    must flag a planted spectrum shifted by three grid steps."""
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        wd = workdir_for(name)
        try:
            op = cls(0, wd).rotation(0)[0]
            plain = run_plain(op, 0)
            tracer, stats = tracing.Tracer(), tracing.LayerStats()
            traced = run_traced(op, 0, tracer, stats)
            for r in (plain, traced):
                if r.failed:
                    problems.append(f"{name} {r.kind}: {r.problem}")
            if len(tracer.spans) < 2:
                problems.append(f"{name}: the traced operation recorded no layer span")
            print(f"# self-test {name}: {op.kind} {plain.latency:.3f} s plain, "
                  f"{traced.latency:.3f} s traced, {len(tracer.spans)} spans, "
                  f"{tracer.bindings} bindings wrapped, absent {tracer.absent}")
        finally:
            shutil.rmtree(wd, ignore_errors=True)

    wd = workdir_for("planted")
    try:
        wl = workloads.ReportSuite(0, wd)
        name, descriptor = workloads.CONFTEST_OPERATORS[1]
        code = wl.rotation(0)[1].run()
        out = os.path.join(wd, "out")
        report = open(os.path.join(out, f"{name}_report.json"), "rb").read()
        csv = open(os.path.join(out, f"{name}.csv"), "rb").read()
        good = workloads.check_report(descriptor, code, report, csv)
        rep = json.loads(report)
        step = (rep["grid"]["stop"] - rep["grid"]["start"]) / (rep["grid"]["points"] - 1)
        rep["ac_spectrum"]["intervals"] = [[lo + 3 * step, hi + 3 * step, f]
                                           for lo, hi, f in rep["ac_spectrum"]["intervals"]]
        bad = workloads.check_report(descriptor, code, json.dumps(rep).encode(), csv)
        if good.problem:
            problems.append(f"planted: the true spectrum was flagged: {good.problem}")
        if not bad.problem:
            problems.append("planted: a spectrum shifted by 3 grid steps passed the check")
        print(f"# self-test planted shift: true spectrum {good.problem or 'passes'}; "
              f"shifted spectrum {bad.problem or 'passes'}")
    finally:
        shutil.rmtree(wd, ignore_errors=True)

    for p in problems:
        print(f"# SELF-TEST FAILED {p}")
    print(json.dumps({"self_test": "FAILED" if problems else "PASS", "problems": problems}))
    return 1 if problems else 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of report_suite, dense_sweep, set_algebra, "
                                      "oracles, or all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--self-test", action="store_true")
    ns = p.parse_args(argv)
    import_program()
    if ns.self_test:
        return self_test()
    names = list(workloads.WORKLOADS) if ns.workload == "all" else [ns.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        p.error(f"unknown workload {ns.workload!r}")
    if ns.setup_probe:
        setup_probe(names[0], ns.seed)
        return 0

    if ns.workload == "all":
        return run_all(names, ns.seed, ns.seconds, ns.trace)
    print("# env " + json.dumps(environment(), sort_keys=True))
    s = measure(names[0], ns.seed, ns.seconds, bool(ns.trace))
    print_summary(s)
    # an operation that raised produced no output: it counts as failed but
    # not as a wrong output; correct means every output met its oracle
    print(json.dumps({"correct": s["wrong_outputs"] == 0, "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": s["metrics"]}))
    return 0


def run_all(names, seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process of its own, one after the other,
    so that peak_rss_mb and the caches of one workload never carry over
    into the next.  The last line holds each workload's metrics under the
    names of BENCHMARK.json."""
    results = {}
    for name in names:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr[-2000:], file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": {n: r["metrics"] for n, r in results.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
