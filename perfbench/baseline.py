"""Per-layer baseline rows for the operators and sizes of the ROADMAP table.

    python3 perfbench/baseline.py --spread set_a.json set_b.json --out perfbench/baseline.json

Each row times one call into one layer, in-process, after one warm-up
call, and reports the median and quartiles of REPEATS calls next to the
single-run figure the ROADMAP table gave.  --spread embeds the end-to-end
summaries of two sets of runs written by spread.py --out, and for each
metric the ratio of the second set's median to the first's, so one file
holds the rows and the evidence that two sets of runs agree.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

import run

REPEATS = 7
# (layer, label, size, ROADMAP single-run seconds)
ROWS = [
    ("report", "verify_inclusion period2_jacobi", 4001, 0.413),
    ("report", "verify_inclusion geronimus_cmv", 1024, 0.151),
    ("report", "verify_inclusion square_well", 2001, 0.460),
    ("sweep", "boundary_weyl_grid period2_jacobi", 4001, 0.102),
    ("sweep", "boundary_cmv_grid geronimus_cmv", 1024, 0.008),
    ("sweep", "boundary_schrodinger_grid square_well", 2001, 0.115),
    ("interval_sets", "canonicalize", 250, 0.033),
    ("interval_sets", "canonicalize", 500, 0.114),
    ("interval_sets", "canonicalize", 1000, 0.446),
    ("interval_sets", "canonicalize", 2000, 1.432),
]


def calls():
    """label, size -> zero-argument call into the program."""
    from acspectra import cmv, harness_cli, interval_sets, jacobi, schrodinger
    import workloads

    ops = dict(workloads.CONFTEST_OPERATORS)
    j = jacobi.JacobiCoefficients.from_descriptor(ops["period2_jacobi"])
    v = cmv.VerblunskyCoefficients.from_descriptor(ops["geronimus_cmv"])
    s = schrodinger.PiecewisePotential.from_descriptor(ops["square_well"])
    out = {
        ("verify_inclusion period2_jacobi", 4001):
            lambda: harness_cli.verify_inclusion(ops["period2_jacobi"]),
        ("verify_inclusion geronimus_cmv", 1024):
            lambda: harness_cli.verify_inclusion(ops["geronimus_cmv"], None, {"angles": 1024}),
        ("verify_inclusion square_well", 2001):
            lambda: harness_cli.verify_inclusion(ops["square_well"]),
        ("boundary_weyl_grid period2_jacobi", 4001):
            lambda: jacobi.boundary_weyl_grid(j, jacobi.default_grid(j), 0),
        ("boundary_cmv_grid geronimus_cmv", 1024):
            lambda: cmv.boundary_cmv_grid(v, cmv.default_angles(1024), 0),
        ("boundary_schrodinger_grid square_well", 2001):
            lambda: schrodinger.boundary_schrodinger_grid(s, schrodinger.default_grid(s), 0.0),
    }
    for n in (250, 500, 1000, 2000):
        raw, pts = workloads.raw_intervals(random.Random(f"baseline:{n}"), n, workloads.SET_SPAN)
        out[("canonicalize", n)] = lambda raw=raw, pts=pts: interval_sets.canonicalize(raw, pts)
    return out


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--spread", nargs=2, metavar=("SET_A", "SET_B"),
                   help="two summary JSONs written by spread.py --out")
    p.add_argument("--out")
    ns = p.parse_args()
    run.import_program()
    table = calls()
    rows = []
    for layer, label, size, roadmap in ROWS:
        fn = table[(label, size)]
        fn()
        samples = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        rows.append({"layer": layer, "operation": label, "size": size,
                     "median_s": statistics.median(samples), "q1_s": q1, "q3_s": q3,
                     "repeats": REPEATS, "roadmap_single_run_s": roadmap})
        print(f"{layer:14s} {label:40s} {size:5d}  median {statistics.median(samples):.4f} s  "
              f"q1 {q1:.4f}  q3 {q3:.4f}  (ROADMAP {roadmap:.3f} s)", flush=True)
    doc = {"commit": commit(), "env": run.environment(), "rows": rows}
    if ns.spread:
        sets = []
        for path in ns.spread:
            with open(path, encoding="utf-8") as fh:
                sets.append(json.load(fh))
        doc["end_to_end"] = {
            "seconds": sets[0]["seconds"], "seeds": sets[0]["seeds"],
            "workloads": {w: {name: {
                "set_a": {k: m[k] for k in ("median", "q1", "q3", "spread")},
                "set_b": {k: sets[1]["workloads"][w]["metrics"][name][k]
                          for k in ("median", "q1", "q3", "spread")},
                "median_b_over_a": sets[1]["workloads"][w]["metrics"][name]["median"]
                / m["median"]}
                for name, m in s["metrics"].items()}
                for w, s in sets[0]["workloads"].items()},
            "verdicts_and_digests_repeat": all(
                s["runs"] == sets[1]["workloads"][w]["runs"]
                for w, s in sets[0]["workloads"].items())}
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
