"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/spread.py --workloads report_suite oracles --seeds 1-10 --out set_a.json

For each workload, runs perfbench/run.py once per seed (one after the
other, never in parallel) and prints, for each metric, the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median next to the bound from BENCHMARK.json.  With --out the
summary, including every run's value, verdict counts and digest, is written
as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return out


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details_path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace0.json")
    with open(details_path, encoding="utf-8") as fh:
        details = json.load(fh)
    result["prefix_statuses"] = details["prefix_statuses"]
    result["prefix_digest"] = details["prefix_digest"]
    result["tail_percentile"] = details.get("tail_percentile")
    return result


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--out")
    ns = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    for workload in ns.workloads:
        runs = {seed: run_once(workload, seed, seconds) for seed in ns.seeds}
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs.values()])
                   for name in next(iter(runs.values()))["metrics"]}
        summary[workload] = {
            "metrics": metrics,
            "failed": sum(r["failed"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "runs": {seed: {"prefix_statuses": r["prefix_statuses"],
                            "prefix_digest": r["prefix_digest"],
                            "tail_percentile": r["tail_percentile"]} for seed, r in runs.items()},
        }
        print(f"{workload}: seeds {ns.seeds}, {summary[workload]['failed']} of "
              f"{summary[workload]['attempted']} ops failed")
        for name, s in metrics.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  <-- wide"
            print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}" + (f"  bound {bound}" if bound else "") + flag)
        sys.stdout.flush()
    if ns.out:
        with open(ns.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "seeds": ns.seeds,
                       "workloads": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
