"""Verdict census of the benchmark's report_suite operators.

    python scripts/verdict_census.py            # print the table
    python scripts/verdict_census.py --check    # compare with verdict_census.txt
    python scripts/verdict_census.py --keep DIR # also keep every report and CSV

Runs `spec run` on every report_suite operator of seeds 0 and 9, rotations
0-20 (rotation 0, the six fixture operators, does not depend on the seed
and is listed once), with the operators drawn by perfbench's generator.
Prints one line per report: seed, rotation, name, status, inclusion status,
the benchmark's band check ("ok" or its problem) and the failures.  With
--check it exits 1 and prints a diff when the table differs from the
checked-in scripts/verdict_census.txt, so any change of a verdict shows as
a diff of that file; regenerate it with
`python scripts/verdict_census.py > scripts/verdict_census.txt`.

With --keep DIR it also keeps the 126 report JSONs and CSVs, as
DIR/seed<seed>/<name>_report.json and <name>.csv, so that the outputs of
two checkouts can be compared byte for byte (`diff -r A B`) or by
`scripts/compare_reports.py`.
"""

import argparse
import difflib
import glob
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402

SEEDS = (0, 9)
ROTATIONS = range(21)
TABLE = os.path.join(ROOT, "scripts", "verdict_census.txt")


def census(keep: str = None) -> str:
    """The table; with keep, a directory that receives every report and CSV."""
    lines = ["# seed rotation name status inclusion check failures"]
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out")
        for seed in SEEDS:
            for k in ROTATIONS:
                if k == 0 and seed != SEEDS[0]:
                    continue
                for op in workloads.ReportSuite(seed, workdir).rotation(k):
                    code = op.run()
                    path, = glob.glob(os.path.join(out, "*_report.json"))
                    with open(path, encoding="utf-8") as fh:
                        rep = json.load(fh)
                    if keep:
                        dest = os.path.join(keep, f"seed{seed}")
                        os.makedirs(dest, exist_ok=True)
                        for kept in (path, path[:-len("_report.json")] + ".csv"):
                            shutil.copy(kept, dest)
                    problem = op.check(code).problem     # reads and removes the outputs
                    lines.append(" ".join([
                        str(seed), str(k), rep["name"], rep["status"],
                        rep["theorem_inclusion"]["status"], json.dumps(problem or "ok"),
                        json.dumps(rep["failures"])]))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help=f"exit 1 unless the table equals {os.path.relpath(TABLE, ROOT)}")
    p.add_argument("--keep", metavar="DIR",
                   help="keep every report JSON and CSV under DIR/seed<seed>/")
    ns = p.parse_args(argv)
    table = census(ns.keep)
    if not ns.check:
        sys.stdout.write(table)
        return 0
    with open(TABLE, encoding="utf-8") as fh:
        want = fh.read()
    if table == want:
        print(f"verdict census matches {os.path.relpath(TABLE, ROOT)} "
              f"({table.count(chr(10)) - 1} reports)")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(True), table.splitlines(True), "verdict_census.txt", "now"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
