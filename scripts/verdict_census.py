"""Verdict census of the benchmark's report_suite operators.

    python scripts/verdict_census.py            # print the table
    python scripts/verdict_census.py --check    # compare with verdict_census.txt
    python scripts/verdict_census.py --keep DIR # also keep every report and CSV

Runs `spec run` on every report_suite operator of seeds 0 and 9, rotations
0-20 (rotation 0, the six fixture operators, does not depend on the seed
and is listed once), with the operators drawn by perfbench's generator,
and then on the fixed entries of tests/data/given_e.json, each an operator
with a given E on its family's default grid.
Prints one line per report: seed, rotation, name, status, inclusion status,
the benchmark's band check ("ok" or its problem) and the failures; a given
E row reads "given -" for seed and rotation and ends in the entry's note.
With --check it exits 1 and prints a diff when the table differs from the
checked-in scripts/verdict_census.txt, so any change of a verdict shows as
a diff of that file; regenerate it with
`python scripts/verdict_census.py > scripts/verdict_census.txt`.

With --keep DIR it also keeps the 129 report JSONs and CSVs, as
DIR/seed<seed>/<name>_report.json and <name>.csv (DIR/given/ for the given
E entries), so that the outputs of two checkouts can be compared byte for
byte (`diff -r A B`) or by `scripts/compare_reports.py`.
"""

import argparse
import contextlib
import difflib
import glob
import io
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from acspectra import harness_cli  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 9)
ROTATIONS = range(21)
TABLE = os.path.join(ROOT, "scripts", "verdict_census.txt")
GIVEN_E = os.path.join(ROOT, "tests", "data", "given_e.json")


def _row(op, out: str, keep: str, head: list, tail: list = ()) -> str:
    """Run op, one report and CSV written into out; copy both into keep
    (unless None); check them, which removes them; return the table row:
    head, name, status, inclusion status, check, failures, then tail."""
    code = op.run()
    path, = glob.glob(os.path.join(out, "*_report.json"))
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    if keep:
        os.makedirs(keep, exist_ok=True)
        for kept in (path, path[:-len("_report.json")] + ".csv"):
            shutil.copy(kept, keep)
    problem = op.check(code).problem
    return " ".join([*head, rep["name"], rep["status"], rep["theorem_inclusion"]["status"],
                     json.dumps(problem or "ok"), json.dumps(rep["failures"]), *tail])


def given_e_op(entry: dict, workdir: str):
    """A perfbench Op of `spec run` on one GIVEN_E entry (its descriptor and
    E, the family default grid), checked as report_suite checks a report."""
    name, descriptor = entry["name"], entry["descriptor"]
    cfg_path, out = os.path.join(workdir, f"{name}.config.json"), os.path.join(workdir, "out")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"out_dir": out, "seed": 0, "operators": [
            {"name": name, "descriptor": descriptor, "E": entry["E"]}]}, fh)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return harness_cli.run_config(cfg_path)

    def check(code):
        return workloads.check_report(descriptor, code, *(
            workloads._read_and_remove(os.path.join(out, name + end))
            for end in ("_report.json", ".csv")))

    return workloads.Op(f"report.{descriptor['type']}", 0, run, check)


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
                    lines.append(_row(op, out, keep and os.path.join(keep, f"seed{seed}"),
                                      [str(seed), str(k)]))
        lines.append("# given E (tests/data/given_e.json): "
                     "given - name status inclusion check failures note")
        with open(GIVEN_E, encoding="utf-8") as fh:
            for entry in json.load(fh):
                lines.append(_row(given_e_op(entry, workdir), out,
                                  keep and os.path.join(keep, "given"),
                                  ["given", "-"], [json.dumps(entry["note"])]))
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
        reports = sum(not line.startswith("#") for line in table.splitlines())
        print(f"verdict census matches {os.path.relpath(TABLE, ROOT)} ({reports} reports)")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        want.splitlines(True), table.splitlines(True), "verdict_census.txt", "now"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
