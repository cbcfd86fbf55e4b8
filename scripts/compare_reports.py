"""Compare two directories of `spec run` output, report JSON and CSV files.

    python scripts/compare_reports.py DIR_A DIR_B

Subdirectories are compared by name, file by file, so two trees of
`scripts/verdict_census.py --keep` (DIR/seed0, DIR/seed9) compare as a
whole.  Exits 1 when the directories differ in anything a report decides:
the set of files, a status, a failure message, a verdict, a set (any JSON
object with a "carrier"), the defect points, any field that is not a
float, or a CSV verdict column.  Otherwise exits 0 and prints, for each other float
field (report numbers and CSV number columns, list positions merged), the
largest relative change |a - b| / max(|a|, |b|) and the file it was seen in.
"""

import argparse
import csv
import io
import json
import os
import sys

EXACT_KEYS = ("defect_points",)     # float lists that must not move at all


def _walk(a, b, path, floats, diffs):
    """Record float fields' relative changes in floats and every other
    difference's path in diffs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if "carrier" in a or a.keys() != b.keys():
            if a != b:
                diffs.append(path)
            return
        for k in sorted(a):
            _walk(a[k], b[k], f"{path}.{k}" if path else k, floats, diffs)
    elif (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
          and path.rsplit(".", 1)[-1] not in EXACT_KEYS):
        for x, y in zip(a, b):
            _walk(x, y, path + "[]", floats, diffs)
    elif isinstance(a, float) and isinstance(b, float):
        rel = 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))
        floats[path] = max(floats.get(path, 0.0), rel)
    elif a != b:
        diffs.append(path)


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _compare_csv(text_a, text_b, floats, diffs):
    (head_a, rows_a), (head_b, rows_b) = _csv_rows(text_a), _csv_rows(text_b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        diffs.append("header or row count")
        return
    for j, name in enumerate(head_a):
        col_a, col_b = [r[j] for r in rows_a], [r[j] for r in rows_b]
        if name == "verdict":
            if col_a != col_b:
                diffs.append("csv.verdict")
            continue
        for x, y in zip(col_a, col_b):
            if (x == "") != (y == ""):
                diffs.append(f"csv.{name} (empty cell)")
                break
            if x:
                _walk(float(x), float(y), f"csv.{name}", floats, diffs)


def files_under(root: str) -> list:
    """Paths of the files below root, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(top, name), root)
                  for top, _, names in os.walk(root) for name in names)


def compare(dir_a: str, dir_b: str):
    """(identical files, {field: (largest relative change, file)},
    [difference lines])."""
    names_a, names_b = files_under(dir_a), files_under(dir_b)
    lines = [f"only in {d}: {n}" for d, names, other in
             ((dir_a, names_a, names_b), (dir_b, names_b, names_a))
             for n in names if n not in other]
    same, worst = 0, {}
    for name in sorted(set(names_a) & set(names_b)):
        with open(os.path.join(dir_a, name), encoding="utf-8") as fa, \
                open(os.path.join(dir_b, name), encoding="utf-8") as fb:
            text_a, text_b = fa.read(), fb.read()
        if text_a == text_b:
            same += 1
            continue
        floats, diffs = {}, []
        if name.endswith(".json"):
            _walk(json.loads(text_a), json.loads(text_b), "", floats, diffs)
        elif name.endswith(".csv"):
            _compare_csv(text_a, text_b, floats, diffs)
        else:
            diffs.append("bytes")
        lines += [f"{name}: {path} differs" for path in diffs]
        for field, rel in floats.items():
            if rel > worst.get(field, (-1.0, ""))[0]:
                worst[field] = (rel, name)
    return same, worst, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dir_a")
    ap.add_argument("dir_b")
    ns = ap.parse_args(argv)
    same, worst, lines = compare(ns.dir_a, ns.dir_b)
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} differences in status, verdicts, sets or files")
        return 1
    total = len(files_under(ns.dir_a))
    print(f"same verdicts and sets; {same} of {total} files byte-identical")
    for field, (rel, name) in sorted(worst.items()):
        print(f"{field:<40} {rel:.3g}  ({name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
