"""scripts/compare_reports.py on two trees of `spec run` output: identical
trees and moved floats pass, with the floats' relative changes printed;
any change of a status, a set, the defect points, the CSV verdict column,
a CSV cell's presence or the set of files fails."""

import importlib.util
import json
import os
import shutil

import pytest

from acspectra.harness_cli import run_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPORT, CSV = os.path.join("seed0", "op_report.json"), os.path.join("seed0", "op.csv")


def _script():
    spec = importlib.util.spec_from_file_location(
        "compare_reports", os.path.join(ROOT, "scripts", "compare_reports.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A `spec run` tree of one small period-2 Jacobi report in seed0/,
    as verdict_census.py --keep lays it out."""
    root = tmp_path_factory.mktemp("reports")
    cfg = root / "c.json"
    cfg.write_text(json.dumps({"operators": [{
        "name": "op", "descriptor": {"type": "jacobi", "period": 2, "a": [1.0, 1.0],
                                     "b": [1.0, -1.0]},
        "grid": {"start": -3.0, "stop": 3.0, "points": 401}}]}), encoding="utf-8")
    assert run_config(str(cfg), str(root / "tree" / "seed0")) == 0
    return root / "tree"


@pytest.fixture
def trees(tmp_path, tree):
    """(a, b): two copies of the tree."""
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(tree, a)
    shutil.copytree(tree, b)
    return a, b


def _edit_report(root, change):
    path = root / REPORT
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _edit_csv(root, change):
    """change(rows) edits the CSV rows, header first, as lists of cells."""
    path = root / CSV
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    change(rows)
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def _run(a, b, capsys):
    code = _script().main([str(a), str(b)])
    return code, capsys.readouterr().out


def test_identical_trees_pass(trees, capsys):
    code, out = _run(*trees, capsys)
    assert code == 0
    assert "same verdicts and sets; 2 of 2 files byte-identical" in out


def test_moved_report_float_passes_with_its_change(trees, capsys):
    a, b = trees

    def move(doc):
        entry = doc["identity_residuals"]["green_inverse_identity"]
        entry["value"] = entry["value"] * 1.5 if entry["value"] else 1e-17
    _edit_report(b, move)
    code, out = _run(a, b, capsys)
    assert code == 0
    assert "0 of 2 files" not in out and "1 of 2 files byte-identical" in out
    line = next(s for s in out.splitlines()
                if s.startswith("identity_residuals.green_inverse_identity.value"))
    assert REPORT in line and float(line.split()[1]) > 0.0


def _status(doc):
    doc["status"] = "FAILED"


def _set(doc):
    doc["ac_spectrum"]["intervals"][0][0] += 1e-9


def _defect_points(doc):
    doc["reflectionless"]["defect_points"]["intervals"] = [[0.5, 1.0000000001, "cc"]]


@pytest.mark.parametrize("change", [_status, _set, _defect_points],
                         ids=["status", "set", "defect_points"])
def test_report_change_fails(trees, capsys, change):
    a, b = trees
    if change is _defect_points:        # the same pieces in both, one end moved
        _edit_report(a, lambda doc: doc["reflectionless"]["defect_points"].update(
            intervals=[[0.5, 1.0, "cc"]]))
    _edit_report(b, change)
    code, out = _run(a, b, capsys)
    assert code == 1 and "differs" in out


def _verdict(rows):
    col = rows[0].index("verdict")
    rows[1][col] = "interior" if rows[1][col] != "interior" else "exterior"


def _emptied(rows):
    col = rows[0].index("error_estimate")
    rows[1][col] = ""


@pytest.mark.parametrize("change", [_verdict, _emptied], ids=["verdict", "emptied_cell"])
def test_csv_change_fails(trees, capsys, change):
    a, b = trees
    _edit_csv(b, change)
    code, out = _run(a, b, capsys)
    assert code == 1 and "differs" in out


def test_missing_file_fails(trees, capsys):
    a, b = trees
    os.remove(b / CSV)
    code, out = _run(a, b, capsys)
    assert code == 1 and f"only in {a}: {CSV}" in out
