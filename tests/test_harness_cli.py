"""Report assembly, inclusion workflow, config runner, and the two CLIs."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import acspectra
from acspectra import boundary_analysis, cmv, harness_cli, jacobi
from acspectra.errors import SiteDisagreement
from acspectra.harness_cli import (MAX_GRID_POINTS, OPERATOR_TYPES, UnknownOperatorType,
                                   _csv_for, _resolve_grid, _whole, build_operator,
                                   bundled_config_path, closure_main, emit_sets_demo,
                                   format_set, run_config, spec_main, verify_inclusion)
from acspectra.interval_sets import (canonicalize, circle_set, full_circle, set_algebra,
                                     set_from_json, set_to_json)

FREE_JACOBI = {"type": "jacobi", "period": 1, "a": [1.0], "b": [0.0]}
FREE_CMV = {"type": "cmv", "period": 1, "alpha": [[0.0, 0.0]]}
FREE_SCHRODINGER = {"type": "schrodinger", "period": 1.0, "pieces": [[1.0, 0.0]]}

E_JACOBI = {"carrier": "line", "intervals": [[-2.0, 2.0, "cc"]], "points": []}
E_CIRCLE = set_to_json(full_circle())
E_SCHRODINGER = {"carrier": "line", "intervals": [[0.0, 24.0, "cc"]], "points": []}

SMALL_GRIDS = {
    "jacobi": {"start": -3.0, "stop": 3.0, "points": 1001},
    "cmv": {"angles": 512},
    "schrodinger": {"start": -1.0, "stop": 25.0, "points": 801},
}


def small_config(tmp_path, seed=0):
    cfg = {
        "out_dir": str(tmp_path / "reports"),
        "seed": seed,
        "operators": [
            {"name": "free_jacobi", "descriptor": FREE_JACOBI, "E": E_JACOBI,
             "grid": SMALL_GRIDS["jacobi"]},
            {"name": "free_cmv", "descriptor": FREE_CMV, "E": E_CIRCLE,
             "grid": SMALL_GRIDS["cmv"]},
            {"name": "free_schrodinger", "descriptor": FREE_SCHRODINGER,
             "E": E_SCHRODINGER, "grid": SMALL_GRIDS["schrodinger"]},
        ],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestBuildOperator:
    def test_dispatch(self):
        for d in (FREE_JACOBI, FREE_CMV, FREE_SCHRODINGER):
            op = build_operator(d)
            assert op.to_descriptor()["type"] == d["type"]

    def test_unknown_type(self):
        with pytest.raises(UnknownOperatorType) as exc:
            build_operator({"type": "dirac"})
        for t in OPERATOR_TYPES:
            assert t in str(exc.value)


class TestVerifyInclusion:
    @pytest.mark.parametrize("descriptor,E,kind", [
        (FREE_JACOBI, E_JACOBI, "jacobi"),
        (FREE_CMV, E_CIRCLE, "cmv"),
        (FREE_SCHRODINGER, E_SCHRODINGER, "schrodinger"),
    ])
    def test_free_operators_pass(self, descriptor, E, kind):
        rep = verify_inclusion(descriptor, E, SMALL_GRIDS[kind], name=f"free_{kind}")
        assert rep.status == "PASS"
        assert rep.failures == []
        assert rep.theorem_inclusion["status"] == "PASS"
        assert rep.theorem_inclusion["contained_in_ac"]
        assert rep.theorem_inclusion["m2_defect_fraction"] <= 0.01
        assert rep.reflectionless["verdict"]
        for entry in rep.identity_residuals.values():
            assert entry["passed"]

    @pytest.mark.parametrize("descriptor,grid,threshold", [
        (FREE_JACOBI, SMALL_GRIDS["jacobi"], "green_inverse_identity"),
        (FREE_CMV, SMALL_GRIDS["cmv"], "m11_formula_vs_oracle")], ids=["jacobi", "cmv"])
    def test_report_reads_the_tolerance_table(self, monkeypatch, descriptor, grid, threshold):
        """Every report echoes and applies the one TOLERANCES table: a zero
        identity threshold there fails the report on that identity."""
        rep = verify_inclusion(descriptor, None, grid)
        echo = ("reflectionless_tol", "identity_draws") + (
            ("oracle_window",) if descriptor is FREE_CMV else ())
        assert rep.tolerances == dict({k: harness_cli.TOLERANCES[k] for k in echo},
                                      slack_steps=1)
        assert rep.identity_residuals[threshold]["threshold"] == harness_cli.TOLERANCES[threshold]
        monkeypatch.setitem(harness_cli.TOLERANCES, threshold, 0.0)
        rep = verify_inclusion(descriptor, None, grid)
        assert rep.status == "FAILED" and rep.failures[0].startswith(f"identity {threshold}: ")

    def test_off_spectrum_set_skips_inclusion(self):
        rep = verify_inclusion(
            FREE_JACOBI,
            {"carrier": "line", "intervals": [[3.0, 4.0, "cc"]], "points": []},
            {"start": -5.0, "stop": 5.0, "points": 1001})
        assert rep.theorem_inclusion["status"] == "SKIPPED"
        assert "reflectionless hypothesis fails" in rep.theorem_inclusion["reason"]
        assert rep.status == "PASS"   # no numeric violation, only inapplicability

    def test_default_E_is_computed_spectrum(self):
        rep = verify_inclusion(FREE_JACOBI, None, SMALL_GRIDS["jacobi"])
        E = set_from_json(rep.reflectionless["E"])
        assert E.contains(0.0) and not E.contains(2.5)

    def test_report_serializes_to_strict_json(self):
        rep = verify_inclusion(FREE_JACOBI, E_JACOBI, SMALL_GRIDS["jacobi"])
        doc = json.dumps(rep.to_json(), sort_keys=True, allow_nan=False)
        parsed = json.loads(doc)
        assert parsed["schema"] == "v2"
        assert parsed["family"] == "jacobi"


class TestFailureLines:
    def test_inclusion_overhang(self):
        """E past the band edge of free Jacobi by 3.5e-3, on its default grid
        (step 1.5e-3): the reflectionless test passes on 99.89% of E, and
        the inclusion fails by the overhang."""
        E = {"carrier": "line", "intervals": [[-2.0, 2.0045, "cc"]], "points": []}
        rep = verify_inclusion(FREE_JACOBI, E)
        assert rep.reflectionless["fraction"] == pytest.approx(0.9989, abs=1e-4)
        assert rep.theorem_inclusion["status"] == "FAILED"
        assert rep.failures == ["inclusion: essential closure of E exceeds the ac spectrum "
                                "widened by one grid step (1.500e-03) by 3.500e-03 (> 1e-12)"]

    def test_multiplicity_two_misses_E(self, monkeypatch):
        empty = canonicalize([])
        monkeypatch.setattr(harness_cli, "multiplicity_sets", lambda J, grid: (empty, empty))
        rep = verify_inclusion(FREE_JACOBI, E_JACOBI, SMALL_GRIDS["jacobi"])
        assert rep.failures == ["multiplicity: M2 misses 100.00% of E (> 1%)"]

    @pytest.mark.parametrize("count, status", [(10, "PASS"), (11, "FAILED")])
    def test_undetermined_bound(self, monkeypatch, count, status):
        """The phase of site 1 undetermined at the first count of 1000 grid
        points, below the band: at 1% the report PASSes, past it it FAILs."""
        phase_grid = boundary_analysis.phase_grid

        def stub(J, lams, n0):
            vals, errs, ok = phase_grid(J, lams, n0)
            if n0 == 1:
                ok = ok.copy()
                ok[:count] = False
            return np.where(ok, vals, np.nan), errs, ok
        monkeypatch.setattr(boundary_analysis, "phase_grid", stub)
        rep = verify_inclusion(FREE_JACOBI, E_JACOBI, {"start": -3.0, "stop": 3.0, "points": 1000})
        assert rep.status == status
        assert rep.failures == ([] if status == "PASS" else
                                ["undetermined: 11 of 1000 grid points at reference 1 (> 1%)"])

    def test_short_period_schrodinger_fails_by_its_undetermined_points(self, tmp_path):
        """Free Schrodinger of period 1e-4 leaves 1924 of the 2001 points of
        its default grid undetermined at both reference points."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [{"name": "short", "descriptor": {
            "type": "schrodinger", "period": 1e-4, "pieces": [[1e-4, 0.0]]}}]}),
            encoding="utf-8")
        assert spec_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        rep = json.loads((tmp_path / "out" / "short_report.json").read_text(encoding="utf-8"))
        assert rep["failures"] == [
            f"undetermined: 1924 of 2001 grid points at reference {site} (> 1%)"
            for site in (0.0, 5e-05)]


class TestOneLoad:
    @pytest.mark.parametrize("family", OPERATOR_TYPES)
    def test_spec_family_report_is_the_spec_run_report(self, tmp_path, family):
        """`spec <family> --emit report` writes the bytes of `spec run` on
        the one-entry config of the same name, seed 0 and grid."""
        desc = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "xi",
                            f"{family}.json")
        circle = harness_cli.family(OPERATOR_TYPES[family]).circle
        out = tmp_path / "single.json"
        assert spec_main([family, "--desc", desc, "--emit", "report", "--out", str(out)]
                         + (["--grid=0:6.283185307179586:512"] if circle else [])) == 0
        cfg = tmp_path / "c.json"
        with open(desc, encoding="utf-8") as fh:
            entry = {"name": family, "descriptor": json.load(fh),
                     "grid": {"angles": 512} if circle else None}
        cfg.write_text(json.dumps({"seed": 0, "operators": [entry]}), encoding="utf-8")
        assert spec_main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert out.read_bytes() == (tmp_path / "run" / f"{family}_report.json").read_bytes()

    def test_each_entry_is_loaded_once(self, tmp_path, monkeypatch):
        """spec run and `spec <family> --emit report` build each operator,
        resolve its grid and test its E once."""
        names = ("_load", "build_operator", "_resolve_grid", "_testable")
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _fn=getattr(harness_cli, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(harness_cli, name, counted)
        assert run_config(small_config(tmp_path), str(tmp_path / "run")) == 0
        assert calls == dict.fromkeys(names, 3)
        calls.update(dict.fromkeys(names, 0))
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_JACOBI), encoding="utf-8")
        assert spec_main(["jacobi", "--desc", str(desc), "--grid=-3:3:1001", "--emit", "report",
                          "--out", str(tmp_path / "report.json")]) == 0
        assert calls == dict.fromkeys(names, 1)


class TestRunConfig:
    def test_suite_passes_and_writes_artifacts(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run_config(cfg) == 0
        out = tmp_path / "reports"
        names = sorted(p.name for p in out.iterdir())
        assert names == ["free_cmv.csv", "free_cmv_report.json",
                         "free_jacobi.csv", "free_jacobi_report.json",
                         "free_schrodinger.csv", "free_schrodinger_report.json"]
        rep = json.loads((out / "free_cmv_report.json").read_text())
        assert rep["status"] == "PASS"
        csv_text = (out / "free_jacobi.csv").read_text()
        assert csv_text.startswith("lambda,xi,")
        assert "\r" not in csv_text

    def test_deterministic_bytes(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run_config(cfg, str(tmp_path / "r1")) == 0
        assert run_config(cfg, str(tmp_path / "r2")) == 0
        for name in os.listdir(tmp_path / "r1"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_malformed_json_exits_2_without_writes(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        out = tmp_path / "out"
        assert run_config(str(bad), str(out)) == 2
        assert not out.exists()

    def test_unknown_type_exits_3_without_writes(self, tmp_path, capsys):
        cfg = tmp_path / "unk.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI},
            {"name": "bad", "descriptor": {"type": "dirac"}}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert run_config(str(cfg), str(out)) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "jacobi" in err and "cmv" in err and "schrodinger" in err

    def test_missing_out_dir_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI}]}), encoding="utf-8")
        assert run_config(str(cfg)) == 2

    def test_empty_operators_list_exits_2_without_writes(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": []}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: config needs a nonempty 'operators' list of objects\n")

    def test_out_under_a_regular_file_exits_1(self, tmp_path, capsys):
        """An output directory that cannot be made is an IO error: one error
        line, exit 1."""
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]}]}),
            encoding="utf-8")
        assert spec_main(["run", "--config", str(cfg), "--out", str(blocker / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_report_file_exits_1_and_stops(self, tmp_path, capsys):
        """A directory in the place of a report file stops the run with exit
        1 before the entry's CSV or the next entry's files are written."""
        out = tmp_path / "out"
        (out / "ok_report.json").mkdir(parents=True)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "next", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]}]}),
            encoding="utf-8")
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["ok_report.json"]
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_bundled_config_exists(self):
        path = bundled_config_path()
        cfg = json.loads(open(path, encoding="utf-8").read())
        assert len(cfg["operators"]) == 3

    def test_bundled_periodic_suite_passes(self, tmp_path):
        """Period-2 Jacobi, alpha = 1/2 CMV at 1024 angles and the square
        well, each checked against its own computed ac spectrum, all PASS."""
        out = tmp_path / "periodic"
        assert run_config(bundled_config_path("periodic_suite.json"), str(out)) == 0
        reports = [json.loads(p.read_text(encoding="utf-8"))
                   for p in sorted(out.glob("*_report.json"))]
        assert [r["theorem_inclusion"]["status"] for r in reports] == ["PASS"] * 3


BAD_ENTRIES = {
    "negative_a": {"descriptor": {**FREE_JACOBI, "a": [-1.0]}},
    "missing_period": {"descriptor": {"type": "jacobi", "a": [1.0], "b": [0.0]}},
    "alpha_outside_disk": {"descriptor": {**FREE_CMV, "alpha": [[1.0, 0.0]]}},
    "cmv_grid_below_512": {"descriptor": FREE_CMV, "grid": {"angles": 256}},
    "generated_E": {"descriptor": FREE_JACOBI,
                    "E": {"family": "rational_fat", "truncation": 12}},
    "nan_a": {"descriptor": {**FREE_JACOBI, "a": [math.nan]}},
    "infinite_b": {"descriptor": {**FREE_JACOBI, "b": [math.inf]}},
    "nan_jacobi_patch": {"descriptor": {**FREE_JACOBI, "patch": {"1": [1.0, math.nan]}}},
    "fractional_period": {"descriptor": {**FREE_JACOBI, "period": 1.5}},
    "nan_alpha": {"descriptor": {**FREE_CMV, "alpha": [[math.nan, 0.0]]}},
    "infinite_cmv_patch": {"descriptor": {**FREE_CMV, "patch": {"1": [0.0, -math.inf]}}},
    "nan_piece_length": {"descriptor": {**FREE_SCHRODINGER, "pieces": [[math.nan, 0.0]]}},
    "infinite_piece_value": {"descriptor": {**FREE_SCHRODINGER, "pieces": [[1.0, math.inf]]}},
    "nan_schrodinger_patch": {"descriptor": {**FREE_SCHRODINGER, "patch": [[0.5, math.nan]]}},
    # periods whose second half keeps no span of at least 1e-15 (_pieces)
    "short_period": {"descriptor": {**FREE_SCHRODINGER, "period": 1e-300,
                                    "pieces": [[1e-300, 0.0]]}},
    "short_pieces": {"descriptor": {**FREE_SCHRODINGER, "period": 1e-14,
                                    "pieces": [[1e-16, 0.0]] * 100}},
    "jacobi_patch_list": {"descriptor": {**FREE_JACOBI, "patch": [[1.0, 0.0]]}},
    # finite, but the kernel or the identity oracle overflows
    "overflowing_a": {"descriptor": {**FREE_JACOBI, "a": [1.7e308]}},
    "large_a": {"descriptor": {**FREE_JACOBI, "a": [1e300]}},
    "subnormal_a": {"descriptor": {**FREE_JACOBI, "a": [5e-324]}},
    "large_period2": {"descriptor": {"type": "jacobi", "period": 2, "a": [2.0 ** 500] * 2,
                                     "b": [2.0 ** 500] * 2}},
    "subnormal_period2": {"descriptor": {"type": "jacobi", "period": 2, "a": [2.0 ** -1074] * 2,
                                         "b": [2.0 ** -1074] * 2}},
    "large_jacobi_patch_b": {"descriptor": {**FREE_JACOBI, "patch": {"1": [1.0, 2.0 ** 321]}}},
    "cmv_patch_list": {"descriptor": {**FREE_CMV, "patch": [[0.1, 0.0]]}},
    "cmv_grid_list": {"descriptor": FREE_CMV, "grid": [1]},
    # interval rows of four whose flags are not booleans, once read by truth value
    "E_flags_code_and_int": {"descriptor": FREE_JACOBI,
                             "E": {"intervals": [[-1.0, 1.0, "oo", 0]]}},
    "E_flags_strings": {"descriptor": FREE_JACOBI, "E": {"intervals": [[-1.0, 1.0, "no", "x"]]}},
}

# entries whose transfers overflow the float range on their grids: each
# gives a FAILED report on its undetermined points, not exit 2
OVERFLOWING = {
    # cosh and sinh of sqrt(v - z) overflow
    "overflowing_piece_value": {**FREE_SCHRODINGER, "pieces": [[1.0, 1e300]]},
    "largest_piece_value": {**FREE_SCHRODINGER, "pieces": [[1.0, 1.7e308]]},
    "overflowing_patch_value": {**FREE_SCHRODINGER, "patch": [[0.5, 1e6]]},
    "deep_well": {**FREE_SCHRODINGER, "pieces": [[0.5, 0.0], [0.5, 1e6]]},
    # (z - b)/a of the smaller a passes the float range in transfer_product
    "mixed_scale_jacobi": {"type": "jacobi", "period": 2, "a": [1.18e-13, 9.5e-302],
                           "b": [0.0, 0.557]},
}

# the same scales as a patch: each step divides its entries by a(n) first,
# so the carry to the reference site stays finite
MIXED_SCALE_PATCH = {**FREE_JACOBI, "a": [2.5e-38], "patch": {"1": [9.5e-302, 0.0]}}

# grids of `spec run` entries that are refused, not truncated or swept
BAD_GRIDS = {
    "fractional_points": {"start": -3.0, "stop": 3.0, "points": 1000.5},
    "infinite_points": {"start": -3.0, "stop": 3.0, "points": math.inf},
    "infinite_start": {"start": -math.inf, "stop": 3.0, "points": 1001},
    "nan_stop": {"start": -3.0, "stop": math.nan, "points": 1001},
    # stop - start overflows, and np.linspace once warned and swept nan
    "overflowing_span": {"start": -1e308, "stop": 1e308, "points": 1001},
    "one_point": {"start": -3.0, "stop": 3.0, "points": 1},
    "negative_points": {"start": -3.0, "stop": 3.0, "points": -5},
    "decreasing": {"start": 3.0, "stop": -3.0, "points": 1001},
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
    def test_spec_run_exits_2_without_writes(self, tmp_path, capsys, case):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", **BAD_ENTRIES[case]}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    # the command line has no target set, and its grid is always start:stop:points
    @pytest.mark.parametrize("case", sorted(c for c, e in BAD_ENTRIES.items()
                                            if "E" not in e and isinstance(e.get("grid", {}), dict)))
    def test_spec_family_exits_2_without_writes(self, tmp_path, capsys, case):
        entry = BAD_ENTRIES[case]
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(entry["descriptor"]), encoding="utf-8")
        out = tmp_path / "report.json"
        argv = [entry["descriptor"]["type"], "--desc", str(desc), "--out", str(out)]
        if "grid" in entry:
            argv.append(f"--grid=0:{2 * math.pi!r}:{entry['grid']['angles']}")
        assert spec_main(argv) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("case", sorted(BAD_GRIDS) + ["fractional_angles", "few_angles"])
    def test_spec_run_bad_grid_exits_2_without_writes(self, tmp_path, capsys, case):
        entry = ({"descriptor": FREE_CMV, "grid": {"angles": 600.5}} if case == "fractional_angles"
                 else {"descriptor": FREE_CMV, "grid": {"angles": 511}} if case == "few_angles"
                 else {"descriptor": FREE_JACOBI, "grid": BAD_GRIDS[case]})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", **entry}]}), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid" in err

    def test_overflowing_entries_report_failed_without_warnings(self, tmp_path):
        """Overflow is data, not a load-time estimate: spec run, with
        RuntimeWarnings as errors, writes each OVERFLOWING entry's report
        and CSV, FAILED on its undetermined count (every point, for the
        mixed-scale Jacobi operator), and exits 1 with no traceback."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": name, "descriptor": d} for name, d in sorted(OVERFLOWING.items())]}),
            encoding="utf-8")
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from acspectra.harness_cli import spec_main; "
             "sys.exit(spec_main(sys.argv[1:]))", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1 and proc.stderr == "", proc.stderr
        assert len(proc.stdout.splitlines()) == len(OVERFLOWING)
        for name in OVERFLOWING:
            rep = json.loads((out / f"{name}_report.json").read_text(encoding="utf-8"))
            assert rep["status"] == "FAILED"
            assert rep["failures"][0].startswith("undetermined: "), rep["failures"]
            if name.startswith("mixed_scale"):
                n = rep["grid"]["points"]
                assert rep["failures"][:2] == [f"undetermined: {n} of {n} grid points at "
                                               f"reference {site} (> 1%)" for site in (0, 1)]
            assert (out / f"{name}.csv").exists()

    @pytest.mark.parametrize("emit", ["report", "xi", "spectrum"])
    @pytest.mark.parametrize("case", sorted(OVERFLOWING))
    def test_overflowing_entries_emit_without_warnings(self, tmp_path, capsys, case, emit):
        """spec <family> writes each emit of an OVERFLOWING entry without a
        RuntimeWarning; only the report, FAILED, exits 1."""
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(OVERFLOWING[case]), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = spec_main([OVERFLOWING[case]["type"], "--desc", str(desc), "--emit", emit,
                              "--out", str(out)])
        assert code == (1 if emit == "report" else 0) and out.exists()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("emit", ["report", "xi", "spectrum"])
    def test_mixed_scale_patch_emits_without_warnings(self, tmp_path, capsys, emit):
        """A patch a(1) = 9.5e-302 on a base a = 2.5e-38: spec jacobi writes
        each emit with no RuntimeWarning and exits 0.  The report is PASS;
        its band, [-5e-38, 5e-38], is below the grid's resolution, so the
        inclusion is SKIPPED."""
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(MIXED_SCALE_PATCH), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = spec_main(["jacobi", "--desc", str(desc), "--emit", emit, "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        if emit == "report":
            doc = json.loads(out.read_text(encoding="utf-8"))
            assert doc["status"] == "PASS" and doc["theorem_inclusion"]["status"] == "SKIPPED"

    @pytest.mark.parametrize("period,a,b", [(1, 2.0 ** 320, 0.0), (1, 2.0 ** -1000, 0.0),
                                            (2, 2.0 ** 320, 2.0 ** 320),
                                            (2, 2.0 ** -1000, 2.0 ** -1000),
                                            (2, 2.0 ** 300, 2.0 ** 300)])
    def test_jacobi_at_the_coefficient_bounds_reports_without_warnings(self, period, a, b):
        """The largest and smallest accepted Jacobi scales (jacobi.MAX_COEFFICIENT,
        jacobi.MIN_OFF_DIAGONAL) give a report with no RuntimeWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = verify_inclusion({"type": "jacobi", "period": period, "a": [a] * period,
                                    "b": [b] * period})
        assert rep.status in ("PASS", "FAILED")

    @pytest.mark.parametrize("seed", ["x", -1, 1.5, True, None])
    def test_spec_run_bad_seed_exits_2_without_writes(self, tmp_path, capsys, seed):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": seed, "operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]}]}),
            encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "seed" in capsys.readouterr().err

    def test_spec_run_bad_tolerances_exit_2_without_writes(self, tmp_path, capsys):
        """The tolerances are fixed, so a tolerances key on the second
        operator, even one whose value float() cannot read, stops the run
        before the first report is written, with one error line naming it."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", "descriptor": FREE_CMV, "grid": SMALL_GRIDS["cmv"],
             "tolerances": {"reflectionless_tol": 10 ** 400}}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: unknown operator entry key 'tolerances'")
        assert err.count("\n") == 1

    def test_spec_cmv_report_needs_the_full_circle(self, tmp_path, capsys):
        """The report's step is 2 pi/n over the whole circle, so a partial
        angle range is refused; --emit xi still reads it."""
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_CMV), encoding="utf-8")
        out = tmp_path / "report.json"
        assert spec_main(["cmv", "--desc", str(desc), "--grid=0:3:600",
                          "--emit", "report", "--out", str(out)]) == 2
        assert not out.exists()
        assert "whole circle" in capsys.readouterr().err
        assert spec_main(["cmv", "--desc", str(desc), "--grid=0:3:600",
                          "--emit", "xi", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 601

    @pytest.mark.parametrize("emit", ["xi", "spectrum"])
    @pytest.mark.parametrize("grid", ["1:0:600", "0:nan:600", "-1e308:1e308:600"])
    def test_spec_cmv_angle_range_takes_the_grid_rule(self, tmp_path, capsys, grid, emit):
        """The angle range of `spec cmv --grid` passes sweep_grid, as a
        config grid does: a decreasing one once ended in a traceback under
        --emit spectrum and wrote a CSV under --emit xi, and one whose
        stop - start overflows warned (a traceback under RuntimeWarning as
        an error) before sweep_grid saw it."""
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_CMV), encoding="utf-8")
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert spec_main(["cmv", "--desc", str(desc), f"--grid={grid}", "--emit", emit,
                              "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "error: a grid needs at least 2 finite points and a positive first step\n")

    @pytest.mark.parametrize("kind,grid", [
        ("jacobi", {"start": -3.0, "stop": 3.0, "points": MAX_GRID_POINTS + 1}),
        ("cmv", {"angles": MAX_GRID_POINTS + 1}),
        ("jacobi", {"start": -3.0, "stop": 3.0, "points": 10 ** 400})],
        ids=["points", "angles", "points_401_digits"])
    def test_grid_counts_are_bounded(self, kind, grid):
        """A config asks for at most MAX_GRID_POINTS points or angles; the
        bound is refused before any grid is built."""
        assert _whole(MAX_GRID_POINTS, "points") == MAX_GRID_POINTS
        op = build_operator({"jacobi": FREE_JACOBI, "cmv": FREE_CMV}[kind])
        with pytest.raises(ValueError, match=f"must be at most {MAX_GRID_POINTS}, not "):
            _resolve_grid(kind, op, grid)

    @pytest.mark.parametrize("kind,grid", [
        ("jacobi", f"-3:3:{MAX_GRID_POINTS + 1}"),
        ("cmv", f"0:{2 * math.pi!r}:{MAX_GRID_POINTS + 1}")])
    def test_spec_family_grid_count_is_bounded(self, tmp_path, capsys, kind, grid):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps({"jacobi": FREE_JACOBI, "cmv": FREE_CMV}[kind]),
                        encoding="utf-8")
        out = tmp_path / "xi.csv"
        assert spec_main([kind, "--desc", str(desc), f"--grid={grid}", "--emit", "xi",
                          "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"error: grid {'angles' if kind == 'cmv' else 'points'} must be at most "
            f"{MAX_GRID_POINTS}, not {MAX_GRID_POINTS + 1}\n")

    @pytest.mark.parametrize("grid", ["1:2", "0:1:x", "0:1:2:3"])
    def test_spec_family_malformed_grid_exits_2_without_writes(self, tmp_path, capsys, grid):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_JACOBI), encoding="utf-8")
        out = tmp_path / "report.json"
        assert spec_main(["jacobi", "--desc", str(desc), f"--grid={grid}",
                          "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--grid" in err


def test_spec_family_report_exits_1_when_it_writes_a_failed_report(tmp_path, capsys):
    """`spec jacobi --emit report` exits as `spec run` does on the same
    entry: 1 when the report it writes is FAILED (period-2 Jacobi scaled by
    1e3, whose Green-inverse identity residual, 1.8e-8 on its default grid,
    is past the 1e-10 gate), 0 when it is PASS."""
    desc = tmp_path / "op.json"
    out = tmp_path / "report.json"
    failing = {"type": "jacobi", "period": 2, "a": [1e3, 1e3], "b": [1e3, -1e3]}
    for descriptor, code in ((failing, 1), (FREE_JACOBI, 0)):
        desc.write_text(json.dumps(descriptor), encoding="utf-8")
        assert spec_main(["jacobi", "--desc", str(desc), "--emit", "report",
                          "--out", str(out)]) == code
        status = json.loads(out.read_text(encoding="utf-8"))["status"]
        assert status == ("FAILED" if code else "PASS")


# report_suite seed 9, rotation 17 of the benchmark: the ac spectrum's lower
# edge is the first interior grid point -3.0319 at both sites.  A fixed
# phase threshold (xi > 1e-3) once read it as -3.0253 at site 1, where Im g
# is 1e-3 but xi below 1e-3 at the 4 grid points next to the edge
SITE_DISAGREEMENT = {"type": "jacobi", "period": 1, "a": [1.057], "b": [-0.92],
                     "patch": {"-1": [0.714, 0.441], "1": [0.557, -1.296],
                               "2": [0.475, 0.911]}}


@pytest.fixture
def site_one_cut(monkeypatch):
    """Site 1 of every Jacobi operator reads its phase on the axis below
    -3.0253, so the ac spectra of SITE_DISAGREEMENT's two sites differ by 4
    grid steps at the lower edge."""
    phase_grid = boundary_analysis.phase_grid

    def cut(J, lams, n0):
        vals, errs, ok = phase_grid(J, lams, n0)
        if n0 == 1:
            vals = np.where(ok & (np.asarray(lams) < -3.0253), 0.0, vals)
        return vals, errs, ok
    monkeypatch.setattr(boundary_analysis, "phase_grid", cut)


def test_both_sites_read_one_ac_spectrum_and_no_m1_interval():
    """The error-driven off-axis rule reads the points next to the band edge
    as interior at both sites, and no piece of the bands as multiplicity
    one."""
    J = build_operator(SITE_DISAGREEMENT)
    grid = jacobi.default_grid(J)
    ac = jacobi.ac_spectrum(J, grid)
    for site in (0, 1):
        vals = jacobi.xi_grid(J, grid, site)[0]
        inside = grid[(vals > 0.0) & (vals < 1.0)]
        assert inside[0] == pytest.approx(-3.0319, abs=1e-4)
        assert inside[-1] == pytest.approx(1.1929, abs=1e-4)
    assert ac.intervals[0].lo == pytest.approx(-3.0319, abs=1e-4)
    M2, M1 = jacobi.multiplicity_sets(J, grid)
    assert M1.intervals == ()
    assert set_algebra(M2, ac, "difference").measure() == 0.0


class TestSiteDisagreement:
    def test_ac_spectrum_raises_with_the_first_site_set(self, site_one_cut):
        J = build_operator(SITE_DISAGREEMENT)
        grid = jacobi.default_grid(J)
        with pytest.raises(SiteDisagreement) as exc:
            jacobi.ac_spectrum(J, grid)
        assert exc.value.width > 2.0 * (grid[1] - grid[0])
        assert exc.value.spectrum.intervals[0].lo == pytest.approx(-3.0319, abs=1e-4)
        assert isinstance(exc.value, RuntimeError)

    def test_report_fails_and_the_run_goes_on(self, tmp_path, capsys, site_one_cut):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "split", "descriptor": SITE_DISAGREEMENT},
            {"name": "after", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]}]}),
            encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        rep = json.loads((out / "split_report.json").read_text())
        assert rep["status"] == "FAILED"
        assert len(rep["failures"]) == 1
        assert rep["failures"][0].startswith(
            "ac spectrum disagrees between reference sites 0 and 1 by ")
        assert "> two grid steps" in rep["failures"][0]
        assert rep["ac_spectrum"]["intervals"][0][0] == pytest.approx(-3.0319, abs=1e-4)
        assert json.loads((out / "after_report.json").read_text())["status"] == "PASS"
        assert (out / "split.csv").exists() and (out / "after.csv").exists()
        assert capsys.readouterr().out.splitlines()[1] == "after: PASS"

    @pytest.mark.parametrize("kind", OPERATOR_TYPES)
    def test_spec_spectrum_writes_the_first_site_set(self, tmp_path, capsys, monkeypatch, kind):
        """`spec <family> --emit spectrum` once ended in a traceback where
        the sites disagree; like a report it keeps the first site's set,
        prints one error line with the width and two grid steps, and exits
        1."""
        first = (circle_set([(1.0, 2.0, "cc")]) if kind == "cmv"
                 else canonicalize([(0.0, 1.0, "cc")]))

        message = "ac spectrum disagrees between reference sites 0 and 1 by 7.500e-01"

        def disagree(op, grid=None):
            raise SiteDisagreement(message, first, 0.75)
        monkeypatch.setattr(harness_cli, "ac_spectrum", disagree)
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps({"jacobi": FREE_JACOBI, "cmv": FREE_CMV,
                                    "schrodinger": FREE_SCHRODINGER}[kind]), encoding="utf-8")
        out = tmp_path / "ac.json"
        grid = "0:6.283185307179586:512" if kind == "cmv" else "-3:3:61"
        assert spec_main([kind, "--desc", str(desc), f"--grid={grid}", "--emit", "spectrum",
                          "--out", str(out)]) == 1
        assert json.loads(out.read_text()) == set_to_json(first)
        assert capsys.readouterr().err == f"error: {message}\n"


# operators whose ac spectrum has zero measure on the default grid: bands of
# width ~1e-9 around -1 and 1, and a potential far above the grid top (its
# transfers grow like exp(141) on the grid)
ZERO_MEASURE_AC = {
    "thin_bands_jacobi": {"type": "jacobi", "period": 2, "a": [1.0, 1e-9], "b": [0.0, 0.0]},
    "huge_schrodinger": {"type": "schrodinger", "period": 1.0, "pieces": [[1.0, 1e4]]},
}


class TestZeroMeasureSpectrum:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(ZERO_MEASURE_AC))
    def test_inclusion_skipped_and_the_run_goes_on(self, tmp_path, capsys, case):
        """With E omitted and an ac spectrum of zero measure, the report and
        its CSV are written with the inclusion SKIPPED, the exit code
        follows the statuses, and the next operator runs."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "empty", "descriptor": ZERO_MEASURE_AC[case]},
            {"name": "after", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]}]}),
            encoding="utf-8")
        out = tmp_path / "out"
        code = spec_main(["run", "--config", str(cfg), "--out", str(out)])
        rep = json.loads((out / "empty_report.json").read_text())
        assert rep["ac_spectrum"]["intervals"] == []
        assert rep["theorem_inclusion"]["status"] == "SKIPPED"
        assert "zero measure" in rep["theorem_inclusion"]["reason"]
        assert rep["reflectionless"]["verdict"] is False
        assert rep["reflectionless"]["n_points"] == 0
        assert (out / "empty.csv").exists()
        assert code == (1 if rep["status"] == "FAILED" else 0)
        assert json.loads((out / "after_report.json").read_text())["status"] == "PASS"
        assert capsys.readouterr().out.splitlines()[1] == "after: PASS"


PERIOD2_JACOBI = {"type": "jacobi", "period": 2, "a": [1.0, 1.0], "b": [1.0, -1.0]}
GERONIMUS_CMV = {"type": "cmv", "period": 1, "alpha": [[0.5, 0.0]]}


def _gap_piece_cases():
    """(descriptor, gap piece width) pairs: the documented period-2 Jacobi
    case, then 13 seeded periodic operators per family, each with a width
    log-uniform on [1e-6, 1e-2]."""
    rng = np.random.default_rng(2323)
    cases = [({"type": "jacobi", "period": 2, "a": [1.0, 1.0], "b": [0.5, -0.5]}, 1e-3)]
    for kind in ("jacobi", "cmv", "schrodinger"):
        for _ in range(13):
            p = int(rng.integers(1, 4))
            if kind == "jacobi":
                p = max(p, 2)
                d = {"type": "jacobi", "period": p, "a": rng.uniform(0.5, 1.5, p).tolist(),
                     "b": rng.uniform(-1.0, 1.0, p).tolist()}
            elif kind == "cmv":
                alpha = rng.uniform(0.1, 0.6, p) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, p))
                d = {"type": "cmv", "period": p, "alpha": [[a.real, a.imag] for a in alpha]}
            else:
                lengths = rng.uniform(0.2, 0.6, p + 1)
                d = {"type": "schrodinger", "period": float(lengths.sum()),
                     "pieces": [[float(l), float(v)] for l, v in
                                zip(lengths, rng.uniform(0.0, 6.0, p + 1))]}
            cases.append((d, float(10.0 ** rng.uniform(-6.0, -2.0))))
    return cases


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23: the inclusion checks the essential "
                   "closure of all of E, while the reflectionless test reads only E's grid "
                   "points, so a gap piece of E holding no grid point fails the inclusion")
def test_reflectionless_verdict_implies_the_inclusion():
    """The paper's theorem: reflectionless on E implies E's essential
    closure in the ac spectrum.  With E = the computed ac spectrum plus one
    piece in the middle of its widest gap, no report reads the
    reflectionless verdict True with the inclusion FAILED, unless a site
    disagreement or undetermined points say why."""
    counterexamples = []
    for d, width in _gap_piece_cases():
        op = build_operator(d)
        fam = boundary_analysis.family(op)
        ac = harness_cli.ac_spectrum(op, fam.grid(op))
        pieces = ([(a.theta1, a.theta2) for a in ac.arcs] if fam.circle else
                  [(iv.lo, iv.hi) for iv in ac.intervals])
        # gaps between consecutive pieces, on the circle also the wrap-around one
        gaps = list(zip([hi for _, hi in pieces], [lo for lo, _ in pieces[1:]]))
        if fam.circle and pieces:
            gaps.append((pieces[-1][1], pieces[0][0] + 2 * math.pi))
        if not gaps:
            continue
        lo, hi = max(gaps, key=lambda g: g[1] - g[0])
        mid = (lo + hi) / 2.0 % (2 * math.pi) if fam.circle else (lo + hi) / 2.0
        E = set_to_json(ac)
        E["intervals"].append([mid - width / 2.0, mid + width / 2.0, "cc"])
        rep = verify_inclusion(d, E)
        explained = any(f.startswith(("ac spectrum disagrees", "undetermined"))
                        for f in rep.failures)
        if rep.reflectionless["verdict"] and rep.theorem_inclusion["status"] == "FAILED" \
                and not explained:
            counterexamples.append((d, width, rep.failures))
    assert not counterexamples, counterexamples


class TestNullPartsOfE:
    """Reflectionless is an almost-everywhere property, so the test reads E
    in its intervals (arcs) only: isolated points, a null set, change
    neither the verdict nor the essential closure of E."""

    @pytest.mark.parametrize("k", [6, 55])
    def test_isolated_gap_points_keep_the_band_verdict(self, k):
        """E = the band [1, sqrt 5] of period-2 Jacobi plus k grid points in
        its gap (-1, 1): PASS with the inclusion PASS, as for the band."""
        grid = jacobi.default_grid(jacobi.JacobiCoefficients.from_descriptor(PERIOD2_JACOBI))
        gap = grid[(grid > -1.0) & (grid < 1.0)]
        points = gap[np.linspace(0, gap.size - 1, k).astype(int)].tolist()
        band = verify_inclusion(PERIOD2_JACOBI, canonicalize([(1.0, math.sqrt(5.0), "cc")]))
        rep = verify_inclusion(PERIOD2_JACOBI,
                               canonicalize([(1.0, math.sqrt(5.0), "cc")], points))
        assert rep.status == "PASS" and rep.theorem_inclusion["status"] == "PASS"
        assert rep.reflectionless["fraction"] == band.reflectionless["fraction"]
        assert rep.theorem_inclusion["essential_closure_E"] == \
            band.theorem_inclusion["essential_closure_E"]

    def test_cmv_residual_samples_the_arcs_of_E(self):
        """On the circle the boundary identity residual samples E's arcs
        only: an arc of the geronimus spectrum plus grid angles in its gap
        reads as the arc alone."""
        grid = cmv.default_angles()
        arc = circle_set([(math.pi / 2.0, 3.0 * math.pi / 2.0, "cc")])
        points = grid[(grid < math.pi / 4.0)][::4].tolist()
        reps = [verify_inclusion(GERONIMUS_CMV, E, {"angles": 512})
                for E in (arc, circle_set([(math.pi / 2.0, 3.0 * math.pi / 2.0, "cc")], points))]
        assert [(r.status, r.theorem_inclusion["status"]) for r in reps] == [("PASS", "PASS")] * 2
        assert reps[1].identity_residuals == reps[0].identity_residuals
        assert reps[1].reflectionless["n_points"] == reps[0].reflectionless["n_points"]

    def test_E_with_only_isolated_grid_points_exits_2(self, tmp_path, capsys):
        """An E of positive measure whose only grid points are isolated
        ones gives the reflectionless test nothing to read: spec run exits 2
        at load and writes nothing."""
        grid = jacobi.default_grid(jacobi.JacobiCoefficients.from_descriptor(PERIOD2_JACOBI))
        E = canonicalize([(1.0005, 1.0006, "cc")], grid[[1900, 2100]].tolist())
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "null", "descriptor": PERIOD2_JACOBI, "E": set_to_json(E)}]}),
            encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "grid point in its intervals" in capsys.readouterr().err


class TestSetsDemo:
    def test_three_lines_with_computed_facts(self):
        lines = emit_sets_demo().split("\n")
        assert len(lines) == 3
        assert "[0, 1] u {2} -> [0, 1]" in lines[0]
        assert "2/3" in lines[1] and "1/3" in lines[1]
        assert "essential closure empty" in lines[2]


class TestFormatSet:
    def test_line_circle_empty_full(self):
        assert format_set(canonicalize([(0, 1, "cc")], [2.0])) == "[0, 1] u {2}"
        assert format_set(canonicalize([])) == "empty"
        assert format_set(full_circle()) == "full circle"
        assert "arc[" in format_set(circle_set([(0.5, 1.5, "cc")]))


class TestClosureCli:
    def test_sets_demo(self, capsys):
        assert closure_main(["sets", "--demo"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 3

    def test_essential_round_trip(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(json.dumps(
            {"carrier": "line", "intervals": [[0.0, 1.0, "oo"]], "points": [5.0]}),
            encoding="utf-8")
        assert closure_main(["essential", "--input", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = set_from_json(doc)
        assert got == canonicalize([(0.0, 1.0, "cc")])

    def test_essential_to_file(self, tmp_path):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"family": "rational_fat", "truncation": 12}),
                       encoding="utf-8")
        dst = tmp_path / "out.json"
        assert closure_main(["essential", "--input", str(src),
                             "--output", str(dst)]) == 0
        got = set_from_json(json.loads(dst.read_text()))
        assert got.contains(0.5)

    def test_missing_input_exits_2(self, tmp_path):
        assert closure_main(["essential", "--input",
                             str(tmp_path / "nope.json")]) == 2

    def test_sets_without_demo_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            closure_main(["sets"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "nothing to do: pass --demo" in captured.err and captured.out == ""

    @pytest.mark.parametrize("name", ["line", "circle"])
    def test_essential_bytes(self, tmp_path, name):
        """The bytes CI compares the `closure essential` console script with."""
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "closure")
        out = tmp_path / "out.json"
        assert closure_main(["essential", "--input", os.path.join(data, f"{name}.json"),
                             "--output", str(out)]) == 0
        with open(os.path.join(data, f"{name}.closure.json"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        """--output into a directory that does not exist prints one error
        line and exits 1, as `spec <family> --out` does."""
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"intervals": [[0.0, 1.0, "oo"]]}), encoding="utf-8")
        out = tmp_path / "missing" / "x.json"
        assert closure_main(["essential", "--input", str(src), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()

    @pytest.mark.parametrize("row", [[0, 1, "oo", 0], [0, 1, "no", "x"], [0, 1, 1, 0],
                                     [0, 1, True, None]])
    def test_row_of_four_needs_boolean_flags(self, tmp_path, capsys, row):
        """A row [lo, hi, lo_closed, hi_closed] takes JSON booleans; other
        flags exit 2 with the row's own one error line."""
        src = tmp_path / "s.json"
        src.write_text(json.dumps({"intervals": [row]}), encoding="utf-8")
        assert closure_main(["essential", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "lo_closed and hi_closed" in err

    @pytest.mark.parametrize("doc", [{"intervals": 5}, [1, 2], {"intervals": [[None, 1]]},
                                     {"points": ["x"]}, {"intervals": [[0, 1, "ox"]]},
                                     {"family": "rational_fat"}])
    def test_malformed_set_exits_2(self, tmp_path, capsys, doc):
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        assert closure_main(["essential", "--input", str(src)]) == 2
        assert "error: cannot read set JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"family": "rational_fat", "truncation": 0}',
        '{"family": "rational_fat", "truncation": 2.5}',
        '{"family": "rational_fat", "truncation": 5, "radius_base": 1}',
        '{"family": "rational_fat", "truncation": 5, "radius_base": 0.5}',
        '{"family": "rational_fat", "truncation": 5, "radius_base": 1e400}',
        '{"family": "rational_fat", "truncation": 5, "radius_base": 1%s}' % ("0" * 400),
        '{"points": [1%s]}' % ("0" * 400),
        '{"intervals": [[0, 1%s, "cc"]]}' % ("0" * 400),
        '{"carrier": "circle", "intervals": [[0, 1%s, "cc"]]}' % ("0" * 400)])
    def test_set_json_out_of_range_exits_2(self, tmp_path, capsys, text):
        """A rational_fat truncation that is not a whole number >= 1, a
        radius base that is not a finite number > 1, and a number past the
        float range exit 2 with one error line and write nothing; a
        truncation of 0 and an integer past the float range (a point, a
        line or a circle interval end) once ended in a traceback, and 2.5
        was read as 2."""
        src, out = tmp_path / "s.json", tmp_path / "out.json"
        src.write_text(text, encoding="utf-8")
        assert closure_main(["essential", "--input", str(src), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read set JSON") and err.count("\n") == 1
        assert not out.exists()


CSV_HEADERS = {"jacobi": "lambda,xi,error_estimate,verdict",
               "cmv": "theta,re_m11,im_m11,xi,verdict",
               "schrodinger": "lambda,xi,re_g,im_g,verdict"}


@pytest.mark.parametrize("fixture", ["free_jacobi", "period2_jacobi", "geronimus_cmv",
                                     "free_schrodinger", "square_well"])
def test_csv_columns_and_cells(request, fixture):
    """One row per grid point under the family's header; the phase cell is
    empty exactly at undetermined points, the re/im cells exactly where the
    phase key did not converge, and no cell reads nan."""
    op = request.getfixturevalue(fixture)
    kind = op.to_descriptor()["type"]
    fam = harness_cli.family(op)
    grid = fam.grid(op)
    lines = _csv_for(op, grid).split("\n")
    assert lines.pop() == ""
    assert lines[0] == CSV_HEADERS[kind]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == grid.size and all(len(r) == len(header) for r in rows)
    assert not any("nan" in cell for r in rows for cell in r)

    cell = {name: [r[header.index(name)] for r in rows] for name in header}
    outside = "edge" if kind == "cmv" else "exterior"
    assert {"interior", outside} <= set(cell["verdict"]) <= {"interior", outside, "undetermined"}
    assert [v == "undetermined" for v in cell["verdict"]] == [x == "" for x in cell["xi"]]
    conv = boundary_analysis.boundary_grid(op, grid, fam.sites(op)[0])[fam.phase_key][2]
    for name in header:
        if name.startswith(("re_", "im_")):
            assert [x == "" for x in cell[name]] == (~conv).tolist()


class TestSpecCli:
    def test_emit_spectrum(self, tmp_path, capsys):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_JACOBI), encoding="utf-8")
        assert spec_main(["jacobi", "--desc", str(desc),
                          "--grid=-3:3:1001", "--emit", "spectrum"]) == 0
        s = set_from_json(json.loads(capsys.readouterr().out))
        assert s.contains(0.0) and not s.contains(2.5)

    @pytest.mark.parametrize("descriptor, grid, col, center", [
        (FREE_JACOBI, "-3:3:41", 1, 0.5),
        (FREE_CMV, "0:6.283185307179586:512", 3, 0.0),
        (FREE_SCHRODINGER, "0.5:20:41", 1, 0.5),
    ], ids=["jacobi", "cmv", "schrodinger"])
    def test_emit_xi_csv(self, tmp_path, descriptor, grid, col, center):
        """The xi column sits where the benchmark reads it, and holds 1/2
        (circle: 0) inside the spectrum of a free operator."""
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(descriptor), encoding="utf-8")
        out = tmp_path / "xi.csv"
        assert spec_main([descriptor["type"], "--desc", str(desc),
                          f"--grid={grid}", "--emit", "xi",
                          "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[col] == "xi"
        assert len(lines) == int(grid.split(":")[2]) + 1
        xis = [float(line.split(",")[col]) for line in lines[1:] if line.split(",")[col]]
        assert any(abs(x - center) < 1e-6 for x in xis)

    @pytest.mark.parametrize("family, grid", [
        ("jacobi", "-3:3:61"), ("cmv", "0:6.283185307179586:512"), ("schrodinger", "-1:30:63"),
    ])
    def test_emit_xi_bytes(self, tmp_path, family, grid):
        """The bytes CI compares `spec <family> --emit xi` with."""
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "xi")
        out = tmp_path / "xi.csv"
        assert spec_main([family, "--desc", os.path.join(data, f"{family}.json"),
                          f"--grid={grid}", "--emit", "xi", "--out", str(out)]) == 0
        with open(os.path.join(data, f"{family}.csv"), "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_emit_xi_fine_grid_hash(self, tmp_path):
        """`spec jacobi --emit xi` on 8193 points, 17 CSV row blocks, is
        pinned by the hash of the CSV that one % for the whole table wrote
        (Jacobi: its kernel calls no exp, so the hash is as portable as the
        jacobi.csv comparison above)."""
        data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "xi")
        out = tmp_path / "jacobi_8193.csv"
        assert spec_main(["jacobi", "--desc", os.path.join(data, "jacobi.json"),
                          "--grid=-3:3:8193", "--emit", "xi", "--out", str(out)]) == 0
        with open(os.path.join(data, "jacobi_8193.sha256"), encoding="utf-8") as fh:
            want, name = fh.read().split()
        assert name == out.name and hashlib.sha256(out.read_bytes()).hexdigest() == want

    def test_emit_report(self, tmp_path, capsys):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_CMV), encoding="utf-8")
        assert spec_main(["cmv", "--desc", str(desc),
                          "--grid=0:6.283185307179586:512",
                          "--emit", "report"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert doc["family"] == "cmv"

    def test_missing_descriptor_exits_2(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert spec_main(["jacobi", "--desc", str(tmp_path / "missing.json"),
                          "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read descriptor ") and err.count("\n") == 1

    def test_type_mismatch_exits_3(self, tmp_path):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_JACOBI), encoding="utf-8")
        assert spec_main(["cmv", "--desc", str(desc)]) == 3

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert spec_main(["run", "--config", cfg,
                          "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3


def test_spec_family_unwritable_out_exits_1(tmp_path, capsys):
    """`spec <family> --out` into a directory that does not exist prints
    one error line and exits 1, as `spec run` does for an IO error."""
    desc = tmp_path / "op.json"
    desc.write_text(json.dumps(FREE_JACOBI), encoding="utf-8")
    out = tmp_path / "missing" / "x.json"
    assert spec_main(["jacobi", "--desc", str(desc), "--grid=-3:3:201",
                      "--emit", "spectrum", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()


def test_python_m_harness_cli_with_runtime_warnings_as_errors(tmp_path):
    """`python -m acspectra.harness_cli run` passes under
    PYTHONWARNINGS=error::RuntimeWarning: the package imports harness_cli
    lazily, so runpy finds it unimported and does not warn."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "acspectra.harness_cli", "run", "--config",
         bundled_config_path("free_suite.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and len(list((tmp_path / "out").iterdir())) == 6


def test_report_process_does_not_import_numpy_random(tmp_path):
    """The identity draws come from stdlib random, so run_config on the
    bundled free suite leaves numpy.random (about 5 MB of resident memory)
    unloaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from acspectra.harness_cli import bundled_config_path, run_config; "
            "code = run_config(bundled_config_path('free_suite.json'), sys.argv[1]); "
            "print(code, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# the traced peak, in bytes per grid point, of one run_config entry of the
# bundled periodic suite on a 2^14-point grid: 1.1 times the 512, 673 and
# 629 B it reads with the oracles built in blocks of draws, the CSV in row
# blocks and the kernels' temporaries freed after their last read (583,
# 744 and 752 B without them); measured on Python 3.11.7 with numpy 2.4.6
PEAK_PER_POINT = {"jacobi": 563, "cmv": 740, "schrodinger": 692}
# the traced peak, in bytes, of the same entry on report_suite's grid
# (the family default, CMV 1024 angles): 1.1 times the 2.06, 1.32 and
# 1.29 MB it reads (2.35, 2.11 and 1.51 MB without the changes above), on
# the same versions
PEAK_PER_REPORT = {"jacobi": 2_266_000, "cmv": 1_459_000, "schrodinger": 1_418_000}


def _traced_report_peaks(tmp_path, points) -> dict:
    """{family: traced peak in bytes} of one run_config entry per family of
    the bundled periodic suite on a grid of the given points (None: the
    report_suite grid).  An untraced run of the entry on a 512-point grid
    first makes the one-time allocations, so that the traced peak does not
    depend on the tests run before."""
    with open(bundled_config_path("periodic_suite.json"), encoding="utf-8") as fh:
        entries = json.load(fh)["operators"]
    peaks = {}
    for entry in entries:
        kind = entry["descriptor"]["type"]
        op = build_operator(entry["descriptor"])
        default = boundary_analysis.family(op).grid(op)
        configs = []
        for n in (512, points):
            if kind == "cmv":
                grid = {"angles": n or 1024}
            elif n is None:
                grid = None
            else:
                grid = {"start": float(default[0]), "stop": float(default[-1]), "points": n}
            configs.append(tmp_path / f"{kind}_{n}.json")
            configs[-1].write_text(json.dumps({"operators": [dict(entry, grid=grid)]}),
                                   encoding="utf-8")
        warm, cfg = configs
        assert run_config(str(warm), str(tmp_path / kind)) == 0
        tracemalloc.start()
        try:
            assert run_config(str(cfg), str(tmp_path / kind)) == 0
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


def test_report_working_set_per_grid_point(tmp_path):
    """One report and its CSV hold a bounded number of bytes per grid
    point, under tracemalloc, for each family."""
    n = 2 ** 14
    peaks = {kind: peak / n for kind, peak in _traced_report_peaks(tmp_path, n).items()}
    assert all(peaks[kind] < bound for kind, bound in PEAK_PER_POINT.items()), peaks


def test_report_working_set_on_the_default_grids(tmp_path):
    """One report and its CSV on report_suite's grids (Jacobi 4001 points,
    CMV 1024 angles, Schrodinger 2001 points) stay under PEAK_PER_REPORT
    under tracemalloc: the transient peak is not set by whole-batch
    temporaries."""
    peaks = _traced_report_peaks(tmp_path, None)
    assert all(peaks[kind] < bound for kind, bound in PEAK_PER_REPORT.items()), peaks


def test_report_api_is_imported_on_first_use():
    """The package's report names resolve to harness_cli's, and an unknown
    name raises AttributeError."""
    from acspectra import harness_cli
    for name in ("SpectralReport", "run_config", "verify_inclusion"):
        assert getattr(acspectra, name) is getattr(harness_cli, name)
    with pytest.raises(AttributeError):
        acspectra.no_such_name


@pytest.mark.parametrize("a", [1e6, 1e8, 1e10])
def test_spec_run_on_a_large_scale_jacobi_writes_its_report(tmp_path, a):
    """A free Jacobi operator of scale a >= 1e6 has multipliers of modulus
    within 1e-10 of each other at the old Richardson stages; the exact
    route's reference sits at a scale-relative distance, so spec run writes
    the report and exits by its status, without an exception."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"operators": [
        {"name": "big", "descriptor": {"type": "jacobi", "period": 1, "a": [a], "b": [0]}}]}),
        encoding="utf-8")
    code = spec_main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    report = json.loads((tmp_path / "out" / "big_report.json").read_text(encoding="utf-8"))
    assert code == (1 if report["status"] == "FAILED" else 0)
    assert (tmp_path / "out" / "big.csv").exists()


@pytest.mark.parametrize("c", [1, 3, 10, 30, 100, 1e3])
def test_period2_jacobi_verdicts_across_scales(c):
    """a = c [1, 0.7], b = c [0.5, -0.5]: the inclusion PASSes at every
    scale and the report PASSes for c <= 100; at c = 1e3 the window of the
    green_inverse_identity oracle, sized from the scale, meets its cap."""
    rep = verify_inclusion({"type": "jacobi", "period": 2, "a": [c, 0.7 * c],
                            "b": [0.5 * c, -0.5 * c]})
    assert rep.theorem_inclusion["status"] == "PASS"
    if c <= 100:
        assert rep.status == "PASS", rep.failures


@pytest.mark.parametrize("a", [10, 30])
def test_free_jacobi_passes_at_a_moderate_scale(a):
    """The identity oracle's window grows with the scale, so free Jacobi
    operators of scale 10 and 30 PASS (a fixed 801-site window gave
    green_inverse_identity 2.7e-10 and 1.1e-3 there)."""
    rep = verify_inclusion({"type": "jacobi", "period": 1, "a": [a], "b": [0]})
    assert rep.identity_residuals["green_inverse_identity"]["value"] < 1e-13
    assert rep.status == "PASS", rep.failures


# one undocumented key per reader of a config: (config keys, the second
# entry, the key the error line names)
UNKNOWN_KEYS = {
    # a misspelled patch once reported the unpatched operator
    "jacobi_pach": ({}, {"descriptor": {**FREE_JACOBI, "pach": {"0": [0.5, 0.0]}}}, "pach"),
    "cmv_descriptor": ({}, {"descriptor": {**FREE_CMV, "patches": {}}, "grid": {"angles": 512}},
                       "patches"),
    "schrodinger_descriptor": ({}, {"descriptor": {**FREE_SCHRODINGER, "V": 1.0}}, "V"),
    # a misspelled grid once ran the default grid
    "entry_grdi": ({}, {"descriptor": FREE_JACOBI, "grdi": SMALL_GRIDS["jacobi"]}, "grdi"),
    # a line grid on the circle once ran 512 angles
    "cmv_points": ({}, {"descriptor": FREE_CMV, "grid": {"points": 2048}}, "points"),
    "line_angles": ({}, {"descriptor": FREE_JACOBI,
                         "grid": {**SMALL_GRIDS["jacobi"], "angles": 512}}, "angles"),
    # a misspelled points list was once dropped
    "set_pts": ({}, {"descriptor": FREE_JACOBI, "E": {**E_JACOBI, "pts": [2.5]}}, "pts"),
    "generated_set": ({}, {"descriptor": FREE_JACOBI,
                           "E": {"family": "rational_fat", "truncation": 12, "radius": 4}},
                      "radius"),
    "config": ({"outdir": "x"}, {"descriptor": FREE_JACOBI}, "outdir"),
}


class TestDocumentedKeys:
    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
    def test_spec_run_exits_2_naming_the_key(self, tmp_path, capsys, case):
        top, entry, key = UNKNOWN_KEYS[case]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**top, "operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", **entry}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: unknown ") and repr(key) in err and err.count("\n") == 1

    def test_spec_family_exits_2_on_a_misspelled_patch(self, tmp_path, capsys):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(UNKNOWN_KEYS["jacobi_pach"][1]["descriptor"]),
                        encoding="utf-8")
        out = tmp_path / "report.json"
        assert spec_main(["jacobi", "--desc", str(desc), "--out", str(out)]) == 2
        assert not out.exists()
        assert "'pach'" in capsys.readouterr().err

    def test_closure_essential_exits_2_on_a_misspelled_points_list(self, tmp_path, capsys):
        src = tmp_path / "s.json"
        src.write_text(json.dumps({**E_JACOBI, "pts": [2.5]}), encoding="utf-8")
        assert closure_main(["essential", "--input", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read set JSON") and "'pts'" in err
        with pytest.raises(ValueError, match="unknown set JSON key 'pts'"):
            set_from_json({"pts": [2.5]})

    def test_every_descriptor_key_is_read(self):
        """to_descriptor writes only keys from_descriptor takes."""
        for d in (FREE_JACOBI, FREE_CMV, FREE_SCHRODINGER):
            op = build_operator(d)
            assert build_operator(op.to_descriptor()) == op


# entries whose documented numbers are JSON strings or booleans; float()
# and int() read each as a number, and each once reported PASS
STRING_NUMBERS = {
    "jacobi_a_b": {"descriptor": {**FREE_JACOBI, "a": ["1"], "b": ["0"]}},
    "jacobi_a_true": {"descriptor": {**FREE_JACOBI, "a": [True]}},
    "jacobi_period": {"descriptor": {**FREE_JACOBI, "period": "1"}},
    "jacobi_patch": {"descriptor": {**FREE_JACOBI, "patch": {"0": ["0.5", "0"]}}},
    "cmv_alpha_true": {"descriptor": {**FREE_CMV, "alpha": [[True, 0.0]]}},
    "cmv_patch": {"descriptor": {**FREE_CMV, "patch": {"0": ["0.5", 0.0]}}},
    "cmv_period": {"descriptor": {**FREE_CMV, "period": "1"}},
    "schrodinger_pieces": {"descriptor": {**FREE_SCHRODINGER, "period": "1",
                                          "pieces": [["1", "0"]]}},
    "schrodinger_piece_value": {"descriptor": {**FREE_SCHRODINGER, "pieces": [[1.0, "0"]]}},
    "schrodinger_patch": {"descriptor": {**FREE_SCHRODINGER, "patch": [[0.5, "1"]]}},
    "grid_start_stop": {"descriptor": FREE_JACOBI,
                        "grid": {"start": "-3", "stop": "3", "points": 101}},
    "grid_stop": {"descriptor": FREE_JACOBI, "grid": {"start": -3, "stop": "3", "points": 101}},
    "grid_points": {"descriptor": FREE_JACOBI, "grid": {"start": -3, "stop": 3, "points": "101"}},
    "grid_points_true": {"descriptor": FREE_JACOBI,
                         "grid": {"start": -3, "stop": 3, "points": True}},
    "grid_angles": {"descriptor": FREE_CMV, "grid": {"angles": "512"}},
    "E_interval_end": {"descriptor": FREE_JACOBI,
                       "E": {**E_JACOBI, "intervals": [[-2.0, "2", "cc"]]}},
    "E_point": {"descriptor": FREE_JACOBI, "E": {**E_JACOBI, "points": ["2.5"]}},
}


class TestJsonNumbers:
    @pytest.mark.parametrize("case", sorted(STRING_NUMBERS))
    def test_spec_run_exits_2_without_writes(self, tmp_path, capsys, case):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", **STRING_NUMBERS[case]}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be a number" in err

    @pytest.mark.parametrize("doc", [
        {"intervals": [["0", "1", "cc"]], "points": ["2"]},
        {"intervals": [["0", "1", "cc"]]},
        {"intervals": [[0, 1, "cc"]], "points": [True]},
        {"carrier": "circle", "intervals": [[0, "1"]]},
        {"family": "rational_fat", "truncation": 5, "radius_base": "4"},
        {"family": "rational_fat", "truncation": "5"}])
    def test_closure_essential_exits_2_without_writes(self, tmp_path, capsys, doc):
        """`closure essential` on the first of these once wrote [0, 1]."""
        src, out = tmp_path / "s.json", tmp_path / "out.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        assert closure_main(["essential", "--input", str(src), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read set JSON") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("carrier", ["line", "circle"])
    @pytest.mark.parametrize("intervals, message", [
        ([[8.0, -6.5], ["0", 1]], "lo > hi"),
        ([["x"], [0, "1"]], "interval spec must be"),
        ([[0, "1", "xx"]], "interval spec must be"),
        ([[0, 1, "cc"], [True, 2]], "interval end must be a number, not True"),
        ([["0", 1], [8.0, -6.5]], "interval end must be a number, not '0'")])
    def test_first_malformed_piece_raises_its_own_error(self, carrier, intervals, message):
        with pytest.raises(ValueError, match=message):
            set_from_json({"carrier": carrier, "intervals": intervals})

    def test_patch_sites_stay_strings(self):
        """Patch sites are JSON object keys, so strings."""
        op = build_operator({**FREE_JACOBI, "patch": {"0": [0.5, 0.0]}})
        assert op.patch == ((0, 0.5, 0.0),)


class TestEntryNames:
    @pytest.mark.parametrize("names", [("x", "x"), (None, "operator_0"), ("operator_1", None)])
    def test_duplicate_names_exit_2_without_writes(self, tmp_path, capsys, names):
        """Two entries named x once both printed PASS, and the second
        operator's files replaced the first's; None is an entry without a
        name, which is operator_k."""
        entries = [{"descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]} for _ in names]
        for entry, name in zip(entries, names):
            if name is not None:
                entry["name"] = name
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": entries}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: two operator entries are named ")

    @pytest.mark.parametrize("name", ["sub/y", "", 5, None, "a\0b"])
    def test_bad_name_exits_2_without_writes(self, tmp_path, capsys, name):
        """A name sub/y once exited 1 after the first entry's files were
        written, and a NUL character stopped the run with a traceback."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": name, "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]}]}),
            encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: entry name must be")
