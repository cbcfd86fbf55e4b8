"""Report assembly, inclusion workflow, config runner, and the two CLIs."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import acspectra
from acspectra import jacobi
from acspectra.errors import SiteDisagreement
from acspectra.harness_cli import (FAMILY_MODULES, SUPPORTED_TYPES, UnknownOperatorType,
                                   _csv_for, build_operator, bundled_config_path,
                                   closure_main, emit_sets_demo, format_set,
                                   run_config, spec_main, verify_inclusion)
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
             "grid": SMALL_GRIDS["cmv"],
             "tolerances": {"oracle_window": 512}},
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
        for t in SUPPORTED_TYPES:
            assert t in str(exc.value)


class TestVerifyInclusion:
    @pytest.mark.parametrize("descriptor,E,kind", [
        (FREE_JACOBI, E_JACOBI, "jacobi"),
        (FREE_CMV, E_CIRCLE, "cmv"),
        (FREE_SCHRODINGER, E_SCHRODINGER, "schrodinger"),
    ])
    def test_free_operators_pass(self, descriptor, E, kind):
        tol = {"oracle_window": 512} if kind == "cmv" else None
        rep = verify_inclusion(descriptor, E, SMALL_GRIDS[kind],
                               tolerances=tol, name=f"free_{kind}")
        assert rep.status == "PASS"
        assert rep.failures == []
        assert rep.theorem_inclusion["status"] == "PASS"
        assert rep.theorem_inclusion["contained_in_ac"]
        assert rep.theorem_inclusion["m2_defect_fraction"] <= 0.01
        assert rep.reflectionless["verdict"]
        for entry in rep.identity_residuals.values():
            assert entry["passed"]

    def test_numpy_scalar_tolerances_are_accepted(self):
        """Library callers may pass numpy scalars; the report is the one of
        the equal Python numbers."""
        plain = {"oracle_window": 512, "identity_draws": 3, "m11_formula_vs_oracle": 1e-9}
        numpy = {"oracle_window": np.int64(512), "identity_draws": np.int32(3),
                 "m11_formula_vs_oracle": np.float64(1e-9),
                 "reflectionless_tol": np.float32(1e-4)}
        args = (FREE_CMV, E_CIRCLE, SMALL_GRIDS["cmv"])
        want = verify_inclusion(*args, tolerances=dict(plain, reflectionless_tol=
                                                       float(np.float32(1e-4))))
        assert verify_inclusion(*args, tolerances=numpy).to_json() == want.to_json()

    @pytest.mark.parametrize("name", ["xi_tol", "reflectionless_tl"])
    def test_unknown_tolerance_name_raises(self, name):
        """A retired or misspelt tolerance is refused, not silently ignored."""
        with pytest.raises(ValueError, match=f"unknown tolerance '{name}'"):
            verify_inclusion(FREE_JACOBI, E_JACOBI, SMALL_GRIDS["jacobi"],
                             tolerances={name: 1e-3})

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
        assert parsed["schema"] == "v1"
        assert parsed["family"] == "jacobi"


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
    # finite, but cosh and sinh of sqrt(v - z) overflow
    "overflowing_piece_value": {"descriptor": {**FREE_SCHRODINGER, "pieces": [[1.0, 1e300]]}},
    "overflowing_patch_value": {"descriptor": {**FREE_SCHRODINGER, "patch": [[0.5, 1e6]]}},
    "jacobi_patch_list": {"descriptor": {**FREE_JACOBI, "patch": [[1.0, 0.0]]}},
    "cmv_patch_list": {"descriptor": {**FREE_CMV, "patch": [[0.1, 0.0]]}},
    "cmv_grid_list": {"descriptor": FREE_CMV, "grid": [1]},
}

# grids of `spec run` entries that are refused, not truncated or swept
BAD_GRIDS = {
    "fractional_points": {"start": -3.0, "stop": 3.0, "points": 1000.5},
    "infinite_points": {"start": -3.0, "stop": 3.0, "points": math.inf},
    "infinite_start": {"start": -math.inf, "stop": 3.0, "points": 1001},
    "nan_stop": {"start": -3.0, "stop": math.nan, "points": 1001},
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


    @pytest.mark.parametrize("case", sorted(BAD_GRIDS) + ["fractional_angles"])
    def test_spec_run_bad_grid_exits_2_without_writes(self, tmp_path, capsys, case):
        entry = ({"descriptor": FREE_CMV, "grid": {"angles": 600.5}} if case == "fractional_angles"
                 else {"descriptor": FREE_JACOBI, "grid": BAD_GRIDS[case]})
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", **entry}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid" in err

    def test_overflowing_potential_exits_2_without_warnings(self, tmp_path):
        """spec run refuses a potential whose transfers overflow before it
        computes anything, so no numpy RuntimeWarning is raised."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "huge", **BAD_ENTRIES["overflowing_piece_value"]}]}), encoding="utf-8")
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
        env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from acspectra.harness_cli import spec_main; "
             "sys.exit(spec_main(sys.argv[1:]))", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "exp(" in proc.stderr
        assert "Warning" not in proc.stderr and not out.exists()

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

    @pytest.mark.parametrize("tolerances", [
        {"reflectionless_tol": "abc"}, {"reflectionless_tol": math.nan},
        {"m11_boundary_real_part": math.inf}, {"xi_tol": 1e-3}, {"oracle_windw": 512},
        {"green_inverse_identity": None}, {"identity_draws": 2.5}, {"identity_draws": 0},
        {"oracle_window": 4}, {"oracle_window": True}, [1e-3]])
    def test_spec_run_bad_tolerances_exit_2_without_writes(self, tmp_path, capsys,
                                                            tolerances):
        """A bad tolerance on the second operator stops the run before the
        first report is written."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"operators": [
            {"name": "ok", "descriptor": FREE_JACOBI, "grid": SMALL_GRIDS["jacobi"]},
            {"name": "bad", "descriptor": FREE_CMV, "grid": SMALL_GRIDS["cmv"],
             "tolerances": tolerances}]}), encoding="utf-8")
        out = tmp_path / "out"
        assert spec_main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "tolerance" in capsys.readouterr().err

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
    """`spec cmv --emit report` exits as `spec run` does on the same entry:
    1 when the report it writes is FAILED (this operator of the verdict
    census, seed 0 rotation 6, has M2 miss 1.16% of E, past the 1% gate:
    the one-step margin of E reads gap points), 0 when it is PASS."""
    desc = tmp_path / "op.json"
    out = tmp_path / "report.json"
    failing = {"type": "cmv", "period": 3,
               "alpha": [[-0.11, 0.485], [0.376, -0.073], [0.475, 0.242]]}
    for descriptor, code in ((failing, 1), (FREE_CMV, 0)):
        desc.write_text(json.dumps(descriptor), encoding="utf-8")
        assert spec_main(["cmv", "--desc", str(desc), f"--grid=0:{2 * math.pi!r}:1024",
                          "--emit", "report", "--out", str(out)]) == code
        status = json.loads(out.read_text(encoding="utf-8"))["status"]
        assert status == ("FAILED" if code else "PASS")


# report_suite seed 9, rotation 17 of the benchmark: the ac spectrum's lower
# edge is the band edge -3.0341 at both sites.  A fixed phase threshold
# (xi > 1e-3) once read it as -3.0253 at site 1, where Im g is 1e-3 but xi
# below 1e-3 at the 4 grid points next to the edge
SITE_DISAGREEMENT = {"type": "jacobi", "period": 1, "a": [1.057], "b": [-0.92],
                     "patch": {"-1": [0.714, 0.441], "1": [0.557, -1.296],
                               "2": [0.475, 0.911]}}


@pytest.fixture
def site_one_cut(monkeypatch):
    """Site 1 of every Jacobi operator reads its phase on the axis below
    -3.0253, so the ac spectra of SITE_DISAGREEMENT's two sites differ by 4
    grid steps at the lower edge."""
    xi_grid = jacobi.xi_grid

    def cut(J, lams, n0):
        vals, errs, ok = xi_grid(J, lams, n0)
        if n0 == 1:
            vals = np.where(ok & (np.asarray(lams) < -3.0253), 0.0, vals)
        return vals, errs, ok
    monkeypatch.setattr(jacobi, "xi_grid", cut)


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
    assert ac.intervals[0].lo == pytest.approx(-3.0341, abs=1e-4)
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
        assert exc.value.spectrum.intervals[0].lo == pytest.approx(-3.0341, abs=1e-4)
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
        assert rep["ac_spectrum"]["intervals"][0][0] == pytest.approx(-3.0341, abs=1e-4)
        assert json.loads((out / "after_report.json").read_text())["status"] == "PASS"
        assert (out / "split.csv").exists() and (out / "after.csv").exists()
        assert capsys.readouterr().out.splitlines()[1] == "after: PASS"


# operators whose ac spectrum has zero measure on the default grid: bands of
# width ~1e-9 around -1 and 1, and a potential far above the grid top (its
# transfers grow like exp(141), below the load limit)
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

    @pytest.mark.parametrize("doc", [{"intervals": 5}, [1, 2], {"intervals": [[None, 1]]},
                                     {"points": ["x"]}, {"intervals": [[0, 1, "ox"]]},
                                     {"family": "rational_fat"}])
    def test_malformed_set_exits_2(self, tmp_path, capsys, doc):
        src = tmp_path / "s.json"
        src.write_text(json.dumps(doc), encoding="utf-8")
        assert closure_main(["essential", "--input", str(src)]) == 2
        assert "error: cannot read set JSON" in capsys.readouterr().err


CSV_HEADERS = {"jacobi": "lambda,xi,error_estimate,verdict",
               "cmv": "theta,re_m11,im_m11,xi,verdict,r00,r11,rank",
               "schrodinger": "lambda,xi,re_g,im_g,verdict"}


@pytest.mark.parametrize("fixture", ["free_jacobi", "period2_jacobi", "geronimus_cmv",
                                     "free_schrodinger", "square_well"])
def test_csv_columns_and_cells(request, fixture):
    """One row per grid point under the family's header; the phase cell is
    empty exactly at undetermined points, the re/im cells exactly where the
    phase key did not converge, and no cell reads nan."""
    op = request.getfixturevalue(fixture)
    kind = op.to_descriptor()["type"]
    fam = FAMILY_MODULES[kind]._FAMILY
    grid = fam.grid(op)
    lines = _csv_for(kind, op, grid).split("\n")
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
    conv = fam.sweep(op, grid, fam.sites(op)[0])[fam.phase_key][2]
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

    def test_emit_report(self, tmp_path, capsys):
        desc = tmp_path / "op.json"
        desc.write_text(json.dumps(FREE_CMV), encoding="utf-8")
        assert spec_main(["cmv", "--desc", str(desc),
                          "--grid=0:6.283185307179586:512",
                          "--emit", "report"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "PASS"
        assert doc["family"] == "cmv"

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
    scale and the report PASSes for c <= 10; beyond, the 801-site window
    of the green_inverse_identity oracle is too short for the scale."""
    rep = verify_inclusion({"type": "jacobi", "period": 2, "a": [c, 0.7 * c],
                            "b": [0.5 * c, -0.5 * c]})
    assert rep.theorem_inclusion["status"] == "PASS"
    if c <= 10:
        assert rep.status == "PASS", rep.failures
