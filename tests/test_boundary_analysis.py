"""Boundary sweeps on analytic models, and the exact route against its
Richardson oracle.

Every model here has a closed-form boundary behavior, so the extrapolated
limits of boundary_sweep, and the ac hull read off them, can be checked
against exact values.  The reports' exact_sweep is checked against a
13-stage Richardson sweep on the family kernels.
"""

import csv
import io
import math
import os
import sys

import numpy as np
import pytest

from acspectra import cmv, jacobi, schrodinger
from acspectra.boundary_analysis import (DIVERGENCE_CAP, SCHEDULE, SweepFamily, accepted,
                                         blowup_flags, boundary_sweep, exact_sweep, interior,
                                         normalize_pair, off_axis, plus_side, relaxed_ok,
                                         require_off_axis, richardson_sequence,
                                         stack_2x2, sweep_at, sweep_csv,
                                         sweep_multiplicity_sets, sweep_phase)
from acspectra.interval_sets import essential_closure, points_hull


def uniform(zs):
    """Stieltjes transform of the uniform density on [0, 1]: Im = pi on (0, 1)."""
    return {"m": np.log((1.0 - zs) / (-zs))}


def disk_pole(zs):
    """Caratheodory function of the unit point mass at angle 0."""
    return {"f": (1.0 + zs) / (1.0 - zs)}


def disk_mixed(zs):
    """Normalized Lebesgue measure plus the unit point mass at angle 0: Re = 1
    on the circle away from 0."""
    return {"f": 1.0 + (1.0 + zs) / (1.0 - zs)}


def family(circle, zero_floor=False, columns=()):
    """A SweepFamily over the analytic models: the phase key is 'm' on the
    line and 'f' on the circle, and the sweep ignores the operator."""
    kernel, key = (disk_mixed, "f") if circle else (uniform, "m")
    return SweepFamily(sweep=lambda op, grid, site: boundary_sweep(kernel, grid, circle),
                       phase=None, grid=None, sites=lambda op: (0, 1), circle=circle,
                       pair=(key, key), phase_key=key,
                       csv_columns=columns, zero_floor=zero_floor)


def sweep_of(key, values, err=0.0, conv=True, div=False):
    """A one-key boundary sweep dict with the given values."""
    v = np.asarray(values, dtype=complex)
    full = lambda x, dtype: np.full(v.shape, x, dtype=dtype)
    return {key: (v, full(err, float), full(conv, bool)),
            "inf_" + key: full(False, bool), "div_" + key: full(div, bool)}


class TestRichardson:
    def test_linear_error_collapses(self):
        eps = np.asarray(SCHEDULE)
        vals = 3.0 + 2.0 * eps + 0.5 * eps ** 2
        value, err, conv = richardson_sequence(vals)
        assert conv and abs(value - 3.0) < 1e-9 and err < 1e-8

    def test_nonconverging_sequence_flagged(self):
        vals = np.cos(np.arange(13) * 2.0)
        _, _, conv = richardson_sequence(vals)
        assert not conv

    @pytest.mark.parametrize("values", [np.arange(4.0), np.zeros((4, 3)), np.array(1.0)],
                             ids=["four_samples", "four_rows", "scalar"])
    def test_fewer_than_five_samples_are_refused(self, values):
        with pytest.raises(ValueError, match="at least 5 samples"):
            richardson_sequence(values)

    def test_five_samples_are_enough(self):
        # v = 0..4: the extrapolants are 10/3, 13/3, 16/3, a constant step
        # that does not contract
        value, err, conv = richardson_sequence(np.arange(5.0))
        assert value == pytest.approx(16.0 / 3.0) and err == pytest.approx(1.0) and not conv

    def test_relaxed_ok_accepts_noise_floor(self):
        conv = np.array([False, False, True])
        err = np.array([1e-9, 0.5, 1e-3])
        val = np.array([1.0, 1.0, 1.0])
        assert relaxed_ok(val, err, conv).tolist() == [True, False, True]


class TestSchedule:
    def test_geometric_schedule(self):
        s = SCHEDULE
        assert len(s) == 5
        assert s[0] == 0.1 * 0.5 ** 8
        assert all(b / a == 0.5 for a, b in zip(s, s[1:]))
        assert s == REFERENCE_SCHEDULE[-5:]


# the 13-stage schedule eps_k = 0.1 * 2^-k, k = 0..12, whose last five
# stages are SCHEDULE: richardson_sequence reads only those, and the first
# eight fed only the divergence flag
REFERENCE_SCHEDULE = tuple(0.1 * 0.5 ** k for k in range(13))


def reference_sweep(kernel, grid, circle):
    """boundary_sweep over REFERENCE_SCHEDULE, plus the largest |value| of
    each key over its first eight stages."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps)
            for eps in REFERENCE_SCHEDULE]
    out, early = {}, {}
    for k in rows[0]:
        arr = np.array([row[k] for row in rows])
        out[k] = richardson_sequence(arr)
        out["inf_" + k], out["div_" + k] = blowup_flags(np.abs(arr))
        early[k] = float(np.max(np.abs(arr[:8])))
    return out, early


# family -> (kernel, sweep, grid, reference sites)
SWEEPS = {
    "jacobi": (jacobi._weyl_grid, jacobi.boundary_weyl_grid, jacobi.default_grid,
               lambda op: (0, 1)),
    "cmv": (cmv._M11_grid, cmv.boundary_cmv_grid, lambda op: cmv.default_angles(1024),
            lambda op: (0, 1)),
    "schrodinger": (schrodinger._weyl_grid, schrodinger.boundary_schrodinger_grid,
                    schrodinger.default_grid, lambda op: (0.0, 0.5 * op.period)),
}
FIXTURES = {"free_jacobi": "jacobi", "period2_jacobi": "jacobi", "free_cmv": "cmv",
            "geronimus_cmv": "cmv", "free_schrodinger": "schrodinger",
            "square_well": "schrodinger"}


def random_operator(family, period, rng):
    """A periodic operator of the family with a patch on 1-3 sites (pieces)."""
    patch = rng.choice(np.arange(-3, 4), int(rng.integers(1, 4)), replace=False)
    if family == "jacobi":
        return jacobi.JacobiCoefficients(
            period, tuple(rng.uniform(0.5, 1.5, period)), tuple(rng.uniform(-1.0, 1.0, period)),
            {int(n): (rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)) for n in patch})
    if family == "cmv":
        alphas = rng.uniform(0.05, 0.7, period) * np.exp(1j * rng.uniform(0, 2 * math.pi, period))
        return cmv.VerblunskyCoefficients(
            period, tuple(alphas),
            {int(n): complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for n in patch})
    weights = rng.integers(1, 5, period)
    return schrodinger.PiecewisePotential(
        1.0, tuple(zip(weights / weights.sum(), rng.uniform(0.0, 6.0, period))),
        tuple(zip(rng.uniform(0.1, 0.6, patch.size), rng.uniform(-2.0, 6.0, patch.size))))


def _operators():
    cases = [pytest.param(fam, name, id=name) for name, fam in FIXTURES.items()]
    rng = np.random.default_rng(1813)
    for fam in SWEEPS:
        for period in range(1, 5):
            cases.append(pytest.param(fam, random_operator(fam, period, rng),
                                      id=f"random_{fam}_period{period}"))
    return cases


class TestFiveStageSweep:
    @pytest.mark.parametrize("fam, op", _operators())
    def test_matches_the_thirteen_stage_sweep(self, request, fam, op):
        """boundary_sweep equals the 13-stage reference bit for bit in every
        value, error, convergence and blowup flag at both reference sites;
        the eight dropped stages stay three decades below DIVERGENCE_CAP, so
        they never set a divergence flag."""
        if isinstance(op, str):
            op = request.getfixturevalue(op)
        kernel, _, grid_of, sites_of = SWEEPS[fam]
        grid = grid_of(op)
        for site in sites_of(op):
            got = boundary_sweep(lambda zs: kernel(op, zs, site), grid, fam == "cmv")
            want, early = reference_sweep(lambda zs: kernel(op, zs, site), grid, fam == "cmv")
            assert got.keys() == want.keys()
            for key, arrays in want.items():
                pairs = zip(got[key], arrays) if isinstance(arrays, tuple) else [(got[key], arrays)]
                for a, b in pairs:
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (site, key)
            for key, peak in early.items():
                assert peak < DIVERGENCE_CAP / 1e3, (site, key, peak)


def richardson_accepted(bd, key):
    """Where a Richardson sweep's value of key is usable: relaxed_ok, below
    the divergence cap, and finite."""
    v, err, conv = bd[key]
    return relaxed_ok(v, err, conv) & ~bd["div_" + key] & np.isfinite(v)


def report_suite_operators(seed, rotation, workdir):
    """The (name, descriptor) pairs of one rotation of the benchmark's
    report_suite workload, drawn by its own generator."""
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    suite = workloads.ReportSuite(seed, str(workdir))
    suite._op = lambda name, descriptor: (name, descriptor)
    return suite.rotation(rotation)


def assert_exact_matches_richardson(fam, op, grid):
    """At both reference sites, wherever the exact sweep and the 13-stage
    Richardson reference both accept a value, they agree within
    3 err_R + 1e-9 (1 + |v|), so the Richardson error estimate err_R does
    not under-report; and the exact sweep leaves at most 1% of the points
    the reference accepts undetermined."""
    kernel, sweep, _, sites_of = SWEEPS[fam]
    for site in sites_of(op):
        exact = sweep(op, grid, site)
        want, _ = reference_sweep(lambda zs: kernel(op, zs, site), grid, fam == "cmv")
        for key in want:
            if key.startswith(("inf_", "div_")):
                continue
            v, _, ok = exact[key]
            w, err, _ = want[key]
            both = ok & richardson_accepted(want, key)
            gap = np.abs(v - w) - (3.0 * err + 1e-9 * (1.0 + np.abs(w)))
            assert not np.any(both & (gap > 0.0)), (site, key, grid[both & (gap > 0.0)])
            lost = richardson_accepted(want, key) & ~ok
            assert lost.sum() <= 0.01 * grid.size, (site, key, grid[lost])


class TestExactRoute:
    """The exact sweep of the reports against the 13-stage Richardson
    reference, its independent oracle, on the six fixtures and on the
    report_suite operators of seeds 0, 1 and 9 (every fourth point of the
    default grids: both routes work point by point)."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixtures(self, request, name):
        fam = FIXTURES[name]
        op = request.getfixturevalue(name)
        assert_exact_matches_richardson(fam, op, SWEEPS[fam][2](op)[::4])

    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_report_suite_operators(self, tmp_path, seed):
        from acspectra.harness_cli import _load
        for rotation in range(1, 21):
            for name, descriptor in report_suite_operators(seed, rotation, tmp_path):
                grid_config = {"angles": 1024} if descriptor["type"] == "cmv" else None
                op, grid, _, _ = _load(descriptor, None, grid_config)
                assert_exact_matches_richardson(descriptor["type"], op, grid[::4])

    def test_two_kernel_calls_on_the_axis_and_off_it(self):
        """exact_sweep calls the kernel at the reference points with near =
        0, then on the axis with the branch the first call returned; a
        point ambiguous in either call is not ok and carries no flag, a
        pole is flagged inf, a value that is not finite div."""
        grid = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        calls = []

        def kernel(zs, near):
            calls.append((zs.copy(), near))
            branch = np.full(zs.shape, 7.0)
            v = np.array([1.0, 2e7, np.inf, 2e7, np.inf])[:zs.size] * (1.0 - zs.imag) + 1j * zs.imag
            # point 3 is ambiguous at the reference only, point 4 on the axis only
            return {"m": v, "floquet": (branch, zs.real == (3.0 if zs.imag.any() else 4.0))}
        bd = exact_sweep(kernel, grid, False, 1e-3)
        assert np.array_equal(calls[0][0], grid + 1e-3j) and calls[0][1] == 0.0
        assert np.array_equal(calls[1][0], grid) and np.array_equal(calls[1][1], np.full(5, 7.0))
        v, err, ok = bd["m"]
        assert ok.tolist() == [True, False, False, False, False]
        assert bd["inf_m"].tolist() == [False, True, False, False, False]
        assert bd["div_m"].tolist() == [False, False, True, False, False]
        assert err[0] == abs(1.0 - (1.0 - 1e-3 + 1e-3j)) and err[2] == np.inf
        circle = exact_sweep(kernel, np.array([0.5]), True, 1e-3)
        assert calls[2][0][0] == (1.0 - 1e-3) * np.exp(0.5j) and calls[3][0][0] == np.exp(0.5j)
        assert set(circle) == {"m", "inf_m", "div_m"}


class TestAnalyticModels:
    GRID = np.linspace(-0.5, 1.5, 201)

    def test_uniform_density_limit(self):
        grid = self.GRID
        m, err, conv = boundary_sweep(uniform, grid, False)["m"]
        inner = (grid >= 0.05) & (grid <= 0.95)
        assert conv[inner].all()
        # principal log approached from above: Im -> +pi on the support
        assert np.abs(m.imag[inner] - math.pi).max() < 1e-8
        assert np.abs(m.real[inner] - np.log((1.0 - grid[inner]) / grid[inner])).max() < 1e-8

    def test_uniform_density_support(self):
        grid = self.GRID
        step = grid[1] - grid[0]
        m, err, conv = boundary_sweep(uniform, grid, False)["m"]
        passing = grid[relaxed_ok(m, err, conv) & (m.imag > 0.0)]
        s = essential_closure(points_hull(passing, step))
        assert len(s.intervals) == 1
        assert s.intervals[0].lo == pytest.approx(0.0, abs=2 * step)
        assert s.intervals[0].hi == pytest.approx(1.0, abs=2 * step)

    def test_disk_regular_point(self):
        bd = boundary_sweep(disk_pole, np.array([math.pi]), True)
        f, err, conv = bd["f"]
        assert conv[0] and abs(f[0]) < 1e-8
        assert not (bd["inf_f"][0] or bd["div_f"][0])

    def test_disk_boundary_value(self):
        # (1 + e^{i theta}) / (1 - e^{i theta}) = i cot(theta / 2)
        f, err, conv = boundary_sweep(disk_pole, np.array([1.0, 2.0]), True)["f"]
        assert conv.all()
        assert np.abs(f - 1j / np.tan(np.array([0.5, 1.0]))).max() < 1e-8

    def test_disk_point_mass_does_not_converge(self):
        # the values grow like 2 / eps at the mass, below the infinite limit
        bd = boundary_sweep(disk_pole, np.array([0.0]), True)
        assert not bd["f"][2][0]
        assert not (bd["inf_f"][0] or bd["div_f"][0])

    def test_regular_limits_on_the_line(self):
        grid = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        m, err, conv = boundary_sweep(lambda zs: {"m": zs}, grid, False)["m"]
        assert conv.all() and np.abs(m - grid).max() < 1e-12

    def test_pole_point_does_not_converge(self):
        grid = np.array([1.0, 1.5, 2.0, 2.5, 3.0])
        bd = boundary_sweep(lambda zs: {"m": 1.0 / (2.0 - zs)}, grid, False)
        m, err, conv = bd["m"]
        assert conv.tolist() == [True, True, False, True, True]
        away = grid != 2.0
        assert np.abs(m[away] - 1.0 / (2.0 - grid[away])).max() < 1e-10
        assert not (bd["inf_m"].any() or bd["div_m"].any())

    def test_heavy_pole_is_infinite(self):
        # mass 1e3: |m| passes 1e6 with monotone growth and stays below 1e8
        grid = np.array([1.5, 2.0, 2.5])
        bd = boundary_sweep(lambda zs: {"m": 1e3 / (2.0 - zs)}, grid, False)
        assert bd["inf_m"].tolist() == [False, True, False]
        assert not bd["div_m"].any()

    def test_hard_cap_flags_divergence(self):
        grid = np.array([0.0, 1.0])
        bd = boundary_sweep(lambda zs: {"m": np.full(zs.shape, 1e12j)}, grid, False)
        assert bd["div_m"].all() and not bd["inf_m"].any()


class TestBlowupFlags:
    @pytest.mark.parametrize("mags, infinite, diverged", [
        ([1e2, 1e3, 1e4, 1e5, 1e7], True, False),
        ([1e2, 1e7, 1e4, 1e5, 2e6], False, False),
        ([1e9, 1e3, 1e2, 1e1, 1.0], False, True),
    ], ids=["growth_past_limit", "growth_broken", "past_hard_cap"])
    def test_flags(self, mags, infinite, diverged):
        inf, div = blowup_flags(np.array(mags))
        assert bool(inf) is infinite and bool(div) is diverged


class TestSweepPhase:
    @pytest.mark.parametrize("value, phase", [
        (1.0 + 0.0j, 0.0), (1.0j, 0.5), (-1.0 + 0.0j, 1.0), (1.0 + 1.0j, 0.25),
    ])
    def test_line_phase_is_arg_over_pi(self, value, phase):
        vals, _, ok = sweep_phase(family(False), sweep_of("m", [value]))
        assert ok[0] and vals[0] == pytest.approx(phase, abs=1e-15)

    @pytest.mark.parametrize("value, phase", [
        (1.0 + 0.0j, 0.0), (1.0j, 0.5), (-1.0j, -0.5), (1.0 - 1.0j, -0.25),
    ])
    def test_circle_phase_is_arg_over_pi(self, value, phase):
        vals, _, ok = sweep_phase(family(True), sweep_of("f", [value]))
        assert ok[0] and vals[0] == pytest.approx(phase, abs=1e-15)

    def test_negative_part_within_error_is_clamped(self):
        bd = sweep_of("m", [-1.0 - 1e-6j, -1.0 - 1e-2j], err=1e-6)
        vals, _, ok = sweep_phase(family(False), bd)
        assert ok.tolist() == [True, False]
        assert vals[0] == 1.0 and np.isnan(vals[1])

    def test_diverged_and_unconverged_points_are_undetermined(self):
        for bd in (sweep_of("m", [1.0j], div=True), sweep_of("m", [1.0j], err=1.0, conv=False)):
            vals, _, ok = sweep_phase(family(False), bd)
            assert not ok[0] and np.isnan(vals[0])

    def test_zero_floor_drops_boundary_zeros(self):
        bd = sweep_of("m", [1e-11j, 1.0j], err=1e-12)
        assert sweep_phase(family(False), bd)[2].tolist() == [True, True]
        assert sweep_phase(family(False, zero_floor=True), bd)[2].tolist() == [False, True]

    def test_uniform_density_phase_at_its_center(self):
        # Re m = log((1 - x) / x) vanishes at x = 1/2, so Arg m = pi / 2 there
        vals, _, ok = sweep_phase(family(False), boundary_sweep(uniform, np.array([0.5]), False))
        assert ok[0] and vals[0] == pytest.approx(0.5, abs=1e-9)


class TestOffAxisRule:
    def test_accepted_needs_a_finite_undiverged_ok_value(self):
        # the exact route declares each value ok or not: a small error
        # accepts no point that is not ok (the Richardson noise plateau of
        # relaxed_ok is the oracle's alone)
        v = np.array([1.0, 1.0, np.nan, 1.0, 1.0], dtype=complex)
        err = np.array([0.0, 0.0, 0.0, 1e-5, 1e-8])
        ok = np.array([True, True, True, False, False])
        flags = np.array([False, True, False, False, False])
        bd = {"m": (v, err, ok), "inf_m": ~flags, "div_m": flags}
        assert accepted(bd, "m").tolist() == [True, False, False, False, False]

    def test_margin_is_ten_errors_plus_a_relative_floor(self):
        v = np.array([2.0 + 4e-10j, 2.0 + 2e-10j, 2.0 - 2e-8j, 2.0 - 1e-8j], dtype=complex)
        err = np.array([0.0, 0.0, 1e-9, 1e-9])
        assert off_axis(family(False), v, err).tolist() == [True, False, True, False]
        # on the circle the part across the axis is Re v, which -1j v carries
        assert off_axis(family(True), v, err).all()
        assert off_axis(family(True), -1j * v, err).tolist() == [True, False, True, False]

    def test_phase_reads_values_within_the_margin_on_the_axis(self):
        bd = sweep_of("f", [1e-14 + 1j, -1e-14 - 1j, 1e-6 + 1j], err=1e-15)
        vals, _, ok = sweep_phase(family(True), bd)
        assert ok.all() and vals[:2].tolist() == [0.5, -0.5]
        assert interior(family(True), vals).tolist() == [False, False, True]

    def test_equal_values_within_the_summed_margins_are_multiplicity_one(self):
        # each margin is 1e-10 (1 + |v|) ~ 2e-10 here, so 3e-10 apart is
        # equal and 5e-10 apart is not; a nonreal M_- makes the third point
        # multiplicity one, a nonreal pair the fourth multiplicity two
        Mp = np.array([1.0, 1.0, 1.0, 1.0 + 1e-3j], dtype=complex)
        Mm = np.array([1.0 + 3e-10, 1.0 + 5e-10, 1.0 - 1e-3j, 1.0 - 1e-3j], dtype=complex)
        bd = {**sweep_of("p", Mp), **sweep_of("q", Mm)}
        fam = SweepFamily(sweep=lambda op, grid, site: bd, phase=None, grid=None,
                          sites=lambda op: (0, 1), circle=False, pair=("p", "q"),
                          phase_key="p", csv_columns=())
        M2, M1 = sweep_multiplicity_sets(fam, None, np.arange(4.0))
        assert M1.isolated_points == (0.0, 2.0) and M1.intervals == ()
        assert M2.isolated_points == (3.0,) and M2.intervals == ()


class TestSweepCsv:
    COLUMNS = (("x", "loc"), ("xi", "phase"), ("error_estimate", "err"),
               ("re", "re"), ("im", "im"), ("verdict", "verdict"), ("pad", "empty"))

    def test_every_cell_kind_on_the_line(self):
        grid = np.array([-0.5, 0.5, 1.5])
        lines = sweep_csv(family(False, columns=self.COLUMNS), None, grid).split("\n")
        assert lines.pop() == ""
        assert lines[0] == "x,xi,error_estimate,re,im,verdict,pad"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["-0.5", "0.5", "1.5"]
        assert [r[5] for r in rows] == ["exterior", "interior", "exterior"]
        assert [r[6] for r in rows] == ["", "", ""]
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[1][4]) == pytest.approx(math.pi, abs=1e-8)
        assert float(rows[0][1]) in (0.0, 1.0)

    def test_circle_verdicts(self):
        grid = np.array([0.0, 1.0, 2.0])
        lines = sweep_csv(family(True, columns=(("theta", "loc"), ("verdict", "verdict"))),
                          None, grid).strip().split("\n")
        # no limit at the point mass; elsewhere Re f = 1, inside the arc
        assert [line.split(",")[1] for line in lines[1:]] == ["undetermined", "interior", "interior"]


    @pytest.mark.parametrize("module, fixture", [
        (jacobi, "period2_jacobi"), (cmv, "geronimus_cmv"), (schrodinger, "square_well")])
    def test_family_csv_reads_back(self, request, module, fixture):
        """A family CSV has LF line ends and the header of csv_columns, and
        csv.reader reads back the cells it joined: none needed quoting."""
        op = request.getfixturevalue(fixture)
        fam = module._FAMILY
        grid = fam.grid(op)[::40]
        text = sweep_csv(fam, op, grid)
        assert "\r" not in text and text.endswith("\n")
        lines = text[:-1].split("\n")
        assert list(csv.reader(io.StringIO(text))) == [line.split(",") for line in lines]
        assert lines[0].split(",") == [name for name, _ in fam.csv_columns]
        assert len(lines) == grid.size + 1


class TestHelpers:
    @pytest.mark.parametrize("side, plus", [("+", True), ("-", False)])
    def test_plus_side(self, side, plus):
        assert plus_side(side) is plus

    @pytest.mark.parametrize("side", ["plus", "", None])
    def test_plus_side_rejects(self, side):
        with pytest.raises(ValueError):
            plus_side(side)

    def test_require_off_axis(self):
        assert require_off_axis(2 + 1j) == 2 + 1j
        with pytest.raises(ValueError):
            require_off_axis(2.0)

    def test_normalize_pair(self):
        x, y = normalize_pair(np.array([3.0, 0.0, 1j]), np.array([-6.0, 0.0, 0.5]))
        assert x.tolist() == [0.5, 0.0, 1j] and y.tolist() == [-1.0, 0.0, 0.5]

    def test_stack_2x2_layout(self):
        M = stack_2x2(np.array([1.0, 5.0]), 2.0, 3.0, np.array([4.0, 8.0]), (2,))
        assert M.shape == (2, 2, 2) and M.dtype == complex
        assert M[1].tolist() == [[5.0, 2.0], [3.0, 8.0]]

    def test_sweep_at_reads_tuples_and_flags(self):
        bd = boundary_sweep(uniform, np.array([-0.5, 0.5, 1.5]), False)
        sub = sweep_at(bd, np.array([False, True, False]))
        assert set(sub) == set(bd)
        assert all(a.shape == (1,) for a in sub["m"]) and sub["inf_m"].shape == (1,)
        assert sub["m"][0][0] == bd["m"][0][1]
