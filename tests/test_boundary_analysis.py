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
import warnings

import numpy as np
import pytest

from acspectra import boundary_analysis, cmv, jacobi, schrodinger
from acspectra.boundary_analysis import (SweepFamily, carry, exact_sweep, interior, off_axis,
                                         multiplicity_sets, require_off_axis, stack_2x2,
                                         sweep_at, sweep_csv, sweep_phase, transfer_matrix,
                                         transfer_product, transfer_trace)
from acspectra.interval_sets import essential_closure, points_hull
from conftest import (DIVERGENCE_CAP, SCHEDULE, blowup_flags, boundary_sweep, relaxed_ok,
                      richardson_sequence)


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


def richardson_accepted(bd, key):
    """Where a Richardson sweep's value of key is usable: relaxed_ok, below
    the divergence cap, and finite."""
    v, err, conv = bd[key]
    return relaxed_ok(v, err, conv) & ~bd["div_" + key] & np.isfinite(v)


def accepted_sweep(bd):
    """A Richardson sweep whose ok is richardson_accepted, the oracle's own
    acceptance, as the shared functions read an exact sweep's ok."""
    return {k: (v[0], v[1], richardson_accepted(bd, k)) if isinstance(v, tuple) else v
            for k, v in bd.items()}


def family(circle, zero_floor=False, columns=()):
    """A SweepFamily over the analytic models: the phase key is 'm' on the
    line and 'f' on the circle."""
    key = "f" if circle else "m"
    return SweepFamily(kernel=None, grid=None, sites=lambda op: (0, 1), circle=circle,
                       pair=(key, key), phase_key=key, csv_columns=columns,
                       zero_floor=zero_floor)


def swept(monkeypatch, fam, sweep=None):
    """An operator of family fam whose boundary sweep at every site is
    sweep(grid), boundary_grid (which every shared read calls) monkeypatched;
    by default the Richardson sweep of fam's analytic model through its own
    acceptance."""
    if sweep is None:
        kernel = disk_mixed if fam.circle else uniform
        sweep = lambda grid: accepted_sweep(boundary_sweep(kernel, grid, fam.circle))
    monkeypatch.setattr(boundary_analysis, "boundary_grid", lambda op, grid, site: sweep(grid))
    return type("Model", (), {"_FAMILY": fam})()


def sweep_of(key, values, err=0.0, conv=True, div=False):
    """A one-key boundary sweep dict with the given values; as in an exact
    sweep, a diverged value is not ok."""
    v = np.asarray(values, dtype=complex)
    full = lambda x, dtype: np.full(v.shape, x, dtype=dtype)
    return {key: (v, full(err, float), full(conv and not div, bool)),
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
    each key over its first eight stages; the kernel's 'floquet' entry is
    skipped, as boundary_sweep skips it."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps)
            for eps in REFERENCE_SCHEDULE]
    out, early = {}, {}
    for k in [k for k in rows[0] if k != "floquet"]:
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
    "schrodinger": (schrodinger._m_grid, schrodinger.boundary_schrodinger_grid,
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


def raw_exact_sweep(fam, op, grid, site):
    """exact_sweep of every key of the family kernel, Jacobi's m_plus and
    m_minus too, which the reports' sweep (boundary_grid, the pair and the
    phase key only) drops; at boundary_grid's reference points, whose eps
    assert_report_sweep_is_raw pins by the bits."""
    kernel, circle = SWEEPS[fam][0], fam == "cmv"
    eps = boundary_analysis.REFERENCE_EPS * (1.0 if circle else 1.0 + op.sup_bound())
    return exact_sweep(lambda zs, near: kernel(op, zs, site, near), grid, circle, eps)


def assert_report_sweep_is_raw(fam, op, grid, site, raw):
    """The reports' sweep (boundary_grid) keeps the family's pair and phase
    key and their flags, each with the bits of raw, the raw_exact_sweep
    at the same site; returns the reports' sweep."""
    got = SWEEPS[fam][1](op, grid, site)
    keys = (*op._FAMILY.pair, op._FAMILY.phase_key)
    assert set(got) == {p + k for k in keys for p in ("", "inf_", "div_")}
    for key, v in got.items():
        for a, b in zip(v, raw[key]) if isinstance(v, tuple) else [(v, raw[key])]:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (site, key)
    return got


def assert_exact_matches_richardson(fam, op, grid):
    """At both reference sites, wherever the exact sweep and the 13-stage
    Richardson reference both accept a value, they agree within
    3 err_R + 1e-9 (1 + |v|), so the Richardson error estimate err_R does
    not under-report; and the exact sweep leaves at most 1% of the points
    the reference accepts undetermined.  The exact sweep is of every
    kernel key, and the reports' sweep has its bits on the keys it keeps."""
    kernel, _, _, sites_of = SWEEPS[fam]
    for site in sites_of(op):
        exact = raw_exact_sweep(fam, op, grid, site)
        assert_report_sweep_is_raw(fam, op, grid, site, exact)
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
                op, grid, *_ = _load(descriptor, None, grid_config)
                assert_exact_matches_richardson(descriptor["type"], op, grid[::4])

    @pytest.mark.parametrize("name", ["period2_jacobi", "geronimus_cmv", "square_well"])
    def test_report_sweep_keeps_the_pair_and_phase_key_only(self, request, name):
        """At both sites boundary_grid keeps the family's pair and phase
        key, with the bits of exact_sweep of the raw kernel, on the full
        default grid; a Jacobi sweep drops m_plus and m_minus."""
        fam = FIXTURES[name]
        op = request.getfixturevalue(name)
        _, _, grid_of, sites_of = SWEEPS[fam]
        grid = grid_of(op)
        for site in sites_of(op):
            got = assert_report_sweep_is_raw(fam, op, grid, site,
                                             raw_exact_sweep(fam, op, grid, site))
            assert ("m_plus" in got) == (fam == "schrodinger")

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
        bd = accepted_sweep(boundary_sweep(uniform, np.array([0.5]), False))
        vals, _, ok = sweep_phase(family(False), bd)
        assert ok[0] and vals[0] == pytest.approx(0.5, abs=1e-9)


class TestOffAxisRule:
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

    def test_equal_values_within_the_summed_margins_are_multiplicity_one(self, monkeypatch):
        # each margin is 1e-10 (1 + |v|) ~ 2e-10 here, so 3e-10 apart is
        # equal and 5e-10 apart is not; a nonreal M_- makes the third point
        # multiplicity one, a nonreal pair the fourth multiplicity two
        Mp = np.array([1.0, 1.0, 1.0, 1.0 + 1e-3j], dtype=complex)
        Mm = np.array([1.0 + 3e-10, 1.0 + 5e-10, 1.0 - 1e-3j, 1.0 - 1e-3j], dtype=complex)
        bd = {**sweep_of("p", Mp), **sweep_of("q", Mm)}
        fam = SweepFamily(kernel=None, grid=None, sites=lambda op: (0, 1), circle=False,
                          pair=("p", "q"), phase_key="p", csv_columns=())
        M2, M1 = multiplicity_sets(swept(monkeypatch, fam, lambda grid: bd), np.arange(4.0))
        assert M1.isolated_points == (0.0, 2.0) and M1.intervals == ()
        assert M2.isolated_points == (3.0,) and M2.intervals == ()


class TestSweepCsv:
    COLUMNS = (("x", "loc"), ("xi", "phase"), ("error_estimate", "err"),
               ("re", "re"), ("im", "im"), ("verdict", "verdict"), ("pad", "empty"))

    def test_every_cell_kind_on_the_line(self, monkeypatch):
        grid = np.array([-0.5, 0.5, 1.5])
        op = swept(monkeypatch, family(False, columns=self.COLUMNS))
        lines = sweep_csv(op, grid).split("\n")
        assert lines.pop() == ""
        assert lines[0] == "x,xi,error_estimate,re,im,verdict,pad"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["-0.5", "0.5", "1.5"]
        assert [r[5] for r in rows] == ["exterior", "interior", "exterior"]
        assert [r[6] for r in rows] == ["", "", ""]
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-9)
        assert float(rows[1][4]) == pytest.approx(math.pi, abs=1e-8)
        assert float(rows[0][1]) in (0.0, 1.0)

    def test_circle_verdicts(self, monkeypatch):
        grid = np.array([0.0, 1.0, 2.0])
        op = swept(monkeypatch, family(True, columns=(("theta", "loc"), ("verdict", "verdict"))))
        lines = sweep_csv(op, grid).strip().split("\n")
        # no limit at the point mass; elsewhere Re f = 1, inside the arc
        assert [line.split(",")[1] for line in lines[1:]] == ["undetermined", "interior", "interior"]


    @pytest.mark.parametrize("fixture", ["period2_jacobi", "geronimus_cmv", "square_well"])
    def test_family_csv_reads_back(self, request, fixture):
        """A family CSV has LF line ends and the header of csv_columns, and
        csv.reader reads back the cells it joined: none needed quoting."""
        op = request.getfixturevalue(fixture)
        fam = op._FAMILY
        grid = fam.grid(op)[::40]
        text = sweep_csv(op, grid)
        assert "\r" not in text and text.endswith("\n")
        lines = text[:-1].split("\n")
        assert list(csv.reader(io.StringIO(text))) == [line.split(",") for line in lines]
        assert lines[0].split(",") == [name for name, _ in fam.csv_columns]
        assert len(lines) == grid.size + 1

    @staticmethod
    def per_cell_csv(op, grid) -> str:
        """The CSV written one f-string per cell: the reference of sweep_csv."""
        fam = op._FAMILY
        grid = np.asarray(grid, dtype=float)
        bd = boundary_analysis.boundary_grid(op, grid, fam.sites(op)[0])
        v, _, conv = bd[fam.phase_key]
        vals, errs, ok = sweep_phase(fam, bd)
        inside = interior(fam, vals)
        outside = "edge" if fam.circle else "exterior"
        lines = [",".join(name for name, _ in fam.csv_columns)]
        for k, x in enumerate(grid.tolist()):
            cells = {"loc": f"{x:.12g}",
                     "phase": f"{float(vals[k]):.12g}" if ok[k] else "",
                     "err": f"{float(errs[k]):.6g}",
                     "re": f"{float(v[k].real):.12g}" if conv[k] else "",
                     "im": f"{float(v[k].imag):.12g}" if conv[k] else "",
                     "verdict": (("interior" if inside[k] else outside) if ok[k]
                                 else "undetermined"),
                     "empty": ""}
            lines.append(",".join(cells[kind] for _, kind in fam.csv_columns))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("block", [1, 7, boundary_analysis.CSV_BLOCK])
    @pytest.mark.parametrize("fixture", ["free_jacobi", "period2_jacobi", "free_cmv",
                                         "geronimus_cmv", "free_schrodinger", "square_well"])
    def test_fixture_csv_equals_the_per_cell_writer(self, request, monkeypatch, fixture, block):
        """In row blocks of one row, of 7 and of the default CSV_BLOCK."""
        monkeypatch.setattr(boundary_analysis, "CSV_BLOCK", block)
        op = request.getfixturevalue(fixture)
        grid = op._FAMILY.grid(op)
        assert sweep_csv(op, grid) == self.per_cell_csv(op, grid)

    @pytest.mark.parametrize("block", [1, 7, boundary_analysis.CSV_BLOCK])
    @pytest.mark.parametrize("circle", [False, True])
    def test_odd_cells_equal_the_per_cell_writer(self, monkeypatch, circle, block):
        """Undetermined points, non-finite values and errors, signed zeros,
        and values not ok beside ok ones, in every cell kind, in row blocks
        of one row, of 7 (one short block) and of the default CSV_BLOCK."""
        monkeypatch.setattr(boundary_analysis, "CSV_BLOCK", block)
        v = np.array([-0.0 + 0.5j, 0.5 - 0.0j, math.inf + 1j, math.nan + 0j, 1e-300 + 1e300j,
                      -2.5 - 0.0j, 0.25 + 0.75j, 1j, -0.0 - 0.0j], dtype=complex)
        err = np.array([0.0, 1e-3, math.inf, math.nan, 1e-17, 0.0, -0.0, 1e10, 0.0])
        conv = np.array([True, True, True, False, True, True, False, True, True])
        bd = {"p": (v, err, conv), "inf_p": np.zeros(v.shape, bool),
              "div_p": np.arange(v.size) == 5}
        fam = SweepFamily(kernel=None, grid=None, sites=lambda op: (0, 1), circle=circle,
                          pair=("p", "p"), phase_key="p", csv_columns=self.COLUMNS)
        op = swept(monkeypatch, fam, lambda grid: bd)
        grid = np.array([-0.0, 0.0, 1e-300, -1e300, 2.0 / 3.0, 1.0, 5e-324, math.pi, 123456789.0])
        text = sweep_csv(op, grid)
        assert text == self.per_cell_csv(op, grid)
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert rows[0][0] == "-0" and "-0" in rows[1] + rows[8]
        assert {"inf", "nan"} <= {cell for row in rows for cell in row}
        assert {row[5] for row in rows} >= {"undetermined", "interior"}

    def test_no_grid_points_is_the_header(self, monkeypatch):
        op = swept(monkeypatch, family(False, columns=self.COLUMNS))
        assert sweep_csv(op, np.empty(0)) == "x,xi,error_estimate,re,im,verdict,pad\n"


class TestHelpers:
    def test_require_off_axis(self):
        assert require_off_axis(2 + 1j) == 2 + 1j
        with pytest.raises(ValueError):
            require_off_axis(2.0)

    def test_normalize_pair(self):
        """carry across the identity step divides by max(|x|, |y|), and by
        1 where both vanish."""
        x, y = carry((np.array([3.0, 0.0, 1j]), np.array([-6.0, 0.0, 0.5])),
                     [(1.0, 0.0, 0.0, 1.0)])
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


def _random_steps(rng, count, points):
    """count random complex 2x2 steps over points, each entry of modulus
    up to about 3, so that long products grow past the float range."""
    return [tuple(rng.normal(0.0, 1.5, points) + 1j * rng.normal(0.0, 1.5, points)
                  for _ in range(4)) for _ in range(count)]


def _reference_product(steps):
    """S_k ... S_1 multiplied out here, one step at a time, as step x
    product in the order applied, with no rescaling."""
    m = steps[0]
    for s00, s01, s10, s11 in steps[1:]:
        m = (s00 * m[0] + s01 * m[2], s00 * m[1] + s01 * m[3],
             s10 * m[0] + s11 * m[2], s10 * m[1] + s11 * m[3])
    return m


class TestTransferProduct:
    def test_bit_for_bit_below_the_bound(self):
        """Below RESCALE_AT the helper keeps the reference loop's operand
        order, so its entries are the reference's bits and its exponent 0;
        no steps give the identity."""
        rng = np.random.default_rng(3100)
        for count in (1, 2, 5, 40):
            steps = _random_steps(rng, count, 257)
            *m, e = transfer_product(iter(steps))
            assert e == 0
            assert all(np.array_equal(x, y) for x, y in zip(m, _reference_product(steps)))
        assert transfer_product(()) == (1.0, 0.0, 0.0, 1.0, 0)

    @pytest.mark.parametrize("bound", [2.0 ** 4, 2.0 ** 40])
    def test_rescaled_product_is_exact(self, monkeypatch, bound):
        """With a small RESCALE_AT the entries stay within the bound times
        a step, and 2^exponent times them is the unscaled product: powers
        of two are exact, so to rounding (1e-15 relative) or better."""
        monkeypatch.setattr(boundary_analysis, "RESCALE_AT", bound)
        rng = np.random.default_rng(3102)
        steps = _random_steps(rng, 60, 129)
        *m, e = transfer_product(steps)
        ref = _reference_product(steps)
        assert np.all(e > 0) and e.dtype.kind == "i"
        top = np.max([np.abs(x) for x in m], axis=0)
        assert np.all(top <= bound * 4.0 * max(np.abs(x).max() for st in steps for x in st))
        scale = np.max([np.abs(x) for x in ref], axis=0)
        for x, y in zip(m, ref):
            assert np.all(np.abs(x * np.ldexp(1.0, e) - y) <= 1e-15 * scale)

    def test_long_products_stay_finite(self):
        """3000 steps of modulus about 3 pass 2^1024 many times over; the
        entries stay finite and the exponent carries the growth."""
        rng = np.random.default_rng(3103)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *m, e = transfer_product(_random_steps(rng, 3000, 33))
        assert all(np.all(np.isfinite(x)) for x in m)
        assert np.all(e > 1024)

    def test_trace_rule(self):
        """2^exponent (m00 + m11) times the phase, real when every imaginary
        part is below 1e-9, inf past the float range."""
        e = np.array([0, 2, 2000])
        product = (np.array([1.0, 1.0, 1.0]) + 0j, 0.0, 0.0, np.array([0.5, 1 + 1e-10j, 1.0]), e)
        assert transfer_trace(product).tolist() == [1.5, 8.0, math.inf]
        tr = transfer_trace(product, 1j)
        assert tr.dtype == complex and tr[0] == 1.5j


def _sine(u, v):
    """|sin| of the angle between the pairs u and v, pointwise."""
    cross = np.abs(u[0] * v[1] - u[1] * v[0])
    return cross / (np.hypot(np.abs(u[0]), np.abs(u[1])) * np.hypot(np.abs(v[0]), np.abs(v[1])))


class TestCarry:
    def test_backward_undoes_forward(self):
        """Forward across seeded random steps, then backward across the
        same steps in reverse order, returns the starting direction.  The
        way back amplifies rounding by the condition of the product, so
        the products are a few steps long."""
        rng = np.random.default_rng(3200)
        for count in (1, 2, 4):
            steps = _random_steps(rng, count, 65)
            start = (rng.normal(size=65) + 1j * rng.normal(size=65), rng.normal(size=65) + 0j)
            there = carry(start, steps)
            # normalized: the larger modulus is 1 to rounding
            assert np.all(np.abs(np.maximum(np.abs(there[0]), np.abs(there[1])) - 1.0) <= 1e-15)
            back = carry(there, steps[::-1], backward=True)
            assert np.all(_sine(back, start) <= 1e-12), count

    def test_parallel_to_the_product(self):
        """carry(pair, steps) is parallel to the product of the steps
        (transfer_product, transfer_matrix) applied to the pair."""
        rng = np.random.default_rng(3201)
        for count in (1, 2, 8):
            steps = _random_steps(rng, count, 65)
            pair = (rng.normal(size=65) + 0j, rng.normal(size=65) + 1j * rng.normal(size=65))
            M = transfer_matrix(transfer_product(steps), (65,))
            want = (M[:, 0, 0] * pair[0] + M[:, 0, 1] * pair[1],
                    M[:, 1, 0] * pair[0] + M[:, 1, 1] * pair[1])
            assert np.all(_sine(carry(pair, steps), want) <= 1e-12), count

    def test_no_steps_return_the_pair_unnormalized(self):
        """An empty step list returns the pair as given, in either
        direction: CMV reads its unpatched Schur function off it."""
        pair = (np.array([3.0 + 1j, 1e300]), np.array([-6.0, 5e-324]))
        for backward in (False, True):
            x, y = carry(pair, (), backward)
            assert x is pair[0] and y is pair[1]
