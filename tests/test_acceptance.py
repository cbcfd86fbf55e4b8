"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line per
criterion with the measured values.  The criteria are end-to-end: exact and
property-based checks for the essential-closure machinery, closed-form and
oracle-backed targets for the three operator families, machine-precision
identity residuals along the boundary data, and the inclusion workflow tying
them together.  The whole module must finish in under five minutes.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from acspectra import cmv, jacobi, schrodinger
from acspectra.harness_cli import verify_inclusion
from acspectra.interval_sets import (GeneratedFatSet, canonicalize, circle_set,
                                     essential_closure, fat_density_report,
                                     full_circle, lebesgue_measure,
                                     set_algebra, set_to_json)

MODULE_T0 = time.perf_counter()
TWO_PI = 2.0 * math.pi


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _closure(s):
    return canonicalize([(iv.lo, iv.hi, "cc") for iv in s.intervals],
                        s.isolated_points)


def _edges(s):
    return np.array([x for iv in s.intervals for x in (iv.lo, iv.hi)])


def _discriminant_edges(grid, disc):
    inside = np.abs(disc) <= 2.0
    return np.array([0.5 * (grid[k - 1] + grid[k])
                     for k in range(1, grid.size) if inside[k] != inside[k - 1]])


@pytest.fixture(scope="module")
def free_jacobi():
    return jacobi.JacobiCoefficients(1, (1.0,), (0.0,))


@pytest.fixture(scope="module")
def period2_jacobi():
    return jacobi.JacobiCoefficients(2, (1.0, 1.0), (1.0, -1.0))


@pytest.fixture(scope="module")
def free_cmv():
    return cmv.VerblunskyCoefficients(1, (0.0,))


@pytest.fixture(scope="module")
def geronimus_cmv():
    return cmv.VerblunskyCoefficients(1, (0.5,))


@pytest.fixture(scope="module")
def free_schrodinger():
    return schrodinger.PiecewisePotential(1.0, ((1.0, 0.0),))


def test_criterion_1_essential_closure_suite():
    t0 = time.perf_counter()

    a = canonicalize([(0.0, 1.0, "cc")], [2.0])
    exact = essential_closure(a) == canonicalize([(0.0, 1.0, "cc")])

    rng = np.random.default_rng(1)
    worst_loss = 0.0
    props_ok = True
    for _ in range(1000):
        k = rng.integers(1, 6)
        ivs = []
        for _ in range(k):
            lo, hi = np.sort(rng.uniform(-10, 10, 2))
            ivs.append((lo, hi, rng.choice(["oo", "oc", "co", "cc"])))
        pts = list(rng.uniform(-10, 10, rng.integers(0, 3)))
        s = canonicalize(ivs, pts)
        e = essential_closure(s)
        props_ok &= essential_closure(e) == e
        props_ok &= set_algebra(s, e, "difference").measure() <= 1e-12
        props_ok &= e.measure() >= s.measure() - 1e-12
        props_ok &= set_algebra(e, _closure(s), "difference").is_empty()
        worst_loss = max(worst_loss, s.measure() - e.measure())

    g = GeneratedFatSet.rational_fat(20)
    lo, hi = lebesgue_measure(g)
    tail_bound = 2.0 * 4.0 ** -20 * 4.0 / 3.0
    rep = fat_density_report(g)
    gain = rep.closure.measure() - hi
    fat_ok = (hi <= 2.0 / 3.0 + 1e-12
              and g.tail_measure_bound < tail_bound
              and gain >= 1.0 / 3.0 - 2 * rep.grid_step)

    dt = time.perf_counter() - t0
    report("criterion-1 essential-closure suite",
           exact and props_ok and fat_ok and dt < 5.0,
           f"exact example ok={exact}, 1000 random unions ok={props_ok} "
           f"(worst measure loss {worst_loss:.2e}), fat set measure<= {hi:.6f}"
           f" gain {gain:.4f}, runtime {dt:.2f} s (< 5 s)")


def test_criterion_2_free_jacobi(free_jacobi):
    t0 = time.perf_counter()
    grid = np.linspace(-3.0, 3.0, 4001)
    step = grid[1] - grid[0]

    ac = jacobi.ac_spectrum(free_jacobi, grid)
    e = _edges(ac)
    ac_ok = len(ac.intervals) == 1 and abs(e[0] + 2.0) <= step and abs(e[1] - 2.0) <= step

    rng = np.random.default_rng(2)
    lams = rng.uniform(-1.95, 1.95, 100)
    vals, _, ok = jacobi.xi_grid(free_jacobi, lams, 0)
    xi_dev = float(np.abs(vals - 0.5).max())
    xi_ok = bool(ok.all()) and xi_dev <= 1e-4

    E = canonicalize([(-2.0, 2.0, "cc")])
    refl = jacobi.reflectionless_on(free_jacobi, E, grid)
    refl_ok = refl.verdict and refl.fraction > 0.99

    M2, _ = jacobi.multiplicity_sets(free_jacobi, grid)
    target = canonicalize([(-2.0 + step, 2.0 - step, "oo")])
    m2_ok = set_algebra(target, M2, "difference").measure() <= 1e-12

    dt = time.perf_counter() - t0
    report("criterion-2 free Jacobi",
           ac_ok and xi_ok and refl_ok and m2_ok and dt < 30.0,
           f"ac=[{e[0]:.4f},{e[1]:.4f}] (one step of [-2,2]), "
           f"max|xi-1/2|={xi_dev:.1e} at 100 pts, reflectionless fraction "
           f"{refl.fraction:.4f}, M2 covers (-2+d,2-d), runtime {dt:.1f} s (< 30 s)")


def test_criterion_3_period2_jacobi(period2_jacobi):
    grid = np.linspace(-3.0, 3.0, 4001)
    step = grid[1] - grid[0]
    ac = jacobi.ac_spectrum(period2_jacobi, grid)
    got = _edges(ac)
    want = _discriminant_edges(grid, jacobi.discriminant(period2_jacobi, grid))
    hausdorff = float(np.abs(got - want).max()) if got.size == want.size else math.inf
    edges_ok = got.size == want.size == 4 and hausdorff < 2 * step

    N = 2000
    diag = np.array([period2_jacobi.b(n) for n in range(N)])
    off = np.array([period2_jacobi.a(n) for n in range(N - 1)])
    evs = eigh_tridiagonal(diag, off, eigvals_only=True)
    covered = np.array([any(iv.lo - 2 * step <= ev <= iv.hi + 2 * step
                            for iv in ac.intervals) for ev in evs])
    counts = [int(sum(1 for ev in evs if iv.lo - 2 * step <= ev <= iv.hi + 2 * step))
              for iv in ac.intervals]
    hist_ok = covered.mean() >= 1.0 - 4.0 / N and \
        all(abs(c - N // 2) <= 10 for c in counts)

    report("criterion-3 period-2 Jacobi",
           edges_ok and hist_ok,
           f"band edges {np.round(got, 4).tolist()} vs discriminant "
           f"(Hausdorff {hausdorff:.2e} < 2 steps), eigenvalue histogram "
           f"N=2000 coverage {covered.mean():.4f}, per-band counts {counts}")


def test_criterion_4_free_cmv(free_cmv):
    t0 = time.perf_counter()

    T = cmv.build_truncation(free_cmv, (-1024, 1023))
    unit = T.unitarity_residual()
    unit_ok = unit < 1e-12

    angles = cmv.default_angles(512)
    vals, _, ok = cmv.Xi11_grid(free_cmv, angles, 0)
    xi_dev = float(np.abs(vals).max())
    xi_ok = bool(ok.all()) and xi_dev <= 1e-3

    ac = cmv.ac_spectrum(free_cmv, angles)
    ac_ok = ac.is_full()

    refl = cmv.reflectionless_on(free_cmv, full_circle(), angles)
    refl_ok = refl.verdict

    data = cmv.matrix_M_and_R(free_cmv, 0, grid=angles, window=2048)
    r_dev = float(np.abs(data.R - 0.5 * np.eye(2)).max())
    r_ok = r_dev <= 1e-2

    dt = time.perf_counter() - t0
    report("criterion-4 free CMV",
           unit_ok and xi_ok and ac_ok and refl_ok and r_ok and dt < 60.0,
           f"unitarity {unit:.1e} (< 1e-12), max|Xi|={xi_dev:.1e} on 512 angles, "
           f"ac full circle={ac_ok}, reflectionless={refl.verdict}, "
           f"max|R-I/2|={r_dev:.1e} (< 1e-2), runtime {dt:.1f} s (< 60 s)")


def test_criterion_5_geronimus_cmv(geronimus_cmv):
    angles = cmv.default_angles(1024)
    step = TWO_PI / 1024
    ac = cmv.ac_spectrum(geronimus_cmv, angles)
    supp = cmv.support_arcs(cmv.eigenvalue_angles(geronimus_cmv, window=4096))
    over = set_algebra(ac, supp, "difference")
    under = set_algebra(supp, ac, "difference")
    spans = [a.length for a in over.arcs] + [a.length for a in under.arcs]
    arc_dev = max(spans) if spans else 0.0
    arc_ok = arc_dev <= 2 * step

    E = circle_set([(math.pi / 3 + 2 * step, 5 * math.pi / 3 - 2 * step, "cc")])
    refl = cmv.reflectionless_on(geronimus_cmv, E, angles)

    rng = np.random.default_rng(5)
    zs = np.sqrt(rng.uniform(0, 0.81, 50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
    res = max(abs(cmv.M11(geronimus_cmv, complex(z), 0)
                  - cmv.M11(geronimus_cmv, complex(z), 0, mode="oracle", window=2048))
              for z in zs)
    formula_ok = res < 1e-6

    report("criterion-5 constant alpha=1/2 CMV",
           arc_ok and refl.verdict and formula_ok,
           f"ac arc vs eigenvalue support (window 4096) within {arc_dev:.2e} "
           f"(<= 2 steps), reflectionless on arc={refl.verdict}, "
           f"M11 formula-vs-oracle {res:.1e} (< 1e-6) at 50 interior z")


def test_criterion_6_free_schrodinger(free_schrodinger):
    rng = np.random.default_rng(6)
    lams = rng.uniform(0.5, 20.0, 20)
    vals, _, ok = schrodinger.xi_grid(free_schrodinger, lams, 0.0)
    xi_dev = float(np.abs(vals - 0.5).max())
    xi_ok = bool(ok.all()) and xi_dev <= 1e-4

    neg = np.array([-3.0, -1.0, -0.25])
    nvals, _, nok = schrodinger.xi_grid(free_schrodinger, neg, 0.0)
    neg_dev = float(np.abs(nvals).max())
    neg_ok = bool(nok.all()) and neg_dev <= 1e-4

    grid = schrodinger.default_grid(free_schrodinger)
    step = grid[1] - grid[0]
    ac = schrodinger.ac_spectrum(free_schrodinger, grid)
    e = _edges(ac)
    ac_ok = len(ac.intervals) == 1 and abs(e[0]) <= step and e[1] >= grid[-1] - step

    bd = schrodinger.boundary_schrodinger_grid(free_schrodinger, np.array([4.0]), 0.0)
    g, _, conv = bd["g"]
    g_dev = abs(complex(g[0]) - 0.25j)
    g_ok = bool(conv[0]) and g_dev <= 1e-6

    report("criterion-6 free Schrodinger",
           xi_ok and neg_ok and ac_ok and g_ok,
           f"max|xi-1/2|={xi_dev:.1e} on [0.5,20], max|xi|={neg_dev:.1e} below 0, "
           f"ac=[{e[0]:.4f},{e[1]:.4f}] (one step of [0,{grid[-1]:.0f}]), "
           f"|g(4+i0)-i/4|={g_dev:.1e} (< 1e-6)")


def test_criterion_7_identity_residuals(period2_jacobi, geronimus_cmv, free_cmv):
    rng = np.random.default_rng(7)
    n = 200

    zs_j = rng.uniform(-3, 3, n) + 1j * rng.uniform(0.3, 2.5, n)
    res_jacobi = jacobi.green_inverse_identity_residual(period2_jacobi, zs_j)

    zs_c = np.sqrt(rng.uniform(0, 0.81, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
    res_cmv = max(abs(cmv.M11(geronimus_cmv, complex(z), 0)
                      - cmv.M11(geronimus_cmv, complex(z), 0, mode="oracle",
                                window=1024))
                  for z in zs_c)

    well = schrodinger.PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 5.0)))
    zs_s = rng.uniform(-1, 24, n) + 1j * rng.uniform(0.3, 2.5, n)
    res_schr = schrodinger.green_identity_residual(well, zs_s, x0=0.25)

    ids_ok = res_jacobi < 1e-10 and res_cmv < 1e-10 and res_schr < 1e-10

    # boundary real-part identity for M11 on reflectionless grids
    free_angles = cmv.default_angles(64)
    res_free = cmv.m11_boundary_identity_residual(free_cmv, free_angles, 0)
    arc = np.linspace(math.pi / 3 + 0.1, 5 * math.pi / 3 - 0.1, 64)
    res_arc = cmv.m11_boundary_identity_residual(geronimus_cmv, arc, 0)
    boundary_ok = res_free < 1e-3 and res_arc < 1e-3

    report("criterion-7 identity residual suite",
           ids_ok and boundary_ok,
           f"green-inverse (Jacobi) {res_jacobi:.1e}, M11 formula (CMV) "
           f"{res_cmv:.1e}, green-inverse (Schrodinger) {res_schr:.1e} "
           f"(all < 1e-10 at {n} pts); boundary real-part identity "
           f"{max(res_free, res_arc):.1e} (< 1e-3)")


def test_criterion_8_inclusion_workflow(free_jacobi, period2_jacobi, free_cmv,
                                        geronimus_cmv, free_schrodinger):
    sqrt5 = math.sqrt(5.0)
    cases = [
        ("free jacobi", free_jacobi.to_descriptor(),
         {"carrier": "line", "intervals": [[-2.0, 2.0, "cc"]], "points": []},
         {"start": -3.0, "stop": 3.0, "points": 2001}),
        ("free cmv", free_cmv.to_descriptor(), set_to_json(full_circle()),
         {"angles": 512}),
        ("free schrodinger", free_schrodinger.to_descriptor(),
         {"carrier": "line", "intervals": [[0.0, 24.0, "cc"]], "points": []},
         {"start": -1.0, "stop": 25.0, "points": 2001}),
        ("period-2 jacobi", period2_jacobi.to_descriptor(),
         {"carrier": "line",
          "intervals": [[-sqrt5, -1.0, "cc"], [1.0, sqrt5, "cc"]], "points": []},
         {"start": -3.0, "stop": 3.0, "points": 2001}),
        ("alpha=1/2 cmv", geronimus_cmv.to_descriptor(),
         {"carrier": "circle",
          "intervals": [[math.pi / 3 + 0.02, 5 * math.pi / 3 - 0.02, "cc"]],
          "points": []},
         {"angles": 1024}),
    ]
    lines = []
    all_ok = True
    for name, desc, E, grid_cfg in cases:
        rep = verify_inclusion(desc, E, grid_cfg, name=name)
        ok = (rep.status == "PASS"
              and rep.theorem_inclusion["status"] == "PASS"
              and rep.theorem_inclusion["contained_in_ac"]
              and rep.theorem_inclusion["multiplicity_two_covers_E"])
        all_ok &= ok
        lines.append(f"{name}={rep.status}/{rep.theorem_inclusion['status']}")

    total = time.perf_counter() - MODULE_T0
    report("criterion-8 theorem-inclusion workflow",
           all_ok and total < 300.0,
           "; ".join(lines) + f"; total acceptance runtime {total:.1f} s (< 300 s)")
