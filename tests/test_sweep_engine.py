"""The shared boundary-sweep engine: sweeps per report and the per-report
sweep memo, the Floquet pair chooser on random monodromies, ac spectra of
random periodic operators against independent band oracles, and the
multiplicity sets of random steplike operators against their bands."""

import json
import math
import os
import sys
import warnings

import numpy as np
import pytest

from acspectra import boundary_analysis, cmv, interval_sets, jacobi, schrodinger
from acspectra.boundary_analysis import (ac_spectrum, family, floquet_pair, memo,
                                         multiplicity_sets, reflectionless_on, sweep_scope)
from acspectra.harness_cli import (TOLERANCES, _csv_for, _json_safe, _load, _resolve_grid,
                                   run_config, verify_inclusion)
from acspectra.interval_sets import (CircleArcSet, canonicalize, circle_set, contains_mask,
                                     longest_component, set_algebra, set_from_json,
                                     set_to_json)
from conftest import (CMVSteplike, JacobiSteplike, SchrodingerSteplike, cmv_steplike_kernel,
                      geronimus, resolvent_entry, schrodinger_steplike_kernel, steplike_kernel)

SWEEPS = ((jacobi, "boundary_weyl_grid"), (cmv, "boundary_cmv_grid"),
          (schrodinger, "boundary_schrodinger_grid"))
FAMILY_KERNELS = {"period2_jacobi": jacobi._weyl_grid, "geronimus_cmv": cmv._M11_grid,
                  "square_well": schrodinger._m_grid}


@pytest.mark.parametrize("fixture, grid_config, expected", [
    ("period2_jacobi", None, 2),
    ("geronimus_cmv", {"angles": 1024}, 2),
    ("square_well", None, 2),
])
def test_sweeps_per_report(request, monkeypatch, fixture, grid_config, expected):
    """A report plus its CSV, in one sweep scope, computes each (site, grid)
    sweep and phase once: the two reference sites of the ac spectrum, whose
    phases the undetermined count and whose sweeps the reflectionless test,
    the multiplicity sets, the CSV and, for CMV, the boundary identity
    residual on angles of E read again."""
    calls, phases = [], []
    for fn, log in (("boundary_grid", calls), ("phase_grid", phases)):
        def counting(*args, _fn=getattr(boundary_analysis, fn), _log=log, **kwargs):
            _log.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(boundary_analysis, fn, counting)
    op = request.getfixturevalue(fixture)
    descriptor = op.to_descriptor()
    kind = descriptor["type"]
    with sweep_scope():
        rep = verify_inclusion(descriptor, grid_config=grid_config)
        assert rep.status == "PASS"
        grid, _ = _resolve_grid(kind, op, grid_config)
        _csv_for(op, grid)
    assert len(calls) == expected and len(phases) == 2


@pytest.mark.parametrize("fixture, grid_config", [
    ("period2_jacobi", None), ("geronimus_cmv", {"angles": 1024}), ("square_well", None)])
def test_set_sweeps_per_report(request, monkeypatch, fixture, grid_config):
    """A report makes 4 set-layer sweeps in every family; the grid hulls
    make none, so a circle report makes no more than a line report."""
    calls = []
    sweep = interval_sets._sweep
    monkeypatch.setattr(interval_sets, "_sweep", lambda *args: calls.append(1) or sweep(*args))
    descriptor = request.getfixturevalue(fixture).to_descriptor()
    with sweep_scope():
        assert verify_inclusion(descriptor, grid_config=grid_config).status == "PASS"
    assert len(calls) == 4


@pytest.mark.parametrize("fixture", ["period2_jacobi", "geronimus_cmv", "square_well"])
def test_sweep_phase_calls_per_entry(tmp_path, monkeypatch, request, fixture):
    """A spec run entry computes the whole-grid phase once per reference
    site, and the reflectionless test and its CSV read them from the memo:
    2 sweep_phase calls, both on the whole grid.  The CSV of `spec <family>
    --emit xi`, which opens no scope, computes its sweep once and its phase
    once."""
    sizes, kernels = [], []
    phase, kernel = boundary_analysis.sweep_phase, FAMILY_KERNELS[fixture]
    mod = sys.modules[kernel.__module__]

    def counting(fam, bd):
        sizes.append(bd[fam.phase_key][0].size)
        return phase(fam, bd)
    monkeypatch.setattr(boundary_analysis, "sweep_phase", counting)
    monkeypatch.setattr(mod, kernel.__name__, lambda *a, **k: kernels.append(1) or kernel(*a, **k))
    op = request.getfixturevalue(fixture)
    kind = op.to_descriptor()["type"]
    files = _run(tmp_path, "run", [{"name": "op", "descriptor": op.to_descriptor(),
                                    "grid": GRIDS[kind]}])
    grid, _ = _resolve_grid(kind, op, GRIDS[kind])
    assert sizes == [grid.size] * 2, sizes
    sizes.clear()
    kernels.clear()
    assert _csv_for(op, grid).encode() == files["op.csv"]
    assert sizes == [grid.size] and len(kernels) == 2


def test_seeds_per_schrodinger_report(monkeypatch, square_well):
    """The two reference points of a Schrodinger report read one seed pair
    per kernel call of a sweep: two _seeds evaluations on the grid (off the
    axis and on it) for four kernel calls, plus one on the identity
    residual's draws."""
    sizes, kernel_calls = [], []
    seeds, m_grid = schrodinger._seeds, schrodinger._m_grid
    monkeypatch.setattr(schrodinger, "_seeds",
                        lambda V, zs, *near: sizes.append(zs.size) or seeds(V, zs, *near))
    monkeypatch.setattr(schrodinger, "_m_grid",
                        lambda *args: kernel_calls.append(1) or m_grid(*args))
    descriptor = square_well.to_descriptor()
    with sweep_scope():
        assert verify_inclusion(descriptor).status == "PASS"
        grid, _ = _resolve_grid("schrodinger", square_well, None)
        _csv_for(square_well, grid)
    draws = TOLERANCES["identity_draws"]
    assert sorted(sizes) == sorted([grid.size] * 2 + [draws])
    assert len(kernel_calls) == 4


@pytest.mark.parametrize("family", ["jacobi", "schrodinger"])
def test_floquet_pair_on_random_monodromies(family):
    """At off-axis z both returned vectors are eigenvectors of the
    monodromy, the first one's multiplier u is contracting and the second
    one's expanding, and u times the other multiplier tr - u is the
    determinant."""
    rng = np.random.default_rng(400 if family == "jacobi" else 500)
    for period in (1, 2, 3, 4):
        eta = rng.choice([-1.0, 1.0], 64) * 10.0 ** rng.uniform(-6.0, 0.5, 64)
        zs = rng.uniform(-4.0, 8.0, 64) + 1j * eta
        if family == "jacobi":
            J = jacobi.JacobiCoefficients(period, tuple(rng.uniform(0.5, 1.5, period)),
                                          tuple(rng.uniform(-1.0, 1.0, period)))
            M = jacobi.monodromy(J, zs, int(rng.integers(-5, 5)))
        else:
            weights = rng.integers(1, 5, period)
            V = schrodinger.PiecewisePotential(
                1.0, tuple(zip(weights / weights.sum(), rng.uniform(0.0, 6.0, period))))
            M = schrodinger.transfer_interval(V, zs, 0.0, 1.0)
        det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        tr = M[:, 0, 0] + M[:, 1, 1]
        pair = floquet_pair(*M.reshape(-1, 4).T, 1.0 if family == "schrodinger" else det)
        for (x, y), decaying in zip(pair, (True, False)):
            v = np.stack([x, y], axis=-1)
            Mv = np.einsum("kij,kj->ki", M, v)
            u = np.einsum("ki,ki->k", v.conj(), Mv) / np.einsum("ki,ki->k", v.conj(), v)
            scale = np.abs(M).max(axis=(1, 2))
            assert np.all(np.abs(Mv - u[:, None] * v).max(axis=1)
                          <= 1e-9 * scale * np.abs(v).max(axis=1))
            assert np.all(np.abs(u) < 1.0) if decaying else np.all(np.abs(u) > 1.0)
            assert np.allclose(u * (tr - u), det, rtol=1e-9, atol=1e-9 * scale ** 2)


def test_floquet_pair_branch_rule():
    """In a sweep floquet_pair never raises.  At the reference (near = 0)
    it takes the contracting root and marks moduli within BRANCH_TOL and
    coinciding roots; on the axis it takes the root nearest the reference
    root, marks a coinciding (Jordan) pair as a band edge, and where the
    monodromy is scalar within EDGE_TOL keeps the reference's
    eigenvectors unmarked."""
    def entries(*ms):
        return tuple(np.array(col, dtype=complex) for col in zip(*ms))
    # diag(0.5, 2), diag(1, 1 + 1e-12), a Jordan block with its roots
    # split by 2e-8, as rounding splits them at a band edge, and I
    m = entries((0.5, 0, 0, 2), (1, 0, 0, 1 + 1e-12), (1, 1, 1e-16, 1), (1, 0, 0, 1))
    det = m[0] * m[3] - m[1] * m[2]
    dec, grow, branch, ambiguous = floquet_pair(*m, det, 0.0)
    assert len(branch) == 6 and all(np.shape(a) == (4,) for a in branch[:5])
    assert branch[0][0] == 0.5 and ambiguous.tolist() == [False, True, True, True]
    near = tuple(np.array(row, dtype=complex) for row in
                 ([2.1, 0.9, 0.9, 0.9], [0, 0, 0, 0.6], [1, 1, 1, 0.8],
                  [1, 1, 1, 0.8], [0, 0, 0, -0.6])) + (0,)
    dec, grow, branch, ambiguous = floquet_pair(*m, det, near)
    assert branch[0][0] == 2.0 and dec[0][0] == 0.0     # the eigenvector (0, y) of 2
    assert ambiguous.tolist() == [False, False, True, False]
    assert (dec[0][3], dec[1][3], grow[0][3], grow[1][3]) == (0.6, 0.8, 0.8, -0.6)
    assert (dec[0][1], dec[1][1]) == (0.0, 1.0)
    # the default near = 0 is the reference's rule: the same entries marked
    assert floquet_pair(*m, det)[3].tolist() == [False, True, True, True]


def _bands(disc, xs):
    """Closed intervals of {|disc| <= 2} on [xs[0], xs[-1]], edges refined
    by bisection."""
    def inside(x):
        return abs(np.real(disc(np.array([x]))[0])) <= 2.0

    def edge(lo, hi):
        lo_in = inside(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if inside(mid) == lo_in:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    flags = np.abs(np.real(disc(xs))) <= 2.0
    out, start = [], xs[0] if flags[0] else None
    for i in np.flatnonzero(flags[1:] != flags[:-1]):
        x = edge(xs[i], xs[i + 1])
        if flags[i]:
            out.append((start, x, "cc"))
        else:
            start = x
    if flags[-1]:
        out.append((start, xs[-1], "cc"))
    return canonicalize(out)


def _assert_matches(ac, bands, step):
    worst = longest_component(set_algebra(ac, bands, "symmetric_difference"))
    assert worst <= 2.0 * step + 1e-12, (ac, bands)


def _unpatched(kind, period, count):
    """Seeded unpatched operators of one period; the first ones of a
    (kind, period) are the same for every count."""
    rng = np.random.default_rng((100 if kind == "jacobi" else 200) + period)
    ops = []
    for _ in range(count):
        if kind == "jacobi":
            ops.append(jacobi.JacobiCoefficients(period, tuple(rng.uniform(0.5, 1.5, period)),
                                                 tuple(rng.uniform(-1.0, 1.0, period))))
        else:
            weights = rng.integers(1, 5, period)
            ops.append(schrodinger.PiecewisePotential(
                1.0, tuple(zip(weights / weights.sum(), rng.uniform(0.0, 6.0, period)))))
    return ops


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_random_jacobi_ac_spectrum_is_the_bands(period):
    for J in _unpatched("jacobi", period, 2):
        grid = jacobi.default_grid(J, 1201)
        bands = _bands(lambda x: jacobi.discriminant(J, x), grid)
        _assert_matches(jacobi.ac_spectrum(J, grid), bands, grid[1] - grid[0])


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_random_schrodinger_ac_spectrum_is_the_bands(period):
    for V in _unpatched("schrodinger", period, 2):
        grid = schrodinger.default_grid(V, 1201)
        bands = _bands(lambda x: schrodinger.discriminant(V, x), grid)
        _assert_matches(schrodinger.ac_spectrum(V, grid), bands, grid[1] - grid[0])


@pytest.mark.parametrize("kind", ["jacobi", "schrodinger"])
def test_unpatched_periodic_m1_has_no_intervals(kind):
    """An unpatched periodic operator has multiplicity two on its bands and
    no spectrum in its gaps, so on the default grid M1 holds no interval
    (isolated points, of measure zero, may remain).  Near a pole of M_+ or
    M_- in a gap the Richardson residue across the axis grows with |v| and
    with the extrapolation error; an absolute test read it as a piece."""
    mod = jacobi if kind == "jacobi" else schrodinger
    for period in (1, 2, 3, 4):
        for op in _unpatched(kind, period, 3):
            _, M1 = mod.multiplicity_sets(op)
            assert M1.intervals == (), (op, M1)


def _steplike(seed):
    """A seeded steplike operator (L, R): two unpatched bases of period 1-4."""
    rng = np.random.default_rng(3600 + seed)
    return JacobiSteplike(jacobi.JacobiCoefficients(p, tuple(rng.uniform(0.5, 1.5, p)),
                                           tuple(rng.uniform(-1.0, 1.0, p)))
                 for p in rng.integers(1, 5, 2))


@pytest.mark.parametrize("seed", range(3))
def test_steplike_kernel_is_the_glued_operator(seed):
    """The steplike g at sites 0 and 1 is the diagonal resolvent of one
    operator, L's b(n), n <= 0, and a(n), n < 0, and R's beyond, read off
    its 801-site Dirichlet truncation by a banded solve."""
    L, R = _steplike(seed)
    sites = np.arange(-400, 401)
    T = jacobi.TridiagonalMatrix(-400, np.array([(L if n <= 0 else R).b(n) for n in sites]),
                                 np.array([(L if n < 0 else R).a(n) for n in sites[:-1]]))
    zs = np.array([0.3 + 0.5j, -1.2 + 0.7j, 2.0 + 0.4j])
    for n0 in (0, 1):
        g = steplike_kernel(L, R, zs, n0)["g"]
        want = [resolvent_entry(T, z, n0, n0) for z in zs]
        assert np.allclose(g, want, rtol=1e-12, atol=0.0), (n0, g, want)


@pytest.mark.parametrize("seed", range(10))
def test_steplike_multiplicity_sets_are_the_band_algebra(seed):
    """A steplike Jacobi operator, base L on the left half line and R on the
    right (conftest.JacobiSteplike), has multiplicity two exactly on bands_L ∩
    bands_R and one on their symmetric difference (Teschl 2000, ch. 2-3),
    and ac spectrum bands_L ∪ bands_R; each within 2 grid steps.  By the
    paper's theorem it is reflectionless on no M1 piece of positive measure,
    so reflectionless_on fails on each one longer than 4 steps."""
    _assert_band_algebra(jacobi.discriminant, _steplike(seed))


def _schrodinger_steplike(seed):
    """A seeded steplike Schrodinger operator (L, R): two unpatched bases of
    1-3 pieces of length 0.2-0.6 and value in [0, 5]."""
    rng = np.random.default_rng(3700 + seed)
    return SchrodingerSteplike(schrodinger.PiecewisePotential(lengths.sum(), tuple(zip(lengths, values)))
                 for lengths, values in ((rng.uniform(0.2, 0.6, n), rng.uniform(0.0, 5.0, n))
                                         for n in rng.integers(1, 4, 2)))


@pytest.mark.parametrize("seed", range(3))
def test_schrodinger_steplike_kernel_carries_across_the_step(seed):
    """Both steplike m-functions at the second site x0 = R.period are those
    at 0 carried across R's first period by transfer_interval: psi_- and
    psi_+ solve one equation, whose potential right of 0 is R's."""
    L, R = _schrodinger_steplike(seed)
    zs = np.array([0.3 + 0.5j, -1.2 + 0.7j, 7.0 + 0.4j])
    at0, atP = (schrodinger_steplike_kernel(L, R, zs, x0) for x0 in (0.0, R.period))
    (t00, t01), (t10, t11) = np.moveaxis(schrodinger.transfer_interval(R, zs, 0.0, R.period),
                                         0, -1)
    m = at0["m_minus"]
    assert np.allclose(atP["m_minus"], (t10 + t11 * m) / (t00 + t01 * m), rtol=1e-10)
    m = atP["m_plus"]       # back across the period by the adjugate
    assert np.allclose(at0["m_plus"], (-t10 + t00 * m) / (t11 - t01 * m), rtol=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_schrodinger_steplike_multiplicity_sets_are_the_band_algebra(seed):
    """The same for a steplike Schrodinger operator, L's potential left of 0
    and R's right of it (conftest.SchrodingerSteplike)."""
    _assert_band_algebra(schrodinger.discriminant, _schrodinger_steplike(seed))


def _cmv_steplike(seed):
    """A seeded steplike CMV operator (L, R): two unpatched bases of period
    1-4, L's |alpha| in [0.05, 0.4) and R's in [0.45, 0.8), so that their
    bands differ on arcs of positive measure."""
    rng = np.random.default_rng(3800 + seed)
    return CMVSteplike(cmv.VerblunskyCoefficients(int(p), tuple(
        rng.uniform(lo, lo + 0.35, p) * np.exp(2j * math.pi * rng.uniform(size=p))))
        for p, lo in zip(rng.integers(1, 5, 2), (0.05, 0.45)))


@pytest.mark.parametrize("seed", range(10))
def test_cmv_steplike_kernel_is_the_glued_operator(seed):
    """The steplike M11 at sites 0 and 1 is the Cayley diagonal of one
    operator, L's alphas at n <= 0 and R's beyond, read off the truncation
    of 1024 sites (truncation_cayley_diag) at 20 draws with |z| < 0.9."""
    L, R = _cmv_steplike(seed)
    glued = cmv.VerblunskyCoefficients(L.period, L.alpha_base,
                                       {n: R.alpha(n) for n in range(1, 516)})
    rng = np.random.default_rng(seed)
    zs = np.sqrt(rng.uniform(0.0, 0.81, 20)) * np.exp(2j * math.pi * rng.uniform(size=20))
    for n0 in (0, 1):
        m11 = cmv_steplike_kernel(L, R, zs, n0)["M11"]
        want = cmv.truncation_cayley_diag(glued, zs, n0, 1024)
        assert np.max(np.abs(m11 - want)) < 1e-12, (n0, m11, want)


@pytest.mark.parametrize("seed", range(10))
def test_cmv_steplike_multiplicity_sets_are_the_band_algebra(seed):
    """The same for a steplike CMV operator on 1024 angles, L's alphas at
    n <= 0 and R's beyond (conftest.CMVSteplike), with the bands of
    cmv.discriminant."""
    _assert_band_algebra(cmv.discriminant, _cmv_steplike(seed))


def _assert_band_algebra(discriminant, op):
    """The ac spectrum, M2 and M1 of the steplike op = (L, R) against
    the union, intersection and symmetric difference of the bands of L and
    R, and reflectionless_on False on each M1 piece longer than 4 steps.
    On the circle the bands are read on the grid closed by 2 pi."""
    fam = family(op)
    grid = fam.grid(op)
    step = grid[1] - grid[0]
    carrier_set = circle_set if fam.circle else canonicalize
    xs = np.append(grid, 2.0 * math.pi) if fam.circle else grid
    band_l, band_r = (carrier_set([(iv.lo, iv.hi, "cc") for iv in _bands(
        lambda x, base=base: discriminant(base, x), xs).intervals]) for base in op)
    with sweep_scope():
        _assert_matches(ac_spectrum(op, grid),
                        set_algebra(band_l, band_r, "union"), step)
        M2, M1 = multiplicity_sets(op, grid)
        _assert_matches(M2, set_algebra(band_l, band_r, "intersect"), step)
        _assert_matches(M1, set_algebra(band_l, band_r, "symmetric_difference"), step)
        ends = ([(a.theta1, a.theta2) for a in M1.arcs] if fam.circle
                else [(iv.lo, iv.hi) for iv in M1.intervals])
        long = [(lo, hi) for lo, hi in ends if hi - lo > 4.0 * step]
        assert long, M1
        for lo, hi in long:
            piece = carrier_set([(lo, hi, "cc")])
            assert not reflectionless_on(op, piece, grid).verdict, (lo, hi)


def _real_alpha(seed):
    """Seeded real Verblunsky coefficients of period 1-4 in [-0.6, 0.6]."""
    rng = np.random.default_rng(4000 + seed)
    return tuple(rng.uniform(-0.6, 0.6, int(rng.integers(1, 5))))


def test_geronimus_bands_are_the_cmv_bands():
    """Under x = 2 cos theta the discriminant of the Jacobi image
    (conftest.geronimus) is the CMV one: Delta_J(x) = Delta(e^{i theta})
    for even p, and Delta(e^{i theta})^2 - 2 for odd p, where the image's
    period p is two half-periods of the CMV operator.  So the bands
    {|Delta_J(x)| <= 2} are the CMV bands {|Delta(e^{i theta})| <= 2} in
    [0, pi]: on 20001 angles and 20 seeds the two sides agree within
    1e-12 relative to 1 + |Delta_J|, and the two masks but for at most one
    band-edge angle."""
    thetas = np.linspace(0.0, math.pi, 20001)
    for seed in range(20):
        alpha = _real_alpha(seed)
        delta = cmv.discriminant(cmv.VerblunskyCoefficients(len(alpha), alpha), thetas)
        delta_j = jacobi.discriminant(geronimus(alpha), 2.0 * np.cos(thetas))
        image = delta if len(alpha) % 2 == 0 else delta ** 2 - 2.0
        assert np.max(np.abs(delta_j - image) / (1.0 + np.abs(delta_j))) <= 1e-12, (seed, alpha)
        on_circle, on_line = np.abs(delta) <= 2.0, np.abs(delta_j) <= 2.0
        assert np.count_nonzero(on_circle != on_line) <= 1, (seed, alpha)


@pytest.mark.parametrize("seed", range(10))
def test_geronimus_ac_spectra_agree(seed):
    """The CMV ac spectrum on 4096 angles, its arcs in [0, pi] mapped by 2
    cos, against the ac spectrum of the Jacobi image on 8001 points of
    [-2.05, 2.05]: as many pieces, each end within one step of the coarser
    grid there (the angle step mapped by 2 cos, or the Jacobi step)."""
    alpha = _real_alpha(seed)
    angles, xs = cmv.default_angles(4096), np.linspace(-2.05, 2.05, 8001)
    upper = set_algebra(cmv.ac_spectrum(cmv.VerblunskyCoefficients(len(alpha), alpha), angles),
                        circle_set([(0.0, math.pi, "cc")]), "intersect")
    mapped = sorted((2.0 * math.cos(a.theta2), 2.0 * math.cos(a.theta1)) for a in upper.arcs)
    pieces = [(iv.lo, iv.hi) for iv in jacobi.ac_spectrum(geronimus(alpha), xs).intervals]
    assert len(mapped) == len(pieces), (seed, mapped, pieces)
    d_theta, d_x = angles[1] - angles[0], xs[1] - xs[0]
    for end, want in zip(np.ravel(mapped), np.ravel(pieces)):
        step = 2.0 * d_theta * math.sqrt(max(0.0, 1.0 - end * end / 4.0)) + d_theta ** 2
        assert abs(end - want) <= max(step, d_x) + 1e-12, (seed, end, want)


def test_random_period1_cmv_ac_spectrum_is_the_arc():
    """Constant alpha: the spectrum is the arc {|sin(theta/2)| >= |alpha|}."""
    rng = np.random.default_rng(300)
    grid = cmv.default_angles(1024)
    for _ in range(4):
        alpha = rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        V = cmv.VerblunskyCoefficients(1, (alpha,))
        t = 2.0 * math.asin(abs(alpha))
        arc = circle_set([(t, 2.0 * math.pi - t, "cc")])
        _assert_matches(cmv.ac_spectrum(V, grid), arc, grid[1] - grid[0])


def test_memo_lives_only_in_a_scope():
    """Inside a scope a repeated call is the same read-only result, kept per
    function, operator and argument bytes, so two functions with equal
    arguments keep one entry each and a nested tuple result (the
    Schrodinger seed pair) is read-only throughout; outside any scope, and
    after it closes, every call computes afresh."""
    J = jacobi.JacobiCoefficients(2, (1.0, 0.8), (0.3, -0.2))
    grid = jacobi.default_grid(J, 301)
    sweep = jacobi.boundary_weyl_grid
    assert memo(sweep, J, grid, 0) is not memo(sweep, J, grid, 0)
    with sweep_scope():
        first = memo(sweep, J, grid, 0)
        with sweep_scope():
            assert memo(sweep, J, grid.copy(), 0) is first
            assert memo(sweep, J, grid.tolist(), 0) is first
        assert memo(sweep, J, grid, 1) is not first
        assert memo(sweep, J, grid[:-1], 0) is not first
        with pytest.raises(ValueError):
            first["g"][0][0] = 0.0
        with pytest.raises(ValueError):
            first["inf_g"][:] = True
    after = memo(sweep, J, grid, 0)
    assert after is not first and after["g"][0].flags.writeable
    for k, v in first.items():
        for a, b in zip(v, after[k]) if isinstance(v, tuple) else [(v, after[k])]:
            assert a.tobytes() == b.tobytes(), k

    V = schrodinger.PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 5.0)))
    zs = np.linspace(-1.0, 10.0, 11) + 0.1j
    calls = []

    def seeds(op, z):
        calls.append("seeds")
        return schrodinger._seeds(op, z)

    def zeros(op, z):
        calls.append("zeros")
        return np.zeros(z.shape)
    outside = memo(seeds, V, zs)
    assert memo(seeds, V, zs) is not outside and outside[0][0].flags.writeable
    with sweep_scope():
        pair = memo(seeds, V, zs)
        assert memo(zeros, V, zs) is not pair
        assert memo(seeds, V, zs.copy()) is pair and memo(zeros, V, zs) is memo(zeros, V, zs)
        assert memo(seeds, V, zs.astype(np.complex64)) is not pair
        # the two eigenvector pairs, the branch's five arrays (its exponent
        # is the int 0 here) and the ambiguous mask
        assert pair[2][5] == 0
        for arr in [a for half in pair[:2] for a in half] + list(pair[2][:5]) + [pair[3]]:
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert calls == ["seeds", "seeds", "seeds", "zeros", "seeds"]
    assert memo(seeds, V, zs) is not pair and len(calls) == 6
    for half, again in zip(pair, outside):
        for a, b in zip(half, again):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _patched_operator(kind, rng):
    """A seeded period-2 operator patched on two sites (CMV: one)."""
    if kind == "jacobi":
        return {"type": "jacobi", "period": 2, "a": rng.uniform(0.6, 1.4, 2).tolist(),
                "b": rng.uniform(-1.0, 1.0, 2).tolist(),
                "patch": {str(n): [rng.uniform(0.6, 1.4), rng.uniform(-1.0, 1.0)]
                          for n in (0, 3)}}
    if kind == "cmv":
        alpha = rng.uniform(0.1, 0.5, 3) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3))
        return {"type": "cmv", "period": 2, "alpha": [[a.real, a.imag] for a in alpha[:2]],
                "patch": {"1": [alpha[2].real, alpha[2].imag]}}
    values = rng.uniform(0.0, 5.0, 4)
    return {"type": "schrodinger", "period": 1.0,
            "pieces": [[0.5, values[0]], [0.5, values[1]]],
            "patch": [[0.3, values[2]], [0.4, values[3]]]}


GRIDS = {"jacobi": {"start": -4.0, "stop": 4.0, "points": 801}, "cmv": {"angles": 512},
         "schrodinger": {"start": -1.0, "stop": 25.0, "points": 801}}


def _run(tmp_path, label, entries, seed=0):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"seed": seed, "operators": entries}), encoding="utf-8")
    out = tmp_path / label
    run_config(str(path), str(out))
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("kind", ["jacobi", "cmv", "schrodinger"])
def test_scoped_report_equals_standalone_calls(tmp_path, kind):
    """The report and CSV of spec run, whose sweeps come from one memo, hold
    the bytes of the derived sets and CSV computed by standalone calls, each
    sweeping on its own outside any scope."""
    rng = np.random.default_rng({"jacobi": 11, "cmv": 12, "schrodinger": 13}[kind])
    descriptor = _patched_operator(kind, rng)
    files = _run(tmp_path, "run", [{"name": "op", "descriptor": descriptor,
                                    "grid": GRIDS[kind]}])
    report = json.loads(files["op_report.json"])

    op, grid, *_ = _load(descriptor, None, GRIDS[kind])
    ac = boundary_analysis.ac_spectrum(op, grid)
    refl = boundary_analysis.reflectionless_on(op, ac, grid)
    M2, M1 = boundary_analysis.multiplicity_sets(op, grid)
    assert boundary_analysis._memo is None

    def same(x):
        return json.loads(json.dumps(_json_safe(x)))
    assert report["ac_spectrum"] == same(set_to_json(ac))
    assert report["reflectionless"]["E"] == same(set_to_json(ac))
    for field in ("verdict", "fraction", "max_residual", "n_points", "xi_fraction",
                  "witness_residual"):
        assert report["reflectionless"][field] == same(getattr(refl, field)), field
    assert report["reflectionless"]["defect_points"] == same(set_to_json(refl.defect_points))
    assert report["multiplicity"]["M2"] == same(set_to_json(M2))
    assert report["multiplicity"]["M1"] == same(set_to_json(M1))
    assert files["op.csv"] == _csv_for(op, grid).encode()


def _assert_defect_set_is_the_failing_points(descriptor, E, grid_config):
    """The grid points inside the report's defect set are exactly the
    tested points (in the intervals of the report's E) where the boundary
    pair fails the matching at either site, recomputed here from
    boundary_grid; the report's defect_points JSON reads back to the set
    reflectionless_on returns."""
    report = json.loads(json.dumps(verify_inclusion(descriptor, E, grid_config).to_json()))
    refl = report["reflectionless"]
    assert refl["n_points"] > 0
    op, grid, *_ = _load(descriptor, None, grid_config)
    fam = family(op)
    E_set = set_from_json(refl["E"])
    failing = np.zeros(grid.size, dtype=bool)
    for site in fam.sites(op):
        bd = boundary_analysis.boundary_grid(op, grid, site)
        (Mp, _, ok_p), (Mm, _, ok_m) = bd[fam.pair[0]], bd[fam.pair[1]]
        reflected = -np.conj(Mm) if fam.circle else np.conj(Mm)
        with np.errstate(invalid="ignore"):
            failing |= ~(ok_p & ok_m & (np.abs(Mp - reflected)
                                         < boundary_analysis.REFLECTIONLESS_TOL))
    pieces = E_set.arcs if isinstance(E_set, CircleArcSet) else E_set.intervals
    tested = contains_mask(type(E_set)(pieces), grid)
    defects = reflectionless_on(op, E_set, grid).defect_points
    assert grid[contains_mask(defects, grid)].tolist() == grid[tested & failing].tolist()
    assert set_from_json(refl["defect_points"]) == defects
    return defects


@pytest.mark.parametrize("fixture", ["free_jacobi", "period2_jacobi", "free_cmv",
                                     "geronimus_cmv", "free_schrodinger", "square_well"])
def test_defect_set_of_a_fixture_is_its_failing_points(request, fixture):
    defects = _assert_defect_set_is_the_failing_points(
        request.getfixturevalue(fixture).to_descriptor(), None, None)
    assert defects.is_empty()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("kind", ["jacobi", "cmv", "schrodinger"])
def test_defect_set_of_a_patched_operator_is_its_failing_points(kind, seed):
    descriptor = _patched_operator(kind, np.random.default_rng(5000 + seed))
    _assert_defect_set_is_the_failing_points(descriptor, None, GRIDS[kind])


with open(os.path.join(os.path.dirname(__file__), "data", "given_e.json"),
          encoding="utf-8") as _fh:
    GIVEN_E = json.load(_fh)


@pytest.mark.parametrize("entry", GIVEN_E, ids=[e["name"] for e in GIVEN_E])
def test_defect_set_of_a_given_E_is_its_failing_points(entry):
    """E is the computed ac spectrum plus one gap piece, whose one grid
    point is the whole defect set."""
    defects = set_to_json(_assert_defect_set_is_the_failing_points(
        entry["descriptor"], entry["E"], None))
    assert not defects["intervals"] and len(defects["points"]) == 1


@pytest.mark.parametrize("kind", ["jacobi", "cmv", "schrodinger"])
def test_whole_grid_sweep_read_on_E_equals_sweep_of_E(kind):
    """The reflectionless test reads the whole grid's sweep at the points of
    E; the kernels and Richardson work point by point, so that has the bits
    of a sweep of E's points alone."""
    rng = np.random.default_rng({"jacobi": 21, "cmv": 22, "schrodinger": 23}[kind])
    op, grid, *_ = _load(_patched_operator(kind, rng), None, GRIDS[kind])
    mod, name = SWEEPS[("jacobi", "cmv", "schrodinger").index(kind)]
    sweep = getattr(mod, name)
    inside = contains_mask(mod.ac_spectrum(op, grid), grid)
    assert 0 < inside.sum() < grid.size
    for site in ((0.0, 0.5) if kind == "schrodinger" else (0, 1)):
        whole, alone = sweep(op, grid, site), sweep(op, grid[inside], site)
        assert whole.keys() == alone.keys()
        for k, v in whole.items():
            for a, b in zip(v if isinstance(v, tuple) else (v,),
                            alone[k] if isinstance(v, tuple) else (alone[k],)):
                assert a[inside].tobytes() == b.tobytes(), (site, k)


def test_repeated_operator_reports_do_not_leak(tmp_path):
    """One operator listed three times, with different grids or E, gives
    each entry the bytes of its own single-operator run."""
    descriptor = _patched_operator("jacobi", np.random.default_rng(11))
    entries = [
        {"name": "a", "descriptor": descriptor, "grid": GRIDS["jacobi"]},
        {"name": "b", "descriptor": descriptor,
         "grid": {"start": -4.0, "stop": 4.0, "points": 601}},
        {"name": "c", "descriptor": descriptor, "grid": GRIDS["jacobi"],
         "E": {"carrier": "line", "intervals": [[-1.0, 1.0, "cc"]], "points": []}},
    ]
    together = _run(tmp_path, "together", entries)
    assert len(together) == 6
    for entry in entries:
        alone = _run(tmp_path, entry["name"], [entry])
        for name, data in alone.items():
            assert together[name] == data, name


def test_eigenvalue_angles_solve_each_block(geronimus_cmv):
    """Solving each distinct block once returns the blockwise spectrum of a
    patched operator, whose blocks differ, and of an unpatched one."""
    patched = cmv.VerblunskyCoefficients(2, (0.3, -0.2j), {5: 0.4})
    for V in (geronimus_cmv, patched):
        blocks = [cmv.build_truncation(V, (lo, lo + 127)) for lo in (-256, -128, 0, 128)]
        direct = np.sort(np.concatenate(
            [np.angle(np.linalg.eigvals(T.dense())) % (2.0 * math.pi) for T in blocks]))
        assert np.array_equal(cmv.eigenvalue_angles(V, window=512), direct)


def _periodic_descriptor(kind, rng, period, patched):
    """A seeded period-p Jacobi or CMV descriptor, patched on two sites or
    not, or a period-1 Schrodinger one of p pieces, patched on [0, P) by two
    pieces or not."""
    if kind == "schrodinger":
        weights = rng.integers(1, 5, period)
        patch = [[rng.uniform(0.1, 0.6), rng.uniform(-2.0, 6.0)] for _ in range(2)]
        d = {"type": "schrodinger", "period": 1.0,
             "pieces": [[w / weights.sum(), rng.uniform(0.0, 6.0)] for w in weights.tolist()]}
    elif kind == "jacobi":
        patch = {str(n): [rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0)] for n in (-1, 2)}
        d = {"type": "jacobi", "period": period, "a": rng.uniform(0.5, 1.5, period).tolist(),
             "b": rng.uniform(-1.0, 1.0, period).tolist()}
    else:
        alpha = rng.uniform(0.1, 0.6, period + 2) \
            * np.exp(2j * math.pi * rng.uniform(size=period + 2))
        patch = {str(n): [a.real, a.imag] for n, a in zip((-1, 2), alpha[period:])}
        d = {"type": "cmv", "period": period, "alpha": [[a.real, a.imag] for a in alpha[:period]]}
    return dict(d, patch=patch if patched else type(patch)())


def _written_with_period(d, m):
    """The same operator, its base written out m times as period m p."""
    keys = {"jacobi": ("a", "b"), "cmv": ("alpha",), "schrodinger": ("pieces",)}[d["type"]]
    return dict(d, period=m * d["period"], **{k: d[k] * m for k in keys})


@pytest.mark.parametrize("period, m, patched, kind", [
    (period, m, patched, kind) for kind in ("jacobi", "cmv")
    for period, m, patched in ((1, 1024, False), (2, 128, True), (3, 86, False), (4, 64, True))
] + [(pieces, m, patched, "schrodinger") for pieces, m, patched in (
    (1, 2, False), (2, 3, True), (3, 4, False), (1, 8, True), (2, 16, False), (3, 16, True),
    (1, 50, True), (2, 64, False), (1, 64, True))])
def test_period_multiples_read_the_same_operator(kind, period, m, patched):
    """An operator of period p written as period m p, its coefficients
    repeated, is the same operator: its monodromy is the m-th power, so the
    report gives the same status, inclusion status and ac, M2 and M1 sets.
    Past m p of about 200 the one-period products of random Jacobi
    operators pass the float range off the bands, which transfer_product's
    rescaling keeps finite.  So it does for a Schrodinger period of p
    pieces repeated m times, whose transfer grows up to about exp(5.6 m)
    across one period at the grid top, exp(360) at m = 64."""
    rng = np.random.default_rng(3200 + 10 * period + ("jacobi", "cmv", "schrodinger").index(kind))
    d = _periodic_descriptor(kind, rng, period, patched)
    grid = {"angles": 512} if kind == "cmv" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one, many = (verify_inclusion(x, grid_config=grid).to_json()
                     for x in (d, _written_with_period(d, m)))
    assert one["status"] == many["status"] == "PASS", many["failures"]
    assert one["theorem_inclusion"]["status"] == many["theorem_inclusion"]["status"]
    assert one["ac_spectrum"] == many["ac_spectrum"]
    assert one["multiplicity"] == many["multiplicity"]


def _dyadic_jacobi(rng, shift=0.0):
    """A seeded Jacobi operator of period 1-4 patched on 1-3 sites, each a
    in [1/2, 3/2] and b in [-1, 1] a multiple of 2^-7, and the same
    operator with every b moved by shift."""
    period = int(rng.integers(1, 5))
    a = rng.integers(64, 193, period + 3) / 128.0
    b = rng.integers(-128, 129, period + 3) / 128.0
    sites = rng.choice(np.arange(-3, 4), int(rng.integers(1, 4)), replace=False).tolist()

    def op(s):
        return jacobi.JacobiCoefficients(period, a[:period], b[:period] + s,
                                         {n: (a[period + k], b[period + k] + s)
                                          for k, n in enumerate(sites)})
    return op(0.0), op(shift)


def _moved(S, s):
    """The line set S translated by s."""
    return canonicalize([(iv.lo + s, iv.hi + s, iv.lo_closed, iv.hi_closed) for iv in S.intervals],
                        [x + s for x in S.isolated_points])


@pytest.mark.parametrize("seed", range(10))
def test_shifted_diagonal_moves_the_sets_by_the_shift(seed):
    """b -> b + s moves the spectrum of a Jacobi operator by s.  With the
    coefficients multiples of 2^-7, s = +-2^k (k in [-4, 1]) and a grid of
    step 2^-9, z - b(n) has the same bits on the moved grid, so the ac
    spectrum, M2 and M1 of the shifted operator on grid + s are exactly the
    unshifted sets moved by s."""
    rng = np.random.default_rng(3400 + seed)
    s = float(rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-4, 2)))
    J, shifted = _dyadic_jacobi(rng, s)
    grid = np.arange(-2600, 2601) * 2.0 ** -9
    ac, moved = jacobi.ac_spectrum(J, grid), jacobi.ac_spectrum(shifted, grid + s)
    assert ac.intervals and moved == _moved(ac, s)
    for S, T in zip(jacobi.multiplicity_sets(J, grid), jacobi.multiplicity_sets(shifted, grid + s)):
        assert T == _moved(S, s)
