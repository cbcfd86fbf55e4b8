"""The shared boundary-sweep engine: sweeps per report and the per-report
sweep memo, the Floquet pair chooser on random monodromies, and ac
spectra of random periodic operators against independent band oracles."""

import json
import math

import numpy as np
import pytest

from acspectra import boundary_analysis, cmv, jacobi, schrodinger
from acspectra.boundary_analysis import floquet_pair, memo, sweep_scope
from acspectra.errors import MonodromyDegenerate
from acspectra.harness_cli import (FAMILY_MODULES, TOLERANCES, _csv_for, _json_safe, _load,
                                   _resolve_grid, run_config, verify_inclusion)
from acspectra.interval_sets import (canonicalize, circle_set, contains_mask,
                                     longest_component, set_algebra, set_to_json)

SWEEPS = ((jacobi, "boundary_weyl_grid"), (cmv, "boundary_cmv_grid"),
          (schrodinger, "boundary_schrodinger_grid"))


@pytest.mark.parametrize("fixture, grid_config, expected", [
    ("period2_jacobi", None, 2),
    ("geronimus_cmv", {"angles": 1024}, 2),
    ("square_well", None, 2),
])
def test_sweeps_per_report(request, monkeypatch, fixture, grid_config, expected):
    """A report plus its CSV, in one sweep scope, computes each (site, grid)
    sweep once: the two reference sites of the ac spectrum, which the
    reflectionless test, the multiplicity sets, the CSV and, for CMV, the
    boundary identity residual on angles of E read again."""
    calls = []
    for mod, name in SWEEPS:
        def counting(*args, _fn=getattr(mod, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counting)
    op = request.getfixturevalue(fixture)
    descriptor = op.to_descriptor()
    kind = descriptor["type"]
    with sweep_scope():
        rep = verify_inclusion(descriptor, grid_config=grid_config)
        assert rep.status == "PASS"
        grid, _ = _resolve_grid(kind, op, grid_config)
        _csv_for(kind, op, grid)
    assert len(calls) == expected


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
        _csv_for("schrodinger", square_well, grid)
    draws = TOLERANCES["identity_draws"][0]
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
    assert branch.shape == (5, 4)
    assert branch[0, 0] == 0.5 and ambiguous.tolist() == [False, True, True, True]
    near = np.array([[2.1, 0.9, 0.9, 0.9], [0, 0, 0, 0.6], [1, 1, 1, 0.8],
                     [1, 1, 1, 0.8], [0, 0, 0, -0.6]], dtype=complex)
    dec, grow, branch, ambiguous = floquet_pair(*m, det, near)
    assert branch[0, 0] == 2.0 and dec[0][0] == 0.0     # the eigenvector (0, y) of 2
    assert ambiguous.tolist() == [False, False, True, False]
    assert (dec[0][3], dec[1][3], grow[0][3], grow[1][3]) == (0.6, 0.8, 0.8, -0.6)
    assert (dec[0][1], dec[1][1]) == (0.0, 1.0)
    with pytest.raises(MonodromyDegenerate):
        floquet_pair(*m, det)


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
        for arr in (a for half in pair for a in half):
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert calls == ["seeds", "seeds", "seeds", "zeros", "seeds"]
    assert memo(seeds, V, zs) is not pair and len(calls) == 6
    for half, again in zip(pair, outside):
        for a, b in zip(half, again):
            assert a.tobytes() == b.tobytes()


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

    op, grid, _, _ = _load(descriptor, None, GRIDS[kind])
    mod = FAMILY_MODULES[kind]
    ac = mod.ac_spectrum(op, grid)
    refl = mod.reflectionless_on(op, ac, grid)
    M2, M1 = mod.multiplicity_sets(op, grid)
    assert boundary_analysis._memo is None

    def same(x):
        return json.loads(json.dumps(_json_safe(x)))
    assert report["ac_spectrum"] == same(set_to_json(ac))
    assert report["reflectionless"]["E"] == same(set_to_json(ac))
    for field in ("verdict", "fraction", "max_residual", "n_points", "xi_fraction",
                  "witness_residual"):
        assert report["reflectionless"][field] == same(getattr(refl, field)), field
    assert report["reflectionless"]["defect_points"] == same(list(refl.defect_points))
    assert report["multiplicity"]["M2"] == same(set_to_json(M2))
    assert report["multiplicity"]["M1"] == same(set_to_json(M1))
    assert files["op.csv"] == _csv_for(kind, op, grid).encode()


@pytest.mark.parametrize("kind", ["jacobi", "cmv", "schrodinger"])
def test_whole_grid_sweep_read_on_E_equals_sweep_of_E(kind):
    """The reflectionless test reads the whole grid's sweep at the points of
    E; the kernels and Richardson work point by point, so that has the bits
    of a sweep of E's points alone."""
    rng = np.random.default_rng({"jacobi": 21, "cmv": 22, "schrodinger": 23}[kind])
    op, grid, _, _ = _load(_patched_operator(kind, rng), None, GRIDS[kind])
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
