"""The batched tridiagonal resolvent behind both truncation oracles, and
the closed-form CMV matrix measure.

boundary_analysis.tridiagonal_resolvent serves Jacobi's
green_inverse_identity_residual (T - z on the Dirichlet window) and CMV's
truncation_cayley_diag (the tridiagonal Q - z P* of the factorization
U = O E).  Both are checked against banded solves of the same truncations
(conftest.resolvent_entry, conftest.cayley_diag), the helper against
dense inverses, the factorization against build_truncation, and the
report path and the CMV oracles against importing scipy at all.  The
closed-form 2x2 M of cmv.matrix_M_and_R is checked against the banded
solve (conftest.matrix_M_entry), and its boundary density against the
discriminant's bands.
"""

import importlib
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import acspectra
from acspectra import boundary_analysis, cmv, jacobi
from acspectra.boundary_analysis import tridiagonal_resolvent
from acspectra.harness_cli import bundled_config_path, build_operator
from conftest import cayley_diag, matrix_M_entry, resolvent_entry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dense(d, up, lo):
    return np.diag(d) + np.diag(up, 1) + np.diag(lo, -1)


class TestTridiagonalResolvent:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_matches_dense_inverse_at_every_row(self, n, rng):
        """A nonsymmetric complex batch, every c including both ends."""
        d = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)) + 3.0
        up = rng.normal(size=(3, n - 1)) + 1j * rng.normal(size=(3, n - 1))
        lo = rng.normal(size=n - 1)
        for c in range(n):
            g, g_prev = tridiagonal_resolvent(d, up, lo, c)
            for b in range(3):
                G = np.linalg.inv(_dense(d[b], up[b], lo))
                assert abs(g[b] - G[c, c]) <= 1e-13 * np.abs(G).max()
                want = G[c, c - 1] if c else 0.0
                assert abs(g_prev[b] - want) <= 1e-13 * np.abs(G).max()

    def test_exact_zero_pivots(self):
        """Leading minors theta_1 = theta_3 = 0: elimination without
        pivoting divides by zero, the minor chains do not."""
        d = np.array([0.0, 2.0, 0.0, 3.0, 1.0])
        off = np.array([1.0, 1.0, 2.0, 1.0])
        G = np.linalg.inv(_dense(d, off, off))
        for c in range(5):
            g, g_prev = tridiagonal_resolvent(d, off, off, c)
            assert g == pytest.approx(G[c, c], abs=1e-15)
            assert g_prev == pytest.approx(G[c, c - 1] if c else 0.0, abs=1e-15)

    def test_long_window_does_not_overflow(self):
        """801 sites at |d| = 40: the unscaled minors would reach 40^400."""
        d = np.full(801, 40.0 + 1j)
        off = np.ones(800)
        g, g_prev = tridiagonal_resolvent(d, off, off, 400)
        lam = (d[0] - np.sqrt(d[0] ** 2 - 4.0)) / 2.0       # the decaying root
        assert g == pytest.approx(1.0 / (d[0] - 2.0 * lam), rel=1e-13)
        assert g_prev == pytest.approx(-lam * g, rel=1e-13)

    def test_row_outside_the_window_raises(self):
        with pytest.raises(ValueError):
            tridiagonal_resolvent(np.ones(4), np.ones(3), np.ones(3), 4)


@pytest.mark.parametrize("n", [801, 1024])
@pytest.mark.parametrize("row", ["first", "middle", "last"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared_off", "batched_off"])
@pytest.mark.parametrize("batch", [(), (20,), (3, 7)], ids=str)
def test_blocks_keep_the_bits_of_one_block(monkeypatch, batch, shared, row, n):
    """The resolvent solved in blocks of rows (one row, a few rows with a
    short last block, the default budget) equals the one-block solve bit
    for bit, for a seeded nonsymmetric batch."""
    default = boundary_analysis.RESOLVENT_BLOCK
    rng = np.random.default_rng(len(batch) + 2 * shared + 3 * n)
    c = {"first": 0, "middle": n // 2, "last": n - 1}[row]
    d = rng.normal(size=batch + (n,)) - 1j * rng.uniform(0.5, 2.0, size=batch + (1,))
    off = () if shared else batch
    up = rng.uniform(0.5, 1.5, size=off + (n - 1,))
    lo = rng.uniform(0.5, 1.5, size=off + (n - 1,)) + 0.1j
    monkeypatch.setattr(boundary_analysis, "RESOLVENT_BLOCK", 2 ** 62)
    whole = tridiagonal_resolvent(d, up, lo, c)
    assert whole[0].shape == whole[1].shape == batch
    steps = 1 << (max(c, n - 1 - c) - 1).bit_length()
    for budget in (1, 3 * steps, default):
        monkeypatch.setattr(boundary_analysis, "RESOLVENT_BLOCK", budget)
        blocked = tridiagonal_resolvent(d, up, lo, c)
        assert all(np.array_equal(x, y) for x, y in zip(blocked, whole)), budget


def test_capped_window_keeps_its_bits_in_a_bounded_working_set():
    """A scale-1024 operator sizes the Jacobi oracle's window at its cap,
    2^15 + 1 sites.  Solved in blocks, its residual keeps the bits of the
    all-draws-at-once solve, and its traced peak stays under 10 MB, 1.5
    times the 6.8 MB it reads with each draw's diagonal built in its block
    (16.3 MB with the draws' diagonals built whole; the all-draws-at-once
    solve peaked at 106 MB)."""
    J = jacobi.JacobiCoefficients(2, (1024.0, 1024.0), (1024.0, -1024.0))
    rng = np.random.default_rng(0)
    zs = rng.uniform(-3e3, 3e3, 20) + 1j * rng.uniform(0.5, 2.0, 20)
    tracemalloc.start()
    try:
        residual = jacobi.green_inverse_identity_residual(J, zs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual == float.fromhex("0x1.6f7691a234073p-26")
    assert peak < 10 * 2 ** 20, peak / 2 ** 20


@pytest.mark.parametrize("draws", [1, 3, 4, 5, 20])
def test_oracles_in_blocks_of_draws_equal_a_loop_over_draws(draws):
    """Both truncation oracles build their rows one block of draws at a
    time (4 draws a block at a report's windows), and equal a loop that
    solves one draw per call bit for bit: the Jacobi residual is the
    largest per-draw residual (the window stays at 801 sites for every
    draw), and the CMV Cayley diagonal is each draw's."""
    rng = np.random.default_rng(draws)
    J = jacobi.JacobiCoefficients(2, (1.0, 0.7), (0.5, -0.5), {3: (1.3, 0.2)})
    zs = rng.uniform(-3.0, 3.0, draws) + 1j * rng.uniform(0.5, 2.0, draws)
    residual = jacobi.green_inverse_identity_residual(J, zs)
    assert residual == max(jacobi.green_inverse_identity_residual(J, zs[k:k + 1])
                           for k in range(draws))
    V = cmv.VerblunskyCoefficients(2, (0.2 - 0.3j, 0.6), {2: -0.5 + 0.5j})
    ws = np.sqrt(rng.uniform(0.0, 0.81, draws)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, draws))
    got = cmv.truncation_cayley_diag(V, ws, 0, 1024)
    want = np.concatenate([cmv.truncation_cayley_diag(V, ws[k:k + 1], 0, 1024)
                           for k in range(draws)])
    assert got.shape == (draws,) and got.tobytes() == want.tobytes()


def _theta_blocks(V, n_lo, n_hi, parity):
    """Direct sum over the site pairs (m, m+1), m = parity mod 2, of
    [[-a(m+1), r(m+1)], [r(m+1), conj a(m+1)]] on the window [n_lo, n_hi],
    with alpha = 1 at the cuts n_lo and n_hi + 1."""
    def alpha(n):
        return 1.0 if n in (n_lo, n_hi + 1) else V.alpha(n)
    N = n_hi - n_lo + 1
    F = np.zeros((N, N), dtype=complex)
    for m in range(n_lo - 1, n_hi + 1):
        if m % 2 != parity:
            continue
        a = alpha(m + 1)
        block = np.array([[-a, np.sqrt(1.0 - abs(a) ** 2)],
                          [np.sqrt(1.0 - abs(a) ** 2), np.conj(a)]])
        for i in (0, 1):
            for j in (0, 1):
                if n_lo <= m + i <= n_hi and n_lo <= m + j <= n_hi:
                    F[m + i - n_lo, m + j - n_lo] = block[i, j]
    return F


CMV_OPERATORS = {
    "free": cmv.VerblunskyCoefficients(1, (0.0,)),
    "geronimus": cmv.VerblunskyCoefficients(1, (0.5,)),
    "near_circle": cmv.VerblunskyCoefficients(2, (0.99, -0.99j)),
    "patched_near_circle": cmv.VerblunskyCoefficients(
        3, (0.3 + 0.2j, -0.5j, 0.1), {0: 0.99, 1: -0.7 + 0.1j, -2: 0.4j}),
    "patched": cmv.VerblunskyCoefficients(2, (0.2 - 0.3j, 0.6), {2: -0.5 + 0.5j}),
}


@pytest.mark.parametrize("name", sorted(CMV_OPERATORS))
@pytest.mark.parametrize("window", [(-6, 5), (-3, 2), (-5, 4), (-8, 9)])
def test_truncation_factors_as_odd_times_even_blocks(name, window):
    V = CMV_OPERATORS[name]
    O, E = _theta_blocks(V, *window, 1), _theta_blocks(V, *window, 0)
    assert np.abs(O @ E - cmv.build_truncation(V, window).dense()).max() <= 1e-15


@pytest.mark.parametrize("name", sorted(CMV_OPERATORS))
@pytest.mark.parametrize("n0,window", [(0, 6), (1, 6), (0, 64), (-3, 64), (2, 1024)])
def test_cmv_oracle_matches_the_banded_solve(name, n0, window, rng):
    """Both parities of n0 (P = O, resp. E), the free operator (zero
    diagonal of Q - z P*), |alpha| = 0.99, patches inside the window."""
    V = CMV_OPERATORS[name]
    zs = np.sqrt(rng.uniform(0.0, 0.81, 8)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 8))
    T = cmv.build_truncation(V, (n0 - window // 2, n0 + window // 2 - 1))
    want = np.array([cayley_diag(T, z, n0) for z in zs])
    assert np.abs(cmv.truncation_cayley_diag(V, zs, n0, window) - want).max() < 1e-13
    assert cmv.M11(V, zs[0], n0, mode="oracle", window=window) == pytest.approx(
        want[0], abs=1e-13)


@pytest.mark.parametrize("name", sorted(CMV_OPERATORS))
@pytest.mark.parametrize("n0", [0, 1, -3, 2])
def test_closed_form_matrix_M_matches_the_banded_solve(name, n0, rng):
    """All four entries of M on the pair (n0-1, n0), at both parities of
    n0-1 (the pair's block in E, resp. O), at interior z, against the
    banded solve of a 512-site truncation."""
    V = CMV_OPERATORS[name]
    zs = np.sqrt(rng.uniform(0.0, 0.81, 6)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6))
    T = cmv.build_truncation(V, (n0 - 256, n0 + 255))
    got = cmv._M_matrix_grid(V, zs, n0)
    for j in (0, 1):
        for k in (0, 1):
            want = np.array([matrix_M_entry(T, z, n0 - 1 + j, n0 - 1 + k) for z in zs])
            assert np.all(np.abs(got[f"M{j}{k}"] - want) <= 1e-12 * (1.0 + np.abs(want))), \
                (j, k)


class TestBoundaryDensity:
    @pytest.mark.parametrize("name", sorted(CMV_OPERATORS))
    @pytest.mark.parametrize("n0", [0, 1])
    def test_psd_with_unit_trace_where_defined(self, name, n0):
        """R is a density matrix at every angle where it is defined (rank
        above 0), and 0 elsewhere."""
        data = cmv.matrix_M_and_R(CMV_OPERATORS[name], n0, grid=cmv.default_angles(1024),
                                  window=512)
        defined = data.rank > 0
        assert defined.any()
        R = data.R[defined]
        assert np.linalg.eigvalsh(R).min() >= -1e-12
        assert data.min_eigenvalue >= -1e-12
        assert np.abs(np.trace(R, axis1=1, axis2=2) - 1.0).max() <= 1e-12
        assert data.trace_error <= 1e-12
        assert not data.R[~defined].any()

    def test_free_is_half_the_identity_with_rank_two(self):
        data = cmv.matrix_M_and_R(CMV_OPERATORS["free"], 0, window=512)
        assert np.abs(data.R - 0.5 * np.eye(2)).max() <= 1e-15
        assert (data.rank == 2).all()

    @pytest.mark.parametrize("name", sorted(CMV_OPERATORS))
    @pytest.mark.parametrize("n0", [0, 1])
    def test_rank_two_away_from_undefined_angles(self, name, n0):
        """The multiplicity is two on the whole ac spectrum: R has rank two
        at every defined angle more than three grid steps from an
        undefined one, its smaller eigenvalue read against the declared
        errors of the entries."""
        rank = cmv.matrix_M_and_R(CMV_OPERATORS[name], n0, grid=cmv.default_angles(1024),
                                  window=512).rank
        steps = np.arange(1024)[:, None] - np.flatnonzero(rank == 0)[None, :]
        near = (np.abs((steps + 512) % 1024 - 512) <= 3).any(axis=1)
        assert (rank[~near] == 2).all(), np.flatnonzero(~near & (rank != 2))

    @pytest.mark.parametrize("name", ["geronimus", "patched"])
    @pytest.mark.parametrize("n0", [0, 1])
    def test_defined_on_the_band_interior(self, name, n0):
        """R is defined exactly where |Delta| < 2, at every angle more than
        one grid step from a band edge."""
        V = CMV_OPERATORS[name]
        grid = cmv.default_angles(1024)
        defined = cmv.matrix_M_and_R(V, n0, grid=grid, window=512).rank > 0
        band = np.abs(cmv.discriminant(V, grid)) < 2.0
        away = (band == np.roll(band, 1)) & (band == np.roll(band, -1))
        assert band[away].any() and not band[away].all()
        assert np.array_equal(defined[away], band[away])


def _report_suite_operators(tmp_path):
    """Descriptors of the benchmark's report_suite seeds 0, 1 and 9,
    rotations 0-20, by perfbench's generator; rotation 0 is listed once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "perfbench"))
        workloads = importlib.import_module("workloads")
    out = [d for _, d in workloads.CONFTEST_OPERATORS]
    for seed in (0, 1, 9):
        suite = workloads.ReportSuite(seed, str(tmp_path))
        for k in range(1, 21):
            suite.rotation(k)       # writes each operator's config file
        for path in sorted(tmp_path.glob("r*.config.json")):
            out.append(json.loads(path.read_text())["operators"][0]["descriptor"])
            path.unlink()
    return out


def test_both_oracles_match_the_banded_solve_on_report_operators(tmp_path):
    """The report's identity draws, on every Jacobi and CMV operator of
    report_suite seeds 0, 1 and 9: Jacobi to 1e-13 relative, CMV to 1e-13
    absolute, against solve_banded on the same truncations."""
    rng = np.random.default_rng(0)
    kinds = {"jacobi": 0, "cmv": 0}
    for d in _report_suite_operators(tmp_path):
        if d["type"] not in kinds:
            continue
        kinds[d["type"]] += 1
        op = build_operator(d)
        if d["type"] == "jacobi":
            R = op.sup_bound() + 1.0
            zs = rng.uniform(-R, R, 20) + 1j * rng.uniform(0.5, 2.0, 20)
            T = jacobi.truncated_matrix(op, 801)
            want = np.array([resolvent_entry(T, z, 0, 0) for z in zs])
            got, _ = tridiagonal_resolvent(T.diag - zs[:, None], T.offdiag, T.offdiag,
                                           T.index_of(0))
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13, d
        else:
            zs = np.sqrt(rng.uniform(0.0, 0.81, 20)) * np.exp(2j * np.pi * rng.uniform(size=20))
            T = cmv.build_truncation(op, (-512, 511))
            want = np.array([cayley_diag(T, z, 0) for z in zs])
            assert np.abs(cmv.truncation_cayley_diag(op, zs, 0, 1024) - want).max() < 1e-13, d
    assert kinds == {"jacobi": 62, "cmv": 62}


def _python(code, *args):
    """The last stdout line of a fresh interpreter running code with args,
    the package on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_spec_run_does_not_import_scipy(tmp_path):
    """The report path is numpy only: spec run on both bundled suites
    leaves scipy out of sys.modules."""
    code = ("import sys; from acspectra.harness_cli import spec_main; "
            "codes = [spec_main(['run', '--config', c, '--out', o]) "
            "for c, o in zip(sys.argv[1::2], sys.argv[2::2])]; "
            f"print(codes, {SCIPY_MODULES})")
    args = []
    for name in ("free_suite.json", "periodic_suite.json"):
        args += [bundled_config_path(name), str(tmp_path / name)]
    assert _python(code, *args) == "[0, 0] []"


def test_cmv_oracles_do_not_import_scipy():
    """matrix_M_and_R, M11 in oracle mode and eigenvalue_angles are numpy
    only."""
    code = ("import sys; from acspectra import cmv; "
            "V = cmv.VerblunskyCoefficients(2, (0.2 - 0.3j, 0.6), {2: -0.5 + 0.5j}); "
            "cmv.matrix_M_and_R(V, 0, window=512); "
            "cmv.M11(V, 0.3 + 0.2j, 0, mode='oracle', window=512); "
            "cmv.eigenvalue_angles(V, window=512); "
            f"print({SCIPY_MODULES})")
    assert _python(code) == "[]"
