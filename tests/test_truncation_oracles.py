"""The batched tridiagonal resolvent behind both truncation oracles.

boundary_analysis.tridiagonal_resolvent serves Jacobi's
green_inverse_identity_residual (T - z on the Dirichlet window) and CMV's
truncation_cayley_diag (the tridiagonal Q - z P* of the factorization
U = O E).  Both are checked against banded solves of the same truncations
(conftest.resolvent_entry, CMVTruncation.cayley_diag), the helper against
dense inverses, the factorization against build_truncation, and the
report path against importing scipy at all.
"""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import acspectra
from acspectra import cmv, jacobi
from acspectra.boundary_analysis import tridiagonal_resolvent
from acspectra.harness_cli import bundled_config_path, build_operator
from conftest import resolvent_entry

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
    want = np.array([T.cayley_diag(z, n0) for z in zs])
    assert np.abs(cmv.truncation_cayley_diag(V, zs, n0, window) - want).max() < 1e-13
    assert cmv.M11(V, zs[0], n0, mode="oracle", window=window) == pytest.approx(
        want[0], abs=1e-13)


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
            want = np.array([T.cayley_diag(z, 0) for z in zs])
            assert np.abs(cmv.truncation_cayley_diag(op, zs, 0, 1024) - want).max() < 1e-13, d
    assert kinds == {"jacobi": 62, "cmv": 62}


def test_spec_run_does_not_import_scipy(tmp_path):
    """The report path is numpy only: spec run on both bundled suites
    leaves scipy out of sys.modules."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from acspectra.harness_cli import spec_main; "
            "codes = [spec_main(['run', '--config', c, '--out', o]) "
            "for c, o in zip(sys.argv[1::2], sys.argv[2::2])]; "
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    args = []
    for name in ("free_suite.json", "periodic_suite.json"):
        args += [bundled_config_path(name), str(tmp_path / name)]
    proc = subprocess.run([sys.executable, "-c", code] + args, capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] []"
