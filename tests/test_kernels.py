"""The Weyl kernels: their entrywise 2x2 transfer products against per-step
matrices multiplied with np.matmul, their Floquet seeds at the nearest
period boundary against seeds further out, the CMV kernel against its
truncation oracle, two kernel calls per boundary sweep and one monodromy
per kernel call."""

import math

import numpy as np
import pytest

from acspectra import cmv, jacobi, schrodinger
from acspectra.boundary_analysis import floquet_pair


def _patched_jacobi(rng, period):
    patch = {int(n): (rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
             for n in rng.choice(np.arange(-4, 5), 2, replace=False)}
    return jacobi.JacobiCoefficients(period, tuple(rng.uniform(0.5, 1.5, period)),
                                     tuple(rng.uniform(-1.0, 1.0, period)), patch)


def _patched_schrodinger(rng, period):
    weights = rng.integers(1, 5, period)
    return schrodinger.PiecewisePotential(
        1.0, tuple(zip(weights / weights.sum(), rng.uniform(0.0, 6.0, period))),
        tuple(zip(rng.uniform(0.1, 0.6, 2), rng.uniform(-2.0, 6.0, 2))))


def _patched_cmv(rng, period):
    alphas = rng.uniform(0.05, 0.7, period) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, period))
    patch = {int(n): complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
             for n in rng.choice(np.arange(-3, 4), 2, replace=False)}
    return cmv.VerblunskyCoefficients(period, tuple(alphas), patch)


def _off_axis(rng, count):
    return rng.uniform(-4.0, 8.0, count) + 1j * rng.choice([-1.0, 1.0], count) \
        * 10.0 ** rng.uniform(-4.0, 0.5, count)


def _assert_close(got, ref, rtol):
    scale = np.abs(ref).max(axis=(-2, -1))
    assert np.all(np.abs(got - ref).max(axis=(-2, -1)) <= rtol * scale)


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_jacobi_monodromy_is_the_matmul_product(period):
    """monodromy(J, z, n) against T(n+p-1) ... T(n) built here step by step;
    its determinant is the product of a(n-1)/a(n) over the period."""
    rng = np.random.default_rng(700 + period)
    for _ in range(4):
        J = _patched_jacobi(rng, period)
        zs = _off_axis(rng, 64)
        n_start = int(rng.integers(-6, 4))
        ref = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2))
        det = 1.0
        for n in range(n_start, n_start + period):
            T = np.zeros(zs.shape + (2, 2), dtype=complex)
            T[:, 0, 0] = (zs - J.b(n)) / J.a(n)
            T[:, 0, 1] = -J.a(n - 1) / J.a(n)
            T[:, 1, 0] = 1.0
            ref = np.matmul(T, ref)
            det *= J.a(n - 1) / J.a(n)
        M = jacobi.monodromy(J, zs, n_start)
        assert M.shape == zs.shape + (2, 2)
        _assert_close(M, ref, 1e-12)
        got_det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        # the determinant's rounding error scales with |M|^2
        assert np.all(np.abs(got_det - det) <= 1e-14 * np.abs(M).max(axis=(1, 2)) ** 2 + 1e-14)


def _pieces_between(V, a, b):
    """(length, value) pieces of V on [a, b], cut at every breakpoint of the
    periodic pieces and of the patch on [0, P)."""
    cuts = np.cumsum([0.0] + [l for l, _ in V.pieces])[:-1]
    xs = [k * V.period + c for k in range(math.floor(a) - 1, math.ceil(b) + 2) for c in cuts]
    xs += list(np.cumsum([0.0] + [l for l, _ in V.patch]))
    xs = sorted({a, b} | {x for x in xs if a < x < b})
    return [(hi - lo, V.value((lo + hi) / 2.0)) for lo, hi in zip(xs[:-1], xs[1:])]


def test_sinhc_is_sinh_over_x_with_a_series_near_zero():
    """sinh(x)/x where |x| >= 1e-4, bit for bit, and 1 + x^2/6 + x^4/120
    below, where the quotient cancels; x = 0 gives 1."""
    rng = np.random.default_rng(600)
    r = 10.0 ** rng.uniform(-8.0, 1.0, 200)
    x = np.append(r * np.exp(2j * math.pi * rng.uniform(size=200)), [0.0, 1e-4, -1e-4j])
    got = schrodinger._sinhc(x)
    big = np.abs(x) >= 1e-4
    assert np.array_equal(got[big], np.sinh(x[big]) / x[big])
    series = 1.0 + x[~big] ** 2 / 6.0 + x[~big] ** 4 / 120.0
    assert np.all(np.abs(got[~big] - series) <= 1e-16)
    assert got[-3] == 1.0


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_schrodinger_transfer_is_the_matmul_product(period):
    """transfer_interval(V, z, a, b) against the closed-form piece matrices
    [[cosh(w l), sinh(w l)/w], [w sinh(w l), cosh(w l)]], w = sqrt(v - z),
    multiplied here in order; every transfer has determinant 1."""
    rng = np.random.default_rng(800 + period)
    for _ in range(4):
        V = _patched_schrodinger(rng, period)
        zs = _off_axis(rng, 64)
        a = rng.uniform(-2.5, 0.5)
        b = a + rng.uniform(0.3, 3.0)
        ref = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2))
        for length, value in _pieces_between(V, a, b):
            w = np.sqrt(value - zs)
            T = np.empty(zs.shape + (2, 2), dtype=complex)
            T[:, 0, 0] = T[:, 1, 1] = np.cosh(w * length)
            T[:, 0, 1] = np.sinh(w * length) / w
            T[:, 1, 0] = w * np.sinh(w * length)
            ref = np.matmul(T, ref)
        M = schrodinger.transfer_interval(V, zs, a, b)
        assert M.shape == zs.shape + (2, 2)
        _assert_close(M, ref, 1e-12)
        got_det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
        assert np.all(np.abs(got_det - 1.0) <= 1e-14 * np.abs(M).max(axis=(1, 2)) ** 2 + 1e-14)


def _jacobi_steps(J, zs, lo, hi, inverse=False):
    """T(hi-1) ... T(lo), or with inverse its inverse T(lo)^-1 ... T(hi-1)^-1,
    multiplied with np.matmul; the identity for hi = lo."""
    out = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2))
    for n in range(lo, hi):
        T = np.zeros(zs.shape + (2, 2), dtype=complex)
        if inverse:     # maps (psi(n+1), psi(n)) to (psi(n), psi(n-1))
            T[:, 0, 1] = 1.0
            T[:, 1, 0] = -J.a(n) / J.a(n - 1)
            T[:, 1, 1] = (zs - J.b(n)) / J.a(n - 1)
            out = np.matmul(out, T)
        else:
            T[:, 0, 0] = (zs - J.b(n)) / J.a(n)
            T[:, 0, 1] = -J.a(n - 1) / J.a(n)
            T[:, 1, 0] = 1.0
            out = np.matmul(T, out)
    return out


def _floquet_stacked(M):
    """floquet_pair of the (K, 2, 2) stack M with determinant 1, each
    eigenvector stacked to shape (K, 2)."""
    return tuple(np.stack(v, axis=-1) for v in floquet_pair(*M.reshape(-1, 4).T, 1.0))


def _jacobi_reference(J, zs, n0, extra):
    """(m_plus, m_minus) at n0 from Floquet seeds `extra` periods beyond the
    first sites whose monodromy window, and all beyond it, is unpatched,
    carried to n0 by step products applied with np.matmul."""
    p, sites = J.period, J.patch_sites
    right = max((n0,) + sites) + 2 + extra * p
    left = min(n0 + 1, min(sites) - p) - extra * p
    # an unpatched window has determinant a(n-1)/a(n+p-1) = 1
    dec, _ = _floquet_stacked(jacobi.monodromy(J, zs, right))
    _, grow = _floquet_stacked(jacobi.monodromy(J, zs, left))
    vp = np.matmul(_jacobi_steps(J, zs, n0, right, inverse=True), dec[..., None])[..., 0]
    vm = np.matmul(_jacobi_steps(J, zs, left, n0 + 1), grow[..., None])[..., 0]
    # vp = (psi(n0), psi(n0 - 1)), vm = (psi(n0 + 1), psi(n0))
    return -vp[:, 0] / (J.a(n0 - 1) * vp[:, 1]), -vm[:, 1] / (J.a(n0) * vm[:, 0])


def _schrodinger_reference(V, zs, x0, extra):
    """(m_plus, m_minus) at x0 from Floquet seeds `extra` periods beyond the
    period boundaries nearest to x0 and the patch, carried to x0 by
    transfer_interval products applied with np.matmul."""
    L = V.period
    right = L * (math.ceil(max(V.patch_length, x0) / L) + extra)
    left = L * (math.floor(min(0.0, x0) / L) - extra)
    dec, _ = _floquet_stacked(schrodinger.transfer_interval(V, zs, right, right + L))
    _, grow = _floquet_stacked(schrodinger.transfer_interval(V, zs, left - L, left))
    T = schrodinger.transfer_interval(V, zs, x0, right)
    T_inv = np.stack([T[:, 1, 1], -T[:, 0, 1], -T[:, 1, 0], T[:, 0, 0]], -1).reshape(T.shape)
    vp = np.matmul(T_inv, dec[..., None])[..., 0]       # det T = 1
    vm = np.matmul(schrodinger.transfer_interval(V, zs, left, x0), grow[..., None])[..., 0]
    return vp[:, 1] / vp[:, 0], vm[:, 1] / vm[:, 0]


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_floquet_seeds_at_the_nearest_period_boundary(period):
    """m_+ and m_- of the kernels, seeded at the nearest admissible period
    boundary, against seeds 1 and 2 periods further out, at reference
    points inside, beside and beyond the patch."""
    rng = np.random.default_rng(1000 + period)
    for _ in range(3):
        zs = _off_axis(rng, 64)
        J = _patched_jacobi(rng, period)
        lo, hi = min(J.patch_sites), max(J.patch_sites)
        for n0 in (lo - 6, lo - 1, lo, (lo + hi) // 2, hi + 1, hi + 5):
            d = jacobi._weyl_grid(J, zs, n0)
            for extra in (1, 2):
                for got, ref in zip((d["m_plus"], d["m_minus"]),
                                    _jacobi_reference(J, zs, n0, extra)):
                    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), (J, n0, extra)
        V = _patched_schrodinger(rng, period)
        for x0 in (-1.7, -0.3, 0.0, 0.5 * V.patch_length, V.patch_length, 2.6):
            got_pair = schrodinger._m_grid(V, zs, x0)
            for extra in (1, 2):
                for got, ref in zip(got_pair, _schrodinger_reference(V, zs, x0, extra)):
                    assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), (V, x0, extra)


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_cmv_kernel_matches_the_truncation_oracle(period):
    """The Schur-product kernel _M11_grid against M11's banded-truncation
    oracle at random interior z of patched operators."""
    rng = np.random.default_rng(900 + period)
    for _ in range(2):
        V = _patched_cmv(rng, period)
        zs = np.sqrt(rng.uniform(0.0, 0.64, 8)) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 8))
        n0 = int(rng.integers(-2, 3))
        m11 = cmv._M11_grid(V, zs, n0)["M11"]
        for z, got in zip(zs, m11):
            want = cmv.M11(V, complex(z), n0, mode="oracle")
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want)), (V, z, n0)


def test_one_kernel_call_per_schedule_stage(monkeypatch):
    """A boundary sweep calls its family kernel, the entry point the
    benchmark's trace times, twice on the whole grid, at the reference
    points and on the axis (Schrodinger: both sides in one call), so
    kernel calls and points per operation keep their meaning."""
    calls = []
    for mod, name in ((jacobi, "_weyl_grid"), (cmv, "_M11_grid"), (schrodinger, "_m_grid")):
        def counting(op, zs, *args, _fn=getattr(mod, name), _name=name, **kwargs):
            calls.append((_name, np.size(zs)))
            return _fn(op, zs, *args, **kwargs)
        monkeypatch.setattr(mod, name, counting)
    J = jacobi.JacobiCoefficients(2, (1.0, 0.8), (0.3, -0.2), {1: (0.9, 0.1)})
    V = cmv.VerblunskyCoefficients(2, (0.3, -0.2j), {1: 0.4})
    S = schrodinger.PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 3.0)), ((0.4, 2.0),))
    sweeps = [(jacobi.boundary_weyl_grid, J, jacobi.default_grid(J, 201), 0, "_weyl_grid"),
              (cmv.boundary_cmv_grid, V, cmv.default_angles(), 0, "_M11_grid"),
              (schrodinger.boundary_schrodinger_grid, S, schrodinger.default_grid(S, 201), 0.0,
               "_m_grid")]
    for sweep, op, grid, site, name in sweeps:
        calls.clear()
        sweep(op, grid, site)
        assert calls == [(name, grid.size)] * 2, name


def test_one_monodromy_per_kernel_call(monkeypatch, square_well):
    """A Schrodinger kernel call at x0 = 0 on the unpatched square well
    evaluates each base piece once, for the one monodromy of both seeds;
    a Jacobi kernel call forms one monodromy."""
    zs = np.linspace(-1.0, 20.0, 50) + 0.01j
    pieces, monodromies = [], []
    piece_entries, monodromy_entries = schrodinger._piece_entries, jacobi._monodromy_entries
    monkeypatch.setattr(schrodinger, "_piece_entries",
                        lambda *args: pieces.append(args[1:]) or piece_entries(*args))
    monkeypatch.setattr(jacobi, "_monodromy_entries",
                        lambda *args: monodromies.append(args[2]) or monodromy_entries(*args))
    schrodinger._m_grid(square_well, zs, 0.0)
    assert len(pieces) == len(square_well.pieces)
    J = jacobi.JacobiCoefficients(2, (1.0, 0.8), (0.3, -0.2), {1: (0.9, 0.1), -2: (1.2, 0.0)})
    for n0 in (-4, 0, 1, 5):
        monodromies.clear()
        jacobi._weyl_grid(J, zs, n0)
        assert len(monodromies) == 1
