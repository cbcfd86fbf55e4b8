"""One-point values as reads of the grid kernels: on random periodic-plus-
patch operators of every family, each one-point function equals its
family's kernel at that point bit for bit, xi and Xi11 equal a one-point
phase-grid read, and the identity draws of a report make one kernel call
per batch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acspectra import cmv, harness_cli, jacobi, schrodinger
from acspectra.errors import NonConvergent

periods = st.integers(1, 4)
patch_sites = st.lists(st.integers(-4, 4), max_size=3, unique=True)


@st.composite
def jacobi_ops(draw):
    p = draw(periods)
    coef = st.floats(0.5, 1.5)
    diag = st.floats(-1.0, 1.0)
    a = draw(st.lists(coef, min_size=p, max_size=p))
    b = draw(st.lists(diag, min_size=p, max_size=p))
    return jacobi.JacobiCoefficients(p, a, b, {n: (draw(coef), draw(diag))
                                               for n in draw(patch_sites)})


@st.composite
def disk_points(draw, r_max):
    r, t = draw(st.floats(0.01, r_max)), draw(st.floats(0.0, 2 * math.pi))
    return r * complex(math.cos(t), math.sin(t))


@st.composite
def cmv_ops(draw):
    p = draw(periods)
    return cmv.VerblunskyCoefficients(
        p, draw(st.lists(disk_points(0.7), min_size=p, max_size=p)),
        {n: draw(disk_points(0.7)) for n in draw(patch_sites)})


@st.composite
def schrodinger_ops(draw):
    p = draw(periods)
    weights = draw(st.lists(st.integers(1, 4), min_size=p, max_size=p))
    values = draw(st.lists(st.floats(0.0, 6.0), min_size=p, max_size=p))
    patch = draw(st.lists(st.tuples(st.floats(0.1, 0.6), st.floats(-2.0, 6.0)), max_size=3))
    return schrodinger.PiecewisePotential(
        1.0, tuple((w / sum(weights), v) for w, v in zip(weights, values)), tuple(patch))


off_axis = st.builds(lambda x, y, s: complex(x, s * y), st.floats(-4.0, 8.0),
                     st.floats(0.01, 3.0), st.sampled_from([-1.0, 1.0]))


def _read(kernel, op, z, *args):
    out = kernel(op, np.array([z]), *args)
    if isinstance(out, dict):
        return {k: complex(v[0]) for k, v in out.items()}
    return complex(out[0])


def _same_bits(got, want):
    assert type(got) is complex and (got.real, got.imag) == (want.real, want.imag), (got, want)


@given(jacobi_ops(), off_axis, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_jacobi_one_point_values_are_kernel_reads(J, z, n0):
    want = _read(jacobi._weyl_grid, J, z, n0)
    for side, m, M in (("+", "m_plus", "M_plus"), ("-", "m_minus", "M_minus")):
        _same_bits(jacobi.m_half_line(J, z, n0, side), want[m])
        _same_bits(jacobi.big_M(J, z, n0, side), want[M])
    _same_bits(jacobi.green_diag(J, z, n0), want["g"])
    wd = jacobi.weyl_data(J, z, n0)
    for key, value in want.items():
        _same_bits(getattr(wd, key), value)


@given(schrodinger_ops(), off_axis, st.floats(-1.5, 2.5))
@settings(max_examples=60, deadline=None)
def test_schrodinger_one_point_values_are_kernel_reads(V, z, x0):
    want = _read(schrodinger._weyl_grid, V, z, x0)
    mp, mm = (complex(m[0]) for m in schrodinger._m_grid(V, np.array([z]), x0))
    _same_bits(want["m_plus"], mp)
    _same_bits(want["m_minus"], mm)
    _same_bits(schrodinger.m_half_line(V, z, x0, "+"), mp)
    _same_bits(schrodinger.m_half_line(V, z, x0, "-"), mm)
    _same_bits(schrodinger.green_diag(V, z, x0), want["g"])
    wd = schrodinger.weyl_data(V, z, x0)
    for key, value in want.items():
        _same_bits(getattr(wd, key), value)


@given(cmv_ops(), disk_points(0.95), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_cmv_one_point_values_are_kernel_reads(V, z, n0):
    want = _read(cmv._M11_grid, V, z, n0)
    for side in "+-":
        _same_bits(cmv.m_half_lattice(V, z, n0, side), _read(cmv._m_grid, V, z, n0, side))
        _same_bits(cmv.big_M(V, z, n0, side), _read(cmv._big_M_grid, V, z, n0, side))
    _same_bits(cmv.M11(V, z, n0), want["M11"])
    wd = cmv.weyl_data(V, z, n0)
    _same_bits(wd.m_plus, want["M_plus"])
    _same_bits(wd.m_minus, _read(cmv._m_grid, V, z, n0, "-"))
    for key, value in want.items():
        _same_bits(getattr(wd, key), value)


def _phase_matches_grid(phase, phase_grid, op, loc, site):
    vals, _, ok = phase_grid(op, np.array([loc]), site)
    if ok[0]:
        got = phase(op, loc, site)
        assert type(got) is float and got == vals[0]
    else:
        with pytest.raises(NonConvergent):
            phase(op, loc, site)


@given(jacobi_ops(), schrodinger_ops(), cmv_ops(), st.floats(-4.0, 4.0),
       st.floats(-1.0, 8.0), st.floats(0.0, 2 * math.pi))
@settings(max_examples=20, deadline=None)
def test_phases_are_one_point_phase_grid_reads(J, V, W, lam, energy, theta):
    _phase_matches_grid(jacobi.xi, jacobi.xi_grid, J, lam, 0)
    _phase_matches_grid(schrodinger.xi, schrodinger.xi_grid, V, energy, 0.0)
    _phase_matches_grid(cmv.Xi11, cmv.Xi11_grid, W, theta, 0)


@given(jacobi_ops(), cmv_ops(), st.integers(1, 20))
@settings(max_examples=10, deadline=None)
def test_identity_draws_make_one_kernel_call_per_batch(J, V, draws):
    """Jacobi's green_inverse_identity_residual and the report's CMV
    m11_formula_vs_oracle draws read their kernel once for all draws."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for mod, name in ((jacobi, "_weyl_grid"), (cmv, "_M11_grid")):
            def counting(op, zs, *args, _fn=getattr(mod, name), _name=name, **kwargs):
                calls.append((_name, np.size(zs)))
                return _fn(op, zs, *args, **kwargs)
            mp.setattr(mod, name, counting)
        rng = np.random.default_rng(draws)
        zs = rng.uniform(-3.0, 3.0, draws) + 1j * rng.uniform(0.5, 2.0, draws)
        jacobi.green_inverse_identity_residual(J, zs)
        assert calls == [("_weyl_grid", draws)]
        calls.clear()
        out = harness_cli._identity_residuals(
            "cmv", V, cmv.default_angles(), None, False, rng,
            harness_cli._check_tolerances({"identity_draws": draws, "oracle_window": 64}))
        assert calls == [("_M11_grid", draws)]
        assert out["m11_formula_vs_oracle"]["n_draws"] == draws
