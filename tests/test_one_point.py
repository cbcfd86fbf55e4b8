"""One-point values as reads of the grid kernels: on random periodic-plus-
patch operators of every family, weyl_data (and CMV's M11) equals its
family's kernel at that point bit for bit, xi and Xi11 equal a one-point
phase-grid read, one-point reads raise MonodromyDegenerate exactly where
the kernel marks its Floquet branch ambiguous, and the identity draws of a
report make one kernel call per batch."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acspectra import cmv, harness_cli, jacobi, schrodinger
from acspectra.errors import MonodromyDegenerate, NonConvergent

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
    return {k: complex(v[0]) for k, v in out.items() if k != "floquet"}


def _same_bits(got, want):
    assert type(got) is complex and (got.real, got.imag) == (want.real, want.imag), (got, want)


@given(jacobi_ops(), off_axis, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_jacobi_one_point_values_are_kernel_reads(J, z, n0):
    want = _read(jacobi._weyl_grid, J, z, n0)
    wd = jacobi.weyl_data(J, z, n0)
    assert wd.keys() == want.keys() == {"m_plus", "m_minus", "M_plus", "M_minus", "g"}
    for key, value in want.items():
        _same_bits(wd[key], value)


@given(schrodinger_ops(), off_axis, st.floats(-1.5, 2.5))
@settings(max_examples=60, deadline=None)
def test_schrodinger_one_point_values_are_kernel_reads(V, z, x0):
    want = _read(schrodinger._m_grid, V, z, x0)
    d = schrodinger._m_grid(V, np.array([z]), x0)
    mp, mm = (complex(d[k][0]) for k in ("m_plus", "m_minus"))
    _same_bits(want["m_plus"], mp)
    _same_bits(want["m_minus"], mm)
    wd = schrodinger.weyl_data(V, z, x0)
    assert wd.keys() == want.keys() == {"m_plus", "m_minus", "g"}
    for key, value in want.items():
        _same_bits(wd[key], value)


@given(cmv_ops(), disk_points(0.95), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_cmv_one_point_values_are_kernel_reads(V, z, n0):
    want = _read(cmv._M11_grid, V, z, n0)
    _same_bits(cmv.M11(V, z, n0), want["M11"])
    wd = cmv.weyl_data(V, z, n0)
    assert wd.keys() == want.keys() == {"M_plus", "M_minus", "M11"}
    _same_bits(wd["M_plus"], _read(cmv._m_grid, V, z, n0, "+")["m"])
    mm = cmv._m_grid(V, np.array([z]), n0 - 1, "-")["m"]
    _same_bits(wd["M_minus"], complex(cmv._twist(V.alpha(n0), mm)[0]))
    for key, value in want.items():
        _same_bits(wd[key], value)


J0 = jacobi.JacobiCoefficients(1, (1.0,), (0.0,))
C0 = cmv.VerblunskyCoefficients(1, (0.0,))
S0 = schrodinger.PiecewisePotential(1.0, ((1.0, 0.0),))
# family -> ((its kernel at zs, the one-point reads at z it serves), ...)
ONE_POINT = {
    "jacobi": [(lambda zs: jacobi._weyl_grid(J0, zs, 0), [lambda z: jacobi.weyl_data(J0, z, 0)])],
    "schrodinger": [(lambda zs: schrodinger._m_grid(S0, zs, 0.0),
                     [lambda z: schrodinger.weyl_data(S0, z, 0.0)])],
    "cmv": [(lambda zs: cmv._m_grid(C0, zs, 0, "+"), [lambda z: cmv.weyl_data(C0, z, 0)]),
            (lambda zs: cmv._m_grid(C0, zs, -1, "-"), [lambda z: cmv.weyl_data(C0, z, 0)]),
            (lambda zs: cmv._M11_grid(C0, zs, 0),
             [lambda z: cmv.M11(C0, z, 0), lambda z: cmv.weyl_data(C0, z, 0)])],
}
# (family, point off the axis, its distance): free band edges (Jacobi 2,
# Schrodinger 0) and band interiors (Jacobi 0.5, Schrodinger 4, CMV angle 1)
PROBES = [(fam, z(d), d) for d in (1e-13, 1e-9) for fam, z in (
    ("jacobi", lambda d: 2.0 + 1j * d), ("jacobi", lambda d: 0.5 + 1j * d),
    ("schrodinger", lambda d: 1j * d), ("schrodinger", lambda d: 4.0 + 1j * d),
    ("cmv", lambda d: (1.0 - d) * complex(math.cos(1.0), math.sin(1.0))))]


@pytest.mark.parametrize("fam, z, d", PROBES)
def test_one_point_reads_raise_exactly_where_the_branch_is_ambiguous(fam, z, d):
    """Every one-point read of a free operator raises MonodromyDegenerate
    exactly where its kernel's 'floquet' mask is set, the points a sweep
    leaves undetermined: at 1e-13 from the axis, on the band edges as in
    the interiors, and at none of the points 1e-9 from it."""
    for kernel, reads in ONE_POINT[fam]:
        ambiguous = bool(kernel(np.array([z]))["floquet"][1][0])
        assert ambiguous == (d < 1e-12), (fam, z)
        for read in reads:
            if ambiguous:
                with pytest.raises(MonodromyDegenerate):
                    read(z)
            else:
                read(z)


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
        mp.setitem(harness_cli.TOLERANCES, "identity_draws", draws)
        mp.setitem(harness_cli.TOLERANCES, "oracle_window", 64)
        out = harness_cli._identity_residuals("cmv", V, cmv.default_angles(), None, False, draws)
        assert calls == [("_M11_grid", draws)]
        assert out["m11_formula_vs_oracle"]["n_draws"] == draws
