"""The shared boundary-sweep engine: sweeps per report, and ac spectra of
random periodic operators against independent band oracles."""

import math

import numpy as np
import pytest

from acspectra import cmv, jacobi, schrodinger
from acspectra.harness_cli import _csv_for, _resolve_grid, verify_inclusion
from acspectra.interval_sets import (canonicalize, circle_set, longest_component,
                                     set_algebra)

SWEEPS = ((jacobi, "boundary_weyl_grid"), (cmv, "boundary_cmv_grid"),
          (schrodinger, "boundary_schrodinger_grid"))


@pytest.mark.parametrize("fixture, grid_config, expected", [
    ("period2_jacobi", None, 6),
    ("geronimus_cmv", {"angles": 1024}, 7),
    ("square_well", None, 6),
])
def test_sweeps_per_report(request, monkeypatch, fixture, grid_config, expected):
    """A report plus its CSV sweeps each (site, grid) pair once per derived
    set: ac spectrum at two sites, reflectionless test at two, multiplicity
    sets, the CSV, and for CMV the boundary identity residual."""
    calls = []
    for mod, name in SWEEPS:
        def counting(*args, _fn=getattr(mod, name), **kwargs):
            calls.append(name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counting)
    op = request.getfixturevalue(fixture)
    descriptor = op.to_descriptor()
    kind = descriptor["type"]
    rep = verify_inclusion(descriptor, grid_config=grid_config)
    assert rep.status == "PASS"
    grid, _ = _resolve_grid(kind, op, grid_config)
    _csv_for(kind, op, grid)
    assert len(calls) == expected


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


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_random_jacobi_ac_spectrum_is_the_bands(period):
    rng = np.random.default_rng(100 + period)
    for _ in range(2):
        J = jacobi.JacobiCoefficients(period, tuple(rng.uniform(0.5, 1.5, period)),
                                      tuple(rng.uniform(-1.0, 1.0, period)))
        grid = jacobi.default_grid(J, 1201)
        bands = _bands(lambda x: jacobi.discriminant(J, x), grid)
        _assert_matches(jacobi.ac_spectrum(J, grid), bands, grid[1] - grid[0])


@pytest.mark.parametrize("period", [1, 2, 3, 4])
def test_random_schrodinger_ac_spectrum_is_the_bands(period):
    rng = np.random.default_rng(200 + period)
    for _ in range(2):
        weights = rng.integers(1, 5, period)
        V = schrodinger.PiecewisePotential(
            1.0, tuple(zip(weights / weights.sum(), rng.uniform(0.0, 6.0, period))))
        grid = schrodinger.default_grid(V, 1201)
        bands = _bands(lambda x: schrodinger.discriminant(V, x), grid)
        _assert_matches(schrodinger.ac_spectrum(V, grid), bands, grid[1] - grid[0])


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
