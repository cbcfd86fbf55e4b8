"""The error-driven off-axis rule on whole operators.

A boundary value counts as nonreal where its part across the axis exceeds
10 err + 1e-10 (1 + |v|).  These tests check what that buys on operators
that a fixed phase threshold misread: both reference sites read one ac
spectrum, the spectrum matches the discriminant bands, and no CSV row
outside the spectrum reads interior.
"""

import csv
import io

import numpy as np
import pytest

from acspectra import cmv, jacobi, schrodinger
from acspectra.boundary_analysis import sweep_csv, sweep_scope
from acspectra.interval_sets import contains_mask


def _near(mask, k=2):
    """mask widened by k grid points on each side."""
    out = mask.copy()
    for s in range(1, k + 1):
        out[s:] |= mask[:-s]
        out[:-s] |= mask[s:]
    return out


def _patched_operators(seed, n):
    """n (Jacobi, Schrodinger) pairs of periods 1-4, patched on 1-3 sites."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        p = 1 + i % 4
        sites = (1, -1, 2)[: 1 + i % 3]
        J = jacobi.JacobiCoefficients(
            p, tuple(rng.uniform(0.5, 1.5, p)), tuple(rng.uniform(-1.0, 1.0, p)),
            {s: (rng.uniform(0.4, 1.6), rng.uniform(-1.5, 1.5)) for s in sites})
        w = rng.integers(1, 5, p)
        V = schrodinger.PiecewisePotential(
            1.0, tuple((x / w.sum(), v) for x, v in zip(w, rng.uniform(0.0, 6.0, p))),
            tuple((0.4, v) for v in rng.uniform(-2.0, 6.0, len(sites))))
        yield J, V


# seed 2 holds a period-3 Jacobi operator (op2) whose two sites a fixed
# phase threshold (xi > 1e-3) read 3 grid steps apart
@pytest.mark.parametrize("i, J, V", [(i, J, V) for i, (J, V) in
                                     enumerate(_patched_operators(2, 8))],
                         ids=[f"op{i}" for i in range(8)])
def test_patched_operators_read_their_bands_at_both_sites(i, J, V):
    """ac_spectrum raises SiteDisagreement when its two sites differ by more
    than two grid steps; the set matches the bands of the periodic base
    (the patch leaves the ac spectrum alone) within two grid steps both
    ways."""
    for mod, op in ((jacobi, J), (schrodinger, V)):
        grid = mod.default_grid(op)
        with sweep_scope():
            got = contains_mask(mod.ac_spectrum(op, grid), grid)
        bands = np.abs(mod.discriminant(op, grid)) <= 2.0
        assert np.all(got <= _near(bands)), (i, mod.__name__, "ac spectrum off the bands")
        assert np.all(bands <= _near(got)), (i, mod.__name__, "band missed")


# report_suite seed 0, rotation 10: a period-1 CMV operator whose gap reads
# Re M11 ~ 1e-14 within its error
GAP_CMV = cmv.VerblunskyCoefficients(1, (complex(-0.513, 0.462),))


def test_csv_interior_rows_lie_in_the_ac_spectrum():
    grid = cmv.default_angles(1024)
    with sweep_scope():
        ac = cmv.ac_spectrum(GAP_CMV, grid)
        rows = list(csv.DictReader(io.StringIO(sweep_csv(GAP_CMV, grid))))
    inside = np.array([row["verdict"] == "interior" for row in rows])
    assert inside.any() and not inside.all()
    assert np.all(contains_mask(ac, grid)[inside])
