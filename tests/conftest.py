"""Shared operator fixtures, and the references the package's routes are
checked against.

The same six operators recur across the suite: the three free operators
(closed-form boundary data, so every numerical route has an exact target),
one genuinely periodic example per lattice family, and patched variants
whose local defects the reflectionless tests must detect.

The references need scipy: banded solves of the Jacobi and CMV truncations
(resolvent_entry, cmv_solve, matrix_M_entry, cayley_diag), and
boundary_sweep, the Richardson extrapolation toward the axis that is the
oracle of the package's exact boundary route (exact_sweep).
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from acspectra.boundary_analysis import INFINITE_LIMIT
from acspectra.cmv import VerblunskyCoefficients
from acspectra.jacobi import JacobiCoefficients
from acspectra.schrodinger import PiecewisePotential


@pytest.fixture(scope="session")
def free_jacobi():
    return JacobiCoefficients(period=1, a_base=(1.0,), b_base=(0.0,))


@pytest.fixture(scope="session")
def period2_jacobi():
    # bands [-sqrt5, -1] u [1, sqrt5]
    return JacobiCoefficients(period=2, a_base=(1.0, 1.0), b_base=(1.0, -1.0))


@pytest.fixture(scope="session")
def free_cmv():
    return VerblunskyCoefficients(period=1, alpha_base=(0.0,))


@pytest.fixture(scope="session")
def geronimus_cmv():
    # constant alpha = 1/2: ac spectrum is the arc [pi/3, 5pi/3]
    return VerblunskyCoefficients(period=1, alpha_base=(0.5,))


@pytest.fixture(scope="session")
def free_schrodinger():
    return PiecewisePotential(period=1.0, pieces=((1.0, 0.0),))


@pytest.fixture(scope="session")
def square_well():
    # V = 5 on half of each unit cell; two gaps below 25
    return PiecewisePotential(period=1.0, pieces=((0.5, 0.0), (0.5, 5.0)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


def resolvent_entry(T, z: complex, row: int, col: int) -> complex:
    """[(T - z)^-1](row, col) of a jacobi.TridiagonalMatrix by a banded
    solve; row and col are lattice sites."""
    N = T.diag.size
    ab = np.zeros((3, N), dtype=complex)
    ab[0, 1:] = T.offdiag
    ab[1, :] = T.diag - z
    ab[2, :-1] = T.offdiag
    rhs = np.zeros(N, dtype=complex)
    rhs[T.index_of(col)] = 1.0
    x = solve_banded((1, 1), ab, rhs)
    return complex(x[T.index_of(row)])


def cmv_solve(T, z: complex, rhs: np.ndarray) -> np.ndarray:
    """x with (U - z) x = rhs, U the cmv.CMVTruncation T, by a banded solve
    (T.bands is solve_banded's layout with two bands on either side)."""
    ab = T.bands.copy()
    ab[2, :] = ab[2, :] - z
    return solve_banded((2, 2), ab, rhs)


def matrix_M_entry(T, z: complex, row_site: int, col_site: int) -> complex:
    """(delta_row, (U+z)(U-z)^-1 delta_col) of the cmv.CMVTruncation T."""
    e = np.zeros(T.size, dtype=complex)
    e[T.index_of(col_site)] = 1.0
    x = cmv_solve(T, z, e)
    val = 2.0 * z * x[T.index_of(row_site)]
    if row_site == col_site:
        val += 1.0
    return complex(val)


def cayley_diag(T, z: complex, site: int) -> complex:
    """((U + z)(U - z)^-1)(site, site) = 1 + 2 z [(U - z)^-1](site, site)."""
    return matrix_M_entry(T, z, site, site)


# ---------------------------------------------------------------------------
# The Richardson route: the oracle of exact_sweep

DIVERGENCE_CAP = 1e8

# distances to the boundary, eps_k = 0.1 * 2^-k for k = 8..12: the five
# samples richardson_sequence reads (the first eps is 3.9e-4)
SCHEDULE = tuple(0.1 * 0.5 ** k for k in range(8, 13))


def richardson_sequence(values):
    """Two-stage Richardson extrapolation along axis 0.

    values: array (K, ...) of K >= 5 samples on a ratio-2 geometric schedule,
    ordered toward the boundary; fewer raise ValueError.  Returns (value,
    error, converged), read off the last five samples only: the value off
    the last three, the error off the last four, and the contraction test
    off all five.  Convergence means the final extrapolant differences
    contract by a factor >= 2 (exact agreement counts as converged).
    """
    v = np.asarray(values, dtype=complex)
    if v.ndim == 0 or v.shape[0] < 5:
        raise ValueError(f"Richardson extrapolation needs at least 5 samples, got "
                         f"{v.shape[0] if v.ndim else 0}")
    w = 2.0 * v[1:] - v[:-1]
    u = (4.0 * w[1:] - w[:-1]) / 3.0
    value = u[-1].copy()    # copies: views would keep the whole (K-2, ...) stacks alive
    d = np.abs(np.diff(u, axis=0))
    err = d[-1].copy()
    scale = 1.0 + np.abs(value)
    tiny = err <= 1e-13 * scale
    contracting = d[-1] <= 0.5 * d[-2] + 1e-15 * scale
    converged = np.logical_or(tiny, contracting)
    return value, err, converged


def relaxed_ok(value, err, converged, rel: float = 1e-6):
    """Acceptance mask for Richardson sweeps (boundary_sweep): converged, or
    stalled at a noise floor far below the use tolerance (near closing
    spectral gaps the Floquet eigenvector loses digits and the extrapolant
    plateaus around 1e-10 relative instead of contracting)."""
    value = np.asarray(value)
    return converged | (np.isfinite(value) & (err <= rel * (1.0 + np.abs(value))))


def blowup_flags(mags):
    """(infinite, diverged) along axis 0 of magnitudes ordered toward the
    boundary: the last one past INFINITE_LIMIT with monotone growth over the
    last 4 samples, resp. any one past the DIVERGENCE_CAP hard cap."""
    mags = np.asarray(mags)
    grow = np.all(np.diff(mags[-4:], axis=0) > 0, axis=0)
    return (mags[-1] > INFINITE_LIMIT) & grow, np.any(mags > DIVERGENCE_CAP, axis=0)


def boundary_sweep(kernel, grid, circle: bool) -> dict:
    """Richardson-extrapolated boundary values of kernel(zs) -> {key: array}
    over a grid, one kernel call per SCHEDULE stage (five), with zs = lambda
    + i eps on the line and (1 - eps) e^{i theta} on the circle.  For each
    key returns (value, error, converged) arrays, plus 'inf_<key>' (past
    INFINITE_LIMIT at the last stage, growing over the last four) and
    'div_<key>' (past DIVERGENCE_CAP at one of the five stages) blowup
    flags; a kernel's 'floquet' entry is ignored."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps) for eps in SCHEDULE]
    out = {}
    for k in [k for k in rows[0] if k != "floquet"]:
        arr = np.array([row[k] for row in rows])
        out[k] = richardson_sequence(arr)
        out["inf_" + k], out["div_" + k] = blowup_flags(np.abs(arr))
    return out
