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

JacobiSteplike, SchrodingerSteplike and CMVSteplike are steplike Jacobi,
Schrodinger and CMV operators (L, R), periodic with one base on the left
half line and another on the right: the oracle of the multiplicity
classifier's multiplicity-one branch.  Each type carries its SweepFamily
as _FAMILY, as the package's coefficient types do, so the shared sweeps,
phases and derived sets read it unchanged.

geronimus maps a periodic CMV operator with real coefficients to its
Jacobi image under the Szego mapping: the oracle of the cross-family
relation between the two lattice families.

strip_weyl_grid, moebius_M11_grid and propagated_m_grid are the kernels
with each family's own walk of its seeds to the reference site, as they
were before the walks became boundary_analysis.carry: the references of
the carries.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from acspectra import cmv, jacobi, schrodinger
from acspectra.boundary_analysis import INFINITE_LIMIT, SweepFamily, floquet_pair, transfer_product
from acspectra.cmv import VerblunskyCoefficients
from acspectra.jacobi import JacobiCoefficients, _weyl_grid
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


# ---------------------------------------------------------------------------
# Steplike operators: the oracle of multiplicity one

def steplike_halves(L, R, n0: int):
    """(left, right): Jacobi operators whose M_- resp. M_+ at the site
    n0 >= 0 are those of the steplike operator with L's b(n), n <= 0, and
    a(n), n < 0, and R's coefficients beyond.  M_-(z, n0) reads b(n), n <=
    n0, and a(n), n < n0, so left is L patched with R's coefficients on
    sites 1 .. n0 (and a(0)); M_+(z, n0) reads a(n), n >= n0, and b(n), n >
    n0, so right is R."""
    patch = {n: (R.a(n), R.b(n) if n > 0 else L.b(0)) for n in range(n0 + 1)}
    return JacobiCoefficients(L.period, L.a_base, L.b_base, patch), R


def _halves(plus, minus, near):
    """(r, l, floquet): the kernel dicts plus(near) of the right half line
    and minus(near) of the left one, each at its branch of near, and their
    'floquet': both branches paired and their ambiguous masks ORed, so that
    exact_sweep runs the glued kernel unchanged."""
    near_r, near_l = near if isinstance(near, tuple) else (near, near)
    r, l = plus(near_r), minus(near_l)
    (ur, ar), (ul, al) = r["floquet"], l["floquet"]
    return r, l, ((ur, ul), ar | al)


def _glued(kernel, left, right, zs, site, near, pair) -> dict:
    """The plus key of pair from the right half's kernel at site, the minus
    key from the left half's, g = 1/(minus - plus), and 'floquet' (_halves)."""
    plus, minus = pair
    r, l, floquet = _halves(lambda near: kernel(right, zs, site, near),
                            lambda near: kernel(left, zs, site, near), near)
    return {plus: r[plus], minus: l[minus], "g": 1.0 / (l[minus] - r[plus]), "floquet": floquet}


def steplike_kernel(L, R, zs, n0: int, near=0.0) -> dict:
    """M_plus from the right half's jacobi._weyl_grid at n0 and M_minus from
    the left half's (steplike_halves), glued (_glued)."""
    return _glued(_weyl_grid, *steplike_halves(L, R, n0), zs, n0, near, ("M_plus", "M_minus"))


def schrodinger_steplike_kernel(L, R, zs, x0: float, near=0.0) -> dict:
    """m_plus from R's schrodinger._m_grid at x0 and m_minus from that of L
    patched by R's first period on [0, R.period), glued (_glued).  m_+(x0)
    reads V on [x0, inf) and m_-(x0) on (-inf, x0], so for x0 in [0,
    R.period] they are those of the steplike potential, L's left of 0 and
    R's right of it."""
    left = PiecewisePotential(L.period, L.pieces, R.pieces)
    return _glued(schrodinger._m_grid, left, R, zs, x0, near, ("m_plus", "m_minus"))


def cmv_steplike_kernel(L, R, zs, n0: int, near=0.0) -> dict:
    """M_plus, R's m_+(z, n0) by cmv._m_grid; M_minus, the twist (cmv._twist)
    of L's m_-(z, n0 - 1) by the steplike alpha(n0), L's at 0 and R's at 1;
    M11 = (1 - M_+ M_-)/(M_+ - M_-); and 'floquet' (_halves).  m_+(z, n0)
    reads alpha(n), n > n0, and m_-(z, n0 - 1) alpha(n), n < n0, so for n0
    in {0, 1} they are those of the steplike operator, L's alphas at n <= 0
    and R's beyond."""
    r, l, floquet = _halves(lambda near: cmv._m_grid(R, zs, n0, "+", near),
                            lambda near: cmv._m_grid(L, zs, n0 - 1, "-", near), near)
    Mp, Mm = r["m"], cmv._twist((L if n0 <= 0 else R).alpha(n0), l["m"])
    return {"M_plus": Mp, "M_minus": Mm, "M11": (1.0 - Mp * Mm) / (Mp - Mm), "floquet": floquet}


def steplike_grid(op):
    """2001 points on [-R, R], R = 1 + op.sup_bound()."""
    r = op.sup_bound() + 1.0
    return np.linspace(-r, r, 2001)


def schrodinger_steplike_grid(op):
    """2001 points on [-1 - op.sup_bound(), LAMBDA_TOP], as schrodinger.default_grid."""
    return np.linspace(-1.0 - op.sup_bound(), schrodinger.LAMBDA_TOP, 2001)


def _steplike_family(kernel, grid, sites, pair, circle=False) -> SweepFamily:
    """The SweepFamily of steplike operators op = (L, R) whose kernel at a
    site is kernel(L, R, zs, site, near), with the phase of g on the line
    and of M11 on the circle (its boundary zeros undefined, as CMV's)."""
    return SweepFamily(kernel=lambda op, zs, site, near: kernel(*op, zs, site, near),
                       grid=grid, sites=sites, circle=circle, pair=pair,
                       phase_key="M11" if circle else "g", csv_columns=(), zero_floor=circle)


class _Steplike(tuple):
    """A steplike operator (L, R): L's coefficients left of the step, R's
    right of it.  Its scale, the larger of L's and R's, sets the reference
    points of its sweeps as an operator's does."""

    def sup_bound(self) -> float:
        return max(half.sup_bound() for half in self)


class JacobiSteplike(_Steplike):
    _FAMILY = _steplike_family(steplike_kernel, steplike_grid, lambda op: (0, 1),
                               ("M_plus", "M_minus"))


class SchrodingerSteplike(_Steplike):
    # the second site is R.period, where L's patch ends
    _FAMILY = _steplike_family(schrodinger_steplike_kernel, schrodinger_steplike_grid,
                               lambda op: (0.0, op[1].period), ("m_plus", "m_minus"))


class CMVSteplike(_Steplike):
    _FAMILY = _steplike_family(cmv_steplike_kernel, lambda op: cmv.default_angles(1024),
                               lambda op: (0, 1), ("M_plus", "M_minus"), circle=True)


# ---------------------------------------------------------------------------
# The half-line walks of the kernels, each family's own

def _normalized(x, y):
    """(x, y) divided by max(|x|, |y|) pointwise (by 1 where both vanish)."""
    s = np.maximum(np.abs(x), np.abs(y))
    s = np.where(s == 0.0, 1.0, s)
    return x / s, y / s


def strip_weyl_grid(J, zs, n0: int) -> dict:
    """M_plus, M_minus and g of jacobi._weyl_grid at the contracting
    branch, each seed carried to n0 by coefficient stripping: the
    three-term recurrence solved for psi(n-1), resp. psi(n+1), site by
    site, normalized after each site."""
    zs = np.asarray(zs, dtype=complex)
    p, sites = J.period, J.patch_sites
    n_r = max(n0 + 2, max(sites) + 2) if sites else n0 + 2
    top = min(n0 + 1, min(sites) - p) if sites else n0 + 1
    n_l = n_r - p * math.ceil((n_r - top) / p)
    *m, e = jacobi._monodromy_entries(J, zs, n_r)
    (hi, lo), (cur, prev), *_ = floquet_pair(*m, m[0] * m[3] - m[1] * m[2], 0.0, e)
    for n in range(n_r - 1, n0 - 1, -1):
        hi, lo = lo, ((zs - J.b(n)) * lo - J.a(n) * hi) / J.a(n - 1)
        hi, lo = _normalized(hi, lo)
    m_plus = -hi / (J.a(n0 - 1) * lo)      # hi = psi(n0), lo = psi(n0-1)
    for n in range(n_l, n0 + 1):
        cur, prev = ((zs - J.b(n)) * cur - J.a(n - 1) * prev) / J.a(n), cur
        cur, prev = _normalized(cur, prev)
    m_minus = -prev / (J.a(n0) * cur)      # cur = psi(n0+1), prev = psi(n0)
    M_plus, M_minus = -1.0 / m_plus - zs + J.b(n0), 1.0 / m_minus
    return {"M_plus": M_plus, "M_minus": M_minus, "g": 1.0 / (M_minus - M_plus)}


def moebius_M11_grid(V, zs, n0: int) -> dict:
    """M_plus, M_minus and M11 of cmv._M11_grid at the contracting branch,
    the head of each Schur function applied as Moebius maps f -> (g + z
    f)/(1 + conj(g) z f) to the periodic tail's fixed point."""
    zs = np.asarray(zs, dtype=complex)

    def caratheodory(head, period_gammas):
        *a, e = transfer_product((zs, g, np.conj(g) * zs, 1.0) for g in reversed(period_gammas))
        det = zs ** len(period_gammas) * math.prod(1.0 - abs(g) ** 2 for g in period_gammas)
        _, (x, y), *_ = floquet_pair(*a, det * np.ldexp(1.0, -2 * e), 0.0, e)
        f = x / y
        for g in reversed(head):
            f = (g + zs * f) / (1.0 + np.conj(g) * zs * f)
        return (1.0 + zs * f) / (1.0 - zs * f)
    Mp = caratheodory(*cmv._gammas(V, n0, True))
    Mm = cmv._twist(V.alpha(n0), -caratheodory(*cmv._gammas(V, n0 - 1, False)))
    return {"M_plus": Mp, "M_minus": Mm, "M11": (1.0 - Mp * Mm) / (Mp - Mm)}


def propagated_m_grid(V, zs, x0: float) -> dict:
    """m_plus, m_minus and g of schrodinger._m_grid at the contracting
    branch, each seed carried to x0 piece by piece, backward by the
    inverse of each det-1 piece transfer for psi_+, normalized after each
    piece."""
    zs, x0 = np.atleast_1d(np.asarray(zs, dtype=complex)), float(x0)

    def propagate_vec(vec, spans, inverse: bool):
        p, q = vec
        for length, value in spans:
            ch, sc, lo = schrodinger._piece_entries(zs, length, value)
            if inverse:             # the inverse of a det-1 [[ch, sc], [lo, ch]]
                sc, lo = -sc, -lo
            p, q = _normalized(ch * p + sc * q, lo * p + ch * q)
        return p, q
    cp, cm = schrodinger._seed_bounds(V, x0)
    dec, grow, _, _ = schrodinger._seeds(V, zs)
    p, q = propagate_vec(dec, schrodinger._pieces(V, x0, cp)[::-1], inverse=True)
    pm, qm = propagate_vec(grow, schrodinger._pieces(V, cm, x0), inverse=False)
    mp, mm = q / p, qm / pm
    return {"m_plus": mp, "m_minus": mm, "g": 1.0 / (mm - mp)}


# ---------------------------------------------------------------------------
# The Geronimus relations: real-alpha CMV operators and their Jacobi images

def geronimus(alpha) -> JacobiCoefficients:
    """The Jacobi image of the periodic CMV operator with real Verblunsky
    coefficients alpha (period p = len(alpha)) under the Szego mapping x =
    2 cos theta (Simon, OPUC Part 2, AMS 2005, ch. 13): with A(k) =
    alpha[k mod p],

        a(n) = sqrt((1 - A(2n-1)) (1 - A(2n)^2) (1 + A(2n+1)))
        b(n) = (1 - A(2n-1)) A(2n) - (1 + A(2n-1)) A(2n-2)

    for n = 0 .. q-1, q = p for odd p and p/2 for even p.  Its bands are the
    images of the CMV bands in [0, pi]."""
    p = len(alpha)

    def A(k):
        return float(alpha[k % p])
    q = p if p % 2 else p // 2
    a = tuple(math.sqrt((1.0 - A(2 * n - 1)) * (1.0 - A(2 * n) ** 2) * (1.0 + A(2 * n + 1)))
              for n in range(q))
    b = tuple((1.0 - A(2 * n - 1)) * A(2 * n) - (1.0 + A(2 * n - 1)) * A(2 * n - 2)
              for n in range(q))
    return JacobiCoefficients(q, a, b)
