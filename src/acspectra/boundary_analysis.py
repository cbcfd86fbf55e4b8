"""Boundary values of Herglotz and Caratheodory functions on grids, and the
grid sweeps shared by the operator families.

A Herglotz function maps the upper half-plane into itself; a Caratheodory
function maps the unit disk into the closed right half-plane.  The ac
spectrum is the essential closure of the set where their boundary values
are nonreal, read here off the boundary phase.

Every operator the families accept is periodic plus a finite patch, and
its transfer matrices are entire in z, so off the band edges the boundary
values exist as plain values on the axis (Teschl, Jacobi Operators and
Completely Integrable Nonlinear Lattices, ch. 7; Simon, OPUC Vol. 2,
ch. 11).  exact_sweep reads them there with two kernel calls per grid:
one at a reference point a distance eps_ref off the axis (lambda + i
eps_ref on the line, (1 - eps_ref) e^{i theta} on the circle), whose
Floquet branch is the decaying one, and one on the axis, whose branch is
the root nearest the reference's decaying root.  The declared error of a
value is its distance to the reference value.  Points where no root is
clearly nearest (band edges, multipliers of near-equal modulus at the
reference) are undetermined, and so are non-finite values and poles; at a
closed gap the monodromy is scalar and the axis takes the reference's
eigenvectors.

boundary_sweep, the Richardson extrapolation along a geometric schedule
(eps_k = 0.1 * 2^-k for k = 8..12 toward the line, radii r_k = 1 - eps_k
toward the circle), serves the truncation route of cmv.matrix_M_and_R and
the tests, as the independent oracle of the exact route.

The sweeps serve the Jacobi, CMV and Schrodinger modules: one exact
sweep, phase, ac hull, reflectionless test, multiplicity classifier and
CSV writer, with each family's conventions passed as data, plus the
Floquet chooser and 2x2 helpers of the kernels.  Both Weyl solutions of a
periodic base are eigenvectors of one period monodromy, so floquet_pair
takes its four entries and returns the decaying and the growing one, each
an (x, y) pair, from a single square root; a kernel seeds both
half lines from one matrix without stacking it, and the CMV Schur
function is the fixed point its growing eigenvector gives.  The
Schrodinger seeds do not depend on the reference point either, so in a
report scope both reference points read one seed pair per kernel call
(memo).  Every one-point value of a family is its grid kernel (one_point)
or its sweep (phase_at) read at one point.

The truncation oracles of the Jacobi and CMV identity residuals share one
solver: tridiagonal_resolvent reads a diagonal entry of the inverse, and
its neighbor, off a batch of tridiagonal matrices (one per draw) in numpy,
from products of 2x2 continued-fraction steps.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import MonodromyDegenerate, NonConvergent, SiteDisagreement
from .interval_sets import (angles_hull, contains_mask, essential_closure,
                            longest_component, points_hull, set_algebra, widen)

DIVERGENCE_CAP = 1e8
INFINITE_LIMIT = 1e6
DEGENERACY_TOL = 1e-10
# the Floquet branch of an exact sweep: the reference points lie
# REFERENCE_EPS times the operator's scale off the axis; a monodromy is
# scalar, or its roots coincide, within EDGE_TOL, and neither root is the
# nearer one within BRANCH_TOL of their distances (see floquet_pair)
REFERENCE_EPS = 1e-8
EDGE_TOL = 1e-6
BRANCH_TOL = 1e-10

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
    boundary: the last one past 1e6 with monotone growth over the last 4
    samples, resp. any one past the 1e8 hard cap."""
    mags = np.asarray(mags)
    grow = np.all(np.diff(mags[-4:], axis=0) > 0, axis=0)
    return (mags[-1] > INFINITE_LIMIT) & grow, np.any(mags > DIVERGENCE_CAP, axis=0)


# ---------------------------------------------------------------------------
# Grid sweeps shared by the operator families

def plus_side(side) -> bool:
    """True for the right half line ('+'), False for the left ('-')."""
    if side == "+":
        return True
    if side == "-":
        return False
    raise ValueError(f"side must be '+' or '-', got {side!r}")


def require_off_axis(z) -> complex:
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("spectral parameter must lie off the real axis")
    return z


def require_in_disk(z) -> complex:
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("spectral parameter must lie in the open unit disk")
    return z


def one_point(kernel, op, z, *args, circle: bool = False):
    """The grid kernel kernel(op, zs, *args) read at the one point z, after
    the domain check of the carrier (off the real axis, resp. in the open
    unit disk): its array, or each array of its dict, as a Python complex."""
    z = require_in_disk(z) if circle else require_off_axis(z)
    out = kernel(op, np.array([z]), *args)
    if isinstance(out, dict):
        return {k: complex(v[0]) for k, v in out.items()}
    return complex(out[0])


def floquet_pair(m00, m01, m10, m11, det, near=None):
    """(decaying, growing): eigenvectors, each an (x, y) pair of arrays, of
    the monodromy with entries m00, m01, m10, m11 (determinant det).  With
    h = (m00 - m11)/2 and s = sqrt(h^2 + m01 m10), the multipliers are
    tr/2 +- s: the larger one takes the cancellation-free sign, the other
    one u' = det/u, and the eigenvector of tr/2 + sigma s is (m01, sigma s -
    h) or (sigma s + h, m10), whichever is larger.  h and s come from
    differences of the entries, so both eigenvectors keep their digits
    where the monodromy is nearly scalar (a closed gap).

    Without near, the decaying multiplier is the contracting (|u| < 1) one,
    and multiplier moduli within DEGENERACY_TOL (only on the real axis)
    raise MonodromyDegenerate.  In a sweep, near is 0 for the reference
    call (the contracting root) or the branch a reference call returned;
    the decaying multiplier is the root nearest near, and the return is
    (decaying, growing, branch, ambiguous), never raising.  branch stacks
    the decaying root and both eigenvectors, shape (5,) + shape.  Where the
    monodromy is scalar within EDGE_TOL (a closed gap) every vector is an
    eigenvector, and an axis call takes the reference's.  ambiguous marks
    the entries whose roots coincide within EDGE_TOL relative to the
    traceless part of the monodromy (band edges), or whose distances to near
    differ by at most BRANCH_TOL of their sum (for near = 0, near-equal
    moduli)."""
    half, h = (m00 + m11) / 2.0, (m00 - m11) / 2.0
    s = np.sqrt(h * h + m01 * m10)
    sign = np.where(np.abs(half + s) >= np.abs(half - s), 1.0, -1.0)
    big = half + sign * s
    small = det / big
    if near is None:
        if np.any(np.abs(np.abs(big) - np.abs(small)) < DEGENERACY_TOL):
            raise MonodromyDegenerate(
                "Floquet multipliers have equal modulus; move z off the real axis")
        first = True
    else:
        ref = np.ndim(near) == 0
        root = near if ref else near[0]
        d_small, d_big = np.abs(small - root), np.abs(big - root)
        first = d_small <= d_big
        traceless = np.abs(h) + np.abs(m01) + np.abs(m10)
        scalar = (not ref) & (traceless <= EDGE_TOL * np.abs(half))
        ambiguous = ~scalar & ((np.abs(s) <= EDGE_TOL * traceless)
                               | (np.abs(d_big - d_small) <= BRANCH_TOL * (d_big + d_small)))

    def eigvec(sigma):      # eigenvector of half + sigma s
        x1, y1, x2, y2 = m01, sigma * s - h, sigma * s + h, m10
        use1 = np.abs(x1) + np.abs(y1) >= np.abs(x2) + np.abs(y2)
        return np.where(use1, x1, x2), np.where(use1, y1, y2)
    dec, grow = eigvec(np.where(first, -sign, sign)), eigvec(np.where(first, sign, -sign))
    if near is None:
        return dec, grow
    u = np.where(first, small, big)
    if not ref:
        dec = tuple(np.where(scalar, near[k], c) for k, c in zip((1, 2), dec))
        grow = tuple(np.where(scalar, near[k], c) for k, c in zip((3, 4), grow))
    return dec, grow, np.stack(np.broadcast_arrays(u, *dec, *grow)), ambiguous


def stack_2x2(m00, m01, m10, m11, shape):
    """The shape + (2, 2) matrix stack with the four entries given as arrays
    or scalars; the kernels multiply 2x2 transfers out entrywise and stack
    only what takes or returns a stack."""
    M = np.empty(tuple(shape) + (2, 2), dtype=complex)
    M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] = m00, m01, m10, m11
    return M


def normalize_pair(x, y):
    """(x, y) divided by max(|x|, |y|) pointwise (by 1 where both vanish)."""
    s = np.maximum(np.abs(x), np.abs(y))
    s = np.where(s == 0.0, 1.0, s)
    return x / s, y / s


def tridiagonal_resolvent(d, up, lo, c: int):
    """(G[..., c, c], G[..., c, c-1]) of G = A^-1 for a batch of tridiagonal
    A with diagonal d (..., N), superdiagonal up and subdiagonal lo
    (..., N-1), broadcast against each other: A[k, k+1] = up[k] and
    A[k+1, k] = lo[k]; G[c, c-1] is 0 for c = 0.

    With theta_k the leading principal minor of the first k rows and phi_k
    the trailing one from row k on, Cramer's rule gives G[c, c] =
    theta_c phi_{c+1} / det A and G[c, c-1] = -lo[c-1] theta_{c-1}
    phi_{c+1} / det A, det A expanded along row c.  The pairs (theta_{c-1},
    theta_c) and (phi_{c+2}, phi_{c+1}) are the second columns of the
    products of the continued-fraction steps [[0, 1], [-up lo, d]] from
    either end of the window.  Both chains are stacked on one axis and
    multiplied pairwise in log depth, each product scaled by a power of two
    (exactly) to its largest entry.  The only division is by det A, never by
    a partial pivot, so an exact zero pivot (some theta_k = 0) needs no care.
    """
    d = np.asarray(d, dtype=complex)
    n = d.shape[-1]
    if not 0 <= c < n:
        raise ValueError(f"row {c} outside a window of {n} rows")
    lo = np.asarray(lo, dtype=complex)
    p = np.asarray(up, dtype=complex) * lo
    batch = np.broadcast_shapes(d.shape[:-1], p.shape[:-1], lo.shape[:-1])
    d = np.broadcast_to(d, batch + (n,))
    zero = np.zeros(batch + (1,), dtype=complex)
    # pe[k + 1] = up[k] lo[k] for k = -1 .. n-1, zero at both ends
    pe = np.concatenate([zero, np.broadcast_to(p, batch + (n - 1,)), zero], axis=-1)
    # m[i, j, chain, ..., step] holds entry (i, j) of one step: chain 0 maps
    # (theta_{k-1}, theta_k) to (theta_k, theta_{k+1}) with d[k], pe[k] for
    # k = 0 .. c-1, chain 1 maps (phi_{k+2}, phi_{k+1}) to (phi_{k+1}, phi_k)
    # with d[k], pe[k+1] for k = n-1 .. c+1, each in the order applied;
    # identities pad both to a power of two
    m = np.zeros((2, 2, 2) + batch + (1 << (max(c, n - 1 - c, 1) - 1).bit_length(),),
                 dtype=complex)
    m[0, 0] = m[1, 1] = 1.0
    for chain, dk, pk in ((0, d[..., :c], pe[..., :c]), (1, d[..., :c:-1], pe[..., :c + 1:-1])):
        k = dk.shape[-1]
        m[0, 0, chain, ..., :k], m[0, 1, chain, ..., :k] = 0.0, 1.0
        m[1, 0, chain, ..., :k], m[1, 1, chain, ..., :k] = -pk, dk
    while m.shape[-1] > 1:
        a, b = m[..., 1::2], m[..., 0::2]       # each later step times the one before
        m = a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]
        top = np.abs(m.view(float)).max(axis=(0, 1))
        top = np.maximum(top[..., 0::2], top[..., 1::2])
        m *= np.ldexp(1.0, -np.frexp(top)[1])
    (th_prev, ph_next), (th, ph) = m[0, 1, ..., 0], m[1, 1, ..., 0]
    det = (d[..., c] * th - pe[..., c] * th_prev) * ph - pe[..., c + 1] * th * ph_next
    lo_prev = lo[..., c - 1] if c > 0 else 0.0
    return th * ph / det, -lo_prev * th_prev * ph / det


@dataclass(frozen=True)
class ReflectionlessReport:
    verdict: bool
    fraction: float              # worst passing fraction across reference sites
    max_residual: float          # max matching residual over tested points
    tol: float
    sites: tuple
    n_points: int
    defect_points: tuple         # grid points failing the matching condition
    xi_fraction: float = 0.0     # fraction with the phase within tolerance of its center
    witness_residual: float = math.nan


@dataclass(frozen=True)
class SweepFamily:
    """An operator family's conventions, as data for the shared grid sweeps.

    Family modules pass lambdas for sweep and phase so that their
    boundary_*_grid and phase-grid functions are looked up at call time.
    """
    sweep: callable         # sweep(op, grid, site) -> exact_sweep dict
    phase: callable         # phase(op, grid, site) -> (values, errors, ok)
    grid: callable          # grid(op) -> default grid
    sites: callable         # sites(op) -> (first, second) reference sites
    circle: bool            # carrier: the unit circle (angles), else the real line
    pair: tuple             # sweep keys of the boundary pair (M_+, M_-)
    phase_key: str          # sweep key whose boundary argument is the phase
    csv_columns: tuple      # ((header, cell), ...) of sweep_csv; cell is one of
                            # loc, phase, err, re, im, verdict, empty
    zero_floor: bool = False    # phase undefined where |value| <= 100 err + 1e-12
    site_word: str = "sites"    # what messages call the reference sites

    @property
    def phase_range(self) -> tuple:
        return (-0.5, 0.5) if self.circle else (0.0, 1.0)

    @property
    def hull(self):
        return angles_hull if self.circle else points_hull


def exact_sweep(kernel, grid, circle: bool, eps_ref: float) -> dict:
    """Boundary values of kernel(zs, near) -> {key: array} on the axis
    points of a grid (lambda on the line, e^{i theta} on the circle), from
    two kernel calls.  The first, at the reference points lambda + i eps_ref
    (resp. (1 - eps_ref) e^{i theta}), takes near = 0, so its decaying
    Floquet roots are the contracting ones; the second, on the axis, takes
    the first one's branch as near, so its decaying roots are the roots
    nearest those.  A kernel called with near returns the entry 'floquet':
    (its branch, its ambiguous mask), by floquet_pair.

    For each key returns (value, error, ok), the error being |value -
    reference value| (inf where that is not a number), plus the flags
    'inf_<key>' (a pole: past INFINITE_LIMIT on the axis and not smaller
    than at the reference) and 'div_<key>' (a value that is not finite).
    A point whose branch is ambiguous in either call is not ok and carries
    neither flag, so it enters no set; a flagged point is not ok either.
    eps_ref is the operator's, never the grid's, so every point's bits are
    independent of the other points."""
    grid = np.asarray(grid, dtype=float)
    axis = np.exp(1j * grid) if circle else grid.astype(complex)
    # exact pole hits and band-edge eigenvectors divide by zero; the flags
    # and the ambiguous mask account for every such value, so numpy's
    # warnings would only report what the result already says
    with np.errstate(all="ignore"):
        ref = kernel((1.0 - eps_ref) * axis if circle else grid + 1j * eps_ref, 0.0)
        near, edge = ref.pop("floquet")
        vals = kernel(axis, near)
        edge = edge | vals.pop("floquet")[1]
        out = {}
        for k, v in vals.items():
            mag, r = np.abs(v), ref[k]
            div = ~edge & ~np.isfinite(v)
            inf = ~edge & np.isfinite(v) & (mag > INFINITE_LIMIT) & (mag >= np.abs(r))
            err = np.abs(v - r)
            out[k] = (v, np.where(np.isnan(err), np.inf, err), ~(edge | div | inf))
            out["inf_" + k], out["div_" + k] = inf, div
    return out


def boundary_sweep(kernel, grid, circle: bool) -> dict:
    """Richardson-extrapolated boundary values of kernel(zs) -> {key: array}
    over a grid, one kernel call per SCHEDULE stage (five), with zs = lambda
    + i eps on the line and (1 - eps) e^{i theta} on the circle.  For each
    key returns (value, error, converged) arrays, plus 'inf_<key>' (past
    1e6 at the last stage, growing over the last four) and 'div_<key>'
    (past DIVERGENCE_CAP at one of the five stages) blowup flags.  The
    oracle of exact_sweep, and the route of cmv.matrix_M_and_R."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps) for eps in SCHEDULE]
    out = {}
    for k in rows[0]:
        arr = np.array([row[k] for row in rows])
        out[k] = richardson_sequence(arr)
        out["inf_" + k], out["div_" + k] = blowup_flags(np.abs(arr))
    return out


# the memo of the open report scope; None outside any scope, so library
# callers keep no hidden state
_memo = None


@contextmanager
def sweep_scope():
    """Within the block, memo computes each (fn, op, args) once.  A nested
    scope reuses the outer memo."""
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _freeze(x):
    """x, with every array in it (through dicts and tuples) made read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, dict)):
        for v in x.values() if isinstance(x, dict) else x:
            _freeze(v)
    return x


def _key(a):
    """a, or for an array (or a list, read as one) its dtype, shape and bytes."""
    if not isinstance(a, (np.ndarray, list)):
        return a
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def memo(fn, op, *args):
    """fn(op, *args), computed once per (fn, op, args) in the open scope and
    kept, its arrays read-only, until the scope closes; an array argument
    is keyed by its dtype, shape and bytes.  Outside any scope it is
    computed on every call."""
    if _memo is None:
        return fn(op, *args)
    key = (fn, op) + tuple(map(_key, args))
    if key not in _memo:
        _memo[key] = _freeze(fn(op, *args))
    return _memo[key]


def sweep_at(bd: dict, idx) -> dict:
    """The boundary sweep bd read at the grid points idx (mask or indices)."""
    return {k: tuple(a[idx] for a in v) if isinstance(v, tuple) else v[idx]
            for k, v in bd.items()}


def accepted(bd: dict, key: str):
    """Where the sweep bd's value of key is usable: ok, not flagged as
    diverged, and finite."""
    v, _, ok = bd[key]
    return ok & ~bd["div_" + key] & np.isfinite(v)


def _axis_margin(v, err):
    """10 err + 1e-10 (1 + |v|): how far from the axis v may lie and count as on it."""
    return 10.0 * err + 1e-10 * (1.0 + np.abs(v))


def off_axis(fam: SweepFamily, v, err):
    """Where v is certainly off the axis: its part across it (Im v on the
    line, Re v on the circle) exceeds _axis_margin."""
    return np.abs(v.real if fam.circle else v.imag) > _axis_margin(v, err)


def sweep_phase(fam: SweepFamily, bd: dict):
    """Boundary phase Arg(v)/pi of the sweep's phase key, in phase_range:
    (values, errors, ok).  A value not off_axis is read on the axis, so the
    phase is strictly inside phase_range exactly where v is off the axis; a
    negative part (Im on the line, Re on the circle) off_axis is not ok."""
    v, err, _ = bd[fam.phase_key]
    off = off_axis(fam, v, err)
    pos = v.real if fam.circle else v.imag
    ok = accepted(bd, fam.phase_key) & ~(off & (pos < 0.0))
    pos = np.where(off, pos, 0.0)
    if fam.zero_floor:
        # boundary zeros leave the phase undefined; they carry zero ac density
        ok = ok & (np.abs(v) > 100.0 * err + 1e-12)
    arg = np.angle(pos + 1j * v.imag) if fam.circle else np.angle(v.real + 1j * pos)
    vals = np.clip(arg / math.pi, *fam.phase_range)
    return np.where(ok, vals, np.nan), err, ok


def interior(fam: SweepFamily, vals):
    """Where the sweep_phase values vals are strictly inside phase_range."""
    lo, hi = fam.phase_range
    with np.errstate(invalid="ignore"):
        return (vals > lo) & (vals < hi)


def phase_at(fam: SweepFamily, op, loc: float, site) -> float:
    """The boundary phase at the one grid point loc, read off a one-point
    sweep at the given site; NonConvergent where it is undetermined."""
    vals, _, ok = sweep_phase(fam, fam.sweep(op, np.array([float(loc)]), site))
    if not bool(ok[0]):
        raise NonConvergent(f"boundary phase undetermined at {loc}, reference {site}")
    return float(vals[0])


def sweep_csv(fam: SweepFamily, op, grid) -> str:
    """Per-point CSV, LF line ends, of the boundary phase at the first
    reference site, in the columns of fam.csv_columns.  A phase cell is
    empty where the point is undetermined, a re/im cell where the phase
    key's value is not ok."""
    grid = np.asarray(grid, dtype=float)
    bd = fam.sweep(op, grid, fam.sites(op)[0])
    v, _, conv = bd[fam.phase_key]
    vals, errs, ok = sweep_phase(fam, bd)

    def cells(xs, mask):
        return [f"{x:.12g}" if m else "" for x, m in zip(xs.tolist(), mask.tolist())]

    def verdicts():
        outside = "edge" if fam.circle else "exterior"
        return np.where(ok, np.where(interior(fam, vals), "interior", outside),
                        "undetermined").tolist()

    column = {"loc": lambda: [f"{x:.12g}" for x in grid.tolist()],
              "phase": lambda: cells(vals, ok),
              "err": lambda: [f"{e:.6g}" for e in errs.tolist()],
              "re": lambda: cells(v.real, conv),
              "im": lambda: cells(v.imag, conv),
              "verdict": verdicts,
              "empty": lambda: [""] * grid.size}
    # no cell holds a comma, a quote or a line end, so none needs quoting
    header = ",".join(name for name, _ in fam.csv_columns)
    rows = zip(*(column[kind]() for _, kind in fam.csv_columns))
    return "\n".join([header, *map(",".join, rows)]) + "\n"


def sweep_ac_spectrum(fam: SweepFamily, op, grid):
    """Essential closure of the widened grid hull of the interior-phase
    points at the first reference site; a disagreement with the second site
    beyond two grid steps raises SiteDisagreement, carrying the first set."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])

    def one_site(site):
        passing = grid[interior(fam, fam.phase(op, grid, site)[0])]
        return essential_closure(widen(fam.hull(passing, step), step))

    first, second = fam.sites(op)
    main = one_site(first)
    width = longest_component(set_algebra(main, one_site(second), "symmetric_difference"))
    if width > 2.0 * step + 1e-12:
        raise SiteDisagreement(
            f"ac spectrum disagrees between reference {fam.site_word} {first} and {second}",
            main, width)
    return main


def sweep_reflectionless(fam: SweepFamily, op, E, grid, tol: float) -> ReflectionlessReport:
    """Boundary matching of the pair on the grid points in E at both sites:
    M_+ is the reflection of M_- (conj across the line, -conj across the
    circle) at more than 99% of the points, phase at its center."""
    if E.measure() <= 0.0:
        raise ValueError("reflectionless test needs a set of positive measure")
    sites = fam.sites(op)
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    inside = contains_mask(E, grid)
    lams = grid[inside]
    if lams.size == 0:
        raise ValueError("grid does not meet E")

    center = sum(fam.phase_range) / 2.0
    worst_fraction = 1.0
    max_res = 0.0
    xi_fraction = 1.0
    witness = 0.0
    defects = set()
    for site in sites:
        # the whole grid's sweep (the ac spectrum's, in a report scope) read
        # on E; the kernels work point by point, so the bits are the same
        bd = sweep_at(fam.sweep(op, grid, site), inside)
        Mp, Mm = bd[fam.pair[0]][0], bd[fam.pair[1]][0]
        okm = accepted(bd, fam.pair[0]) & accepted(bd, fam.pair[1])
        res = np.abs(Mp + np.conj(Mm)) if fam.circle else np.abs(Mp - np.conj(Mm))
        pass_mask = okm & (res < tol)
        worst_fraction = min(worst_fraction, float(np.mean(pass_mask)))
        max_res = max(max_res, float(np.max(np.where(okm, res, 0.0))))
        defects.update(lams[~pass_mask].tolist())

        vals, _, okx = sweep_phase(fam, bd)
        xi_fraction = min(xi_fraction, float(np.mean(okx & (np.abs(vals - center) < 10 * tol))))
        witness = max(witness, _witness(fam, bd, pass_mask))

    verdict = worst_fraction > 0.99
    return ReflectionlessReport(
        verdict=verdict, fraction=worst_fraction, max_residual=max_res, tol=tol,
        sites=sites, n_points=int(lams.size), defect_points=tuple(sorted(defects)),
        xi_fraction=xi_fraction,
        witness_residual=witness if verdict else math.nan)


def _witness(fam: SweepFamily, bd: dict, passing) -> float:
    """Max residual, over the passing points where the phase key v is
    accepted, of the identity that holds where the pair (P, M) matches:
    -1/g = 2i Im P = -2i Im M on the line (v = g = 1/(M - P)), and the
    uniform-multiplicity identity M11 = (1+|P|^2)/(2 Re P) =
    (1+|M|^2)/(-2 Re M) on the circle (v = M11)."""
    P, M, v = bd[fam.pair[0]][0], bd[fam.pair[1]][0], bd[fam.phase_key][0]
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam.circle:
            wp = np.abs(v - (1.0 + np.abs(P) ** 2) / (2.0 * P.real))
            wm = np.abs(v - (1.0 + np.abs(M) ** 2) / (-2.0 * M.real))
        else:
            wp, wm = np.abs(-1.0 / v - 2j * P.imag), np.abs(-1.0 / v + 2j * M.imag)
    return float(np.max(np.where(passing & accepted(bd, fam.phase_key),
                                 np.maximum(wp, wm), 0.0)))


def sweep_multiplicity_sets(fam: SweepFamily, op, grid):
    """Grid hulls (M2, M1) of the uniform-multiplicity sets from the
    boundary pair at the first reference site.  A finite accepted value is
    off the axis by off_axis; two on the axis are equal when they differ by
    at most the sum of their axis margins."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    bd = fam.sweep(op, grid, fam.sites(op)[0])

    def side(key):
        v, e, _ = bd[key]
        fin = accepted(bd, key) & ~bd["inf_" + key]
        off = fin & off_axis(fam, v, e)
        return v, _axis_margin(v, e), bd["inf_" + key] | bd["div_" + key], off, fin & ~off

    (Mp, tp, infp, off_p, on_p), (Mm, tm, infm, off_m, on_m) = (side(key) for key in fam.pair)
    equal_on = on_p & on_m & (np.abs(Mp - Mm) <= tp + tm)

    mask2 = off_p & off_m
    mask1 = equal_on | (infp & infm) | (on_p & off_m) | (on_m & off_p)
    return fam.hull(grid[mask2], step), fam.hull(grid[mask1], step)
