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
eigenvectors.  A one-point read follows the same rule: weyl_data raises
MonodromyDegenerate exactly where the kernel marks its branch ambiguous.

exact_sweep is the package's one boundary route; the tests keep a
Richardson extrapolation toward the axis as its independent oracle.

The sweeps serve the Jacobi, CMV and Schrodinger modules: one exact
sweep, grid rule, phase, ac hull, reflectionless test, multiplicity
classifier and CSV writer, with each family's conventions passed as
data, plus the Floquet chooser and 2x2 helpers of the kernels.  Every
read is one function of the operator and runs with family(op), the
SweepFamily its type carries as _FAMILY, whose kernel is its module's:
boundary_grid sweeps it, keeping only the family's boundary pair and
phase key (all a report reads), phase_grid (sweep_phase's one caller)
reads the phase off that sweep, phase_at and weyl_data read the phase
grid and the kernel at one point (weyl_data every key), and ac_spectrum,
reflectionless_on, multiplicity_sets and sweep_csv read the sweeps and
phases through memo_sweep and memo_phase.  Each family module imports
them under its own names (boundary_weyl_grid, Xi11_grid, xi, ...), so
the names of one concept are one function.  The
reflectionless test reads E in its intervals only (pieces_mask): it is
almost-everywhere, and isolated points are null.

Every one-period transfer product of the families, in the kernels and
the discriminants alike, is transfer_product's: 2x2 steps multiplied out
entrywise in the order applied, and rescaled by an exact power of two
once an entry passes RESCALE_AT, so that it stays finite at any period
and keeps the unscaled bits; transfer_trace is the discriminants' one
trace rule, and transfer_matrix the true product's stack, OverflowError
past the float range.  Both Weyl solutions of a periodic base are
eigenvectors of one period monodromy, so floquet_pair takes its four
scaled entries and their exponent and returns the decaying and the
growing one, each an (x, y) pair, from a single square root, with one
branch rule for every call: the decaying root is the one nearest near (0,
the contracting root, unless a sweep's axis call passes its reference's
branch, whose root it rescales to its own exponent).  A kernel seeds both
half lines from one matrix without stacking it, and returns its branch,
the unstacked tuple (u, dec_x, dec_y, grow_x, grow_y, exponent) (CMV: a
pair of them, one per half line), and its ambiguous mask as the entry
'floquet'; the CMV Schur function is the fixed point the growing
eigenvector gives.  Each family's one step rule feeds both its monodromy
and carry, the walk of a seed across the patch to the reference site.
The Schrodinger seeds do not depend on the reference point either, so in
a report scope both reference points read one seed pair per kernel call
(memo).  Every one-point value of a family is its grid kernel or its
phase grid read at one point (weyl_data, phase_at).

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
from .interval_sets import (angles_hull, essential_closure, longest_component, pieces_mask,
                            points_hull, set_algebra)

INFINITE_LIMIT = 1e6
# transfer_product rescales by a power of two once an entry's part passes this
RESCALE_AT = 2.0 ** 256
# the Floquet branch of an exact sweep: the reference points lie
# REFERENCE_EPS times the operator's scale off the axis; a monodromy is
# scalar, or its roots coincide, within EDGE_TOL, and neither root is the
# nearer one within BRANCH_TOL of their distances (see floquet_pair)
REFERENCE_EPS = 1e-8
EDGE_TOL = 1e-6
BRANCH_TOL = 1e-10
REFLECTIONLESS_TOL = 1e-4   # the largest pair residual reflectionless_on accepts
MIN_ANGLES = 512            # the fewest angles of a grid on the whole circle
# the most (batch row, padded step) pairs resolvent_in_blocks builds and
# multiplies at once (one row at least): 4 draws of a report's 801- or
# 1024-site window
RESOLVENT_BLOCK = 2 ** 11
# the most rows sweep_csv formats with one %
CSV_BLOCK = 2 ** 9

# ---------------------------------------------------------------------------
# Grid sweeps shared by the operator families

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


def transfer_product(steps):
    """(m00, m01, m10, m11, exponent) of the product S_k ... S_1 of 2x2 steps
    (s00, s01, s10, s11) given in the order applied, multiplied out
    entrywise as step x product from the first one (the identity for none):
    the product is 2^exponent times the entries.  Once a real or imaginary
    part passes RESCALE_AT, each point's entries are divided by 2^frexp of
    their largest modulus, which is exact, so they keep the unscaled bits
    and stay finite; exponent is 0 until then, an int array after."""
    m, e = None, 0
    for s00, s01, s10, s11 in steps:
        m = (s00, s01, s10, s11) if m is None else (
            s00 * m[0] + s01 * m[2], s00 * m[1] + s01 * m[3],
            s10 * m[0] + s11 * m[2], s10 * m[1] + s11 * m[3])
        # the largest real or imaginary part, read off float views
        if max(np.abs(np.ascontiguousarray(x).view(float)).max() for x in m) > RESCALE_AT:
            k = np.frexp(np.abs(np.broadcast_arrays(*m)).max(axis=0))[1]
            m, e = tuple(x * np.ldexp(1.0, -k) for x in m), e + k
    return (1.0, 0.0, 0.0, 1.0, 0) if m is None else (*m, e)


def transfer_trace(product, phase=1.0):
    """2^exponent (m00 + m11) times phase for a transfer_product result, inf
    past the float range; real where every imaginary part is below 1e-9."""
    tr, e = (product[0] + product[3]) * phase, product[4]
    with np.errstate(over="ignore"):
        re, im = np.ldexp(tr.real, e), np.ldexp(tr.imag, e)
    # re + i im, assembled without 1j * im (which reads 0 * inf as nan)
    return re if np.all(np.abs(im) < 1e-9) else np.stack([re, im], axis=-1).view(complex)[..., 0]


def transfer_matrix(product, shape):
    """The shape + (2, 2) stack of the true product of a transfer_product
    result: each real and imaginary part of its entries times 2^exponent by
    ldexp, which is exact; OverflowError where the product leaves the float
    range."""
    *m, e = product
    parts = stack_2x2(*m, shape).view(float)
    with np.errstate(over="ignore"):
        out = np.ldexp(parts, np.reshape(e, np.shape(e) + (1, 1)))
    if np.any(np.isinf(out) & np.isfinite(parts)):
        raise OverflowError(f"transfer product past the float range: 2^{np.max(e)} "
                            "times its rescaled entries")
    return out.view(complex)


def floquet_pair(m00, m01, m10, m11, det, near=0.0, exponent=0):
    """(decaying, growing, branch, ambiguous) of the monodromy 2^exponent
    [[m00, m01], [m10, m11]], det the determinant of the entries: decaying
    and growing are eigenvectors, each an (x, y) pair of arrays.  With h =
    (m00 - m11)/2 and s = sqrt(h^2 + m01 m10), the entries' multipliers are
    tr/2 +- s: the larger one takes the cancellation-free sign, the other
    one u' = det/u, and the eigenvector of tr/2 + sigma s is (m01, sigma s -
    h) or (sigma s + h, m10), whichever is larger.  h and s come from
    differences of the entries, so both eigenvectors keep their digits
    where the monodromy is nearly scalar (a closed gap).

    The decaying multiplier is the root nearest near: near = 0 (a one-point
    read, an oracle, a sweep's reference call) takes the contracting root,
    and a sweep's axis call passes the branch its reference call returned.
    branch is the tuple (u, dec_x, dec_y, grow_x, grow_y, exponent) of the
    decaying root, both eigenvectors and exponent, unstacked so that the
    integer exponent stays an integer; an axis call scales its reference's
    root by 2^(reference exponent - exponent), and nothing else depends on
    scale.  Where the monodromy is scalar within EDGE_TOL (a closed gap)
    every vector is an eigenvector, and an axis call takes the reference's.
    ambiguous marks the entries whose roots coincide within EDGE_TOL
    relative to the traceless part of the monodromy (band edges), or whose
    distances to near differ by at most BRANCH_TOL of their sum (for near =
    0, near-equal moduli).  It never raises: a sweep leaves the ambiguous
    points undetermined, and weyl_data raises MonodromyDegenerate there."""
    half, h = (m00 + m11) / 2.0, (m00 - m11) / 2.0
    s = np.sqrt(h * h + m01 * m10)
    sign = np.where(np.abs(half + s) >= np.abs(half - s), 1.0, -1.0)
    big = half + sign * s
    small = det / big
    ref = not isinstance(near, tuple)
    root = near if ref else near[0] * np.ldexp(1.0, near[5] - exponent)
    d_small, d_big = np.abs(small - root), np.abs(big - root)
    first = d_small <= d_big
    u = np.where(first, small, big)
    traceless = np.abs(h) + np.abs(m01) + np.abs(m10)
    scalar = (not ref) & (traceless <= EDGE_TOL * np.abs(half))
    ambiguous = ~scalar & ((np.abs(s) <= EDGE_TOL * traceless)
                           | (np.abs(d_big - d_small) <= BRANCH_TOL * (d_big + d_small)))
    # the multipliers and their distances are read: free them before the
    # eigenvectors, which a whole-grid call holds at once
    del half, small, big, root, d_small, d_big, traceless

    def eigvec(sigma):      # eigenvector of half + sigma s
        x1, y1, x2, y2 = m01, sigma * s - h, sigma * s + h, m10
        use1 = np.abs(x1) + np.abs(y1) >= np.abs(x2) + np.abs(y2)
        return np.where(use1, x1, x2), np.where(use1, y1, y2)
    dec, grow = eigvec(np.where(first, -sign, sign)), eigvec(np.where(first, sign, -sign))
    if not ref:
        dec = tuple(np.where(scalar, near[k], c) for k, c in zip((1, 2), dec))
        grow = tuple(np.where(scalar, near[k], c) for k, c in zip((3, 4), grow))
    return dec, grow, (u, *dec, *grow, exponent), ambiguous


def stack_2x2(m00, m01, m10, m11, shape):
    """The shape + (2, 2) matrix stack with the four entries given as arrays
    or scalars; the kernels multiply 2x2 transfers out entrywise and stack
    only what takes or returns a stack."""
    M = np.empty(tuple(shape) + (2, 2), dtype=complex)
    M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1] = m00, m01, m10, m11
    return M


def carry(pair, steps, backward=False):
    """The direction of the pair (x, y) across 2x2 steps (s00, s01, s10, s11)
    in the order given: (s00 x + s01 y, s10 x + s11 y) over max(|x|, |y|) (1
    where both vanish), or with backward the step's adjugate, its inverse up
    to the determinant.  No steps return the pair as given."""
    x, y = pair
    for s00, s01, s10, s11 in steps:
        if backward:
            s00, s01, s10, s11 = s11, -s01, -s10, s00
        x, y = s00 * x + s01 * y, s10 * x + s11 * y
        s = np.maximum(np.abs(x), np.abs(y))
        s = np.where(s == 0.0, 1.0, s)
        x, y = x / s, y / s
    return x, y


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

    The batch is flattened and solved by resolvent_in_blocks.
    """
    d, up, lo = (np.asarray(x, dtype=complex) for x in (d, up, lo))
    batch = np.broadcast_shapes(d.shape[:-1], up.shape[:-1], lo.shape[:-1])
    rows = math.prod(batch)
    flat = [np.broadcast_to(x, batch + x.shape[-1:]).reshape(rows, x.shape[-1])
            for x in (d, up, lo)]
    g, g_prev = resolvent_in_blocks(lambda b: [x[b] for x in flat], rows, d.shape[-1], c)
    return g.reshape(batch), g_prev.reshape(batch)


def resolvent_in_blocks(rows, count: int, n: int, c: int):
    """tridiagonal_resolvent on a batch of count matrices of n rows, given
    as rows(b) -> (d, up, lo) of the matrices of each slice b of the batch,
    broadcast against (len(b), n), resp. (len(b), n - 1).

    The slices are the batch's blocks, at most RESOLVENT_BLOCK (row, padded
    step) pairs each and one row at least, and each is built, multiplied
    and dropped in turn.  So the products hold about 320 bytes per pair:
    under 1 MB for a block of a report's draws, 5 MB for one row of a 2^15
    + 1 site window; and a caller that builds its rows from its draws, as
    both truncation oracles do, never holds a (draws x window) array.
    Every row's products are its own, so the blocks change no bit.
    """
    if not 0 <= c < n:
        raise ValueError(f"row {c} outside a window of {n} rows")
    steps = 1 << (max(c, n - 1 - c, 1) - 1).bit_length()
    block = max(1, RESOLVENT_BLOCK // steps)
    g = np.empty((2, count), dtype=complex)
    for r in range(0, count, block):
        b = slice(r, min(r + block, count))
        d, up, lo = rows(b)
        lo = np.asarray(lo, dtype=complex)
        p = np.asarray(up, dtype=complex) * lo
        k = b.stop - r
        lo_prev = np.broadcast_to(lo[..., c - 1], (k,)) if c > 0 else np.zeros(k)
        g[:, b] = _resolvent_rows(np.broadcast_to(np.asarray(d, dtype=complex), (k, n)),
                                  np.broadcast_to(p, (k, n - 1)), lo_prev, c, steps)
    return g[0], g[1]


def _resolvent_rows(d, p, lo_prev, c: int, steps: int):
    """tridiagonal_resolvent on rows (r, n) of d, (r, n - 1) of p = up lo and
    (r,) of lo[c - 1] (0 for c = 0), both chains padded to steps."""
    rows, n = d.shape
    zero = np.zeros((rows, 1), dtype=complex)
    # pe[k + 1] = up[k] lo[k] for k = -1 .. n-1, zero at both ends
    pe = np.concatenate([zero, p, zero], axis=-1)
    # m[i, j, chain, row, step] holds entry (i, j) of one step: chain 0 maps
    # (theta_{k-1}, theta_k) to (theta_k, theta_{k+1}) with d[k], pe[k] for
    # k = 0 .. c-1, chain 1 maps (phi_{k+2}, phi_{k+1}) to (phi_{k+1}, phi_k)
    # with d[k], pe[k+1] for k = n-1 .. c+1, each in the order applied;
    # identities pad both to steps, a power of two
    m = np.zeros((2, 2, 2, rows, steps), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0
    for chain, dk, pk in ((0, d[:, :c], pe[:, :c]), (1, d[:, :c:-1], pe[:, :c + 1:-1])):
        k = dk.shape[-1]
        m[0, 0, chain, :, :k], m[0, 1, chain, :, :k] = 0.0, 1.0
        m[1, 0, chain, :, :k], m[1, 1, chain, :, :k] = -pk, dk
    while m.shape[-1] > 1:
        a, b = m[..., 1::2], m[..., 0::2]       # each later step times the one before
        m = a[:, 0, None] * b[None, 0] + a[:, 1, None] * b[None, 1]
        top = np.abs(m.view(float)).max(axis=(0, 1))
        top = np.maximum(top[..., 0::2], top[..., 1::2])
        m *= np.ldexp(1.0, -np.frexp(top)[1])
    (th_prev, ph_next), (th, ph) = m[0, 1, ..., 0], m[1, 1, ..., 0]
    det = (d[:, c] * th - pe[:, c] * th_prev) * ph - pe[:, c + 1] * th * ph_next
    return th * ph / det, -lo_prev * th_prev * ph / det


@dataclass(frozen=True)
class ReflectionlessReport:
    """reflectionless_on's result; its defect_points is a set on the grid's carrier."""
    verdict: bool
    fraction: float              # worst passing fraction across reference sites
    max_residual: float          # max matching residual over tested points
    n_points: int
    defect_points: object        # grid hull of the tested points failing at either site
    xi_fraction: float = 0.0     # fraction with the phase within tolerance of its center
    witness_residual: float = math.nan


@dataclass(frozen=True)
class SweepFamily:
    """An operator family's conventions, as data for the shared grid sweeps.

    Each family module sets its record on its coefficient type as _FAMILY,
    where family(op) finds it.  Its kernel is a lambda over the module's
    grid kernel, so that the kernel is looked up at call time.
    """
    kernel: callable        # kernel(op, zs, site, near) -> {key: array, 'floquet': ...}
    grid: callable          # grid(op) -> default grid
    sites: callable         # sites(op) -> (first, second) reference sites
    circle: bool            # carrier: the unit circle (angles), else the real line
    pair: tuple             # sweep keys of the boundary pair (M_+, M_-)
    phase_key: str          # sweep key whose boundary argument is the phase
    csv_columns: tuple      # ((header, cell), ...) of sweep_csv; cell is one of
                            # loc, phase, err, re, im, verdict
    zero_floor: bool = False    # phase undefined where |value| <= 100 err + 1e-12
    site_word: str = "sites"    # what messages call the reference sites

    @property
    def phase_range(self) -> tuple:
        return (-0.5, 0.5) if self.circle else (0.0, 1.0)

    @property
    def hull(self):
        return angles_hull if self.circle else points_hull


def family(op) -> SweepFamily:
    """The SweepFamily of an operator or its type: the type's _FAMILY."""
    return op._FAMILY


def sweep_grid(fam: SweepFamily, op, grid):
    """(grid, step): fam.grid(op) for None, else grid as a float array, and
    its first step.  ValueError unless it holds at least 2 points, all
    finite, with a positive first step, and on the circle MIN_ANGLES."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    if fam.circle and grid.size < MIN_ANGLES:
        raise ValueError(f"angular grid needs at least {MIN_ANGLES} points")
    if not (grid.ndim == 1 and grid.size >= 2 and np.isfinite(grid).all() and grid[1] > grid[0]):
        raise ValueError("a grid needs at least 2 finite points and a positive first step")
    return grid, float(grid[1] - grid[0])


def exact_sweep(kernel, grid, circle: bool, eps_ref: float) -> dict:
    """Boundary values of kernel(zs, near) -> {key: array} on the axis
    points of a grid (lambda on the line, e^{i theta} on the circle), from
    two kernel calls.  The first, at the reference points lambda + i eps_ref
    (resp. (1 - eps_ref) e^{i theta}), takes near = 0, so its decaying
    Floquet roots are the contracting ones; the second, on the axis, takes
    the first one's branch as near, so its decaying roots are the roots
    nearest those.  The kernel returns the entry 'floquet': (its branch,
    its ambiguous mask), by floquet_pair.

    For each key returns (value, error, ok), the error being |value -
    reference value| (inf where that is not a number), plus the flags
    'inf_<key>' (a pole: past INFINITE_LIMIT on the axis and not smaller
    than at the reference) and 'div_<key>' (a value that is not finite).
    A point whose branch is ambiguous in either call is not ok and carries
    neither flag, so it enters no set; an ok value is finite and unflagged,
    so ok is the one acceptance mask.  eps_ref is the operator's, never the
    grid's, so every point's bits are independent of the other points."""
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
        for k in list(vals):
            v, r = vals.pop(k), ref.pop(k)
            # the five arrays kept per key are allocated before the
            # temporaries that fill them, so the freed temporaries leave no
            # holes under them in the heap: the benchmark's report_suite
            # peaks about 0.25 MB lower in resident memory (Python 3.11,
            # numpy 2.4, BENCH_working_set.json), with the same bits
            value, error = np.empty_like(v), np.empty(v.shape)
            ok, inf, div = (np.empty(v.shape, bool) for _ in range(3))
            mag = np.abs(v)
            div[:] = ~edge & ~np.isfinite(v)
            inf[:] = ~edge & np.isfinite(v) & (mag > INFINITE_LIMIT) & (mag >= np.abs(r))
            err = np.abs(v - r)
            error[:] = np.where(np.isnan(err), np.inf, err)
            ok[:] = ~(edge | div | inf)
            value[:] = v
            out[k] = (value, error, ok)
            out["inf_" + k], out["div_" + k] = inf, div
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
    """a, or for an array (or a list, read as one) its dtype, shape and
    bytes, and for a tuple (a Floquet branch) its elements' keys."""
    if isinstance(a, tuple):
        return tuple(map(_key, a))
    if not isinstance(a, (np.ndarray, list)):
        return a
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def memo(fn, op, *args):
    """fn(op, *args), computed once per (fn, op, args) in the open scope and
    kept, its arrays read-only, until the scope closes; an array argument
    is keyed by its dtype, shape and bytes (_key).  Outside any scope it is
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
    v, err, ok = bd[fam.phase_key]
    off = off_axis(fam, v, err)
    pos = v.real if fam.circle else v.imag
    ok = ok & ~(off & (pos < 0.0))
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


def boundary_grid(op, grid, site) -> dict:
    """exact_sweep of op's family kernel at a reference site on a grid, of
    its pair and phase key only (what the reports read): (value, error, ok)
    per key plus the 'inf_'/'div_' flags.  The reference points lie
    REFERENCE_EPS inside the circle, resp. REFERENCE_EPS (1 +
    op.sup_bound()) above the line."""
    fam = family(op)
    eps = REFERENCE_EPS if fam.circle else REFERENCE_EPS * (1.0 + op.sup_bound())
    keep = (*fam.pair, fam.phase_key, "floquet")

    def kernel(zs, near):
        return {k: v for k, v in fam.kernel(op, zs, site, near).items() if k in keep}
    return exact_sweep(kernel, grid, fam.circle, eps)


def phase_grid(op, grid, site):
    """The boundary phase of op's family on a grid at a reference site:
    sweep_phase of its sweep, (values, errors, ok), nan where not ok."""
    return sweep_phase(family(op), memo_sweep(op, grid, site))


def memo_sweep(op, grid, site) -> dict:
    """boundary_grid, a memo read."""
    return memo(boundary_grid, op, grid, site)


def memo_phase(op, grid, site):
    """phase_grid, a memo read."""
    return memo(phase_grid, op, grid, site)


def phase_at(op, loc: float, site) -> float:
    """The boundary phase at the one grid point loc, op's family phase grid
    read there at the given site; NonConvergent where it is undetermined."""
    vals, _, ok = memo_phase(op, np.array([float(loc)]), site)
    if not bool(ok[0]):
        raise NonConvergent(f"boundary phase undetermined at {loc}, reference {site}")
    return float(vals[0])


def weyl_data(op, z, site) -> dict:
    """op's family kernel read at the one point z, after the domain check
    of the carrier (off the real axis, resp. in the open unit disk): each
    array of its dict but 'floquet' as a Python complex.  Where the
    kernel's branch is ambiguous (floquet_pair), exactly where a sweep
    leaves the point undetermined, it raises MonodromyDegenerate."""
    fam = family(op)
    z = require_in_disk(z) if fam.circle else require_off_axis(z)
    out = fam.kernel(op, np.array([z]), site, 0.0)
    if out.pop("floquet")[1][0]:
        raise MonodromyDegenerate(f"Floquet branch ambiguous at z = {z}: the multipliers "
                                  "coincide or have equal modulus; move z off the axis")
    return {k: complex(v[0]) for k, v in out.items()}


@sweep_scope()
def sweep_csv(op, grid) -> str:
    """Per-point CSV, LF line ends, of the boundary phase at the first
    reference site, in the columns of the family's csv_columns.  A phase
    cell is empty where the point is undetermined, a re/im cell where the
    phase key's value is not ok.  Each row takes the template of its
    verdict word and present cells, from a list of six; one % formats each
    block of CSV_BLOCK rows, so the table's Python floats and templates are
    held one block at a time.  The sweep and the phase are memo reads, in a
    report's scope or its own."""
    fam = family(op)
    grid = np.asarray(grid, dtype=float)
    site = fam.sites(op)[0]
    v, _, conv = memo_sweep(op, grid, site)[fam.phase_key]
    vals, errs, ok = memo_phase(op, grid, site)
    words = ("undetermined", "interior", "edge" if fam.circle else "exterior")
    word = np.where(ok, np.where(interior(fam, vals), 1, 2), 0)
    # numeric cell kinds: (values, format, present given ok and conv)
    numeric = {"loc": (grid, "%.12g", lambda ok, c: True),
               "phase": (vals, "%.12g", lambda ok, c: ok),
               "err": (errs, "%.6g", lambda ok, c: True),
               "re": (v.real, "%.12g", lambda ok, c: c),
               "im": (v.imag, "%.12g", lambda ok, c: c)}

    def template(w, c):
        cells = [words[w] if kind == "verdict" else
                 numeric[kind][1] if kind in numeric and numeric[kind][2](w > 0, c) else ""
                 for _, kind in fam.csv_columns]
        return ",".join(cells) + "\n"

    # the template of verdict word w and conv c sits at 2 w + c
    templates = [template(w, c) for w in range(3) for c in (False, True)]
    codes = 2 * word + conv
    kinds = [kind for _, kind in fam.csv_columns if kind in numeric]
    # no cell holds a comma, a quote or a line end, so none needs quoting
    table = [",".join(name for name, _ in fam.csv_columns) + "\n"]
    for start in range(0, grid.size, CSV_BLOCK):
        b = slice(start, start + CSV_BLOCK)
        values = np.column_stack([numeric[kind][0][b] for kind in kinds])
        present = np.column_stack([np.broadcast_to(numeric[kind][2](ok[b], conv[b]),
                                                   values.shape[:1]) for kind in kinds])
        table.append("".join([templates[t] for t in codes[b].tolist()])
                     % tuple(values[present].tolist()))
    return "".join(table)


def ac_spectrum(op, grid=None):
    """Essential closure of the grid hull of the interior-phase points at
    the first reference site; a disagreement with the second site
    beyond two grid steps raises SiteDisagreement, carrying the first set."""
    fam = family(op)
    grid, step = sweep_grid(fam, op, grid)

    def one_site(site):
        passing = grid[interior(fam, memo_phase(op, grid, site)[0])]
        return essential_closure(fam.hull(passing, step))

    first, second = fam.sites(op)
    main = one_site(first)
    width = longest_component(set_algebra(main, one_site(second), "symmetric_difference"))
    if width > 2.0 * step + 1e-12:
        raise SiteDisagreement(
            f"ac spectrum disagrees between reference {fam.site_word} {first} and {second} "
            f"by {width:.3e} (> two grid steps {2.0 * step:.3e})", main, width)
    return main


@sweep_scope()
def reflectionless_on(op, E, grid=None) -> ReflectionlessReport:
    """Boundary matching of the pair on the grid points in E's intervals
    (arcs on the circle) at both sites: M_+ is the reflection of M_- (conj
    across the line, -conj across the circle) within REFLECTIONLESS_TOL at
    more than 99% of them, phase at its center; defect_points is the grid
    hull of those failing at either site.  Reflectionless is an
    almost-everywhere property, so the test reads E with its isolated
    points dropped, a null set (pieces_mask).  In its own sweep scope where
    no report opened one."""
    if E.measure() <= 0.0:
        raise ValueError("reflectionless test needs a set of positive measure")
    fam = family(op)
    grid, step = sweep_grid(fam, op, grid)
    inside = pieces_mask(E, grid)
    lams = grid[inside]
    if lams.size == 0:
        raise ValueError("grid does not meet E")

    center = sum(fam.phase_range) / 2.0
    worst_fraction = xi_fraction = 1.0
    max_res = witness = 0.0
    defect = np.zeros(lams.size, dtype=bool)
    for site in fam.sites(op):
        # the whole grid's sweep and phase (the ac spectrum's, in a report
        # scope) read on E; the kernels work point by point, so bits agree
        bd = sweep_at(memo_sweep(op, grid, site), inside)
        Mp, Mm = bd[fam.pair[0]][0], bd[fam.pair[1]][0]
        okm = bd[fam.pair[0]][2] & bd[fam.pair[1]][2]
        with np.errstate(invalid="ignore"):     # inf - inf where no sweep accepted the point
            res = np.abs(Mp + np.conj(Mm)) if fam.circle else np.abs(Mp - np.conj(Mm))
        pass_mask = okm & (res < REFLECTIONLESS_TOL)
        worst_fraction = min(worst_fraction, float(np.mean(pass_mask)))
        max_res = max(max_res, float(np.max(np.where(okm, res, 0.0))))
        defect |= ~pass_mask

        vals, _, okx = (a[inside] for a in memo_phase(op, grid, site))
        centered = okx & (np.abs(vals - center) < 10 * REFLECTIONLESS_TOL)
        xi_fraction = min(xi_fraction, float(np.mean(centered)))
        witness = max(witness, _witness(fam, bd, pass_mask))

    verdict = worst_fraction > 0.99
    return ReflectionlessReport(
        verdict=verdict, fraction=worst_fraction, max_residual=max_res,
        n_points=int(lams.size), defect_points=fam.hull(lams[defect], step),
        xi_fraction=xi_fraction,
        witness_residual=witness if verdict else math.nan)


def _witness(fam: SweepFamily, bd: dict, passing) -> float:
    """Max residual, over the passing points where the phase key v is ok,
    of the identity that holds where the pair (P, M) matches:
    -1/g = 2i Im P = -2i Im M on the line (v = g = 1/(M - P)), and the
    uniform-multiplicity identity M11 = (1+|P|^2)/(2 Re P) =
    (1+|M|^2)/(-2 Re M) on the circle (v = M11)."""
    P, M = bd[fam.pair[0]][0], bd[fam.pair[1]][0]
    v, _, ok = bd[fam.phase_key]
    with np.errstate(divide="ignore", invalid="ignore"):
        if fam.circle:
            wp = np.abs(v - (1.0 + np.abs(P) ** 2) / (2.0 * P.real))
            wm = np.abs(v - (1.0 + np.abs(M) ** 2) / (-2.0 * M.real))
        else:
            wp, wm = np.abs(-1.0 / v - 2j * P.imag), np.abs(-1.0 / v + 2j * M.imag)
    return float(np.max(np.where(passing & ok, np.maximum(wp, wm), 0.0)))


def multiplicity_sets(op, grid=None):
    """Grid hulls (M2, M1) of the uniform-multiplicity sets from the
    boundary pair at the first reference site.  An ok value is off the
    axis by off_axis; two on the axis are equal when they differ by
    at most the sum of their axis margins."""
    fam = family(op)
    grid, step = sweep_grid(fam, op, grid)
    bd = memo_sweep(op, grid, fam.sites(op)[0])

    def side(key):
        v, e, ok = bd[key]
        off = ok & off_axis(fam, v, e)
        return v, _axis_margin(v, e), bd["inf_" + key] | bd["div_" + key], off, ok & ~off

    (Mp, tp, infp, off_p, on_p), (Mm, tm, infm, off_m, on_m) = (side(key) for key in fam.pair)
    with np.errstate(invalid="ignore"):     # inf - inf where no sweep accepted the point
        equal_on = on_p & on_m & (np.abs(Mp - Mm) <= tp + tm)

    mask2 = off_p & off_m
    mask1 = equal_on | (infp & infm) | (on_p & off_m) | (on_m & off_p)
    return fam.hull(grid[mask2], step), fam.hull(grid[mask1], step)

