"""Boundary values of Herglotz and Caratheodory functions on grids, and the
grid sweeps shared by the operator families.

A Herglotz function maps the upper half-plane into itself; a Caratheodory
function maps the unit disk into the closed right half-plane.  Their
almost-everywhere boundary values are reached along one geometric schedule
(eps_k = 0.1 * 2^-k toward the line, radii r_k = 1 - eps_k toward the
circle) with two-stage Richardson extrapolation, one kernel call per stage
on a whole grid.  The ac spectrum is the essential closure of the set where
the boundary values are nonreal, read here off the boundary phase.

The sweeps serve the Jacobi, CMV and Schrodinger modules: one Richardson
sweep, phase, ac hull, reflectionless test, multiplicity classifier and CSV
writer, with each family's conventions passed as data, plus the Floquet
chooser and 2x2 helpers of the Jacobi and Schrodinger kernels.  Both Weyl
solutions of a periodic base are eigenvectors of one period monodromy, so
floquet_pair returns the decaying and the growing one from a single trace
and square root, and a kernel seeds both half lines from one matrix.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import MonodromyDegenerate, SiteDisagreement
from .interval_sets import (angles_hull, contains_mask, essential_closure,
                            longest_component, points_hull, set_algebra, widen)

DIVERGENCE_CAP = 1e8
INFINITE_LIMIT = 1e6
DEGENERACY_TOL = 1e-10
OFF_AXIS_TOL = 1e-4     # off-axis threshold of the multiplicity sets

# distances to the boundary, eps_k = 0.1 * 2^-k for k = 0..12
SCHEDULE = tuple(0.1 * 0.5 ** k for k in range(13))


def richardson_sequence(values):
    """Two-stage Richardson extrapolation along axis 0.

    values: array (K, ...) of K >= 4 samples on a ratio-2 geometric schedule,
    ordered toward the boundary.  Returns (value, error, converged).
    Convergence means the final extrapolant differences contract by a factor
    >= 2 (exact agreement counts as converged).
    """
    v = np.asarray(values, dtype=complex)
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
    """Acceptance mask for boundary sweeps: converged, or stalled at a noise
    floor far below the use tolerance (near closing spectral gaps the Floquet
    eigenvector loses digits and the extrapolant plateaus around 1e-10
    relative instead of contracting)."""
    value = np.asarray(value)
    return converged | (np.isfinite(value) & (err <= rel * (1.0 + np.abs(value))))


def blowup_flags(mags):
    """(infinite, diverged) along axis 0 of magnitudes ordered toward the
    boundary: the last one past 1e6 with monotone growth over the last 4
    samples, resp. any one past the 1e8 hard cap."""
    mags = np.asarray(mags)
    grow = np.all(np.diff(mags[-4:], axis=0) > 0, axis=0)
    return (mags[-1] > INFINITE_LIMIT) & grow, np.any(mags > DIVERGENCE_CAP, axis=0)


def write_csv(header, rows) -> str:
    """CSV text with LF line ends."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


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


def floquet_pair(M, det):
    """(decaying, growing): eigenvectors of the monodromy stack M
    (determinant det) for its contracting (|u| < 1) and its expanding
    Floquet multiplier, from one trace and one square root.  The larger root
    takes the cancellation-free sign, the other one u' = det/u; multiplier
    moduli within 1e-10 (only on the real axis) raise MonodromyDegenerate."""
    tr = M[..., 0, 0] + M[..., 1, 1]
    sq = np.sqrt(tr * tr - 4.0 * det)
    big = np.where(np.abs(tr + sq) >= np.abs(tr - sq), (tr + sq) / 2.0, (tr - sq) / 2.0)
    small = det / big
    if np.any(np.abs(np.abs(big) - np.abs(small)) < DEGENERACY_TOL):
        raise MonodromyDegenerate(
            "Floquet multipliers have equal modulus; move z off the real axis")

    def eigvec(u):      # (M01, u - M00) or (u - M11, M10), whichever is larger
        x1, y1, x2, y2 = M[..., 0, 1], u - M[..., 0, 0], u - M[..., 1, 1], M[..., 1, 0]
        use1 = np.abs(x1) + np.abs(y1) >= np.abs(x2) + np.abs(y2)
        return np.stack([np.where(use1, x1, x2), np.where(use1, y1, y2)], axis=-1)
    return eigvec(small), eigvec(big)


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
    details: str = ""


@dataclass(frozen=True)
class SweepFamily:
    """An operator family's conventions, as data for the shared grid sweeps.

    Family modules pass lambdas for sweep and phase so that their
    boundary_*_grid and phase-grid functions are looked up at call time.
    """
    sweep: callable         # sweep(op, grid, site) -> boundary_sweep dict
    phase: callable         # phase(op, grid, site) -> (values, errors, ok)
    grid: callable          # grid(op) -> default grid
    sites: callable         # sites(op) -> (first, second) reference sites
    circle: bool            # carrier: the unit circle (angles), else the real line
    pair: tuple             # sweep keys of the boundary pair (M_+, M_-)
    phase_key: str          # sweep key whose boundary argument is the phase
    witness: callable       # witness(sweep, passing) -> witness residual
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


def boundary_sweep(kernel, grid, circle: bool) -> dict:
    """Richardson-extrapolated boundary values of kernel(zs) -> {key: array}
    over a grid, one kernel call per SCHEDULE stage, with zs = lambda + i eps
    on the line and (1 - eps) e^{i theta} on the circle.  For each key
    returns (value, error, converged) arrays, plus 'inf_<key>'/'div_<key>'
    blowup flags."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps) for eps in SCHEDULE]
    out = {}
    for k in rows[0]:
        arr = np.array([row[k] for row in rows])
        out[k] = richardson_sequence(arr)
        out["inf_" + k], out["div_" + k] = blowup_flags(np.abs(arr))
    return out


# the sweep memo of the open report scope; None outside any scope, so
# library callers keep no hidden state
_memo = None


@contextmanager
def sweep_scope():
    """Within the block, each family sweep is computed once per (operator,
    site, grid bytes); later reads get that result, its arrays
    read-only.  A nested scope reuses the outer memo."""
    global _memo
    if _memo is not None:
        yield
        return
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def memo_sweep(sweep, op, grid, site) -> dict:
    """sweep(op, grid, site), read from the open scope's memo."""
    if _memo is None:
        return sweep(op, grid, site)
    grid = np.asarray(grid, dtype=float)
    key = (op, site, grid.tobytes())
    if key not in _memo:
        bd = sweep(op, grid, site)
        for v in bd.values():
            for arr in v if isinstance(v, tuple) else (v,):
                arr.flags.writeable = False
        _memo[key] = bd
    return _memo[key]


def sweep_at(bd: dict, idx) -> dict:
    """The boundary sweep bd read at the grid points idx (mask or indices)."""
    return {k: tuple(a[idx] for a in v) if isinstance(v, tuple) else v[idx]
            for k, v in bd.items()}


def sweep_phase(fam: SweepFamily, bd: dict):
    """Boundary phase Arg(v)/pi of the sweep's phase key, in phase_range:
    (values, errors, ok).  A positive part (Im on the line, Re on the circle)
    below 0 within the extrapolation error is clamped to the axis."""
    v, err, conv = bd[fam.phase_key]
    # phase tolerance: a 1e-4-relative amplitude plateau moves Arg v by
    # < 1e-4/pi, below every phase use tolerance; exact closing band edges
    # stall there rather than at the default 1e-6 floor
    ok = relaxed_ok(v, err, conv, rel=1e-4) & ~bd["div_" + fam.phase_key] & np.isfinite(v)
    tol = 10.0 * err + 1e-12 * (1.0 + np.abs(v))
    pos = v.real if fam.circle else v.imag
    bad = pos < -tol
    pos = np.where((pos < 0.0) & ~bad, 0.0, pos)
    ok = ok & ~bad
    if fam.zero_floor:
        # boundary zeros leave the phase undefined; they carry zero ac density
        ok = ok & (np.abs(v) > 100.0 * err + 1e-12)
    arg = np.angle(pos + 1j * v.imag) if fam.circle else np.angle(v.real + 1j * pos)
    vals = np.clip(arg / math.pi, *fam.phase_range)
    return np.where(ok, vals, np.nan), err, ok


def sweep_csv(fam: SweepFamily, op, grid) -> str:
    """Per-point CSV of the boundary phase at the first reference site, in
    the columns of fam.csv_columns.  A phase cell is empty where the point
    is undetermined, a re/im cell where the phase key did not converge."""
    grid = np.asarray(grid, dtype=float)
    bd = fam.sweep(op, grid, fam.sites(op)[0])
    v, _, conv = bd[fam.phase_key]
    vals, errs, ok = sweep_phase(fam, bd)

    def cells(xs, mask):
        return [f"{x:.12g}" if m else "" for x, m in zip(xs.tolist(), mask.tolist())]

    def verdicts():
        lo, hi = fam.phase_range
        with np.errstate(invalid="ignore"):
            inside = (vals > lo) & (vals < hi)
        outside = "edge" if fam.circle else "exterior"
        return np.where(ok, np.where(inside, "interior", outside), "undetermined").tolist()

    column = {"loc": lambda: [f"{x:.12g}" for x in grid.tolist()],
              "phase": lambda: cells(vals, ok),
              "err": lambda: [f"{e:.6g}" for e in errs.tolist()],
              "re": lambda: cells(v.real, conv),
              "im": lambda: cells(v.imag, conv),
              "verdict": verdicts,
              "empty": lambda: [""] * grid.size}
    return write_csv([name for name, _ in fam.csv_columns],
                     zip(*(column[kind]() for _, kind in fam.csv_columns)))


def sweep_ac_spectrum(fam: SweepFamily, op, grid, xi_tol: float):
    """Essential closure of the widened grid hull of the interior-phase
    points at the first reference site; a disagreement with the second site
    beyond two grid steps raises SiteDisagreement, carrying the first set."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    lo, hi = fam.phase_range

    def one_site(site):
        vals, _, ok = fam.phase(op, grid, site)
        with np.errstate(invalid="ignore"):
            passing = grid[ok & (vals > lo + xi_tol) & (vals < hi - xi_tol)]
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
        Mp, ep, cp = bd[fam.pair[0]]
        Mm, em, cm = bd[fam.pair[1]]
        okm = (relaxed_ok(Mp, ep, cp) & relaxed_ok(Mm, em, cm)
               & np.isfinite(Mp) & np.isfinite(Mm))
        res = np.abs(Mp + np.conj(Mm)) if fam.circle else np.abs(Mp - np.conj(Mm))
        pass_mask = okm & (res < tol)
        worst_fraction = min(worst_fraction, float(np.mean(pass_mask)))
        max_res = max(max_res, float(np.max(np.where(okm, res, 0.0))))
        defects.update(lams[~pass_mask].tolist())

        vals, _, okx = sweep_phase(fam, bd)
        xi_fraction = min(xi_fraction, float(np.mean(okx & (np.abs(vals - center) < 10 * tol))))
        witness = max(witness, fam.witness(bd, pass_mask))

    verdict = worst_fraction > 0.99
    return ReflectionlessReport(
        verdict=verdict, fraction=worst_fraction, max_residual=max_res, tol=tol,
        sites=sites, n_points=int(lams.size), defect_points=tuple(sorted(defects)),
        xi_fraction=xi_fraction,
        witness_residual=witness if verdict else math.nan,
        details=f"{lams.size} grid {'angles' if fam.circle else 'points'} in E "
                f"at {fam.site_word} {sites}")


def sweep_multiplicity_sets(fam: SweepFamily, op, grid):
    """Grid hulls (M2, M1) of the uniform-multiplicity sets from the
    boundary pair at the first reference site.  A value is off the axis when
    its part across it (Im v on the line, Re v on the circle) exceeds
    tol (1 + |v|) plus its extrapolation error, tol = OFF_AXIS_TOL."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    bd = fam.sweep(op, grid, fam.sites(op)[0])
    tol = OFF_AXIS_TOL

    def side(key):
        v, e, c = bd[key]
        inf = bd["inf_" + key] | bd["div_" + key]
        fin = relaxed_ok(v, e, c) & ~inf & np.isfinite(v)
        off = fin & (np.abs(v.real if fam.circle else v.imag) > tol * (1.0 + np.abs(v)) + e)
        return v, inf, off, fin & ~off

    (Mp, infp, off_p, on_p), (Mm, infm, off_m, on_m) = (side(key) for key in fam.pair)
    equal_on = on_p & on_m & (np.abs(Mp - Mm) <= tol * (1.0 + np.abs(Mp)))

    mask2 = off_p & off_m
    mask1 = equal_on | (infp & infm) | (on_p & off_m) | (on_m & off_p)
    return fam.hull(grid[mask2], step), fam.hull(grid[mask1], step)
