"""Boundary limits and support classification for Herglotz and Caratheodory functions.

A Herglotz function maps the upper half-plane into itself; a Caratheodory
function maps the unit disk into the closed right half-plane.  Almost-everywhere
boundary values are reached by a geometric schedule (eps_k = 0.1 * 2^-k toward
the line, radii r_k = 1 - 0.1 * 2^-k toward the circle) with two-stage
Richardson extrapolation, read off one sample stack: a kernel stacked over a
grid, or f stacked at one point, deepened while |f| keeps growing, for its
limit, both blowup variants and the scaled point mass.  At a boundary point:

    finite limit, positive Im (line) / Re (circle)      -> ac
    infinite limit, scaled limit -> 0                   -> sc
    infinite limit, scaled limit -> mass > 0            -> pp
    finite real (line) / purely imaginary (circle) limit -> regular

where the scaled limit is (-i eps) m(lambda + i eps) on the line and
((1 - r)/2) f(r zeta) on the circle, converging to the point mass.  Singular
points are flagged by two variants (Im-blowup and |value|-blowup); their
disagreement is reported, never assumed away.

The grid sweeps at the end serve the Jacobi, CMV and Schrodinger modules:
one Richardson sweep, phase, ac hull, reflectionless test, multiplicity
classifier and CSV writer, with each family's conventions passed as data,
plus the Floquet eigenvector chooser and 2x2 helpers of the Jacobi and
Schrodinger kernels.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import MonodromyDegenerate, NonConvergent, SiteDisagreement
from .interval_sets import (angles_hull, contains_mask, essential_closure,
                            longest_component, points_hull, set_algebra, widen)

DIVERGENCE_CAP = 1e8
INFINITE_LIMIT = 1e6
AC_IM_TOL = 1e-6
MASS_TOL = 1e-6
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


@dataclass(frozen=True)
class BoundaryValue:
    value: complex
    error: float
    diverged: bool          # some sample exceeded the hard cap
    infinite: bool          # |samples| > 1e6 and monotone growth over last 4 stages
    samples: tuple = field(repr=False, default=())


@dataclass(frozen=True)
class BoundaryFunction:
    """Evaluation contract for an analytic function on C_+ (herglotz) or D (caratheodory)."""
    kind: str
    evaluate: callable = field(compare=False)
    metadata: str = ""

    def __post_init__(self):
        if self.kind not in ("herglotz", "caratheodory"):
            raise ValueError("kind must be 'herglotz' or 'caratheodory'")

    def __call__(self, z: complex) -> complex:
        return complex(self.evaluate(z))


def _as_angle(p) -> float:
    if isinstance(p, complex):
        if abs(abs(p) - 1.0) > 1e-9:
            raise ValueError("circle boundary point must be unimodular")
        return math.atan2(p.imag, p.real) % (2.0 * math.pi)
    return float(p) % (2.0 * math.pi)


MIN_EPS_LINE = 1e-13
MIN_EPS_CIRCLE = 3e-9   # keeps 1 - fl(1 - eps) accurate to ~3e-8 relative


def _point_stack(f: BoundaryFunction, p):
    """(location, samples, distances) of f approaching boundary point p; the
    schedule is deepened at its ratio 1/2 while |f| keeps growing geometrically,
    so a point mass (~ eps^-1) crosses the blowup threshold.  Distances are
    the representable gaps 1 - fl(1 - eps) on the circle, free of cancellation."""
    circle = f.kind == "caratheodory"
    loc = _as_angle(p) if circle else float(p)
    kernel = lambda zs: {"f": [f(complex(zs[0]))]}
    sched = list(SCHEDULE)
    samples = list(_sample_stack(kernel, [loc], circle, sched)["f"][:, 0])
    min_eps = MIN_EPS_CIRCLE if circle else MIN_EPS_LINE
    while sched[-1] * 0.5 >= min_eps:
        mags = np.abs(samples[-4:])
        if mags[-1] > DIVERGENCE_CAP:
            break
        if not (np.all(np.diff(mags) > 0) and mags[-1] > 1.5 * mags[0]):
            break
        sched.append(sched[-1] * 0.5)
        samples.extend(_sample_stack(kernel, [loc], circle, sched[-1:])["f"][:, 0])
    eps = np.array(sched)
    return loc, np.array(samples, dtype=complex), 1.0 - (1.0 - eps) if circle else eps


def _scaled(f: BoundaryFunction, samples, dists):
    weights = -1j * dists if f.kind == "herglotz" else dists / 2.0
    value, err, converged = richardson_sequence(samples * weights)
    return complex(value), float(err), bool(converged)


def boundary_value(f: BoundaryFunction, p) -> BoundaryValue:
    """Richardson-extrapolated boundary limit with an error estimate.

    Flags divergence when |f| exceeds 1e8; raises NonConvergent when the
    extrapolant differences fail to contract by a factor of 2 while the value
    stays finite and not obviously blowing up.
    """
    _, samples, _ = _point_stack(f, p)
    infinite, diverged = (bool(flag) for flag in blowup_flags(np.abs(samples)))
    value, err, converged = richardson_sequence(samples)
    if not (diverged or infinite or bool(converged)):
        raise NonConvergent(
            f"boundary extrapolation failed to contract at {p!r} "
            f"(last differences {float(err):.3e})")
    return BoundaryValue(complex(value), float(err), diverged, infinite, tuple(samples))


def scaled_limit(f: BoundaryFunction, p):
    """Point-mass functional: lim (-i eps) m(lambda + i eps), resp.
    lim ((1-r)/2) f(r zeta), along the deepened schedule of classify_point.
    Returns (value, error, converged)."""
    _, samples, dists = _point_stack(f, p)
    return _scaled(f, samples, dists)


@dataclass(frozen=True)
class PointClassification:
    location: float
    verdict: str                     # ac | singular | sc | pp | regular | undetermined
    limit_value: complex
    error: float
    point_mass: float = 0.0
    scaled_value: complex = 0.0
    singular_unprimed: bool = False  # part-based blowup (Im on the line, Re on the circle)
    singular_primed: bool = False    # |value| blowup
    variants_agree: bool = True
    diagnostics: str = ""


def classify_point(f: BoundaryFunction, p) -> PointClassification:
    """Limit trichotomy at one boundary point.

    The singular test is run in two variants: blowup of the Herglotz-positive
    part (Im on the line, Re on the circle) and blowup of |value|; both are
    reported and a disagreement downgrades nothing silently.
    """
    loc, samples, dists = _point_stack(f, p)
    part = samples.imag if f.kind == "herglotz" else samples.real

    def blows(seq):
        infinite, diverged = blowup_flags(np.abs(seq))
        return bool(infinite | diverged)

    singular_unprimed = blows(part)
    singular_primed = blows(samples)
    agree = singular_unprimed == singular_primed

    if singular_unprimed or singular_primed:
        sval, _, sconv = _scaled(f, samples, dists)
        if sconv and sval.real > MASS_TOL:
            verdict, extra = "pp", {"point_mass": float(sval.real)}
        elif sconv and abs(sval) <= MASS_TOL:
            verdict, extra = "sc", {}
        else:
            verdict, extra = "singular", {"diagnostics": "scaled limit did not settle"}
        return PointClassification(loc, verdict, complex(np.inf, np.inf), math.inf,
                                   scaled_value=sval, singular_unprimed=singular_unprimed,
                                   singular_primed=singular_primed, variants_agree=agree,
                                   **extra)

    value, err, converged = richardson_sequence(samples)
    value = complex(value)
    err = float(err)
    if not bool(converged):
        return PointClassification(loc, "undetermined", value, err,
                                   diagnostics="extrapolants failed to contract")
    pos_part = value.imag if f.kind == "herglotz" else value.real
    if pos_part > AC_IM_TOL:
        return PointClassification(loc, "ac", value, err)
    if abs(pos_part) <= AC_IM_TOL:
        return PointClassification(loc, "regular", value, err)
    return PointClassification(loc, "undetermined", value, err,
                               diagnostics="negative Herglotz/Caratheodory part at the boundary")


def essential_support_ac(f: BoundaryFunction, grid):
    """Essential closure of the hull of maximal ac-verdict runs on the grid.

    Returns (set, verdicts); undetermined points are excluded from the hull and
    kept in the verdict list for audit.
    """
    grid = list(grid)
    if len(grid) < 2:
        raise ValueError("grid needs at least 2 points")
    verdicts = [classify_point(f, p) for p in grid]
    step = abs(grid[1] - grid[0])
    passing = [v.location for v in verdicts if v.verdict == "ac"]
    hull = points_hull if f.kind == "herglotz" else angles_hull
    return essential_closure(hull(passing, step)), verdicts


def reflect(f: BoundaryFunction, z: complex) -> complex:
    """Value in the opposite region: m(z) = conj(m(conj z)) across the line,
    f(z) = -conj(f(1/conj z)) across the circle."""
    z = complex(z)
    if f.kind == "herglotz":
        if z.imag == 0.0:
            raise ValueError("boundary point rejected: reflection needs Im z != 0")
        if z.imag > 0.0:
            raise ValueError("z is in the natural domain; evaluate directly")
        return complex(np.conj(f(np.conj(z))))
    r = abs(z)
    if abs(r - 1.0) < 1e-15:
        raise ValueError("boundary point rejected: reflection needs |z| != 1")
    if r < 1.0:
        raise ValueError("z is in the natural domain; evaluate directly")
    return complex(-np.conj(f(1.0 / np.conj(z))))


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    worst_violation: float
    worst_sample: complex
    details: tuple


def validate(f: BoundaryFunction, samples) -> ValidationReport:
    """Half-plane (Im >= 0) or disk (Re >= 0) positivity at each interior sample."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    rows = []
    worst = math.inf
    worst_z = None
    for z in samples:
        v = f(complex(z))
        margin = v.imag if f.kind == "herglotz" else v.real
        rows.append((complex(z), v, margin))
        if margin < worst:
            worst, worst_z = margin, complex(z)
    return ValidationReport(worst >= -1e-12, float(worst), worst_z, tuple(rows))


@dataclass(frozen=True)
class HerglotzRepresentation:
    """m(z) = c + d z + integral [(x - z)^-1 - x (1 + x^2)^-1] d omega(x),
    with c = Re m(i) and d = lim m(i eta)/(i eta) >= 0."""
    c: float
    d: float


def herglotz_representation(f: BoundaryFunction) -> HerglotzRepresentation:
    if f.kind != "herglotz":
        raise ValueError("representation constants are for the half-plane kind")
    c = f(1j).real
    ratios = np.array([f(1j * e) / (1j * e) for e in (8.0, 16.0, 32.0, 64.0, 128.0)])
    d = max(float(ratios[-1].real + 2.0 * (ratios[-1].real - ratios[-2].real)), 0.0)
    return HerglotzRepresentation(float(c), d)


def classification_csv(f: BoundaryFunction, grid) -> str:
    """Per-grid-point CSV: location, Re, Im, error_estimate, verdict, point_mass."""
    rows = []
    for p in grid:
        cp = classify_point(f, p)
        re = cp.limit_value.real if math.isfinite(cp.limit_value.real) else "inf"
        im = cp.limit_value.imag if math.isfinite(cp.limit_value.imag) else "inf"
        err = cp.error if math.isfinite(cp.error) else "inf"
        rows.append([f"{cp.location:.12g}", re, im, err, cp.verdict, f"{cp.point_mass:.12g}"])
    return write_csv(["location", "re", "im", "error_estimate", "verdict", "point_mass"], rows)


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


def floquet_eigvec(M, det, decaying: bool):
    """Eigenvector of the monodromy stack M (determinant det) for its contracting
    (decaying, |u| < 1) or expanding Floquet multiplier.  The larger root takes
    the cancellation-free sign, the other one u' = det/u; multiplier moduli
    within 1e-10 (only on the real axis) raise MonodromyDegenerate."""
    tr = M[..., 0, 0] + M[..., 1, 1]
    sq = np.sqrt(tr * tr - 4.0 * det)
    big = np.where(np.abs(tr + sq) >= np.abs(tr - sq), (tr + sq) / 2.0, (tr - sq) / 2.0)
    small = det / big
    if np.any(np.abs(np.abs(big) - np.abs(small)) < DEGENERACY_TOL):
        raise MonodromyDegenerate(
            "Floquet multipliers have equal modulus; move z off the real axis")
    u = small if decaying else big
    v1 = np.stack([M[..., 0, 1], u - M[..., 0, 0]], axis=-1)
    v2 = np.stack([u - M[..., 1, 1], M[..., 1, 0]], axis=-1)
    use1 = (np.abs(v1[..., 0]) + np.abs(v1[..., 1])
            >= np.abs(v2[..., 0]) + np.abs(v2[..., 1]))[..., None]
    return np.where(use1, v1, v2)


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
    over a grid, with zs = lambda + i eps on the line and (1 - eps) e^{i theta}
    on the circle along SCHEDULE.  For each key returns (value, error,
    converged) arrays, plus 'inf_<key>'/'div_<key>' blowup flags."""
    out = {}
    for k, arr in _sample_stack(kernel, grid, circle, SCHEDULE).items():
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


def _sample_stack(kernel, grid, circle: bool, schedule) -> dict:
    """{key: (K, N) samples} of kernel(zs) along the schedule, one kernel
    call per stage: zs = lambda + i eps on the line, (1 - eps) e^{i theta}
    on the circle."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps) for eps in schedule]
    return {k: np.array([row[k] for row in rows]) for k in rows[0]}


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


def phase_verdict(fam: SweepFamily, value: float, ok: bool) -> str:
    """CSV verdict of one phase value: interior, exterior (edge on the circle)."""
    if not ok:
        return "undetermined"
    lo, hi = fam.phase_range
    if lo < value < hi:
        return "interior"
    return "edge" if fam.circle else "exterior"


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
