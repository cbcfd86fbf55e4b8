"""Boundary limits and support classification for Herglotz and Caratheodory functions.

A Herglotz function maps the upper half-plane into itself; a Caratheodory
function maps the unit disk into the closed right half-plane.  Almost-everywhere
boundary values are reached by a geometric schedule (eps_k = 0.1 * 2^-k toward
the line, radii r_k = 1 - 0.1 * 2^-k toward the circle) with two-stage
Richardson extrapolation.  Classification at a boundary point:

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
classifier and CSV writer, with each family's conventions passed as data.
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonConvergent
from .interval_sets import (angles_hull, essential_closure, longest_component,
                            points_hull, set_algebra, widen)

DIVERGENCE_CAP = 1e8
INFINITE_LIMIT = 1e6
AC_IM_TOL = 1e-6
MASS_TOL = 1e-6


def geometric_schedule(start: float = 0.1, factor: float = 0.5, stages: int = 13):
    """Distances to the boundary: start * factor^k, k = 0..stages-1."""
    if stages < 4:
        raise ValueError("schedule needs at least 4 stages")
    if not (0 < factor < 1) or start <= 0:
        raise ValueError("schedule must be strictly monotone toward the boundary")
    return tuple(start * factor ** k for k in range(stages))


def richardson_sequence(values):
    """Two-stage Richardson extrapolation along axis 0.

    values: array (K, ...) of samples on a ratio-2 geometric schedule, ordered
    toward the boundary.  Returns (value, error, converged).  Convergence means
    the final extrapolant differences contract by a factor >= 2 (exact
    agreement counts as converged).
    """
    v = np.asarray(values, dtype=complex)
    w = 2.0 * v[1:] - v[:-1]
    u = (4.0 * w[1:] - w[:-1]) / 3.0
    value = u[-1]
    d = np.abs(np.diff(u, axis=0))
    if d.shape[0] == 0:
        return value, np.zeros_like(value, dtype=float), np.ones(value.shape, dtype=bool)
    err = d[-1]
    scale = 1.0 + np.abs(value)
    tiny = err <= 1e-13 * scale
    if d.shape[0] >= 2:
        contracting = d[-1] <= 0.5 * d[-2] + 1e-15 * scale
    else:
        contracting = np.ones(value.shape, dtype=bool)
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


def _approach_points(f: BoundaryFunction, p, schedule):
    """Interior points marching toward boundary point p along the schedule.

    Returns (points, location, distances); distances are the representable
    gaps to the boundary (1 - fl(1 - eps) on the circle), which the scaled
    point-mass weights must use to avoid cancellation noise near r = 1.
    """
    if f.kind == "herglotz":
        lam = float(p)
        return [complex(lam, eps) for eps in schedule], lam, list(schedule)
    theta = _as_angle(p)
    zeta = cmath.exp(1j * theta)
    radii = [1.0 - eps for eps in schedule]
    return [r * zeta for r in radii], theta, [1.0 - r for r in radii]


def _as_angle(p) -> float:
    if isinstance(p, complex):
        if abs(abs(p) - 1.0) > 1e-9:
            raise ValueError("circle boundary point must be unimodular")
        return math.atan2(p.imag, p.real) % (2.0 * math.pi)
    return float(p) % (2.0 * math.pi)


MIN_EPS_LINE = 1e-13
MIN_EPS_CIRCLE = 3e-9   # keeps 1 - fl(1 - eps) accurate to ~3e-8 relative


def _sample_with_extension(f: BoundaryFunction, p, schedule):
    """Samples along the schedule, deepened while |f| keeps growing geometrically.

    A point mass scales like eps^-1, so the default schedule alone cannot reach
    the 1e6 blowup threshold; continuing the same ratio toward the depth floor
    lets a true singularity cross it while bounded tails stop the extension at
    once.  Returns (samples, schedule_used).
    """
    min_eps = MIN_EPS_LINE if f.kind == "herglotz" else MIN_EPS_CIRCLE
    sched = list(schedule)
    factor = sched[1] / sched[0]
    samples = [f(z) for z in _approach_points(f, p, sched)[0]]
    while sched[-1] * factor >= min_eps:
        mags = np.abs(samples[-4:])
        if mags[-1] > DIVERGENCE_CAP:
            break
        if not (np.all(np.diff(mags) > 0) and mags[-1] > 1.5 * mags[0]):
            break
        sched.append(sched[-1] * factor)
        samples.append(f(_approach_points(f, p, sched[-1:])[0][0]))
    return np.array(samples, dtype=complex), tuple(sched)


def boundary_value(f: BoundaryFunction, p, schedule=None) -> BoundaryValue:
    """Richardson-extrapolated boundary limit with an error estimate.

    Flags divergence when |f| exceeds 1e8; raises NonConvergent when the
    extrapolant differences fail to contract by a factor of 2 while the value
    stays finite and not obviously blowing up.
    """
    schedule = schedule or geometric_schedule()
    samples, _ = _sample_with_extension(f, p, schedule)
    infinite, diverged = (bool(flag) for flag in blowup_flags(np.abs(samples)))
    value, err, converged = richardson_sequence(samples)
    if diverged or infinite:
        return BoundaryValue(complex(value), float(err), diverged, infinite, tuple(samples))
    if not bool(converged):
        raise NonConvergent(
            f"boundary extrapolation failed to contract at {p!r} "
            f"(last differences {float(err):.3e})")
    return BoundaryValue(complex(value), float(err), False, False, tuple(samples))


def scaled_limit(f: BoundaryFunction, p, schedule=None):
    """Point-mass functional: lim (-i eps) m(lambda + i eps), resp.
    lim ((1-r)/2) f(r zeta).  Returns (value, error, converged)."""
    schedule = schedule or geometric_schedule()
    pts, _, dists = _approach_points(f, p, schedule)
    if f.kind == "herglotz":
        weights = np.array([-1j * d for d in dists])
    else:
        weights = np.array([d / 2.0 for d in dists])
    samples = np.array([f(z) for z in pts], dtype=complex) * weights
    value, err, converged = richardson_sequence(samples)
    return complex(value), float(err), bool(converged)


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


def classify_point(f: BoundaryFunction, p, schedule=None,
                   ac_tol: float = AC_IM_TOL, mass_tol: float = MASS_TOL) -> PointClassification:
    """Limit trichotomy at one boundary point.

    The singular test is run in two variants: blowup of the Herglotz-positive
    part (Im on the line, Re on the circle) and blowup of |value|; both are
    reported and a disagreement downgrades nothing silently.
    """
    schedule = schedule or geometric_schedule()
    loc = float(p) if f.kind == "herglotz" else _as_angle(p)
    samples, used = _sample_with_extension(f, p, schedule)
    part = samples.imag if f.kind == "herglotz" else samples.real

    def blows(seq):
        infinite, diverged = blowup_flags(np.abs(seq))
        return bool(infinite | diverged)

    singular_unprimed = blows(part)
    singular_primed = blows(samples)
    agree = singular_unprimed == singular_primed

    if singular_unprimed or singular_primed:
        sval, serr, sconv = scaled_limit(f, p, used)
        if sconv and sval.real > mass_tol:
            verdict, extra = "pp", {"point_mass": float(sval.real)}
        elif sconv and abs(sval) <= mass_tol:
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
    if pos_part > ac_tol:
        return PointClassification(loc, "ac", value, err)
    if abs(pos_part) <= ac_tol:
        return PointClassification(loc, "regular", value, err)
    return PointClassification(loc, "undetermined", value, err,
                               diagnostics="negative Herglotz/Caratheodory part at the boundary")


def ac_density(f: BoundaryFunction, p, schedule=None) -> float:
    """pi^-1 Im m(lambda + i0) on the line, pi^-1 Re f(zeta) on the circle."""
    c = classify_point(f, p, schedule)
    if c.verdict == "ac":
        part = c.limit_value.imag if f.kind == "herglotz" else c.limit_value.real
        return part / math.pi
    if c.verdict == "regular":
        return 0.0
    raise ValueError(f"ac_density needs an ac or regular point, got {c.verdict!r} at {p!r}")


def essential_support_ac(f: BoundaryFunction, grid, schedule=None, ac_tol: float = AC_IM_TOL):
    """Essential closure of the hull of maximal ac-verdict runs on the grid.

    Returns (set, verdicts); undetermined points are excluded from the hull and
    kept in the verdict list for audit.
    """
    grid = list(grid)
    if len(grid) < 2:
        raise ValueError("grid needs at least 2 points")
    verdicts = [classify_point(f, p, schedule, ac_tol=ac_tol) for p in grid]
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
    measure_probe: callable = field(compare=False, default=None)


def herglotz_representation(f: BoundaryFunction, measure_probe=None,
                            etas=(8.0, 16.0, 32.0, 64.0, 128.0)) -> HerglotzRepresentation:
    if f.kind != "herglotz":
        raise ValueError("representation constants are for the half-plane kind")
    c = f(1j).real
    ratios = np.array([f(1j * e) / (1j * e) for e in etas])
    d = max(float(ratios[-1].real + 2.0 * (ratios[-1].real - ratios[-2].real)), 0.0)
    return HerglotzRepresentation(float(c), d, measure_probe)


def classification_csv(f: BoundaryFunction, grid, out=None, schedule=None) -> str:
    """Per-grid-point CSV: location, Re, Im, error_estimate, verdict, point_mass."""
    rows = []
    for p in grid:
        cp = classify_point(f, p, schedule)
        re = cp.limit_value.real if math.isfinite(cp.limit_value.real) else "inf"
        im = cp.limit_value.imag if math.isfinite(cp.limit_value.imag) else "inf"
        err = cp.error if math.isfinite(cp.error) else "inf"
        rows.append([f"{cp.location:.12g}", re, im, err, cp.verdict, f"{cp.point_mass:.12g}"])
    return write_csv(["location", "re", "im", "error_estimate", "verdict", "point_mass"],
                     rows, out)


def write_csv(header, rows, out=None) -> str:
    """CSV text with LF line ends; also written to the path out when given."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    text = buf.getvalue()
    if out is not None:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# Grid sweeps shared by the operator families

def plus_side(side) -> bool:
    """True for the right half line ('+'), False for the left ('-')."""
    if side in ("+", "plus", 1, +1):
        return True
    if side in ("-", "minus", -1):
        return False
    raise ValueError(f"side must be '+' or '-', got {side!r}")


def require_off_axis(z) -> complex:
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("spectral parameter must lie off the real axis")
    return z


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


def boundary_sweep(kernel, grid, circle: bool, schedule=None) -> dict:
    """Richardson-extrapolated boundary values of kernel(zs) -> {key: array}
    over a grid, with zs = lambda + i eps on the line and (1 - eps) e^{i theta}
    on the circle along the schedule.  For each key returns (value, error,
    converged) arrays, plus 'inf_<key>'/'div_<key>' blowup flags."""
    grid = np.asarray(grid, dtype=float)
    zeta = np.exp(1j * grid) if circle else None
    rows = [kernel((1.0 - eps) * zeta if circle else grid + 1j * eps)
            for eps in schedule or geometric_schedule()]
    out = {}
    for k in rows[0]:
        arr = np.array([row[k] for row in rows])
        out[k] = richardson_sequence(arr)
        out["inf_" + k], out["div_" + k] = blowup_flags(np.abs(arr))
    return out


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


def sweep_ac_spectrum(fam: SweepFamily, op, grid, n0, check_site, xi_tol: float):
    """Essential closure of the widened grid hull of the interior-phase
    points; a disagreement with check_site beyond two grid steps raises."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    lo, hi = fam.phase_range

    def one_site(site):
        vals, _, ok = fam.phase(op, grid, site)
        with np.errstate(invalid="ignore"):
            passing = grid[ok & (vals > lo + xi_tol) & (vals < hi - xi_tol)]
        return essential_closure(widen(fam.hull(passing, step), step))

    main = one_site(n0)
    other = one_site(check_site)
    if longest_component(set_algebra(main, other, "symmetric_difference")) > 2.0 * step + 1e-12:
        raise RuntimeError(
            f"ac spectrum disagrees between reference {fam.site_word} {n0} and {check_site}")
    return main


def sweep_reflectionless(fam: SweepFamily, op, E, grid, sites, tol: float) -> ReflectionlessReport:
    """Boundary matching of the pair on the grid points in E at every site:
    M_+ is the reflection of M_- (conj across the line, -conj across the
    circle) at more than 99% of the points, phase at its center."""
    if E.measure() <= 0.0:
        raise ValueError("reflectionless test needs a set of positive measure")
    if len(sites) < 2:
        raise ValueError(f"need at least 2 reference {fam.site_word}")
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    inside = np.array([E.contains(x) for x in grid])
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
        bd = fam.sweep(op, lams, site)
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
        sites=tuple(sites), n_points=int(lams.size), defect_points=tuple(sorted(defects)),
        xi_fraction=xi_fraction,
        witness_residual=witness if verdict else math.nan,
        details=f"{lams.size} grid {'angles' if fam.circle else 'points'} in E "
                f"at {fam.site_word} {tuple(sites)}")


def sweep_multiplicity_sets(fam: SweepFamily, op, grid, n0, tol: float):
    """Grid hulls (M2, M1) of the uniform-multiplicity sets from the
    boundary pair; a value is off the axis when nonreal on the line
    (|Im v| > tol), off the imaginary axis on the circle (|Re v| > tol (1 + |v|))."""
    grid = fam.grid(op) if grid is None else np.asarray(grid, dtype=float)
    step = float(grid[1] - grid[0])
    bd = fam.sweep(op, grid, n0)

    def side(key):
        v, e, c = bd[key]
        inf = bd["inf_" + key] | bd["div_" + key]
        fin = relaxed_ok(v, e, c) & ~inf & np.isfinite(v)
        off = fin & (np.abs(v.real) > tol * (1.0 + np.abs(v)) if fam.circle
                     else np.abs(v.imag) > tol)
        return v, inf, off, fin & ~off

    (Mp, infp, off_p, on_p), (Mm, infm, off_m, on_m) = (side(key) for key in fam.pair)
    equal_on = on_p & on_m & (np.abs(Mp - Mm) <= tol * (1.0 + np.abs(Mp)))

    mask2 = off_p & off_m
    mask1 = equal_on | (infp & infm) | (on_p & off_m) | (on_m & off_p)
    return fam.hull(grid[mask2], step), fam.hull(grid[mask1], step)
