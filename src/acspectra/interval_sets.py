"""Exact algebra of finite unions of real intervals and circle arcs.

Carriers are the real line and the unit circle (angles in [0, 2*pi)).  Sets are
canonical finite unions of pairwise disjoint intervals with open/closed endpoint
flags plus isolated points.  The essential closure of a set A is

    {x : |A intersect (x - eps, x + eps)| > 0 for every eps > 0},

which for a finite union equals the closure of the union of its nondegenerate
intervals with all isolated points dropped.  A generated "fat" family (open
intervals of geometrically shrinking radius around an enumerated sequence of
centers) is supported with explicit truncation-tail bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

TWO_PI = 2.0 * math.pi

_FLAG_CODES = {"oo": (False, False), "oc": (False, True),
               "co": (True, False), "cc": (True, True)}
_CODE_FLAGS = {v: k for k, v in _FLAG_CODES.items()}


@dataclass(frozen=True, order=True)
class Interval:
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval lo > hi: ({self.lo}, {self.hi})")

    def contains(self, x: float) -> bool:
        if self.lo < x < self.hi:
            return True
        if x == self.lo and self.lo_closed:
            return True
        if x == self.hi and self.hi_closed:
            return True
        return False

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _as_interval(raw) -> Interval:
    if isinstance(raw, Interval):
        return raw
    parts = list(raw)
    if len(parts) == 3 and isinstance(parts[2], str):
        lo_c, hi_c = _FLAG_CODES[parts[2]]
        return Interval(float(parts[0]), float(parts[1]), lo_c, hi_c)
    if len(parts) == 2:
        return Interval(float(parts[0]), float(parts[1]), True, True)
    if len(parts) == 4:
        return Interval(float(parts[0]), float(parts[1]), bool(parts[2]), bool(parts[3]))
    raise ValueError(f"cannot interpret interval spec {raw!r}")


def _assemble_clean(breaks, point_on, gap_on) -> "RealIntervalSet":
    """Build a canonical set from membership verdicts.

    breaks: sorted distinct reals; point_on[i]: membership of breaks[i];
    gap_on[i]: membership of the open gap (breaks[i], breaks[i+1]).
    Membership is constant on each gap by construction.
    """
    intervals = []
    points = []
    n = len(breaks)
    cur_lo = None
    cur_lo_closed = False
    for i in range(n):
        b_on = point_on[i]
        g_on = gap_on[i] if i < n - 1 else False
        if cur_lo is None:
            if g_on:
                cur_lo = breaks[i]
                cur_lo_closed = b_on
            elif b_on:
                points.append(breaks[i])
        else:
            if g_on and b_on:
                continue
            if g_on and not b_on:
                # missing point splits the run: (.., breaks[i]) then (breaks[i], ..)
                intervals.append(Interval(cur_lo, breaks[i], cur_lo_closed, False))
                cur_lo = breaks[i]
                cur_lo_closed = False
            else:
                intervals.append(Interval(cur_lo, breaks[i], cur_lo_closed, b_on))
                cur_lo = None
    if cur_lo is not None:
        raise AssertionError("unterminated run in assembler")
    return RealIntervalSet(tuple(intervals), tuple(points))


@dataclass(frozen=True)
class RealIntervalSet:
    """Canonical finite union of disjoint intervals plus isolated points."""

    intervals: tuple = ()
    isolated_points: tuple = ()
    carrier: str = field(default="line", compare=False)

    def measure(self) -> float:
        return math.fsum(iv.length for iv in self.intervals)

    def is_empty(self) -> bool:
        return not self.intervals and not self.isolated_points

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.intervals) or x in self.isolated_points

    def hull(self):
        """(min, max) of the set, or None if empty."""
        xs = [iv.lo for iv in self.intervals] + list(self.isolated_points)
        ys = [iv.hi for iv in self.intervals] + list(self.isolated_points)
        if not xs:
            return None
        return min(xs), max(ys)


def canonicalize(raw_intervals, points=()) -> RealIntervalSet:
    """Canonical form: disjoint sorted intervals, merged where the union is connected.

    Degenerate closed intervals become isolated points; degenerate open ones vanish.
    """
    prims = []
    pts = []
    for raw in raw_intervals:
        iv = _as_interval(raw)
        if iv.lo == iv.hi:
            if iv.lo_closed or iv.hi_closed:
                pts.append(iv.lo)
            continue
        prims.append(iv)
    pts.extend(float(p) for p in points)
    for p in pts:
        if not math.isfinite(p):
            raise ValueError("isolated points must be finite")

    breaks = sorted({iv.lo for iv in prims} | {iv.hi for iv in prims} | set(pts))
    if not breaks:
        return RealIntervalSet()

    def member_point(x):
        return any(iv.contains(x) for iv in prims) or x in set(pts)

    def member_gap(u, v):
        return any(iv.lo <= u and v <= iv.hi for iv in prims)

    point_on = [member_point(x) for x in breaks]
    gap_on = [member_gap(breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]
    return _assemble_clean(breaks, point_on, gap_on)


def _membership_tables(a: RealIntervalSet, b: RealIntervalSet):
    breaks = sorted({iv.lo for iv in a.intervals} | {iv.hi for iv in a.intervals}
                    | {iv.lo for iv in b.intervals} | {iv.hi for iv in b.intervals}
                    | set(a.isolated_points) | set(b.isolated_points))
    a_pt = [a.contains(x) for x in breaks]
    b_pt = [b.contains(x) for x in breaks]

    def gap_member(s, u, v):
        return any(iv.lo <= u and v <= iv.hi for iv in s.intervals)

    a_gap = [gap_member(a, breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]
    b_gap = [gap_member(b, breaks[i], breaks[i + 1]) for i in range(len(breaks) - 1)]
    return breaks, a_pt, b_pt, a_gap, b_gap


_OPS = {
    "union": lambda p, q: p or q,
    "intersect": lambda p, q: p and q,
    "difference": lambda p, q: p and not q,
    "symmetric_difference": lambda p, q: p != q,
}


def set_algebra(a, b, op: str):
    """Exact union/intersect/difference/symmetric_difference on one carrier."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}; use one of {sorted(_OPS)}")
    if isinstance(a, CircleArcSet) != isinstance(b, CircleArcSet):
        raise ValueError("mixed carriers (line vs circle) rejected")
    if isinstance(a, CircleArcSet):
        la, lb = a._to_line(), b._to_line()
        return CircleArcSet._from_line(_line_algebra(la, lb, op))
    return _line_algebra(a, b, op)


def _line_algebra(a: RealIntervalSet, b: RealIntervalSet, op: str) -> RealIntervalSet:
    if a.is_empty() and b.is_empty():
        return RealIntervalSet()
    breaks, a_pt, b_pt, a_gap, b_gap = _membership_tables(a, b)
    f = _OPS[op]
    point_on = [f(p, q) for p, q in zip(a_pt, b_pt)]
    gap_on = [f(p, q) for p, q in zip(a_gap, b_gap)]
    return _assemble_clean(breaks, point_on, gap_on)


def essential_closure(s):
    """Essential closure on the same carrier.

    Finite unions: closure of the union of nondegenerate intervals, isolated
    points dropped; the result is closed and flag-insensitive.  GeneratedFatSet:
    density test on a grid, see fat_density_report.
    """
    if isinstance(s, GeneratedFatSet):
        return fat_density_report(s).closure
    if isinstance(s, CircleArcSet):
        return s.essential_closure()
    closed = [Interval(iv.lo, iv.hi, True, True) for iv in s.intervals]
    return canonicalize(closed)


def widen(s, slack: float):
    """Outward widening of a canonical set by slack on each side, isolated
    points included; on the circle an arc reaching around becomes the full
    circle."""
    if isinstance(s, CircleArcSet):
        if s.is_full() or any(a.length + 2 * slack >= TWO_PI for a in s.arcs):
            return full_circle()
        arcs = [(a.theta1 - slack, a.theta2 + slack, "cc") for a in s.arcs]
        arcs += [(p - slack, p + slack, "cc") for p in s.isolated_points]
        return circle_set(arcs, [])
    ivs = [(iv.lo - slack, iv.hi + slack, "cc") for iv in s.intervals]
    ivs += [(p - slack, p + slack, "cc") for p in s.isolated_points]
    return canonicalize(ivs, [])


def longest_component(s) -> float:
    """Length of the longest interval or arc of a canonical set (0 if none)."""
    pieces = s.arcs if isinstance(s, CircleArcSet) else s.intervals
    return max((p.length for p in pieces), default=0.0)


def lebesgue_measure(s):
    """(lower, upper) Lebesgue measure; they coincide except for generated families."""
    if isinstance(s, GeneratedFatSet):
        lo = s.truncated_set().measure()
        return (lo, lo + s.tail_measure_bound)
    m = s.measure()
    return (m, m)


def equivalent_supports(s, s_prime, mu, tol: float = 1e-12) -> bool:
    """True iff both Lebesgue and mu give the symmetric difference zero mass.

    mu is a set-measure oracle: callable on a canonical set of the same carrier.
    """
    sd = set_algebra(s, s_prime, "symmetric_difference")
    lm = lebesgue_measure(sd)[1]
    return lm <= tol and abs(mu(sd)) <= tol


def lebesgue_oracle(s) -> float:
    """The Lebesgue measure as a set-measure oracle (upper value)."""
    return lebesgue_measure(s)[1]


def atomic_oracle(atoms: dict):
    """Pure point measure oracle: atoms maps location -> mass."""
    def mu(s) -> float:
        total = 0.0
        for x, w in atoms.items():
            if s.contains(x):
                total += w
        return total
    return mu


# ---------------------------------------------------------------------------
# circle carrier

def _norm_angle(t: float) -> float:
    r = math.fmod(t, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    if r == TWO_PI:
        r = 0.0
    return r


@dataclass(frozen=True)
class Arc:
    """Counterclockwise arc from theta1 to theta2; theta1 in [0, 2pi),
    theta2 in (theta1, theta1 + 2pi]. theta2 > 2pi means the arc crosses 0.
    The full circle is the single arc (0, 2pi)."""
    theta1: float
    theta2: float
    lo_closed: bool
    hi_closed: bool

    @property
    def length(self) -> float:
        return self.theta2 - self.theta1


@dataclass(frozen=True)
class CircleArcSet:
    arcs: tuple = ()
    isolated_points: tuple = ()
    carrier: str = field(default="circle", compare=False)

    def measure(self) -> float:
        return math.fsum(a.length for a in self.arcs)

    def is_empty(self) -> bool:
        return not self.arcs and not self.isolated_points

    def is_full(self) -> bool:
        if len(self.arcs) != 1 or abs(self.measure() - TWO_PI) > 1e-15:
            return False
        return self.arcs[0].lo_closed or self.arcs[0].hi_closed

    def contains(self, theta: float) -> bool:
        t = _norm_angle(theta)
        for a in self.arcs:
            for tt in (t, t + TWO_PI):
                if a.theta1 < tt < a.theta2:
                    return True
                if tt == a.theta1 and a.lo_closed:
                    return True
                if tt == a.theta2 and a.hi_closed:
                    return True
        return any(_norm_angle(p) == t for p in self.isolated_points)

    def _to_line(self) -> RealIntervalSet:
        """Split wrap-around arcs at angle 0; line representative on [0, 2pi)."""
        prims = []
        pts = [_norm_angle(p) for p in self.isolated_points]
        for a in self.arcs:
            if a.theta2 <= TWO_PI:
                prims.append((a.theta1, a.theta2, a.lo_closed, a.hi_closed))
            else:
                prims.append((a.theta1, TWO_PI, a.lo_closed, False))
                prims.append((0.0, a.theta2 - TWO_PI, True, a.hi_closed))
        return canonicalize(prims, pts)

    @staticmethod
    def _from_line(ris: RealIntervalSet) -> "CircleArcSet":
        """Rejoin components touching at the 0/2pi cut into a wrap arc."""
        ivs = list(ris.intervals)
        pts = [p for p in ris.isolated_points]
        # covered(0) if some interval starts at 0 closed, ends at 2pi closed,
        # or an isolated point sits at 0
        left = [iv for iv in ivs if iv.lo == 0.0]
        right = [iv for iv in ivs if iv.hi >= TWO_PI - 1e-15 and iv.hi <= TWO_PI]
        arcs = []
        consumed = set()
        if left and right and left[0] is not right[0]:
            l_iv, r_iv = left[0], right[0]
            zero_covered = l_iv.lo_closed or r_iv.hi_closed or (0.0 in pts)
            if zero_covered:
                arcs.append(Arc(r_iv.lo, l_iv.hi + TWO_PI, r_iv.lo_closed, l_iv.hi_closed))
                consumed = {id(l_iv), id(r_iv)}
                pts = [p for p in pts if p != 0.0]
        elif left and right and left[0] is right[0]:
            # single component spanning [0, 2pi]
            iv = left[0]
            if iv.lo_closed or iv.hi_closed or (0.0 in pts):
                return full_circle()
            return CircleArcSet((Arc(0.0, TWO_PI, False, False),),
                                tuple(sorted(p for p in pts if p != 0.0)))
        for iv in ivs:
            if id(iv) in consumed:
                continue
            hi_c = iv.hi_closed
            hi = iv.hi
            if hi > TWO_PI:
                hi = TWO_PI
            arcs.append(Arc(iv.lo, hi, iv.lo_closed, hi_c))
        arcs.sort(key=lambda a: a.theta1)
        return CircleArcSet(tuple(arcs), tuple(sorted(pts)))

    def essential_closure(self) -> "CircleArcSet":
        line = self._to_line()
        nondeg = [Interval(iv.lo, iv.hi, True, True) for iv in line.intervals]
        if not nondeg:
            return CircleArcSet()
        # tile three periods so closure can merge across the cut
        tiled = []
        for k in (-1, 0, 1):
            for iv in nondeg:
                tiled.append((iv.lo + k * TWO_PI, iv.hi + k * TWO_PI, True, True))
        closed = canonicalize(tiled)
        window = canonicalize([(0.0, TWO_PI, True, True)])
        clipped = _line_algebra(closed, window, "intersect")
        return CircleArcSet._from_line(clipped)


def full_circle() -> CircleArcSet:
    return CircleArcSet((Arc(0.0, TWO_PI, True, False),), ())


def circle_set(arcs, points=()) -> CircleArcSet:
    """Canonical circle set from (theta1, theta2[, flags]) pairs; theta2 may exceed
    theta1 by up to 2pi; angles are reduced mod 2pi."""
    prims = []
    for raw in arcs:
        parts = list(raw)
        t1, t2 = float(parts[0]), float(parts[1])
        if len(parts) == 3 and isinstance(parts[2], str):
            lo_c, hi_c = _FLAG_CODES[parts[2]]
        elif len(parts) == 4:
            lo_c, hi_c = bool(parts[2]), bool(parts[3])
        else:
            lo_c, hi_c = True, True
        if t2 < t1:
            t2 += TWO_PI  # (t1, t2) with t2 < t1 read as the wrap-around arc
        if t2 - t1 > TWO_PI + 1e-12:
            raise ValueError("arc longer than the full circle")
        if t2 - t1 >= TWO_PI - 1e-15:
            return full_circle()
        if t2 == t1:
            if lo_c or hi_c:
                prims.append(Arc(_norm_angle(t1), _norm_angle(t1), True, True))
            continue
        a1 = _norm_angle(t1)
        a2 = a1 + (t2 - t1)
        prims.append(Arc(a1, a2, lo_c, hi_c))
    raw_set = CircleArcSet(tuple(prims), tuple(float(p) for p in points))
    # canonicalize via the line representative
    return CircleArcSet._from_line(raw_set._to_line())


# ---------------------------------------------------------------------------
# generated fat family

def rational_enumeration(count: int):
    """First `count` rationals of [0, 1] ordered by denominator then numerator:
    0, 1, 1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ..."""
    out = []
    q = 1
    while len(out) < count:
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                out.append(Fraction(p, q))
                if len(out) == count:
                    break
        q += 1
    return [float(f) for f in out]


@dataclass(frozen=True)
class GeneratedFatSet:
    """Union over n >= 1 of open intervals (c_n - r^-n, c_n + r^-n), truncated at N.

    tail_measure_bound = 2 * sum_{n > N} r^-n = 2 r^-N / (r - 1), in closed form.
    """
    centers: tuple
    radius_base: float = 4.0
    truncation: int = 20
    tail_measure_bound: float = 0.0
    carrier: str = field(default="line", compare=False)

    @staticmethod
    def rational_fat(truncation: int = 20, radius_base: float = 4.0) -> "GeneratedFatSet":
        centers = tuple(rational_enumeration(truncation))
        tail = 2.0 * radius_base ** (-truncation) / (radius_base - 1.0)
        return GeneratedFatSet(centers, radius_base, truncation, tail)

    def radius(self, n: int) -> float:
        """Radius of the n-th interval, n = 1..truncation."""
        return self.radius_base ** (-n)

    def truncated_set(self) -> RealIntervalSet:
        prims = [(c - self.radius(n + 1), c + self.radius(n + 1), False, False)
                 for n, c in enumerate(self.centers)]
        return canonicalize(prims)


@dataclass(frozen=True)
class FatDensityReport:
    closure: RealIntervalSet
    verdicts: tuple          # (x, status) with status in {"truncated", "tail", "fail"}
    eps_min: float
    tail_measure_bound: float
    grid_step: float


def fat_density_report(g: GeneratedFatSet, grid=None, eps_min: float = 1e-6) -> FatDensityReport:
    """Density test per grid point: does (x - eps, x + eps) meet the family with
    positive measure for eps down to eps_min?

    "truncated": certified by the truncated union alone.  "tail": the window meets
    the open hull (0, 1) of the enumerated centers, so beyond-truncation members
    contribute positive (but < tail_measure_bound) mass; reported, never absorbed.
    """
    trunc = g.truncated_set()
    hull_lo = min(g.centers)
    hull_hi = max(g.centers)
    if grid is None:
        step = 1e-3
        n = int(round((hull_hi - hull_lo) / step)) + 1
        grid = [hull_lo + k * step for k in range(n)]
    else:
        grid = list(grid)
    step = grid[1] - grid[0] if len(grid) > 1 else eps_min
    verdicts = []
    passing = []
    window = None
    for x in grid:
        window = canonicalize([(x - eps_min, x + eps_min, False, False)])
        meet = _line_algebra(trunc, window, "intersect")
        if meet.measure() > 0.0:
            verdicts.append((x, "truncated"))
            passing.append(x)
        elif x - eps_min < hull_hi and x + eps_min > hull_lo:
            verdicts.append((x, "tail"))
            passing.append(x)
        else:
            verdicts.append((x, "fail"))
    closure = points_hull(passing, step)
    return FatDensityReport(closure, tuple(verdicts), eps_min, g.tail_measure_bound, step)


def angles_hull(thetas, step: float) -> CircleArcSet:
    """Closed arc hull of maximal runs of grid angles, fusing runs across 0.

    Angles are tiled by one period before the run scan so a run through
    theta = 0 becomes a single arc; the result is clipped back to [0, 2*pi).
    """
    two_pi = 2.0 * math.pi
    tiled = [float(t) % two_pi + k * two_pi for t in thetas for k in (-1, 0, 1)]
    hull = points_hull(tiled, step)
    arcs = []
    for iv in hull.intervals:
        lo, hi = max(iv.lo, 0.0), min(iv.hi, two_pi)
        if lo < hi:
            arcs.append((lo, hi, "cc"))
    pts = [t for t in hull.isolated_points if 0.0 <= t < two_pi]
    return circle_set(arcs, pts)


def points_hull(xs, step: float) -> RealIntervalSet:
    """Closed hull of maximal runs of consecutive grid points (spacing <= 1.5*step)."""
    xs = sorted(float(x) for x in xs)
    if not xs:
        return RealIntervalSet()
    prims = []
    run_lo = xs[0]
    prev = xs[0]
    for x in xs[1:]:
        if x - prev <= 1.5 * step:
            prev = x
            continue
        prims.append((run_lo, prev, True, True))
        run_lo = x
        prev = x
    prims.append((run_lo, prev, True, True))
    return canonicalize(prims)


# ---------------------------------------------------------------------------
# JSON descriptors

def set_to_json(s) -> dict:
    if isinstance(s, GeneratedFatSet):
        return {"family": "rational_fat", "radius_base": s.radius_base,
                "truncation": s.truncation}
    if isinstance(s, CircleArcSet):
        return {"carrier": "circle",
                "intervals": [[a.theta1, a.theta2, _CODE_FLAGS[(a.lo_closed, a.hi_closed)]]
                              for a in s.arcs],
                "points": list(s.isolated_points)}
    return {"carrier": "line",
            "intervals": [[iv.lo, iv.hi, _CODE_FLAGS[(iv.lo_closed, iv.hi_closed)]]
                          for iv in s.intervals],
            "points": list(s.isolated_points)}


def set_from_json(d: dict):
    if "family" in d:
        if d["family"] != "rational_fat":
            raise ValueError(f"unknown generated family {d['family']!r}")
        return GeneratedFatSet.rational_fat(int(d["truncation"]),
                                            float(d.get("radius_base", 4)))
    carrier = d.get("carrier", "line")
    ivs = d.get("intervals", [])
    pts = d.get("points", [])
    if carrier == "circle":
        return circle_set(ivs, pts)
    if carrier == "line":
        return canonicalize(ivs, pts)
    raise ValueError(f"unknown carrier {carrier!r}")
