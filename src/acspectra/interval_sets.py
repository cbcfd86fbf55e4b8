"""Exact algebra of finite unions of real intervals and circle arcs.

Carriers are the real line and the unit circle (angles in [0, 2*pi)).  Sets are
canonical finite unions of pairwise disjoint intervals with open/closed endpoint
flags plus isolated points.  The essential closure of a set A is

    {x : |A intersect (x - eps, x + eps)| > 0 for every eps > 0},

which for a finite union equals the closure of the union of its nondegenerate
intervals with all isolated points dropped.  A generated "fat" family (open
intervals of geometrically shrinking radius around an enumerated sequence of
centers) is supported with explicit truncation-tail bookkeeping.

Canonicalization and the set operations are sort-based, O(n log n) in the
number of endpoints: one sort of the breaks, then one sweep that carries the
covering depth across them (`_cover`).  `contains_mask` tests a whole grid
with one `searchsorted` over the canonical endpoints.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

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

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _piece(raw) -> tuple:
    """(lo, hi, lo_closed, hi_closed) of an interval or arc spec: (lo, hi)
    closed, (lo, hi, flags) with a flag code, or (lo, hi, lo_closed, hi_closed)."""
    n = len(raw) if isinstance(raw, (list, tuple)) else 0
    if n == 3 and isinstance(raw[2], str) and raw[2] in _FLAG_CODES:
        lo_c, hi_c = _FLAG_CODES[raw[2]]
    elif n == 2:
        lo_c = hi_c = True
    elif n == 4:
        lo_c, hi_c = bool(raw[2]), bool(raw[3])
    else:
        raise ValueError(f"interval spec must be (lo, hi), (lo, hi, flags) with flags one of "
                         f"{sorted(_FLAG_CODES)}, or (lo, hi, lo_closed, hi_closed); got {raw!r}")
    try:
        return float(raw[0]), float(raw[1]), lo_c, hi_c
    except (TypeError, ValueError):
        raise ValueError(f"interval endpoints must be numbers, got {raw!r}") from None


def _as_interval(raw) -> Interval:
    return raw if isinstance(raw, Interval) else Interval(*_piece(raw))


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
        return bool(contains_mask(self, [x])[0])


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
    return _assemble_clean(breaks, *_cover(breaks, prims, pts))


def _cover(breaks, prims, pts):
    """Membership of a union of intervals and points at every break and gap.

    breaks: sorted distinct reals holding every endpoint of prims and every
    point of pts.  One pass over the breaks carries the number of intervals
    covering the gap just left of the current break; returns (point_on,
    gap_on) as _assemble_clean takes them.
    """
    index = {b: i for i, b in enumerate(breaks)}
    n = len(breaks)
    starts = [0] * n
    ends = [0] * n
    closed = [False] * n
    for iv in prims:
        i, j = index[iv.lo], index[iv.hi]
        if i == j:
            # degenerate: only its closed endpoint is a member, no gap is
            closed[i] = closed[i] or iv.lo_closed or iv.hi_closed
            continue
        starts[i] += 1
        ends[j] += 1
        closed[i] = closed[i] or iv.lo_closed
        closed[j] = closed[j] or iv.hi_closed
    for p in pts:
        closed[index[p]] = True
    point_on = []
    gap_on = []
    depth = 0
    for i in range(n):
        # depth - ends[i] intervals hold breaks[i] strictly inside
        inside = depth - ends[i]
        point_on.append(closed[i] or inside > 0)
        depth = inside + starts[i]
        gap_on.append(depth > 0)
    gap_on.pop()
    return point_on, gap_on


def _membership_tables(a: RealIntervalSet, b: RealIntervalSet):
    breaks = sorted({iv.lo for iv in a.intervals} | {iv.hi for iv in a.intervals}
                    | {iv.lo for iv in b.intervals} | {iv.hi for iv in b.intervals}
                    | set(a.isolated_points) | set(b.isolated_points))
    a_pt, a_gap = _cover(breaks, a.intervals, a.isolated_points)
    b_pt, b_gap = _cover(breaks, b.intervals, b.isolated_points)
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


def contains_mask(s, xs) -> np.ndarray:
    """Boolean array of membership in a canonical line or circle set over xs."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(s, CircleArcSet):
        # the angle reduced into [0, 2pi) and one turn above it, against the
        # arcs read as line intervals
        t = np.fmod(xs, TWO_PI)
        t = np.where(t < 0.0, t + TWO_PI, t)
        t = np.where(t == TWO_PI, 0.0, t)
        ends = [(a.theta1, a.theta2, a.lo_closed, a.hi_closed) for a in s.arcs]
        pts = [_norm_angle(p) for p in s.isolated_points]
        return (_pieces_mask(ends, t) | _pieces_mask(ends, t + TWO_PI)
                | np.isin(t, pts))
    ends = [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in s.intervals]
    return _pieces_mask(ends, xs) | np.isin(xs, list(s.isolated_points))


def _pieces_mask(ends, xs) -> np.ndarray:
    """Membership of xs in sorted disjoint (lo, hi, lo_closed, hi_closed) pieces."""
    if not ends:
        return np.zeros(xs.shape, dtype=bool)
    lo, hi, lo_c, hi_c = (np.array(col) for col in zip(*ends))
    # the last piece starting at or left of x is the only one that can hold it
    k = np.searchsorted(lo, xs, side="right") - 1
    kk = np.maximum(k, 0)
    lo, hi, lo_c, hi_c = lo[kk], hi[kk], lo_c[kk], hi_c[kk]
    inside = ((lo < xs) & (xs < hi)) | ((xs == lo) & lo_c) | ((xs == hi) & hi_c)
    return (k >= 0) & inside


def lebesgue_measure(s):
    """(lower, upper) Lebesgue measure; they coincide except for generated families."""
    if isinstance(s, GeneratedFatSet):
        lo = s.truncated_set().measure()
        return (lo, lo + s.tail_measure_bound)
    m = s.measure()
    return (m, m)


def equivalent_supports(s, s_prime, mu) -> bool:
    """True iff both Lebesgue and mu give the symmetric difference zero mass
    (at most 1e-12).

    mu is a set-measure oracle: callable on a canonical set of the same carrier.
    """
    sd = set_algebra(s, s_prime, "symmetric_difference")
    lm = lebesgue_measure(sd)[1]
    return lm <= 1e-12 and abs(mu(sd)) <= 1e-12


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
        return bool(contains_mask(self, [theta])[0])

    def _to_line(self) -> RealIntervalSet:
        """Split wrap-around arcs at angle 0; line representative on [0, 2pi)."""
        prims = []
        pts = [_norm_angle(p) for p in self.isolated_points]
        for a in self.arcs:
            if a.theta2 < TWO_PI:
                prims.append((a.theta1, a.theta2, a.lo_closed, a.hi_closed))
            else:
                prims.append((a.theta1, TWO_PI, a.lo_closed, False))
                if a.theta2 > TWO_PI:
                    prims.append((0.0, a.theta2 - TWO_PI, True, a.hi_closed))
                elif a.hi_closed:
                    pts.append(0.0)     # a closed end at 2pi is the angle 0
        return canonicalize(prims, pts)

    @staticmethod
    def _from_line(ris: RealIntervalSet) -> "CircleArcSet":
        """Arcs of a line representative on [0, 2pi).  Where angle 0 is
        covered, the component ending at 2pi (within 1e-15) continues through
        it into the component starting at 0, or into the point 0 if it ends
        exactly at 2pi.  A component from 0 to 2pi is the full circle, less
        angle 0 when it is open at both ends."""
        arcs = [Arc(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in ris.intervals]
        pts = list(ris.isolated_points)
        zero = Arc(0.0, 0.0, True, True) if 0.0 in pts else None
        first = arcs[0] if arcs and arcs[0].theta1 == 0.0 else zero
        last = next((a for a in arcs if a.theta2 >= TWO_PI - 1e-15), None)
        if first and last and (first.lo_closed or last.hi_closed) \
                and (first is not zero or last.theta2 == TWO_PI):
            if first is last:
                return full_circle()
            arcs = [Arc(last.theta1, first.theta2 + TWO_PI, last.lo_closed, first.hi_closed)] \
                + [a for a in arcs if a is not first and a is not last]
            pts = [p for p in pts if p != 0.0]
        elif first and first is last:
            arcs = [Arc(0.0, TWO_PI, False, False)]
        arcs.sort(key=lambda a: a.theta1)
        return CircleArcSet(tuple(arcs), tuple(pts))

    def essential_closure(self) -> "CircleArcSet":
        """The line's rule: close every arc, canonicalize once through the
        line representative, drop isolated points."""
        closed = CircleArcSet(tuple(Arc(a.theta1, a.theta2, True, True) for a in self.arcs))
        return CircleArcSet(CircleArcSet._from_line(closed._to_line()).arcs)


def full_circle() -> CircleArcSet:
    return CircleArcSet((Arc(0.0, TWO_PI, True, False),), ())


def circle_set(arcs, points=()) -> CircleArcSet:
    """Canonical circle set from (theta1, theta2[, flags]) pairs; theta2 may exceed
    theta1 by up to 2pi; angles are reduced mod 2pi."""
    prims = []
    for raw in arcs:
        t1, t2, lo_c, hi_c = _piece(raw)
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
        a2 = t2 if a1 == t1 else a1 + (t2 - t1)
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


def fat_density_report(g: GeneratedFatSet) -> FatDensityReport:
    """Density test per point of a 1e-3 grid over the hull of the centers: does
    (x - eps, x + eps) meet the family with positive measure for eps down to
    eps_min = 1e-6?

    "truncated": certified by the truncated union alone.  "tail": the window meets
    the open hull (0, 1) of the enumerated centers, so beyond-truncation members
    contribute positive (but < tail_measure_bound) mass; reported, never absorbed.
    """
    trunc = g.truncated_set()
    hull_lo = min(g.centers)
    hull_hi = max(g.centers)
    eps_min = 1e-6
    n = int(round((hull_hi - hull_lo) / 1e-3)) + 1
    grid = [hull_lo + k * 1e-3 for k in range(n)]
    step = grid[1] - grid[0] if n > 1 else eps_min
    los = [iv.lo for iv in trunc.intervals]
    his = [iv.hi for iv in trunc.intervals]
    verdicts = []
    passing = []
    for x in grid:
        lo, hi = x - eps_min, x + eps_min
        # (lo, hi) meets the sorted disjoint intervals with positive measure
        # iff the first one ending right of lo starts left of hi
        k = bisect.bisect_right(his, lo)
        if lo < hi and k < len(his) and los[k] < hi:
            verdicts.append((x, "truncated"))
            passing.append(x)
        elif lo < hull_hi and hi > hull_lo:
            verdicts.append((x, "tail"))
            passing.append(x)
        else:
            verdicts.append((x, "fail"))
    closure = points_hull(passing, step)
    return FatDensityReport(closure, tuple(verdicts), eps_min, g.tail_measure_bound, step)


def angles_hull(thetas, step: float) -> CircleArcSet:
    """Closed arc hull of maximal runs of grid angles, read mod 2pi.  The
    last angle one turn down and the first one turn up carry a run through
    angle 0 to 0 and to 2pi; the runs are then cut to [0, 2pi]."""
    ts = np.sort(np.remainder(np.asarray(thetas, dtype=float), TWO_PI))
    hull = points_hull(np.concatenate([ts[-1:] - TWO_PI, ts, ts[:1] + TWO_PI]), step)
    arcs = [(max(iv.lo, 0.0), min(iv.hi, TWO_PI), "cc") for iv in hull.intervals
            if iv.lo < TWO_PI and iv.hi > 0.0]
    return circle_set(arcs, [t for t in hull.isolated_points if 0.0 <= t < TWO_PI])


def points_hull(xs, step: float) -> RealIntervalSet:
    """Closed hull of maximal runs of consecutive grid points (spacing <= 1.5*step)."""
    # stable, as sorted() is: of equal points (0.0 and -0.0) the first one given starts a run
    xs = np.sort(np.asarray(xs, dtype=float), kind="stable")
    if not xs.size:
        return RealIntervalSet()
    cut = np.flatnonzero(~(np.diff(xs) <= 1.5 * step))
    los = xs[np.concatenate([[0], cut + 1])].tolist()
    his = xs[np.concatenate([cut, [xs.size - 1]])].tolist()
    return canonicalize([(lo, hi, True, True) for lo, hi in zip(los, his)])


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
    """Set from its JSON descriptor; a descriptor of the wrong shape raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"set JSON must be an object, not {type(d).__name__}")
    if "family" in d:
        if d["family"] != "rational_fat":
            raise ValueError(f"unknown generated family {d['family']!r}")
        if "truncation" not in d:
            raise ValueError("rational_fat set JSON needs a truncation")
        return GeneratedFatSet.rational_fat(_json_value(int, d["truncation"], "truncation"),
                                            _json_value(float, d.get("radius_base", 4),
                                                        "radius_base"))
    carrier = d.get("carrier", "line")
    ivs = _json_list(d, "intervals")
    pts = _json_list(d, "points")
    for p in pts:
        _json_value(float, p, "point")
    if carrier == "circle":
        return circle_set(ivs, pts)
    if carrier == "line":
        return canonicalize(ivs, pts)
    raise ValueError(f"unknown carrier {carrier!r}")


def _json_list(d: dict, key: str) -> list:
    v = d.get(key, [])
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"set JSON {key!r} must be a list, not {type(v).__name__}")
    return v


def _json_value(convert, v, what: str):
    try:
        return convert(v)
    except (TypeError, ValueError):
        raise ValueError(f"set JSON {what} must be a number, not {v!r}") from None
