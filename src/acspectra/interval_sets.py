"""Exact algebra of finite unions of real intervals and circle arcs.

Carriers are the real line and the unit circle (angles in [0, 2*pi)).  Sets are
canonical finite unions of pairwise disjoint intervals with open/closed endpoint
flags plus isolated points.  The essential closure of a set A is

    {x : |A intersect (x - eps, x + eps)| > 0 for every eps > 0},

which for a finite union equals the closure of the union of its nondegenerate
intervals with all isolated points dropped.  A generated "fat" family (open
intervals of radius radius_base^-n around the first `truncation` rationals of
[0, 1]) is supported with explicit truncation-tail bookkeeping.

Canonicalization and the set operations are one array sweep (`_sweep`),
O(n log n) in the number of endpoints: an argsort of all endpoints (the
stable one on a canonical set's sorted runs, the default one on unsorted
ends), per-break counts (`np.add.reduceat`, where breaks tie) and the
covering depth from `cumsum`.  Of equal breaks (0.0 and -0.0) the first
stands, whichever sort ran: left ends, then right ends, then points, each in
input order.  The essential closure merges a set's touching rows in one pass.
Specs of one documented form are read a column at a time (`_columns`), any
other input spec by spec (`_piece`); either way the first malformed piece in
input order raises its own error.
A line or circle set holds just what the sweep reads and writes: a read-only
(n, 4) float array of (lo, hi, lo_closed, hi_closed) endpoint rows, flags
1.0 or 0.0, and a read-only array of its isolated points.  A circle set's
rows are its line representative on [0, 2pi), as the sweep gave them: an
arc through angle 0 is a row ending at 2pi, open, and a row from 0, and
angle 0 is held by a row from 0 closed or by the point 0.  So both carriers
take one path through the set operations, the closure and membership, and
an arc's end is the float it was given or the sweep produced.  The pieces
(`.intervals`, `.arcs`) and `.isolated_points` are views, tuples of
Interval or Arc records (typing.NamedTuple) and of Python floats built on
each access; the arcs join across angle 0 there alone (`_shown`), as do a
set's `repr`, `==`, `hash`, measure and JSON, so -0.0 equals 0.0 and each
set keeps the zero it was built with.  `contains_mask` tests a whole grid
with one `searchsorted` over the endpoints, and over the points too unless
they are few.  A grid hull's runs are sorted and apart, so the hulls build
their sets with no sweep.
"""

from __future__ import annotations

import math
import numbers
import operator
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import NamedTuple

import numpy as np

from .errors import check_keys, check_number

TWO_PI = 2.0 * math.pi

_FLAG_CODES = {"oo": (False, False), "oc": (False, True),
               "co": (True, False), "cc": (True, True)}
_CODES = np.array(list(_FLAG_CODES))    # code 2 * lo_closed + hi_closed


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


_NO_POINTS = _frozen(np.empty(0))


class _IntervalFields(NamedTuple):
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @property
    def length(self) -> float:
        return self.hi - self.lo


class Interval(_IntervalFields):
    """An interval (lo, hi) with its endpoint flags, as an immutable tuple
    record; constructing one checks that lo <= hi are finite."""
    __slots__ = ()

    def __new__(cls, lo, hi, lo_closed, hi_closed):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("interval endpoints must be finite")
        if lo > hi:
            raise ValueError(f"interval lo > hi: ({lo}, {hi})")
        return super().__new__(cls, lo, hi, lo_closed, hi_closed)


def _piece(raw) -> tuple:
    """(lo, hi, lo_closed, hi_closed) of an interval or arc spec: (lo, hi)
    closed, (lo, hi, flags) with a flag code, or (lo, hi, lo_closed,
    hi_closed) with two booleans (a number or a string is refused, not read
    by its truth value)."""
    n = len(raw) if isinstance(raw, (list, tuple)) else 0
    if n == 3 and isinstance(raw[2], str) and raw[2] in _FLAG_CODES:
        lo_c, hi_c = _FLAG_CODES[raw[2]]
    elif n == 2:
        lo_c = hi_c = True
    elif n == 4 and all(isinstance(f, (bool, np.bool_)) for f in raw[2:]):
        lo_c, hi_c = bool(raw[2]), bool(raw[3])
    else:
        raise ValueError(f"interval spec must be (lo, hi), (lo, hi, flags) with flags one of "
                         f"{sorted(_FLAG_CODES)}, or (lo, hi, lo_closed, hi_closed) with "
                         f"boolean lo_closed and hi_closed; got {raw!r}")
    try:
        return float(raw[0]), float(raw[1]), lo_c, hi_c
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"interval endpoints must be numbers, got {raw!r}") from None


def _pieces(raws):
    """(n, 4) float array of (lo, hi, lo_closed, hi_closed) rows of interval
    or arc specs, and the error of the first malformed spec (or None).  The
    rows stop before it, so checking them first keeps the input order."""
    raws = raws if isinstance(raws, (list, tuple)) else list(raws)
    rows = _columns(raws)
    if rows is not None:
        return rows, None
    rows = []
    try:
        for raw in raws:
            rows.append(raw if isinstance(raw, Interval) else _piece(raw))
    except ValueError as exc:
        return np.array(rows, dtype=float).reshape(-1, 4), exc
    return np.array(rows, dtype=float).reshape(-1, 4), None


def _columns(raws):
    """The rows of specs all of one form, read a column at a time: tuples or
    lists (lo, hi), (lo, hi, flags) or (lo, hi, lo_closed, hi_closed), with
    number ends, a flag code or two bools.  None for any other input, which
    _piece reads spec by spec."""
    if not (raws and set(map(type, raws)) <= {tuple, list}):
        return None if raws else np.empty((0, 4))
    try:
        cols = tuple(zip(*raws, strict=True))
        coded = len(cols) == 3 and set(cols[2]) <= _FLAG_CODES.keys()
    except (TypeError, ValueError):     # specs of unequal length, or an unhashable code
        return None
    ends = _numbers(cols[0] + cols[1]) if 2 <= len(cols) <= 4 else None
    if ends is None:
        return None
    rows = np.ones((len(raws), 4))
    rows[:, :2] = ends.reshape(2, -1).T
    if coded:
        # each code is two of "o" and "c", so the codes joined are the flags in turn
        rows[:, 2:] = np.frombuffer("".join(cols[2]).encode(), np.uint8).reshape(-1, 2) == ord("c")
    elif len(cols) == 4 and set(map(type, cols[2] + cols[3])) <= {bool, np.bool_}:
        rows[:, 2], rows[:, 3] = cols[2], cols[3]
    elif len(cols) != 2:
        return None
    return rows


def _numbers(seq):
    """A float array of a list or tuple of numbers, each read as float()
    reads it; None if some item is not a number (array("d") refuses a str,
    which float() would parse)."""
    try:
        return np.frombuffer(array("d", seq))
    except (TypeError, ValueError, OverflowError):
        return None


def _points(points) -> np.ndarray:
    pts = _numbers(points) if isinstance(points, (list, tuple)) else None
    try:
        if pts is None:
            pts = np.fromiter(map(float, points), dtype=float)
    except OverflowError:
        raise ValueError("isolated points must be finite") from None
    if pts.size and not np.isfinite(pts).all():
        raise ValueError("isolated points must be finite")
    return pts


# what an endpoint adds to its break (rows: starts - ends, starts, closed ends) by kind
# (columns: open, closed left end; open, closed right end; point); operand j takes 5j + kind
_KINDS = np.array([[1, 1, -1, -1, 0], [1, 1, 0, 0, 0], [0, 1, 0, 1, 1]])
_KIND_TABLES = {k: np.kron(np.eye(k, dtype=int), _KINDS) for k in (1, 2)}


def _sweep(operands, combine=lambda member: member) -> tuple:
    """Columns (lo, hi, lo_closed, hi_closed, points) of the canonical set
    where combine(membership in each operand) holds, as arrays: float ends
    and points, boolean flags.

    operands: k (rows, pts) pairs, rows an (n, 4) array of (lo, hi,
    lo_closed, hi_closed) with lo < hi, pts an array of points.  One argsort
    of the left ends, then the right ends, operand by operand, then the
    points gives the breaks: the stable one where these come as sorted runs,
    as a canonical operand's do, which it merges in about linear time, and
    the default one, several times faster on unsorted ends, elsewhere.
    Equal ends differ at most as 0.0 and -0.0, so the sorts differ only in
    the zero they put first; the first zero in input order stands for its
    break, as under the stable sort.  Each break sums its starts, ends and
    closed ends (reduceat, where breaks tie); their running sum is the
    covering depth of the gap right of it."""
    values = np.concatenate([r[:, c] for r, _ in operands for c in (0, 1)]
                            + [p for _, p in operands])
    if not values.size:
        return (_NO_POINTS,) * 5
    kinds = np.concatenate(
        [r[:, 2 + c] + (5 * j + 2 * c) for j, (r, _) in enumerate(operands) for c in (0, 1)]
        + [np.full(p.size, 5 * j + 4.0) for j, (_, p) in enumerate(operands)]).astype(np.intp)
    # each operand's left ends, right ends and points: 3k runs at most
    runs = np.count_nonzero(values[1:] < values[:-1]) < 3 * len(operands)
    order = values.argsort(kind="stable" if runs else None)
    breaks = values[order]
    counts = np.take(_KIND_TABLES[len(operands)], kinds[order], axis=1)
    tie = breaks[1:] == breaks[:-1]
    if tie.any():
        at = np.concatenate(([0], (~tie).nonzero()[0] + 1))
        breaks, counts = breaks[at], np.add.reduceat(counts, at, axis=1)
    zero = breaks == 0.0
    if zero.any():
        breaks[zero] = values[(values == 0.0).argmax()]
    depth = counts[0::3].cumsum(axis=1)
    # depth - starts intervals hold the break strictly inside
    point_on = combine(*((counts[2::3] > 0) | (depth > counts[1::3])))
    gap_on = combine(*(depth > 0))
    # a run of covered gaps is one interval; a missing break inside it splits it
    gap_left = np.concatenate(([False], gap_on[:-1]))
    lo = (gap_on & ~(gap_left & point_on)).nonzero()[0]
    hi = (gap_left & ~(gap_on & point_on)).nonzero()[0]
    lone = (point_on & ~(gap_left | gap_on)).nonzero()[0]
    return breaks[lo], breaks[hi], point_on[lo], point_on[hi], breaks[lone]


def _built(cls, lo, hi, lo_closed, hi_closed) -> tuple:
    """Interval or Arc records from field columns, made by the tuple
    constructor without Interval.__new__'s checks, which no row of a set
    built here can fail: the sweep's breaks strictly increase and each is an
    end of a finite input piece, and a hull's runs are sorted finite points."""
    return tuple(map(tuple.__new__, repeat(cls), zip(lo, hi, lo_closed, hi_closed)))


def _stacked(cols) -> np.ndarray:
    """(n, 4) float rows of field columns (lo, hi, lo_closed, hi_closed)."""
    rows = np.empty((len(cols[0]), 4))
    for c, col in enumerate(cols):
        rows[:, c] = col
    return rows


def _rows(pieces) -> np.ndarray:
    """(n, 4) float rows of Interval or Arc pieces."""
    return np.fromiter(chain.from_iterable(pieces), float, 4 * len(pieces)).reshape(-1, 4)


def _lengths(rows) -> np.ndarray:
    return rows[:, 1] - rows[:, 0]


class _EndpointSet:
    """A canonical set as its endpoint rows and isolated points (see the
    module docstring); the constructor reads a tuple of pieces and one of
    points as given, as a dataclass of those tuples would."""
    __slots__ = ("_ends", "_pts")

    def __init__(self, pieces=(), isolated_points=()):
        self._hold(_rows(pieces), np.array(isolated_points, dtype=float).reshape(-1))

    def _hold(self, rows, pts):
        self._ends, self._pts = _frozen(rows), _frozen(pts) if pts.size else _NO_POINTS

    @classmethod
    def _of(cls, rows, pts):
        """The set of endpoint rows and points, which it takes over read-only."""
        s = object.__new__(cls)
        s._hold(rows, pts)
        return s

    def _shown(self) -> tuple:
        """(rows, points) of the pieces and isolated points the set shows."""
        return self._ends, self._pts

    def _view(self) -> tuple:
        """The pieces, as records of Python floats and bools."""
        rows = self._shown()[0]
        return _built(self._PIECE, rows[:, 0].tolist(), rows[:, 1].tolist(),
                      *(rows[:, 2:] > 0.0).T.tolist())

    @property
    def isolated_points(self) -> tuple:
        return tuple(self._shown()[1].tolist())

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self._VIEW}={self._view()!r}, "
                f"isolated_points={self.isolated_points!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        (rows, pts), (other_rows, other_pts) = self._shown(), other._shown()
        return np.array_equal(rows, other_rows) and np.array_equal(pts, other_pts)

    def __hash__(self) -> int:
        return hash((self._view(), self.isolated_points))

    def measure(self) -> float:
        return math.fsum(_lengths(self._shown()[0]).tolist())

    def is_empty(self) -> bool:
        return not (len(self._ends) or self._pts.size)


def _line_from(cols) -> "RealIntervalSet":
    """The line set of sweep columns (lo, hi, lo_closed, hi_closed, points)."""
    return RealIntervalSet._of(_stacked(cols[:4]), cols[4])


def _line_set(rows, pts) -> tuple:
    """Sweep columns of the union of rows and points; a row lo == hi is the
    point lo if closed."""
    deg = rows[:, 0] == rows[:, 1]
    if deg.any():
        pts = np.concatenate([rows[deg & (rows[:, 2] + rows[:, 3] > 0), 0], pts])
        rows = rows[~deg]
    return _sweep([(rows, pts)])


class RealIntervalSet(_EndpointSet):
    """Canonical finite union of disjoint intervals plus isolated points."""
    __slots__ = ()
    _PIECE, _VIEW = Interval, "intervals"
    _from_line = staticmethod(_line_from)

    def __init__(self, intervals=(), isolated_points=()):
        super().__init__(intervals, isolated_points)

    @property
    def intervals(self) -> tuple:
        return self._view()

    def contains(self, x: float) -> bool:
        return bool(contains_mask(self, [x])[0])


def canonicalize(raw_intervals, points=()) -> RealIntervalSet:
    """Canonical form: disjoint sorted intervals, merged where the union is connected.

    Degenerate closed intervals become isolated points; degenerate open ones vanish.
    """
    rows, err = _pieces(raw_intervals)
    _check_rows(rows)
    if err is not None:
        raise err
    return _line_from(_line_set(rows, _points(points)))


def _check_rows(rows):
    """Raise the error of the first row that is not a finite interval."""
    bad = ~(rows[:, 0] <= rows[:, 1]) | np.isinf(rows[:, 0]) | np.isinf(rows[:, 1])
    if bad.any():
        Interval(*rows[bad.argmax(), :2].tolist(), True, True)  # raises that row's error


_OPS = {
    "union": operator.or_,
    "intersect": operator.and_,
    "difference": lambda p, q: p & ~q,
    "symmetric_difference": operator.xor,
}


def set_algebra(a, b, op: str):
    """Exact union/intersect/difference/symmetric_difference on one carrier."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}; use one of {sorted(_OPS)}")
    if isinstance(a, CircleArcSet) != isinstance(b, CircleArcSet):
        raise ValueError("mixed carriers (line vs circle) rejected")
    return _line_algebra(a, b, op)


def _line_algebra(a, b, op: str):
    """set_algebra of the rows, a circle set's being its line representative."""
    return a._from_line(_sweep([(a._ends, a._pts), (b._ends, b._pts)], _OPS[op]))


def essential_closure(s):
    """Essential closure on the same carrier.

    Canonical finite unions: closure of the union of nondegenerate intervals,
    isolated points dropped; the result is closed and flag-insensitive.  GeneratedFatSet:
    density test on a grid, see fat_density_report.
    """
    if isinstance(s, GeneratedFatSet):
        return fat_density_report(s).closure
    rows, pts = s._shown()
    if not pts.size and rows[:, 2:].all():
        return s    # closed pieces alone are their own closure
    rows = s._ends
    if not len(rows):
        return s._from_line((_NO_POINTS,) * 5)
    # the rows are sorted and apart, so the closed ones merge just where they touch
    cut = (rows[1:, 0] != rows[:-1, 1]).nonzero()[0]
    closed = np.ones(cut.size + 1)
    return s._from_line((rows[np.concatenate(([0], cut + 1)), 0],
                         rows[np.append(cut, len(rows) - 1), 1], closed, closed, _NO_POINTS))


def widen(s, slack: float):
    """Outward widening of a canonical set by slack on each side, isolated
    points included; on the circle an arc reaching around becomes the full
    circle."""
    rows, pts = s._shown()
    if isinstance(s, CircleArcSet):
        if s.is_full() or (_lengths(rows) + 2 * slack >= TWO_PI).any():
            return full_circle()
        return _arc_set(_widened(rows, pts, slack), ())
    rows = _widened(rows, pts, slack)
    _check_rows(rows)
    return _line_from(_line_set(rows, _NO_POINTS))


def _widened(rows, points, slack) -> np.ndarray:
    """The rows, then a row per point, closed and widened by slack on each side."""
    rows = np.concatenate([rows, np.repeat(points, 4).reshape(-1, 4)])
    rows[:, 0] -= slack
    rows[:, 1] += slack
    rows[:, 2:] = 1.0
    return rows


def longest_component(s) -> float:
    """Length of the longest interval or arc of a canonical set (0 if none)."""
    return max(_lengths(s._shown()[0]).tolist(), default=0.0)


def contains_mask(s, xs) -> np.ndarray:
    """Boolean array of membership in a canonical line or circle set over xs."""
    return _mask(s, xs, s._pts)


def pieces_mask(s, xs) -> np.ndarray:
    """Boolean array of membership in the intervals (arcs on the circle) of
    a canonical set over xs, its isolated points left out: the point 0
    that closes an arc at 2pi stays."""
    return _mask(s, xs, s._pts[~_points_mask(s._shown()[1], s._pts)])


def _mask(s, xs, pts) -> np.ndarray:
    """Membership over xs in the rows of s and the points pts; on the
    circle, of the angles reduced into [0, 2pi)."""
    xs = np.asarray(xs, dtype=float)
    if isinstance(s, CircleArcSet):
        xs = _norm_angles(xs)
    return _rows_mask(s._ends, xs) | _points_mask(pts, xs)


def _points_mask(pts, xs) -> np.ndarray:
    """Membership of xs in sorted points: a pass over xs per point where the
    points are few, as np.isin makes them, else one searchsorted (where
    np.isin would sort, and its first sort imports numpy.ma)."""
    if pts.size < 10 * np.size(xs) ** 0.145:
        mask = np.zeros(np.shape(xs), dtype=bool)
        for p in pts.tolist():
            mask |= xs == p
        return mask
    return pts[np.minimum(np.searchsorted(pts, xs), pts.size - 1)] == xs


def _rows_mask(rows, xs) -> np.ndarray:
    """Membership of xs in sorted disjoint endpoint rows."""
    if not len(rows):
        return np.zeros(xs.shape, dtype=bool)
    lo, hi, lo_c, hi_c = rows.T
    # the last row starting at or left of x is the only one that can hold it
    k = np.searchsorted(lo, xs, side="right") - 1
    kk = np.maximum(k, 0)
    lo, hi, lo_c, hi_c = lo[kk], hi[kk], lo_c[kk], hi_c[kk]
    inside = ((lo < xs) & (xs < hi)) | ((xs == lo) & (lo_c > 0.0)) | ((xs == hi) & (hi_c > 0.0))
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

def _norm_angles(t) -> np.ndarray:
    """Finite angles reduced into [0, 2pi)."""
    r = np.fmod(t, TWO_PI)
    r = np.where(r < 0.0, r + TWO_PI, r)
    return np.where(r == TWO_PI, 0.0, r)


def _split(rows, lo, hi, wrap) -> np.ndarray:
    """Line pieces on [0, 2pi) of the arcs of rows from lo to hi, both in
    [0, 2pi): an arc through angle 0 (wrap) is [lo, 2pi), open at 2pi, and
    [0, hi], closed at 0 unless hi is 0 (then the point 0 if closed there).
    rows is overwritten."""
    rest = rows[wrap]
    rest[:, 0], rest[:, 1] = 0.0, hi[wrap]
    rest[:, 2] = np.where(rest[:, 1] > 0.0, 1.0, rest[:, 3])
    rows[:, 0], rows[:, 1] = lo, np.where(wrap, TWO_PI, hi)
    rows[wrap, 3] = 0.0
    return np.concatenate([rows, rest])


class Arc(NamedTuple):
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


class CircleArcSet(_EndpointSet):
    """Canonical finite union of disjoint arcs plus isolated angles."""
    __slots__ = ()
    _PIECE, _VIEW = Arc, "arcs"

    def __init__(self, arcs=(), isolated_points=()):
        """The set of arcs as its view shows them (theta2 up to theta1 +
        2pi) and of angles, held as their line representative."""
        rows = _rows(arcs)
        wrap = rows[:, 1] >= TWO_PI
        hi = np.where(wrap, rows[:, 1] - TWO_PI, rows[:, 1])
        pts = _norm_angles(np.array(isolated_points, dtype=float).reshape(-1))
        s = CircleArcSet._from_line(_line_set(_split(rows, rows[:, 0], hi, wrap), pts))
        self._hold(s._ends, s._pts)

    @property
    def arcs(self) -> tuple:
        return self._view()

    def is_full(self) -> bool:
        rows = self._ends
        return bool(len(rows) == 1 and rows[0, 1] - rows[0, 0] == TWO_PI and rows[0, 2])

    def contains(self, theta: float) -> bool:
        return bool(contains_mask(self, [theta])[0])

    @staticmethod
    def _from_line(cols) -> "CircleArcSet":
        """The circle set of the sweep columns of a line set on [0, 2pi]: a
        closed end at 2pi is angle 0, held by the row from 0 or by the point 0."""
        rows, pts = _stacked(cols[:4]), cols[4]
        if len(rows) and rows[-1, 1] == TWO_PI and rows[-1, 3]:
            rows[-1, 3] = 0.0
            if rows[0, 0] == 0.0:
                rows[0, 2] = 1.0
            elif not (pts.size and pts[0] == 0.0):
                pts = np.concatenate(([0.0], pts))
        return CircleArcSet._of(rows, pts)

    def _shown(self) -> tuple:
        """The arcs and isolated angles of the rows.  Where angle 0 is held,
        the row ending at 2pi goes on through it: into the row from 0, closed
        there, as one arc past 2pi, or else to a closed end at 2pi in place
        of the point 0.  A row from 0 to 2pi is the full circle, or, open at
        both ends, the circle less angle 0; either starts at +0.0."""
        rows, pts = self._ends, self._pts
        last = len(rows) - 1
        if last < 0 or rows[last, 1] != TWO_PI:
            return rows, pts
        rows = rows.copy()
        if rows[0, 0] == 0.0 and last == 0:
            rows[0, 0] = 0.0
        elif rows[0, 0] == 0.0 and rows[0, 2]:
            rows[last, 1], rows[last, 3] = rows[0, 1] + TWO_PI, rows[0, 3]
            rows, pts = rows[1:], pts[pts != 0.0]
        elif (pts == 0.0).any():
            rows[last, 3] = 1.0
            pts = pts[pts != 0.0]
        return rows, pts


def full_circle() -> CircleArcSet:
    return CircleArcSet._of(np.array([[0.0, TWO_PI, 1.0, 0.0]]), _NO_POINTS)


def circle_set(arcs, points=()) -> CircleArcSet:
    """Canonical circle set from (theta1, theta2[, flags]) pairs; theta2 may exceed
    theta1 by up to 2pi; angles are reduced mod 2pi."""
    rows, err = _pieces(arcs)
    return _arc_set(rows, points, err)


def _arc_set(rows, points, err=None) -> CircleArcSet:
    """circle_set of (n, 4) arc rows, err the error of a malformed spec after them."""
    t1, t2 = rows[:, 0], rows[:, 1]
    t2 = np.where(t2 < t1, t2 + TWO_PI, t2)  # (t1, t2) with t2 < t1 read as the wrap-around arc
    with np.errstate(invalid="ignore"):     # inf - inf: a non-finite arc, refused below
        span = t2 - t1
    # the first arc of a full turn or more, or with a non-finite end, decides;
    # a span one ulp short is a full turn, as (a, a + 2pi) spans at
    # a = 3.415696558991173, where a + 2pi rounds down
    stop = (~(span < TWO_PI - 1e-15) | (span == -np.inf)).nonzero()[0]
    if stop.size:
        if span[stop[0]] > TWO_PI + 1e-12:
            raise ValueError("arc longer than the full circle")
        if not math.isfinite(span[stop[0]]):
            raise ValueError("arc endpoints must be finite")
        return full_circle()
    if err is not None:
        raise err
    pts = _norm_angles(_points(points))
    _check_rows(np.column_stack([t1, t2]))     # t2 + 2pi < t1 is an arc backwards
    # each end reduced into [0, 2pi) on its own, so an end given there or
    # past 2pi is held exactly; an arc whose end comes before its start passes 0
    lo, hi = _norm_angles(t1), _norm_angles(rows[:, 1])
    return CircleArcSet._from_line(_line_set(_split(rows, lo, hi, hi < lo), pts))


# ---------------------------------------------------------------------------
# generated fat family

def rational_enumeration(count: int):
    """First `count` rationals of [0, 1] ordered by denominator then numerator:
    0, 1, 1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ..."""
    out = []
    q = 1
    while len(out) < count:
        # p / q is correctly rounded, so it is float(Fraction(p, q))
        out += [p / q for p in range(q + 1) if math.gcd(p, q) == 1][:count - len(out)]
        q += 1
    return out


@dataclass(frozen=True)
class GeneratedFatSet:
    """Union over n >= 1 of open intervals (c_n - r^-n, c_n + r^-n), c_n the
    rational enumeration and r = radius_base, truncated at N = truncation; the
    tail beyond N has measure at most 2 sum_{n > N} r^-n = 2 r^-N / (r - 1).
    ValueError unless N is a whole number >= 1 and r a finite number > 1."""
    truncation: int = 20
    radius_base: float = 4.0

    def __post_init__(self):
        t, r = self.truncation, self.radius_base
        whole = isinstance(t, numbers.Integral) or isinstance(t, float) and t.is_integer()
        if isinstance(t, bool) or not (whole and t >= 1):
            raise ValueError(f"truncation must be a whole number >= 1, not {t!r:.80}")
        if not (isinstance(r, numbers.Real) and math.isfinite(r) and r > 1.0):
            raise ValueError(f"radius_base must be a finite number > 1, not {r!r:.80}")
        object.__setattr__(self, "truncation", int(t))

    @staticmethod
    def rational_fat(truncation: int = 20, radius_base: float = 4.0) -> "GeneratedFatSet":
        return GeneratedFatSet(truncation, radius_base)

    @property
    def centers(self) -> tuple:
        return tuple(rational_enumeration(self.truncation))

    @property
    def tail_measure_bound(self) -> float:
        return 2.0 * self.radius_base ** (-self.truncation) / (self.radius_base - 1.0)

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
    verdicts: tuple          # (x, status) with status "truncated" or "tail"
    grid_step: float


def fat_density_report(g: GeneratedFatSet) -> FatDensityReport:
    """Density test per point of a 1e-3 grid over the hull of the centers: does
    (x - eps, x + eps) meet the family with positive measure for eps down to
    eps_min = 1e-6?

    "truncated": certified by the truncated union alone.  "tail": every grid
    point's window meets the open hull (0, 1) of the enumerated centers, so
    beyond-truncation members contribute positive (but < tail_measure_bound)
    mass; reported, never absorbed.  Every grid point passes, so the closure
    is the hull of the whole grid.
    """
    centers = g.centers
    eps_min = 1e-6
    n = int(round((max(centers) - min(centers)) / 1e-3)) + 1
    grid = min(centers) + np.arange(n) * 1e-3
    step = float(grid[1] - grid[0]) if n > 1 else eps_min
    lo, hi = g.truncated_set()._ends[:, :2].T
    # (x - eps, x + eps) meets the sorted disjoint intervals with positive
    # measure iff the first one ending right of x - eps starts left of x + eps
    k = np.searchsorted(hi, grid - eps_min, side="right")
    truncated = np.append(lo, np.inf)[k] < grid + eps_min
    verdicts = tuple(zip(grid.tolist(), map(("tail", "truncated").__getitem__, truncated.tolist())))
    return FatDensityReport(points_hull(grid, step), verdicts, step)


def angles_hull(thetas, step: float) -> CircleArcSet:
    """Closed arc hull of maximal runs of grid angles, read mod 2pi.  The
    last angle one turn down and the first one turn up carry a run through
    angle 0 to 0 and to 2pi; the runs are then cut to [0, 2pi]."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.isfinite(thetas).all():
        raise ValueError("angles must be finite")
    ts = np.sort(np.remainder(thetas, TWO_PI))
    lo, hi = _runs(np.concatenate([ts[-1:] - TWO_PI, ts, ts[:1] + TWO_PI]), step)
    arc = (lo < hi) & (lo < TWO_PI) & (hi > 0.0)
    lone = (lo == hi) & (0.0 <= lo) & (lo < TWO_PI)
    closed = np.ones(np.count_nonzero(arc))
    return CircleArcSet._from_line((np.where(lo < 0.0, 0.0, lo)[arc],
                                    np.where(hi > TWO_PI, TWO_PI, hi)[arc],
                                    closed, closed, lo[lone]))


def points_hull(xs, step: float) -> RealIntervalSet:
    """Closed hull of maximal runs of consecutive grid points (spacing <=
    1.5*step).  The runs are sorted and apart, so they are the canonical set:
    a one-point run is an isolated point, any other a closed interval."""
    lo, hi = _runs(xs, step)
    iv = lo < hi
    closed = np.ones(np.count_nonzero(iv))
    return _line_from((lo[iv], hi[iv], closed, closed, lo[~iv]))


def _runs(xs, step: float):
    """(first, last) point arrays of the maximal runs of sorted xs."""
    # stable, as sorted() is: of equal points (0.0 and -0.0) the first one given starts a run
    xs = np.sort(np.asarray(xs, dtype=float), kind="stable")
    if not np.isfinite(xs).all():
        raise ValueError("interval endpoints must be finite")
    if not xs.size:
        return xs, xs
    # equal points share a run whatever the step
    cut = (~(np.diff(xs) <= max(0.0, 1.5 * step))).nonzero()[0]
    return xs[np.concatenate(([0], cut + 1))], xs[np.append(cut, xs.size - 1)]


# ---------------------------------------------------------------------------
# JSON descriptors

def set_to_json(s) -> dict:
    if isinstance(s, GeneratedFatSet):
        return {"family": "rational_fat", "radius_base": s.radius_base,
                "truncation": s.truncation}
    rows, pts = s._shown()
    codes = _CODES[(rows[:, 2] > 0.0) * 2 + (rows[:, 3] > 0.0)].tolist()
    return {"carrier": "circle" if isinstance(s, CircleArcSet) else "line",
            "intervals": list(map(list, zip(rows[:, 0].tolist(), rows[:, 1].tolist(), codes))),
            "points": pts.tolist()}


def set_from_json(d: dict):
    """Set from its JSON descriptor; a descriptor of the wrong shape raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError(f"set JSON must be an object, not {type(d).__name__}")
    if "family" in d:
        check_keys(d, ("family", "radius_base", "truncation"), "generated set JSON key")
        if d["family"] != "rational_fat":
            raise ValueError(f"unknown generated family {d['family']!r}")
        if "truncation" not in d:
            raise ValueError("rational_fat set JSON needs a truncation")
        return GeneratedFatSet.rational_fat(d["truncation"], _json_value(
            float, d.get("radius_base", 4), "radius_base"))
    check_keys(d, ("carrier", "intervals", "points"), "set JSON key")
    carrier = d.get("carrier", "line")
    ivs = _json_list(d, "intervals")
    pts = [_json_value(float, p, "point") for p in _json_list(d, "points")]
    build = {"circle": circle_set, "line": canonicalize}.get(carrier)
    if build is None:
        raise ValueError(f"unknown carrier {carrier!r}")
    for k, raw in enumerate(() if _no_text_ends(ivs) else ivs):
        try:
            for end in raw[:2] if isinstance(raw, (list, tuple)) else ():
                check_number(end, "set JSON interval end")
        except ValueError:
            build(ivs[:k + 1])      # a malformed piece up to this one raises its own error
            raise
    return build(ivs, pts)


def _no_text_ends(ivs) -> bool:
    """True if no spec's first two fields hold a str or a bool, which
    check_number refuses; False also where it cannot tell."""
    try:
        lo, hi = islice(zip(*ivs), 2)
    except (TypeError, ValueError):
        return False
    return not any(issubclass(t, (str, bool)) for t in set(map(type, lo + hi)))


def _json_list(d: dict, key: str) -> list:
    v = d.get(key, [])
    if not isinstance(v, (list, tuple)):
        raise ValueError(f"set JSON {key!r} must be a list, not {type(v).__name__}")
    return v


def _json_value(convert, v, what: str):
    try:
        return convert(check_number(v, what))
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"set JSON {what} must be a number, not {v!r:.80}") from None
