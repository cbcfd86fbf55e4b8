"""Canonical interval/arc sets, set algebra, and the essential closure."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acspectra.interval_sets import (Arc, CircleArcSet, GeneratedFatSet,
                                     RealIntervalSet, angles_hull, canonicalize,
                                     circle_set, contains_mask, equivalent_supports,
                                     essential_closure, fat_density_report,
                                     full_circle, lebesgue_measure,
                                     lebesgue_oracle, atomic_oracle,
                                     points_hull, rational_enumeration,
                                     set_algebra, set_from_json, set_to_json)

FLAGS = ("oo", "oc", "co", "cc")


def _coords(draw_lo=-10.0, draw_hi=10.0):
    return st.floats(draw_lo, draw_hi, allow_nan=False, allow_infinity=False)


raw_intervals = st.tuples(_coords(), _coords(), st.sampled_from(FLAGS)).map(
    lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2]))

line_sets = st.builds(
    canonicalize,
    st.lists(raw_intervals, max_size=6),
    st.lists(_coords(), max_size=3))


def _closure(s: RealIntervalSet) -> RealIntervalSet:
    """Topological closure: close every interval, keep isolated points."""
    return canonicalize([(iv.lo, iv.hi, "cc") for iv in s.intervals],
                        s.isolated_points)


def _subset(a, b) -> bool:
    return set_algebra(a, b, "difference").is_empty()


class TestCanonicalize:
    def test_merges_overlaps_and_touching_closed(self):
        s = canonicalize([(0, 1, "cc"), (1, 2, "cc"), (0.5, 0.7, "oo")])
        assert len(s.intervals) == 1
        assert s.intervals[0].lo == 0 and s.intervals[0].hi == 2

    def test_open_touching_keeps_gap_point(self):
        s = canonicalize([(0, 1, "co"), (1, 2, "oc")])
        assert not s.contains(1.0)
        assert s.contains(0.5) and s.contains(1.5)

    def test_point_inside_interval_absorbed(self):
        s = canonicalize([(0, 1, "cc")], [0.5, 3.0])
        assert s.isolated_points == (3.0,)

    def test_degenerate_interval_becomes_point(self):
        s = canonicalize([(2.0, 2.0, "cc")])
        assert s.intervals == () and s.isolated_points == (2.0,)

    def test_measure(self):
        s = canonicalize([(0, 1, "oo"), (5, 7, "cc")], [9.0])
        assert s.measure() == pytest.approx(3.0)

    def test_unknown_flag_code_raises_value_error(self):
        with pytest.raises(ValueError, match="flags"):
            canonicalize([(0, 1, "xx")])

    def test_circle_set_rejects_non_string_flag(self):
        # a third entry that is not a flag code is an error, not "closed"
        with pytest.raises(ValueError, match="flags"):
            circle_set([(0, 1, 0)])


class TestSetAlgebra:
    @given(line_sets, line_sets, st.lists(_coords(), min_size=5, max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_membership_semantics(self, a, b, probes):
        union = set_algebra(a, b, "union")
        meet = set_algebra(a, b, "intersect")
        diff = set_algebra(a, b, "difference")
        for x in probes:
            assert union.contains(x) == (a.contains(x) or b.contains(x))
            assert meet.contains(x) == (a.contains(x) and b.contains(x))
            assert diff.contains(x) == (a.contains(x) and not b.contains(x))

    @given(line_sets, line_sets)
    @settings(max_examples=80, deadline=None)
    def test_measure_additivity(self, a, b):
        union = set_algebra(a, b, "union")
        meet = set_algebra(a, b, "intersect")
        assert a.measure() + b.measure() == pytest.approx(
            union.measure() + meet.measure(), abs=1e-12)

    def test_circle_ops_via_line_representative(self):
        a = circle_set([(0.0, 1.0, "cc")])
        b = circle_set([(0.5, 2.0, "cc")])
        u = set_algebra(a, b, "union")
        assert isinstance(u, CircleArcSet)
        assert u.measure() == pytest.approx(2.0)
        assert set_algebra(a, b, "intersect").measure() == pytest.approx(0.5)


# Brute-force reference: membership in the raw primitives, one at a time.
# Endpoints come from a small integer grid, so coincident endpoints, open
# ends touching, points on endpoints and degenerate intervals are common.

OPS = {"union": lambda p, q: p or q,
       "intersect": lambda p, q: p and q,
       "difference": lambda p, q: p and not q,
       "symmetric_difference": lambda p, q: p != q}

grid_coords = st.integers(-3, 3).map(float)
grid_intervals = st.tuples(grid_coords, grid_coords, st.sampled_from(FLAGS)).map(
    lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2]))
grid_raw_sets = st.tuples(st.lists(grid_intervals, max_size=6),
                          st.lists(grid_coords, max_size=3))
# arcs (t1, t2, flags) on integer angles; t2 < t1 wraps through angle 0
grid_angles = st.integers(0, 6).map(float)
grid_raw_arcs = st.tuples(st.lists(st.tuples(grid_angles, grid_angles,
                                             st.sampled_from(FLAGS)), max_size=5),
                          st.lists(grid_angles, max_size=3))


def _on_interval(x, lo, hi, flags):
    return lo < x < hi or (x == lo and flags[0] == "c") or (x == hi and flags[1] == "c")


def _on_arc(theta, t1, t2, flags):
    """theta in [0, 2pi) on the arc from t1 counterclockwise to t2."""
    if t1 <= t2:
        return _on_interval(theta, t1, t2, flags)
    return (theta > t1 or theta < t2 or (theta == t1 and flags[0] == "c")
            or (theta == t2 and flags[1] == "c"))


def _ref_line(x, raw):
    ivs, pts = raw
    return any(_on_interval(x, *iv) for iv in ivs) or x in pts


def _ref_circle(theta, raw):
    arcs, pts = raw
    return any(_on_arc(theta, *a) for a in arcs) or theta in pts


def _line_probes(*raws):
    """Every break of the raw sets, every gap midpoint, and one point beyond each end."""
    breaks = sorted({x for ivs, pts in raws for iv in ivs for x in iv[:2]}
                    | {p for _, pts in raws for p in pts} | {0.0})
    mids = [0.5 * (u + v) for u, v in zip(breaks, breaks[1:])]
    return breaks + mids + [breaks[0] - 1.0, breaks[-1] + 1.0]


def _circle_probes(*raws):
    breaks = sorted({t for arcs, pts in raws for a in arcs for t in a[:2]}
                    | {p for _, pts in raws for p in pts} | {0.0})
    mids = [0.5 * (u + v) for u, v in zip(breaks, breaks[1:])]
    return breaks + mids + [0.5 * (breaks[-1] + 2 * math.pi)]


def _assert_canonical(s):
    ivs = s.intervals
    assert all(iv.lo < iv.hi for iv in ivs)
    for prev, nxt in zip(ivs, ivs[1:]):
        # disjoint, and touching only where neither holds the shared end
        assert prev.hi < nxt.lo or (prev.hi == nxt.lo and not prev.hi_closed
                                    and not nxt.lo_closed)
    assert list(s.isolated_points) == sorted(set(s.isolated_points))
    for p in s.isolated_points:
        assert not any(iv.lo <= p <= iv.hi for iv in ivs)


class TestAgainstBruteForce:
    @given(grid_raw_sets)
    @settings(max_examples=200, deadline=None)
    def test_canonicalize_line(self, raw):
        s = canonicalize(*raw)
        _assert_canonical(s)
        for x in _line_probes(raw):
            assert s.contains(x) == _ref_line(x, raw), x

    @given(grid_raw_sets, grid_raw_sets)
    @settings(max_examples=200, deadline=None)
    def test_set_algebra_line(self, raw_a, raw_b):
        a, b = canonicalize(*raw_a), canonicalize(*raw_b)
        probes = _line_probes(raw_a, raw_b)
        for op, f in OPS.items():
            s = set_algebra(a, b, op)
            _assert_canonical(s)
            for x in probes:
                assert s.contains(x) == f(_ref_line(x, raw_a), _ref_line(x, raw_b)), (op, x)

    @given(grid_raw_arcs)
    @settings(max_examples=200, deadline=None)
    def test_circle_set(self, raw):
        s = circle_set(*raw)
        for t in _circle_probes(raw):
            assert s.contains(t) == _ref_circle(t, raw), t

    @given(grid_raw_arcs, grid_raw_arcs)
    @settings(max_examples=200, deadline=None)
    def test_set_algebra_circle(self, raw_a, raw_b):
        a, b = circle_set(*raw_a), circle_set(*raw_b)
        probes = _circle_probes(raw_a, raw_b)
        for op, f in OPS.items():
            s = set_algebra(a, b, op)
            for t in probes:
                assert s.contains(t) == f(_ref_circle(t, raw_a), _ref_circle(t, raw_b)), (op, t)


circle_sets = st.builds(
    circle_set,
    st.lists(st.tuples(_coords(0.0, 6.28), _coords(0.0, 6.28), st.sampled_from(FLAGS)),
             max_size=5),
    st.lists(_coords(0.0, 6.28), max_size=3))


class TestContainsMask:
    @given(st.one_of(line_sets, grid_raw_sets.map(lambda r: canonicalize(*r))),
           st.lists(_coords(), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_line_matches_contains(self, s, extra):
        ends = [x for iv in s.intervals for x in (iv.lo, iv.hi)]
        xs = ends + list(s.isolated_points) + [0.5 * (u + v) for u, v in zip(ends, ends[1:])]
        xs += extra
        assert list(contains_mask(s, xs)) == [s.contains(x) for x in xs]

    @given(st.one_of(circle_sets, grid_raw_arcs.map(lambda r: circle_set(*r))),
           st.lists(_coords(-20.0, 20.0), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_circle_matches_contains(self, s, extra):
        ends = [t for a in s.arcs for t in (a.theta1, a.theta2)]   # theta2 may pass 2pi
        xs = ends + list(s.isolated_points) + extra
        xs += [x + k * 2 * math.pi for x in list(xs) for k in (-1, 1, 2)]
        assert list(contains_mask(s, xs)) == [s.contains(x) for x in xs]

    def test_empty_and_full(self):
        xs = [-1.0, 0.0, 3.0, 2 * math.pi]
        assert not contains_mask(canonicalize([]), xs).any()
        assert contains_mask(full_circle(), xs).all()


class TestEssentialClosure:
    def test_interval_plus_isolated_point(self):
        s = canonicalize([(0, 1, "cc")], [2.0])
        e = essential_closure(s)
        assert e.intervals[0].lo == 0.0 and e.intervals[0].hi == 1.0
        assert len(e.intervals) == 1 and e.isolated_points == ()

    def test_open_intervals_close(self):
        e = essential_closure(canonicalize([(0, 1, "oo")]))
        assert e.contains(0.0) and e.contains(1.0)

    @given(line_sets)
    @settings(max_examples=150, deadline=None)
    def test_lemma_properties(self, s):
        e = essential_closure(s)
        # idempotent
        assert essential_closure(e) == e
        # A minus its essential closure is null
        assert set_algebra(s, e, "difference").measure() <= 1e-12
        # never loses measure
        assert e.measure() >= s.measure() - 1e-12
        # sits inside the topological closure
        assert _subset(e, _closure(s))

    def test_countable_set_has_empty_closure(self):
        s = canonicalize([], rational_enumeration(40))
        assert essential_closure(s).is_empty()

    def test_circle_drops_points_and_closes_arcs(self):
        s = circle_set([(0.2, 1.0, "oo")], [2.5])
        e = essential_closure(s)
        assert e.isolated_points == ()
        assert e.contains(0.2) and e.contains(1.0) and not e.contains(2.5)

    def test_circle_wrap_arc(self):
        s = circle_set([(5.8, 0.4, "oo")])   # wraps through 0
        e = essential_closure(s)
        assert e.contains(0.0) and e.contains(5.9) and e.contains(0.3)
        assert e.measure() == pytest.approx(s.measure(), abs=1e-12)

    def test_full_circle_fixed_point(self):
        assert essential_closure(full_circle()).is_full()

    @given(grid_raw_arcs)
    @settings(max_examples=200, deadline=None)
    def test_circle_against_closed_arcs(self, raw):
        """The closure of a finite arc union is the union of its closed
        nondegenerate arcs: points and degenerate arcs drop, ends join."""
        s = circle_set(*raw)
        e = essential_closure(s)
        closed = ([(t1, t2, "cc") for t1, t2, _ in raw[0] if t1 != t2], [])
        for t in _circle_probes(raw):
            assert e.contains(t) == _ref_circle(t, closed), t
        assert e.isolated_points == ()
        assert essential_closure(e) == e
        assert e.measure() == pytest.approx(s.measure(), abs=1e-12)

    def test_arc_ending_at_two_pi_holds_angle_zero(self):
        s = circle_set([(5.0, 0.0, "oc")])      # closed end at 2pi is the angle 0
        assert s.contains(0.0)
        assert set_algebra(s, circle_set([], [0.0]), "intersect").isolated_points == (0.0,)
        assert set_algebra(s, circle_set([], [0.0]), "union") == s
        assert essential_closure(s).isolated_points == ()
        assert essential_closure(circle_set([(0.0, 1.0, "oc")])).isolated_points == ()


class TestFatSet:
    def test_measure_bound_and_closure(self):
        g = GeneratedFatSet.rational_fat(20)
        lo, hi = lebesgue_measure(g)
        assert hi <= 2.0 / 3.0 + 1e-12
        assert g.tail_measure_bound < 2.0 * 4.0 ** -20 * 4.0 / 3.0
        rep = fat_density_report(g)
        assert rep.closure.contains(0.0) and rep.closure.contains(1.0)
        assert rep.closure.measure() == pytest.approx(1.0, abs=2 * rep.grid_step)
        # the closure gains at least 1/3 of measure over the set itself
        assert rep.closure.measure() - hi >= 1.0 / 3.0 - 2 * rep.grid_step

    def test_no_grid_point_fails_density(self):
        rep = fat_density_report(GeneratedFatSet.rational_fat(20))
        assert all(status in ("truncated", "tail") for _, status in rep.verdicts)


class TestMeasureOracles:
    def test_lebesgue_oracle_matches_measure(self):
        s = canonicalize([(0, 1, "oo"), (2, 2.5, "cc")], [7.0])
        assert lebesgue_oracle(s) == pytest.approx(s.measure())

    def test_atomic_oracle_support_equivalence(self):
        mu = atomic_oracle({0.5: 1.0, 2.0: 0.25})
        a = canonicalize([(0, 1, "cc")], [2.0])
        b = canonicalize([(0, 1, "cc")], [2.0, 5.0])   # extra null point
        assert equivalent_supports(a, b, mu)
        c = canonicalize([(0, 1, "cc")])               # misses the atom at 2
        assert not equivalent_supports(a, c, mu)


grid_masks = st.integers(3, 40).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n, max_size=n))


class TestHulls:
    def test_points_hull_bridges_runs(self):
        xs = [0.0, 0.1, 0.2, 0.9, 1.0]
        h = points_hull(xs, 0.1)
        assert len(h.intervals) == 2
        assert h.contains(0.15) and not h.contains(0.5)

    def test_angles_hull_fuses_across_zero(self):
        step = 0.1
        thetas = [2 * math.pi - 0.2, 2 * math.pi - 0.1, 0.0, 0.1, 0.2]
        h = angles_hull(thetas, step)
        assert len(h.arcs) == 1
        assert h.contains(0.0) and h.contains(2 * math.pi - 0.15)

    @given(grid_masks, st.floats(-5.0, 5.0), st.floats(1e-3, 2.0))
    @example([True, False, True], 0.0, 1.0)         # two single points
    @example([False, True, True, False], 0.0, 0.5)  # one interior run
    @example([True, True, True], -1.0, 0.1)         # every point
    @example([False, False, False], 0.0, 1.0)       # no point
    @settings(max_examples=200, deadline=None)
    def test_points_hull_grid_mask_runs(self, mask, start, step):
        """The hull of the selected grid points, in any order, is the union
        of the closed runs of the mask, single points isolated."""
        n = len(mask)
        grid = start + step * np.arange(n)
        runs = []
        for k in range(n):
            if mask[k] and (k == 0 or not mask[k - 1]):
                end = k
                while end + 1 < n and mask[end + 1]:
                    end += 1
                runs.append((grid[k], grid[end], "cc"))
        want = canonicalize(runs)
        picked = grid[np.array(mask)]
        assert points_hull(picked, step) == want
        assert points_hull(picked[::-1].tolist(), step) == want

    @given(grid_masks)
    @example([True, False, False, True, True])      # a run through angle 0
    @example([True, False, False, False, True])     # a run ending at angle 0
    @example([False, True, False, False])           # a single-angle run
    @example([True, False, False, False])           # a single angle at 0
    @example([True, True, True])                    # every angle
    @example([3 <= k <= 10 for k in range(18)])     # theta2 - theta1 rounds down
    @settings(max_examples=200, deadline=None)
    def test_angles_hull_grid_mask_runs(self, mask):
        """Runs of the mask read cyclically: a grid angle is in the hull iff
        selected, the midpoint to the next angle iff both are, and a selected
        angle with no selected neighbour is an isolated point."""
        n = len(mask)
        step = 2 * math.pi / n
        grid = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        h = angles_hull(grid[np.array(mask)], step)
        for k in range(n):
            assert h.contains(grid[k]) == mask[k], k
            assert h.contains(grid[k] + 0.5 * step) == (mask[k] and mask[(k + 1) % n]), k
        lone = [grid[k] for k in range(n) if mask[k] and not mask[k - 1] and not mask[(k + 1) % n]]
        assert list(h.isolated_points) == lone
        assert h.is_full() == all(mask)


class TestJson:
    @given(line_sets)
    @settings(max_examples=60, deadline=None)
    def test_line_round_trip(self, s):
        assert set_from_json(set_to_json(s)) == s

    def test_circle_round_trip(self):
        s = circle_set([(5.8, 0.4, "oo"), (2.0, 3.0, "cc")], [1.0])
        assert set_from_json(set_to_json(s)) == s

    def test_fat_family_round_trip(self):
        g = GeneratedFatSet.rational_fat(12, 5.0)
        assert set_from_json(set_to_json(g)) == g

    def test_unknown_carrier_rejected(self):
        with pytest.raises(ValueError):
            set_from_json({"carrier": "plane", "intervals": []})
