"""The set layer's array paths against their references.

The sweep sorts with numpy's default sort where the ends are not sorted
runs, and takes the first zero in input order for the break at 0; the
reference here sorts everything with the stable argsort.
Specs are read a column at a time where they allow it; the per-spec read
(_piece) stays as the reference and as the path of every other input.
Point membership is a pass per point or a searchsorted over the sorted
points, checked against np.isin; rational_enumeration divides p / q,
checked against Fraction(p, q).
"""

import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import acspectra
from acspectra import interval_sets
from acspectra.interval_sets import (Interval, canonicalize, circle_set,
                                     essential_closure, rational_enumeration, set_algebra,
                                     set_from_json, widen)

FLAGS = ("oo", "oc", "co", "cc")
OPS = ("union", "intersect", "difference", "symmetric_difference")
_KINDS = np.array([[1, 1, -1, -1, 0], [1, 1, 0, 0, 0], [0, 1, 0, 1, 1]])


def _stable_sweep(operands, combine=lambda member: member) -> tuple:
    """The sweep as one stable argsort of all ends and points: of equal
    values the first in input order stands, and reduceat sums every break."""
    values = np.concatenate([r[:, c] for r, _ in operands for c in (0, 1)]
                            + [p for _, p in operands])
    if not values.size:
        return (np.empty(0),) * 5
    kinds = np.concatenate(
        [r[:, 2 + c] + (5 * j + 2 * c) for j, (r, _) in enumerate(operands) for c in (0, 1)]
        + [np.full(p.size, 5 * j + 4.0) for j, (_, p) in enumerate(operands)]).astype(np.intp)
    order = values.argsort(kind="stable")
    values = values[order]
    at = np.concatenate(([True], values[1:] != values[:-1])).nonzero()[0]
    breaks = values[at]
    table = np.kron(np.eye(len(operands), dtype=int), _KINDS)
    counts = np.add.reduceat(table[:, kinds[order]], at, axis=1)
    depth = counts[0::3].cumsum(axis=1)
    point_on = combine(*((counts[2::3] > 0) | (depth > counts[1::3])))
    gap_on = combine(*(depth > 0))
    gap_left = np.concatenate(([False], gap_on[:-1]))
    lo = gap_on & ~(gap_left & point_on)
    hi = gap_left & ~(gap_on & point_on)
    lone = point_on & ~(gap_left | gap_on)
    return breaks[lo], breaks[hi], point_on[lo], point_on[hi], breaks[lone]


def _bits(a) -> tuple:
    """dtype and bytes of an array: -0.0 and 0.0 differ here."""
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _same_set(a, b) -> bool:
    """The same type, rows and points, to the bit."""
    return (type(a) is type(b) and _bits(a._ends) == _bits(b._ends)
            and _bits(a._pts) == _bits(b._pts))


# ends from a small pool, so that ends tie, touch, meet at both zeros or
# lie one float apart
_END = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, math.nextafter(1.0, 2.0),
                                  2.0, 3.0]),
                 st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))
_ANGLE = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, math.pi, 2 * math.pi, 7.0]),
                   st.floats(-7.0, 13.0, allow_nan=False, allow_infinity=False))


@st.composite
def _operand(draw, end=_END):
    """(rows, points) with lo < hi in each row, in any order."""
    rows = []
    for a, b, code in draw(st.lists(st.tuples(end, end, st.sampled_from(FLAGS)), max_size=8)):
        if a != b:
            rows.append((min(a, b), max(a, b), *(f == "c" for f in code)))
    pts = draw(st.lists(end, max_size=4))
    return np.array(rows, dtype=float).reshape(-1, 4), np.array(pts, dtype=float)


def _specs(end=_END, ordered=True):
    spec = st.tuples(end, end, st.sampled_from(FLAGS))
    if ordered:
        spec = spec.map(lambda t: (min(t[:2]), max(t[:2]), t[2]))
    return st.lists(spec, max_size=8)


class TestSweep:
    @given(st.lists(_operand(), min_size=1, max_size=2), st.sampled_from(OPS))
    @settings(max_examples=400, deadline=None)
    def test_columns_are_the_stable_sweeps(self, operands, op):
        combine = interval_sets._OPS[op] if len(operands) == 2 else (lambda member: member)
        got = interval_sets._sweep(operands, combine)
        want = _stable_sweep(operands, combine)
        assert [_bits(c) for c in got] == [_bits(c) for c in want]

    @given(st.lists(st.tuples(_specs(), st.lists(_END, max_size=4)), min_size=1, max_size=2),
           st.sampled_from(OPS))
    @settings(max_examples=200, deadline=None)
    def test_sorted_runs_take_the_stable_sort(self, specs, op):
        """Canonical operands give sorted runs; their columns are the same."""
        operands = [(s._ends, s._pts) for s in (canonicalize(*spec) for spec in specs)]
        combine = interval_sets._OPS[op] if len(operands) == 2 else (lambda member: member)
        got = interval_sets._sweep(operands, combine)
        want = _stable_sweep(operands, combine)
        assert [_bits(c) for c in got] == [_bits(c) for c in want]

    @given(_specs(), st.lists(_END, max_size=4), _specs(), st.sampled_from(OPS),
           st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_line_sets_are_those_of_the_stable_sweep(self, raw_a, pts, raw_b, op, slack):
        a, b = canonicalize(raw_a, pts), canonicalize(raw_b)
        got = (a, set_algebra(a, b, op), essential_closure(a), widen(a, slack))
        with mock.patch.object(interval_sets, "_sweep", _stable_sweep):
            a, b = canonicalize(raw_a, pts), canonicalize(raw_b)
            want = (a, set_algebra(a, b, op), _stable_closure(a), widen(a, slack))
        assert all(map(_same_set, got, want))

    @given(_specs(_ANGLE, ordered=False), st.lists(_ANGLE, max_size=4),
           _specs(_ANGLE, ordered=False), st.sampled_from(OPS), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_circle_sets_are_those_of_the_stable_sweep(self, raw_a, pts, raw_b, op, slack):
        a, b = _arcs(raw_a, pts), _arcs(raw_b, [])
        assume(a is not None and b is not None)
        got = (a, set_algebra(a, b, op), essential_closure(a), widen(a, slack))
        with mock.patch.object(interval_sets, "_sweep", _stable_sweep):
            a, b = _arcs(raw_a, pts), _arcs(raw_b, [])
            want = (a, set_algebra(a, b, op), _stable_closure(a), widen(a, slack))
        assert all(map(_same_set, got, want))

    def test_zero_stands_as_first_given(self):
        """Of -0.0 and 0.0 at one break, the first left end, right end or
        point in input order stands, whichever the sort put first."""
        for zeros in ([-0.0, 0.0], [0.0, -0.0]):
            rng = np.random.default_rng(1)
            lo = np.concatenate((rng.uniform(-9.0, -1.0, 300), zeros))
            rows = np.column_stack((lo, lo + 5.0, np.ones(lo.size), np.zeros(lo.size)))
            got = interval_sets._sweep([(rows, np.empty(0))])
            want = _stable_sweep([(rows, np.empty(0))])
            assert [_bits(c) for c in got] == [_bits(c) for c in want]


def _arcs(raw, pts):
    """circle_set, or None where the specs reach a full turn or more."""
    try:
        return circle_set(raw, pts)
    except ValueError:
        return None


def _stable_closure(s):
    """The essential closure as the stable sweep of the rows, all closed."""
    rows, pts = s._shown()
    if not pts.size and rows[:, 2:].all():
        return s
    rows = s._ends.copy()
    rows[:, 2:] = 1.0
    return s._from_line(_stable_sweep([(rows, np.empty(0))]))


# ---------------------------------------------------------------------------
# reading specs


class _Floaty:
    """A number by __float__ alone."""

    def __init__(self, v):
        self.v = v

    def __float__(self):
        return self.v

    def __repr__(self):
        return f"_Floaty({self.v!r})"


_ENDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.integers(-2**70, 2**70),
    st.sampled_from([10**400, -(10**400), 2**53 + 1]),
    st.booleans(),
    st.sampled_from(["1.5", "abc", "", "nan", " 2 "]),
    st.none(),
    st.builds(np.float64, st.floats(-10, 10)),
    st.builds(np.float32, st.floats(-10, 10, width=32)),
    st.builds(np.int64, st.integers(-10, 10)),
    st.builds(np.array, st.floats(-10, 10)),
    st.builds(_Floaty, st.floats(-10, 10)),
    st.just([1.0]),
)
_CODE = st.one_of(st.sampled_from(FLAGS), st.sampled_from(["xx", "o", "ccc", "OO", ""]),
                  st.sampled_from([1, None, b"oo", 0.0]), st.just(["cc"]))
_BOOL = st.one_of(st.booleans(), st.builds(np.bool_, st.booleans()),
                  st.sampled_from([0, 1, "cc", None]))


def _spec_forms(ends):
    return st.one_of(
        st.tuples(ends, ends),
        st.tuples(ends, ends, _CODE),
        st.tuples(ends, ends, _BOOL, _BOOL),
        st.tuples(ends), st.tuples(ends, ends, _CODE, _BOOL, _BOOL), st.just(()),
    )


def _as_list_or_tuple(forms):
    return st.builds(lambda container, spec: container(spec), st.sampled_from([tuple, list]), forms)


_SPEC = st.one_of(
    _as_list_or_tuple(_spec_forms(_ENDS)),
    # mostly valid forms, so that the column read is taken often
    _as_list_or_tuple(_spec_forms(st.floats(-5, 5)) | _spec_forms(st.integers(-5, 5))),
    st.builds(lambda a, b: {"lo": a, "hi": b}, _ENDS, _ENDS),
    st.builds(lambda a, b: np.array([min(a, b), max(a, b)]), st.floats(-5, 5), st.floats(-5, 5)),
    st.builds(lambda a, b, f: Interval(min(a, b), max(a, b), f[0] == "c", f[1] == "c"),
              st.floats(-5, 5), st.floats(-5, 5), st.sampled_from(FLAGS)),
    st.sampled_from(["ab", 3.0, None]),
)
_SPECS = st.one_of(st.lists(_SPEC, max_size=6),
                   st.lists(_as_list_or_tuple(_spec_forms(st.floats(-5, 5))), max_size=6))


def _outcome(f, *args):
    """('ok', result) or ('raised', exception type, message)."""
    try:
        with np.errstate(all="ignore"):
            return "ok", f(*args)
    except Exception as exc:   # the outcome compared is whatever the path raises
        return "raised", type(exc), str(exc)


def _per_spec(f, *args):
    """f with every spec read by _piece, one at a time."""
    with mock.patch.object(interval_sets, "_columns", lambda raws: None):
        return _outcome(f, *args)


class TestColumnRead:
    @given(_SPECS)
    @settings(max_examples=1500, deadline=None)
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_rows_and_first_error_are_the_per_spec_read(self, raws):
        got = _outcome(interval_sets._pieces, raws)
        want = _per_spec(interval_sets._pieces, raws)
        assert got[0] == want[0] == "ok"
        (rows, err), (want_rows, want_err) = got[1], want[1]
        assert _bits(rows) == _bits(want_rows)
        assert (type(err), str(err)) == (type(want_err), str(want_err))
        if interval_sets._columns(raws) is not None:
            assert want_err is None

    @given(_SPECS, st.sampled_from([canonicalize, circle_set]))
    @settings(max_examples=800, deadline=None)
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_sets_and_errors_are_those_of_the_per_spec_read(self, raws, build):
        got, want = _outcome(build, raws), _per_spec(build, raws)
        if got[0] == "ok" and want[0] == "ok":
            assert _same_set(got[1], want[1])
        else:
            assert got == want

    def test_column_read_takes_the_documented_forms(self):
        for raws in ([(0, 1.5, "oc"), (2, 3, "cc")], [[0.0, 1.0, "co"]], [(0.0, 1.0)],
                     [(0.0, 1.0, True, np.bool_(False))], [(-0.0, 2**60, "oo")]):
            assert interval_sets._columns(raws) is not None, raws
        for raws in ([(0.0, 1.0, "cc"), (0.0, 1.0)], [(0.0, "1", "cc")], [(0.0, 1.0, "xx")],
                     [(0.0, 1.0, 1, 0)], [np.array([0.0, 1.0])], [Interval(0, 1, True, True)],
                     [{"lo": 0.0, "hi": 1.0}], [(0.0, 1.0, ["cc"])], [(0.0,)]):
            assert interval_sets._columns(raws) is None, raws

    def test_ints_are_read_as_float_reads_them(self):
        ends = [2**53 + 1, 2**63 - 1, -(2**62) - 3, 10**17 + 1]
        rows = interval_sets._columns([(e, e + 1, "cc") for e in ends])
        assert rows[:, 0].tolist() == [float(e) for e in ends]
        assert rows[:, 1].tolist() == [float(e + 1) for e in ends]


_JSON_END = st.one_of(st.floats(-5, 5), st.integers(-5, 5), st.booleans(),
                      st.sampled_from(["1", "x"]), st.none(), st.just([1.0]))
_JSON_SPEC = st.one_of(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2).map(sorted),
    st.tuples(_JSON_END, _JSON_END, st.sampled_from(FLAGS + ("xx",))).map(list),
    st.lists(_JSON_END, max_size=4), st.just({"lo": 0.0}), st.just("ab"))


class TestJsonChecks:
    @given(st.lists(_JSON_SPEC, max_size=5), st.sampled_from(["line", "circle"]))
    @settings(max_examples=600, deadline=None)
    def test_set_from_json_raises_as_the_per_end_check(self, ivs, carrier):
        d = {"carrier": carrier, "intervals": ivs, "points": []}
        got = _outcome(set_from_json, d)
        with mock.patch.object(interval_sets, "_no_text_ends", lambda ivs: False):
            want = _outcome(set_from_json, d)
        if got[0] == "ok" and want[0] == "ok":
            assert _same_set(got[1], want[1])
        else:
            assert got == want


# ---------------------------------------------------------------------------
# point membership


def _run(code: str) -> str:
    """Standard output of code in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(acspectra.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_contains_leaves_numpy_ma_unimported():
    """Membership among 10 or more points is a searchsorted; np.isin's sort
    path would import numpy.ma (about 1 MB) on its first call."""
    code = ("import sys\n"
            "from acspectra.interval_sets import canonicalize, circle_set, pieces_mask\n"
            "s = canonicalize([(0, 1)], [float(k) for k in range(2, 14)])\n"
            "assert s.contains(5.0) and not s.contains(5.5)\n"
            "c = circle_set([(0, 1)], [1.5 + 0.1 * k for k in range(12)])\n"
            "assert c.contains(1.5) and not pieces_mask(c, [1.5])[0]\n"
            "print('numpy.ma' in sys.modules)\n")
    assert _run(code) == "False"


@pytest.mark.parametrize("seed", range(8))
def test_point_membership_is_isin(seed):
    rng = np.random.default_rng(seed)
    pts = np.unique(np.concatenate((rng.integers(-20, 20, 15) / 4.0, [0.0])))
    pts = np.where(pts == 0.0, [-0.0, 0.0][seed % 2], pts)
    xs = np.concatenate((rng.integers(-24, 24, 200) / 4.0, [0.0, -0.0, np.nan, 1e300]))
    s = canonicalize([], pts.tolist())
    assert np.array_equal(interval_sets.contains_mask(s, xs), np.isin(xs, pts))
    # a pass per point on the whole grid, a searchsorted one x at a time
    for x in [xs, *xs[:, None]]:
        assert np.array_equal(interval_sets._points_mask(pts, x), np.isin(x, pts))
    assert not interval_sets._points_mask(np.empty(0), xs).any()


# ---------------------------------------------------------------------------
# rational enumeration


def _fraction_enumeration(count):
    out, q = [], 1
    while len(out) < count:
        for p in range(q + 1):
            if math.gcd(p, q) == 1 and len(out) < count:
                out.append(float(Fraction(p, q)))
        q += 1
    return out


@pytest.mark.parametrize("count", [0, 1, 2, 3, 7, 100, 1000, 10**4])
def test_rational_enumeration_is_the_fraction_route(count):
    got, want = rational_enumeration(count), _fraction_enumeration(count)
    assert len(got) == count
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_package_imports_no_fractions():
    code = ("import sys\nimport acspectra.harness_cli\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
    assert _run(code) == "[]"
