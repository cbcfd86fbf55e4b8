"""Seeded inputs and operations of the benchmark workloads.

A workload is an endless sequence of rotations, each a short list of
operations (Op).  Rotation k is generated from (workload, seed, k) alone,
so the same seed always yields the same inputs, and a run measures whole
rotations, so every run holds the same mix of operation kinds.  The
program receives only the generated descriptors, grids and sets.  Each Op carries its own correctness check; checks run outside
the timed region and use the oracles in checks.py, never the code under
test, except where a second route of the program is the documented
oracle (the M11 formula against the truncation).  matrix_M_and_R has no
independent check: only the trace and identity gates it reports about
itself are read (see README.md).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from acspectra import cmv, harness_cli, interval_sets, jacobi, schrodinger
from acspectra.interval_sets import GeneratedFatSet, Interval, RealIntervalSet

import checks

TWO_PI = 2.0 * math.pi
XI_TOL = 1e-3                 # the reports' default phase tolerance
REPORT_CMV_ANGLES = 1024
DENSE_POINTS = {"jacobi": 40001, "schrodinger": 20001, "cmv": 16384}
DENSE_PATCH_SITES = 2
SCHRODINGER_TOP = 25.0        # upper end of the Schrodinger default grid
_dumps = json.dumps           # bound here so traced runs never see a hooked dumps


@dataclass
class Outcome:
    problem: str   # '' when the output agrees with its oracle
    status: str    # verdict of a report, 'ok' for other outputs
    digest: bytes  # deterministic bytes of the output
    written: int = 0   # bytes of the files the operation wrote


@dataclass
class Op:
    kind: str
    points: int                      # grid points, set items or spectral points
    run: Callable[[], object]        # the timed call into the program
    check: Callable[[object], Outcome]


def _r(x: float, digits: int = 3) -> float:
    return round(x, digits)


# ---------------------------------------------------------------------------
# operator descriptors

CONFTEST_OPERATORS = [
    ("free_jacobi", {"type": "jacobi", "period": 1, "a": [1.0], "b": [0.0]}),
    ("period2_jacobi", {"type": "jacobi", "period": 2, "a": [1.0, 1.0], "b": [1.0, -1.0]}),
    ("free_cmv", {"type": "cmv", "period": 1, "alpha": [[0.0, 0.0]]}),
    ("geronimus_cmv", {"type": "cmv", "period": 1, "alpha": [[0.5, 0.0]]}),
    ("free_schrodinger", {"type": "schrodinger", "period": 1.0, "pieces": [[1.0, 0.0]]}),
    ("square_well", {"type": "schrodinger", "period": 1.0,
                     "pieces": [[0.5, 0.0], [0.5, 5.0]]}),
]


def _alpha(rng, r_max):
    r, phi = rng.uniform(0.05, r_max), rng.uniform(0.0, TWO_PI)
    return [_r(r * math.cos(phi)), _r(r * math.sin(phi))]


PATCH_SITES = (1, -1, 2)          # lattice sites of a patch, in order of use
PATCH_PIECE_LENGTH = 0.4          # length of each Schrodinger patch piece


def random_descriptor(rng: random.Random, family: str, period: int, patch_sites: int) -> dict:
    """Periodic coefficients of the given period (Schrodinger: pieces per
    unit cell) plus a patch on patch_sites sites or pieces.  The shape is
    fixed and only the values are random: where a patch sits sets how far
    the kernels propagate, so random sites would make the cost random."""
    sites = sorted(PATCH_SITES[:patch_sites])
    if family == "jacobi":
        d = {"type": "jacobi", "period": period,
             "a": [_r(rng.uniform(0.5, 1.5)) for _ in range(period)],
             "b": [_r(rng.uniform(-1.0, 1.0)) for _ in range(period)]}
        if sites:
            d["patch"] = {str(n): [_r(rng.uniform(0.4, 1.6)), _r(rng.uniform(-1.5, 1.5))]
                          for n in sites}
        return d
    if family == "cmv":
        d = {"type": "cmv", "period": period,
             "alpha": [_alpha(rng, 0.7) for _ in range(period)]}
        if sites:
            d["patch"] = {str(n): _alpha(rng, 0.8) for n in sites}
        return d
    weights = [rng.randint(1, 4) for _ in range(period)]
    d = {"type": "schrodinger", "period": 1.0,
         "pieces": [[w / sum(weights), _r(rng.uniform(0.0, 6.0), 2)] for w in weights]}
    if sites:
        d["patch"] = [[PATCH_PIECE_LENGTH, _r(rng.uniform(-2.0, 6.0), 2)] for _ in sites]
    return d


def default_window(d: dict):
    """(start, stop) of the family default grid: [-R, R] with
    R = sup|b| + 2 sup|a| + 1 (Jacobi), [-sup|V| - 1, 25] (Schrodinger)."""
    if d["type"] == "jacobi":
        a = list(d["a"]) + [v[0] for v in d.get("patch", {}).values()]
        b = list(d["b"]) + [v[1] for v in d.get("patch", {}).values()]
        r = max(abs(x) for x in b) + 2.0 * max(abs(x) for x in a) + 1.0
        return -r, r
    vals = [abs(v) for _, v in d["pieces"]] + [abs(v) for _, v in d.get("patch", [])]
    return -max(vals) - 1.0, SCHRODINGER_TOP


def _read_and_remove(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    rotation_s = 1.0   # seconds one rotation takes at the seed commit (see run.py)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{k}")

    def rotation(self, k: int) -> list:
        raise NotImplementedError


class ReportSuite(Workload):
    """Operators through the `spec run` path: verify_inclusion, report JSON
    and CSV.  Rotation 0 holds the six fixture operators of the test suite.
    Every later rotation holds one seeded operator per family, on the
    default grids (CMV 1024 angles).  The shape runs through a fixed cycle:
    period 1-4, and every other rotation a patch on 1-3 sites.  Only the
    coefficients and the patch positions are random, so every seed runs
    the same mix of shapes."""
    name = "report_suite"
    rotation_s = 2.0

    def rotation(self, k):
        if k == 0:
            return [self._op(name, d) for name, d in CONFTEST_OPERATORS]
        rng = self.rng(k)
        period = 1 + (k - 1) // 2 % 4
        sites = 1 + (k // 2) % 3 if k % 2 else 0
        ops = []
        for family in ("jacobi", "cmv", "schrodinger"):
            d = random_descriptor(rng, family, period, sites)
            ops.append(self._op(f"r{k:04d}_{family}", d))
        return ops

    def _op(self, name: str, descriptor: dict) -> Op:
        grid = {"angles": REPORT_CMV_ANGLES} if descriptor["type"] == "cmv" else None
        cfg_path = os.path.join(self.workdir, f"{name}.config.json")
        out_dir = os.path.join(self.workdir, "out")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({"out_dir": out_dir, "seed": 0, "operators": [
                {"name": name, "descriptor": descriptor, "grid": grid}]}, fh)
        if descriptor["type"] == "cmv":
            points = REPORT_CMV_ANGLES
        else:
            points = 4001 if descriptor["type"] == "jacobi" else 2001

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return harness_cli.run_config(cfg_path)

        def check(code):
            report = _read_and_remove(os.path.join(out_dir, f"{name}_report.json"))
            csv = _read_and_remove(os.path.join(out_dir, f"{name}.csv"))
            return check_report(descriptor, code, report, csv)

        return Op(f"report.{descriptor['type']}", points, run, check)


def check_report(descriptor: dict, code: int, report: bytes, csv: bytes) -> Outcome:
    rep = json.loads(report)
    status = "FAILED" if rep["status"] == "FAILED" else rep["theorem_inclusion"]["status"]
    problem = ""
    if code != (1 if rep["status"] == "FAILED" else 0):
        problem = f"exit code {code} for a {rep['status']} report"
    grid = rep["grid"]
    if descriptor["type"] == "cmv":
        points = grid["angles"]
        xs, step = checks.angle_grid(points), TWO_PI / points
    else:
        points = grid["points"]
        xs = checks.line_grid(grid["start"], grid["stop"], points)
        step = (grid["stop"] - grid["start"]) / (points - 1)
    rows = csv.count(b"\n") - 1
    if rows != points:
        problem = problem or f"CSV has {rows} rows for {points} grid points"
    problem = problem or report_set_problem(descriptor, rep, xs, step)
    return Outcome(problem, status, report + csv, len(report) + len(csv))


def report_set_problem(descriptor: dict, rep: dict, xs: list, step: float) -> str:
    """The sets of a report against the band oracle.  The ac spectrum and
    the reflectionless set E must match the bands (lie in them, when
    patched); so must M2, the set of multiplicity two, since a periodic
    whole-line operator has multiplicity two on its bands.  M1 and the
    verdicts are not checked (see README.md)."""
    return (checks.band_mismatch(descriptor, checks.line_pieces(rep["ac_spectrum"]), xs, step)
            or checks.band_mismatch(descriptor, checks.line_pieces(rep["reflectionless"]["E"]),
                                    xs, step, "reflectionless set E")
            or checks.band_mismatch(descriptor, checks.line_pieces(rep["multiplicity"]["M2"]),
                                    xs, step, "multiplicity-two set M2"))


class DenseSweep(Workload):
    """`spec <family> --emit xi` on long grids (Jacobi 40001 points,
    Schrodinger 20001, CMV 16384 angles) for seeded operators patched on
    two sites, one per family in every rotation, of period 3 in even and 4
    in odd rotations."""
    name = "dense_sweep"
    rotation_s = 6.2

    def rotation(self, k):
        rng = self.rng(k)
        period = 3 + k % 2
        return [self._op(f"d{k:04d}_{family}",
                         random_descriptor(rng, family, period, DENSE_PATCH_SITES))
                for family in ("cmv", "jacobi", "schrodinger")]

    def _op(self, name: str, descriptor: dict) -> Op:
        family = descriptor["type"]
        points = DENSE_POINTS[family]
        desc_path = os.path.join(self.workdir, f"{name}.json")
        out_path = os.path.join(self.workdir, f"{name}.csv")
        with open(desc_path, "w", encoding="utf-8") as fh:
            json.dump(descriptor, fh)
        if family == "cmv":
            grid = f"0:{TWO_PI!r}:{points}"
        else:
            start, stop = default_window(descriptor)
            grid = f"{start!r}:{stop!r}:{points}"
        argv = [family, "--desc", desc_path, f"--grid={grid}", "--emit", "xi", "--out", out_path]

        def run():
            return harness_cli.spec_main(argv)

        def check(code):
            return check_xi_csv(descriptor, code, _read_and_remove(out_path), points)

        return Op(f"dense.{family}", points, run, check)


def check_xi_csv(descriptor: dict, code: int, csv: bytes, points: int) -> Outcome:
    """Grid points with an interior phase, as runs, against the band oracle."""
    rows = csv.decode("utf-8").splitlines()[1:]
    if code != 0 or len(rows) != points:
        return Outcome(f"exit code {code}, {len(rows)} rows for {points} points",
                       "ok", csv, len(csv))
    circle = descriptor["type"] == "cmv"
    col = 3 if circle else 1
    xs, interior = [], []
    for row in rows:
        cells = row.split(",")
        xs.append(float(cells[0]))
        if cells[col] == "":
            interior.append(False)
        elif circle:
            interior.append(abs(float(cells[col])) < 0.5 - XI_TOL)
        else:
            interior.append(XI_TOL < float(cells[col]) < 1.0 - XI_TOL)
    if circle:
        step = TWO_PI / points
        scan = checks.angle_grid(points)
    else:
        step = (xs[-1] - xs[0]) / (points - 1)
        scan = xs
    computed = checks.interior_runs(xs, interior, step)
    return Outcome(checks.band_mismatch(descriptor, computed, scan, step), "ok", csv, len(csv))


# ---------------------------------------------------------------------------
# set algebra

FLAGS = ("oo", "oc", "co", "cc")
CANON_SIZES = (250, 500, 1000, 1500, 2000)
CIRCLE_SIZES = (250, 500, 750, 1000)
ALGEBRA_SIZES = (250, 500, 750)
CLOSURE_SIZE = 1000
JSON_SIZE = 500
SET_OPS = ("union", "intersect", "difference", "symmetric_difference")
SET_SPAN = 100.0


def raw_intervals(rng, n: int, span: float):
    """n overlapping intervals with random flags plus n points in [0, span]."""
    raw = []
    for _ in range(n):
        lo = rng.uniform(0.0, span)
        raw.append((lo, lo + rng.expovariate(n / (0.6 * span)), rng.choice(FLAGS)))
    return raw, [rng.uniform(0.0, span) for _ in range(n)]


def random_canonical(rng, n: int, touch: float = 0.0) -> RealIntervalSet:
    """A canonical set built directly: n disjoint intervals, a fraction
    `touch` of them meeting their left neighbour at an endpoint neither
    contains, plus n // 10 isolated points in the gaps."""
    cuts = sorted(rng.uniform(0.0, SET_SPAN) for _ in range(2 * n))
    ivs, pts = [], []
    for i in range(n):
        lo, hi = cuts[2 * i], cuts[2 * i + 1]
        lo_c, hi_c = rng.random() < 0.5, rng.random() < 0.5
        if ivs and rng.random() < touch:
            lo, lo_c = ivs[-1].hi, False
            ivs[-1] = Interval(ivs[-1].lo, ivs[-1].hi, ivs[-1].lo_closed, False)
        if lo < hi:
            ivs.append(Interval(lo, hi, lo_c, hi_c))
    for prev, nxt in zip(ivs, ivs[1:]):
        if len(pts) < n // 10 and prev.hi < nxt.lo and rng.random() < 0.2:
            pts.append(0.5 * (prev.hi + nxt.lo))
    return RealIntervalSet(tuple(ivs), tuple(pts))


def _as_tuples(s) -> list:
    return [(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) for iv in s.intervals]


def _pairs(s) -> list:
    return [(iv.lo, iv.hi) for iv in s.intervals]


def _set_digest(*sets) -> bytes:
    return repr(sets).encode()


class SetAlgebra(Workload):
    """Interval- and arc-set tasks of `closure essential` style on seeded
    random sets: canonicalize, the four set operations, essential closure,
    circle sets, a JSON round trip and the rational fat-set density report.
    The sizes are fixed and only the sets are random, so every rotation
    costs about the same."""
    name = "set_algebra"
    rotation_s = 12.0

    def rotation(self, k):
        rng = self.rng(k)
        ops = [self._canon(rng, n) for n in CANON_SIZES]
        for n in ALGEBRA_SIZES:
            a, b = random_canonical(rng, n), random_canonical(rng, n)
            ops += [self._algebra(a, b, op) for op in SET_OPS]
        ops.append(self._closure(random_canonical(rng, CLOSURE_SIZE, touch=0.2)))
        ops += [self._circle(rng, n) for n in CIRCLE_SIZES]
        ops.append(self._json(random_canonical(rng, JSON_SIZE, touch=0.2)))
        ops.append(self._fat(rng.randint(20, 60)))
        return ops

    @staticmethod
    def _canon(rng, n):
        raw, pts = raw_intervals(rng, n, SET_SPAN)

        def check(s):
            problem = checks.canonical_problem(_as_tuples(s), s.isolated_points)
            want = checks.measure([(lo, hi) for lo, hi, _ in raw])
            got = math.fsum(hi - lo for lo, hi in _pairs(s))
            if not problem and not checks.close_enough(got, want, want):
                problem = f"measure {got!r} != union measure {want!r}"
            return Outcome(problem, "ok", _set_digest(s))

        return Op("set.canonicalize", 2 * n,
                  lambda: interval_sets.canonicalize(raw, pts), check)

    @staticmethod
    def _algebra(a, b, op):
        m_a = math.fsum(hi - lo for lo, hi in _pairs(a))
        m_b = math.fsum(hi - lo for lo, hi in _pairs(b))
        m_union = checks.measure(_pairs(a) + _pairs(b))

        def check(s):
            problem = checks.canonical_problem(_as_tuples(s), s.isolated_points)
            want = checks.expected_measure(op, m_a, m_b, m_union)
            got = math.fsum(hi - lo for lo, hi in _pairs(s))
            if not problem and not checks.close_enough(got, want, m_union):
                problem = f"{op} measure {got!r} != {want!r}"
            return Outcome(problem, "ok", _set_digest(s))

        items = len(a.intervals) + len(a.isolated_points) + len(b.intervals) + len(b.isolated_points)
        return Op(f"set.{op}", items, lambda: interval_sets.set_algebra(a, b, op), check)

    @staticmethod
    def _closure(a):
        m_a = math.fsum(hi - lo for lo, hi in _pairs(a))

        def run():
            once = interval_sets.essential_closure(a)
            return once, interval_sets.essential_closure(once)

        def check(result):
            once, twice = result
            problem = checks.canonical_problem(_as_tuples(once), once.isolated_points)
            if once != twice:
                problem = "essential closure is not idempotent"
            elif once.isolated_points or not all(iv.lo_closed and iv.hi_closed
                                                  for iv in once.intervals):
                problem = "essential closure is not a union of closed intervals"
            elif not checks.close_enough(math.fsum(hi - lo for lo, hi in _pairs(once)),
                                         m_a, m_a):
                problem = "essential closure changed the measure"
            return Outcome(problem, "ok", _set_digest(once))

        return Op("set.essential_closure", len(a.intervals) + len(a.isolated_points),
                  run, check)

    @staticmethod
    def _circle(rng, n):
        raw, pts = raw_intervals(rng, n, TWO_PI)
        want = checks.measure(checks.circle_pieces([(lo, hi) for lo, hi, _ in raw]))

        def run():
            s = interval_sets.circle_set(raw, pts)
            return s, interval_sets.essential_closure(s)

        def check(result):
            s, closed = result
            got = math.fsum(a.theta2 - a.theta1 for a in s.arcs)
            closed_measure = math.fsum(a.theta2 - a.theta1 for a in closed.arcs)
            problem = ""
            if not checks.close_enough(got, want, want):
                problem = f"arc set measure {got!r} != union measure {want!r}"
            elif closed.isolated_points or not checks.close_enough(closed_measure, got, got):
                problem = "circle essential closure kept points or changed the measure"
            return Outcome(problem, "ok", _set_digest(s, closed))

        return Op("set.circle", 2 * n, run, check)

    @staticmethod
    def _json(a):
        def run():
            text = _dumps(interval_sets.set_to_json(a), sort_keys=True)
            return interval_sets.set_from_json(json.loads(text))

        def check(back):
            problem = "" if back == a else "JSON round trip changed the set"
            return Outcome(problem, "ok", _set_digest(back))

        return Op("set.json_round_trip", len(a.intervals) + len(a.isolated_points), run, check)

    @staticmethod
    def _fat(n):
        def run():
            return interval_sets.fat_density_report(GeneratedFatSet.rational_fat(n))

        def check(rep):
            ivs = _pairs(rep.closure)
            problem = ""
            if len(ivs) != 1 or ivs[0][0] != 0.0 or abs(ivs[0][1] - 1.0) > 1e-9:
                problem = f"essential closure of the fat set is {ivs}, not [0, 1]"
            elif any(status == "fail" for _, status in rep.verdicts):
                problem = "a grid point of [0, 1] failed the density test"
            return Outcome(problem, "ok", _set_digest(rep.closure, rep.verdicts))

        return Op("set.fat_density", n, run, check)


# ---------------------------------------------------------------------------
# oracles

ORACLE_DRAWS = 20
DISCRIMINANT_POINTS = 2001
MATRIX_ANGLES = 512
MATRIX_WINDOW = 1024
M11_WINDOW = 1024
EIG_WINDOW = 2048
EIG_OUTLIERS = 16   # spurious angles allowed from the alpha = 1 cuts (4 blocks)


def _rounded_digest(values) -> bytes:
    return ",".join(f"{v:.9g}" for v in values).encode()


class Oracles(Workload):
    """Independent-oracle calls on seeded periodic operators: the Jacobi
    Green-inverse identity residual, the Jacobi and Schrodinger
    discriminants, cmv.M11 in oracle mode, three calls of
    cmv.matrix_M_and_R and two of cmv.eigenvalue_angles.  The heavy calls
    are the majority of a rotation so that the median latency falls among
    them, not among millisecond calls whose timing is mostly noise."""
    name = "oracles"
    rotation_s = 10.0

    def rotation(self, k):
        rng = self.rng(k)
        jac = random_descriptor(rng, "jacobi", rng.randint(1, 4), 0)
        sch = random_descriptor(rng, "schrodinger", rng.randint(1, 4), 0)
        return ([self._green(rng, jac), self._disc(jac), self._disc(sch), self._m11(rng)]
                + [self._matrix(rng) for _ in range(3)] + [self._eig(rng) for _ in range(2)])

    @staticmethod
    def _cmv_descriptor(rng):
        return random_descriptor(rng, "cmv", rng.randint(1, 2), 0)

    @staticmethod
    def _green(rng, d):
        op = jacobi.JacobiCoefficients.from_descriptor(d)
        lo, hi = default_window(d)
        zs = [complex(rng.uniform(lo, hi), rng.uniform(0.5, 2.0)) for _ in range(ORACLE_DRAWS)]

        def check(res):
            problem = "" if res < 1e-10 else f"Green inverse identity residual {res:.3e}"
            return Outcome(problem, "ok", b"")

        return Op("oracle.green_identity", ORACLE_DRAWS,
                  lambda: jacobi.green_inverse_identity_residual(op, zs), check)

    @staticmethod
    def _disc(d):
        lo, hi = default_window(d)
        lams = checks.line_grid(lo, hi, DISCRIMINANT_POINTS)
        if d["type"] == "jacobi":
            mod, op = jacobi, jacobi.JacobiCoefficients.from_descriptor(d)
            own = [checks.jacobi_trace(d["a"], d["b"], x) for x in lams[::10]]
        else:
            mod, op = schrodinger, schrodinger.PiecewisePotential.from_descriptor(d)
            own = [checks.schrodinger_trace(d["pieces"], x) for x in lams[::10]]

        def check(values):
            got = [complex(v) for v in values[::10]]
            worst = max(abs(g - w) / (1.0 + abs(w)) for g, w in zip(got, own))
            problem = "" if worst < 1e-9 else f"discriminant off by {worst:.3e} (relative)"
            return Outcome(problem, "ok", _rounded_digest(g.real for g in got))

        return Op(f"oracle.{d['type']}_discriminant", DISCRIMINANT_POINTS,
                  lambda: mod.discriminant(op, lams), check)

    def _m11(self, rng):
        op = cmv.VerblunskyCoefficients.from_descriptor(self._cmv_descriptor(rng))
        r, phi = rng.uniform(0.1, 0.9), rng.uniform(0.0, TWO_PI)
        z = complex(r * math.cos(phi), r * math.sin(phi))

        def check(value):
            formula = cmv.M11(op, z, 0)
            gap = abs(value - formula)
            problem = "" if gap < 1e-10 else f"M11 oracle differs from the formula by {gap:.3e}"
            return Outcome(problem, "ok", _rounded_digest([value.real, value.imag]))

        return Op("oracle.M11", 1,
                  lambda: cmv.M11(op, z, 0, mode="oracle", window=M11_WINDOW), check)

    def _matrix(self, rng):
        op = cmv.VerblunskyCoefficients.from_descriptor(self._cmv_descriptor(rng))
        angles = [TWO_PI * k / MATRIX_ANGLES for k in range(MATRIX_ANGLES)]

        def check(data):
            # the program's own gates, not an independent oracle (see README.md)
            problem = ""
            if data.trace_error > 1e-10 or abs(data.trace_at_zero - 2.0) > 1e-10:
                problem = f"trace checks {data.trace_error:.3e}, {data.trace_at_zero!r}"
            elif data.identity_residual > 1e-8:
                problem = f"M00/M11 identity residual {data.identity_residual:.3e}"
            return Outcome(problem, "ok", _rounded_digest([data.min_eigenvalue]))

        return Op("oracle.matrix_M_and_R", MATRIX_ANGLES,
                  lambda: cmv.matrix_M_and_R(op, 0, grid=angles, window=MATRIX_WINDOW), check)

    def _eig(self, rng):
        d = self._cmv_descriptor(rng)
        op = cmv.VerblunskyCoefficients.from_descriptor(d)
        band = checks.band_function(d)
        slack = 2.0 * TWO_PI / EIG_WINDOW

        def check(angles):
            outside = sum(1 for t in angles
                          if band(t) > 0.0 and band(t - slack) > 0.0 and band(t + slack) > 0.0)
            problem = ""
            if len(angles) != EIG_WINDOW or outside > EIG_OUTLIERS:
                problem = (f"{len(angles)} eigenvalue angles, {outside} outside the bands "
                           f"(> {EIG_OUTLIERS})")
            return Outcome(problem, "ok", _rounded_digest(angles[::64]))

        return Op("oracle.eigenvalue_angles", EIG_WINDOW,
                  lambda: cmv.eigenvalue_angles(op, window=EIG_WINDOW), check)


WORKLOADS = {w.name: w for w in (ReportSuite, DenseSweep, SetAlgebra, Oracles)}
