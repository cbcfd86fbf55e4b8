"""Report assembly, theorem-inclusion workflow, config runner, and CLIs.

Two console entry points are installed:

    closure   set-level utilities: essential-closure demo lines and JSON
              transforms (`closure sets --demo`, `closure essential --input`)
    spec      spectral reports for operator descriptors (`spec run --config
              c.json --out dir/`, `spec jacobi|cmv|schrodinger --desc op.json
              --grid a:b:n --emit xi|spectrum|report`)

A SpectralReport collects, for one operator: the ac spectrum from the
boundary phase, the reflectionless verdict on a target set E, the
multiplicity sets, named identity residuals, and the inclusion check

    essential_closure(E)  subset of  sigma_ac   (one grid step of slack)

together with the multiplicity-two coverage of E.  The inclusion is the
numerical content of the containment theorems for reflectionless operators;
when the reflectionless hypothesis fails on E the inclusion is SKIPPED with
the reason recorded rather than reported as a failure, and so it is when E
is omitted and the computed ac spectrum has zero measure on the grid.  A
report is FAILED exactly when the ac spectra of the two reference sites
differ by more than two grid steps, the phase is undetermined at more than
MAX_UNDETERMINED (1%) of the grid points at either site, an identity
residual reaches its threshold, or the inclusion check runs and fails (the
closure of E leaves the ac spectrum by more than one grid step, or M2
misses more than 1% of E); every failure names the violated inequality and
its margin.

Config runs are deterministic: fixed seed, sorted JSON keys, LF endings, no
timestamps; reports embed the tolerances (TOLERANCES, fixed) for auditability.
The seed drives the identity draws through stdlib random.Random, so a
report process never imports numpy.random.

Each entry is loaded and checked once (_load), and spec run, `spec
<family> --emit report` and verify_inclusion assemble its report from that
load (_report), with the shared ac_spectrum, reflectionless_on and
multiplicity_sets and the family record boundary_analysis.family(op).  A
report opens a sweep scope (boundary_analysis's sweep_scope and memo),
which computes each family sweep once for the ac spectrum, the
reflectionless test, the multiplicity sets, the CMV boundary identity
residual and the CSV, and each site's phase once for the ac spectrum and
the undetermined count.

Exit codes for `spec run`: 0 all reports PASS, 1 failures or IO errors,
2 malformed input, every entry checked before anything is written (config
JSON, operators list, seed, entry name, descriptor, grid, target set E,
Jacobi coefficients past jacobi.MAX_COEFFICIENT or MIN_OFF_DIAGONAL, a
Schrodinger period with no span of 1e-15 in its second half, no output dir), 3
unknown operator type.  Overflow is never a load-time refusal: a value
that is not finite is an undetermined point of a sweep or a failed
identity residual, so the report is written.  `spec jacobi|cmv|schrodinger`
exits the same way: 1 when the report it writes is FAILED, the sites of
the ac spectrum it writes (the first site's) disagree, or its --out file
cannot be written, 2 for an unreadable descriptor, a malformed --grid or a
cmv report grid short of the whole circle.  Grid limits are
boundary_analysis.sweep_grid's, and a grid count is at most
MAX_GRID_POINTS.  A JSON object read takes only its documented keys, and
another key exits 2 naming it: config out_dir, seed, operators; entry
name, descriptor, E, grid; line grid start, stop, points; circle grid
angles; descriptors type, period and a, b, patch (jacobi), alpha, patch
(cmv) or pieces, patch (schrodinger); set JSON carrier, intervals,
points, or family, radius_base, truncation.
A documented number that is a JSON string or boolean exits 2 as well
(errors.check_number).
Entry names (operator_k by default) are distinct non-empty strings free of
'/', os.sep and NUL, as each names two files of the output directory.

The report path needs numpy alone, without numpy.random: both identity
oracles (Jacobi's Dirichlet-window resolvent, CMV's truncated Cayley
diagonal) are tridiagonal solves whose matrices are built and solved one
block of draws at a time (boundary_analysis.resolvent_in_blocks), and the
CSV is formatted one block of rows at a time (boundary_analysis.CSV_BLOCK),
so neither holds a whole-batch temporary.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import jacobi as _jacobi
from . import cmv as _cmv
from . import schrodinger as _schrodinger
from .boundary_analysis import (REFLECTIONLESS_TOL, ReflectionlessReport, ac_spectrum, family,
                                memo_phase, memo_sweep, multiplicity_sets, reflectionless_on,
                                sweep_at, sweep_csv, sweep_grid, sweep_scope)
from .errors import SiteDisagreement, check_keys, check_number
from .interval_sets import (CircleArcSet, GeneratedFatSet, RealIntervalSet, canonicalize,
                            essential_closure, fat_density_report, pieces_mask,
                            lebesgue_measure, longest_component, rational_enumeration,
                            set_algebra, set_from_json, set_to_json, widen)

# the family table: each descriptor type's operator type (its record: family(op))
OPERATOR_TYPES = {"jacobi": _jacobi.JacobiCoefficients, "cmv": _cmv.VerblunskyCoefficients,
                  "schrodinger": _schrodinger.PiecewisePotential}
# a report is FAILED past this fraction of undetermined grid points at a site
MAX_UNDETERMINED = 0.01
# the most grid points or angles a config or --grid may ask for
MAX_GRID_POINTS = 2 ** 20
SCHEMA = "v2"

# the report tolerances, each a fixed value; the last three are identity
# residual thresholds
TOLERANCES = {"reflectionless_tol": REFLECTIONLESS_TOL, "identity_draws": 20,
              "oracle_window": 1024, "green_inverse_identity": 1e-10,
              "m11_formula_vs_oracle": 1e-10, "m11_boundary_real_part": 1e-3}


class UnknownOperatorType(ValueError):
    def __init__(self, given):
        super().__init__(f"unknown operator type {given!r}; supported types: "
                         + ", ".join(OPERATOR_TYPES))


def build_operator(descriptor: dict):
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    operator_type = OPERATOR_TYPES.get(kind) if isinstance(kind, str) else None
    if operator_type is None:
        raise UnknownOperatorType(kind)
    return operator_type.from_descriptor(descriptor)


def _whole(value, what: str) -> int:
    """value as an int of at most MAX_GRID_POINTS; a larger, fractional or
    non-finite number, a string or a bool raises ValueError."""
    if check_number(value, f"grid {what}") > MAX_GRID_POINTS:
        raise ValueError(f"grid {what} must be at most {MAX_GRID_POINTS}, not {value!r:.80}")
    if not float(value).is_integer():
        raise ValueError(f"grid {what} must be a whole number, not {value!r:.80}")
    return int(value)


def _resolve_grid(kind: str, op, grid_config):
    """Grid array plus its JSON echo from a config dict or the family
    default, refused by _whole and sweep_grid (a negative count reads as none)."""
    if grid_config is not None and not isinstance(grid_config, dict):
        raise ValueError(f"grid must be an object or null, not {grid_config!r:.80}")
    fam = family(op)
    grid_config = grid_config or {}
    check_keys(grid_config, ("angles",) if fam.circle else ("start", "stop", "points"),
               f"{kind} grid key")
    if not grid_config:
        grid = fam.grid(op)
        echo = ({"angles": grid.size} if fam.circle else
                {"start": float(grid[0]), "stop": float(grid[-1]), "points": int(grid.size)})
    elif fam.circle:
        echo = {"angles": _whole(grid_config["angles"], "angles")}
        grid = _cmv.default_angles(max(echo["angles"], 0))
    else:
        echo = {end: float(check_number(grid_config[end], f"grid {end}"))
                for end in ("start", "stop")}
        echo["points"] = _whole(grid_config["points"], "points")
        if not math.isfinite(echo["stop"] - echo["start"]):     # np.linspace would warn
            raise ValueError(f"grid start, stop and their difference must be finite: {echo!r}")
        grid = np.linspace(echo["start"], echo["stop"], max(echo["points"], 0))
    return sweep_grid(fam, op, grid)[0], echo


# one operator entry as _load checked it, E None when the entry has none
Entry = namedtuple("Entry", "op grid grid_echo E descriptor")


def _load(descriptor: dict, E, grid_config) -> Entry:
    """The Entry of one operator entry; a malformed descriptor, grid or
    target set raises ValueError, by the same checks for every family."""
    try:
        op = build_operator(descriptor)
        kind = descriptor["type"]
        grid, grid_echo = _resolve_grid(kind, op, grid_config)
        E_set = set_from_json(E) if isinstance(E, dict) else E
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed operator entry ({type(exc).__name__}: {exc})") from None
    carrier = CircleArcSet if family(op).circle else RealIntervalSet
    if E_set is not None and not (isinstance(E_set, carrier) and _testable(E_set, grid)):
        raise ValueError(f"E must be an explicit {carrier.__name__} of positive measure "
                         f"with a grid point in its intervals, not {E_set!r:.80}")
    return Entry(op, grid, grid_echo, E_set, descriptor)


def _testable(E, grid) -> bool:
    """Whether the reflectionless test can read E on the grid: E has
    positive measure and a grid point in its intervals (pieces_mask)."""
    return E.measure() > 0.0 and bool(pieces_mask(E, grid).any())


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, (np.floating, np.integer)):
        return _json_safe(float(x))
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


@dataclass
class SpectralReport:
    name: str
    family: str
    descriptor: dict
    status: str
    failures: list
    tolerances: dict
    grid: dict                  # the grid's JSON echo
    ac_spectrum: object
    reflectionless: dict
    multiplicity: dict
    identity_residuals: dict
    theorem_inclusion: dict

    def to_json(self) -> dict:
        """The report document: the schema and every field, the ac spectrum as set JSON."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return _json_safe(dict(doc, schema=SCHEMA, ac_spectrum=set_to_json(self.ac_spectrum)))


def _identity_residuals(kind: str, op, grid, E, refl_verdict: bool, seed: int) -> dict:
    """Named identity residual maxima for one operator family, at
    TOLERANCES["identity_draws"] points drawn from random.Random(seed): on
    the line Re z uniform on the grid's range, then Im z uniform on [0.5,
    2]; on the circle the radius sqrt(U[0, 0.81]), then the angle U[0,
    2 pi).  Stdlib random keeps numpy.random, and its memory, out of a
    report process."""
    draws = TOLERANCES["identity_draws"]
    rng = random.Random(seed)
    uniform = lambda lo, hi: np.array([rng.uniform(lo, hi) for _ in range(draws)])
    out = {}

    def entry(name, value, n):
        thr = TOLERANCES[name]
        out[name] = {"value": float(value), "threshold": thr,
                     "passed": bool(value < thr), "n_draws": int(n)}

    # as in exact_sweep, a value that is not finite is data: an oracle that
    # overflows leaves a residual that is not finite, and nan < threshold
    # is False, so the identity fails without a numpy warning
    with np.errstate(all="ignore"):
        if kind != "cmv":
            lo, hi = float(grid[0]), float(grid[-1])
            zs = uniform(lo, hi) + 1j * uniform(0.5, 2.0)
            residual = (_jacobi.green_inverse_identity_residual if kind == "jacobi"
                        else _schrodinger.green_identity_residual)
            entry("green_inverse_identity", residual(op, zs), draws)
        else:
            r = np.sqrt(uniform(0.0, 0.81))
            zs = r * np.exp(1j * uniform(0.0, 2.0 * math.pi))
            # the formula route and the truncation oracle of M11's oracle mode,
            # each at all draws in one call
            m11 = _cmv._M11_grid(op, zs, 0)["M11"]
            oracle = _cmv.truncation_cayley_diag(op, zs, 0, TOLERANCES["oracle_window"])
            entry("m11_formula_vs_oracle", np.max(np.abs(m11 - oracle)), draws)
            if refl_verdict:    # so E has a grid point in its arcs
                idx = np.flatnonzero(pieces_mask(E, grid))
                idx = idx[:: max(1, idx.size // 64)]
                # the report's site-0 sweep, read at the sampled angles of E; the
                # kernel works point by point, so a sweep of those angles alone
                # has the same bits
                bd = sweep_at(memo_sweep(op, grid, 0), idx)
                entry("m11_boundary_real_part", _cmv.m11_identity_residual(bd), idx.size)
    return out


def verify_inclusion(descriptor: dict, E=None, grid_config=None, name: str = "operator",
                     seed: int = 0) -> SpectralReport:
    """Assemble the full report for one operator descriptor.

    E may be a canonical set, a set JSON dict, or None (then the computed ac
    spectrum itself is used as the target set).  The inclusion check asserts
    essential_closure(E) inside the ac spectrum widened by one grid step, and
    multiplicity two on E up to a 1% defect fraction; both are SKIPPED when
    the reflectionless hypothesis fails on E.  When the ac spectrum differs
    between the two reference sites by more than two grid steps, the report
    keeps the first site's set and is FAILED; so it is when the phase is
    undetermined at more than MAX_UNDETERMINED of the grid at either site.
    Every threshold is the fixed TOLERANCES value.
    """
    return _report(_load(descriptor, E, grid_config), name, seed)


@sweep_scope()
def _report(entry: Entry, name: str, seed: int) -> SpectralReport:
    """The report of one operator entry from its _load result."""
    op, grid, kind = entry.op, entry.grid, entry.descriptor["type"]
    step = float(grid[1] - grid[0])
    failures = []

    try:
        ac = ac_spectrum(op, grid)
    except SiteDisagreement as exc:
        ac = exc.spectrum
        failures.append(str(exc))
    fam = family(op)
    for site in fam.sites(op):      # the phases the ac spectrum read, from the memo
        undetermined = int(np.count_nonzero(~memo_phase(op, grid, site)[2]))
        if undetermined > MAX_UNDETERMINED * grid.size:
            failures.append(f"undetermined: {undetermined} of {grid.size} grid points at "
                            f"reference {site} (> {MAX_UNDETERMINED:.0%})")

    testable = entry.E is not None or _testable(ac, grid)   # _load tests a given E
    E_set = ac if entry.E is None else entry.E
    if testable:
        refl = reflectionless_on(op, E_set, grid)
    else:       # only a computed E: a given one is checked on loading
        refl = ReflectionlessReport(
            verdict=False, fraction=math.nan, max_residual=math.nan,
            n_points=0, defect_points=fam.hull(grid[:0], step), xi_fraction=math.nan)
    M2, M1 = multiplicity_sets(op, grid)

    identities = _identity_residuals(kind, op, grid, E_set, refl.verdict, seed)
    for nm, e in identities.items():
        if not e["passed"]:
            failures.append(f"identity {nm}: {e['value']:.3e} >= {e['threshold']:.1e}")

    E_closure = essential_closure(E_set)
    inclusion = {"status": "SKIPPED", "reason": "",
                 "essential_closure_E": set_to_json(E_closure), "contained_in_ac": None,
                 "overhang": None, "slack": float(step),
                 "multiplicity_two_covers_E": None, "m2_defect_fraction": None}
    if refl.verdict:
        # largest piece of the closure of E outside the ac spectrum's one-step widening
        overhang = longest_component(set_algebra(E_closure, widen(ac, step), "difference"))
        contained = overhang <= 1e-12
        # E has positive measure, as the reflectionless test needs
        m2_defect = 1.0 - set_algebra(E_set, M2, "intersect").measure() / E_set.measure()
        covers = m2_defect <= 0.01 + 1e-12
        if not contained:
            failures.append(
                f"inclusion: essential closure of E exceeds the ac spectrum widened by one "
                f"grid step ({step:.3e}) by {overhang:.3e} (> 1e-12)")
        if not covers:
            failures.append(f"multiplicity: M2 misses {m2_defect:.2%} of E (> 1%)")
        inclusion.update(status="PASS" if (contained and covers) else "FAILED",
                         contained_in_ac=bool(contained), overhang=float(overhang),
                         multiplicity_two_covers_E=bool(covers),
                         m2_defect_fraction=float(m2_defect))
    else:
        inclusion["reason"] = (
            (f"reflectionless hypothesis fails on E (passing fraction {refl.fraction:.4f} "
             "<= 0.99); ") if testable else
            "E, the computed ac spectrum, has zero measure on the grid, so the "
            "reflectionless test cannot run; ") + "the containment theorem does not apply"

    echo = ("reflectionless_tol", "identity_draws") + (("oracle_window",) if kind == "cmv" else ())
    eff_tol = dict({name: TOLERANCES[name] for name in echo}, slack_steps=1)

    return SpectralReport(
        name=name, family=kind, descriptor=entry.descriptor, failures=failures,
        status="FAILED" if failures else "PASS", tolerances=eff_tol, grid=entry.grid_echo,
        ac_spectrum=ac, reflectionless=dict(vars(refl), E=set_to_json(E_set),
                                            defect_points=set_to_json(refl.defect_points)),
        multiplicity={"M2": set_to_json(M2), "M1": set_to_json(M1),
                      "boundary_pair": f"({', '.join(fam.pair)})"},
        identity_residuals=identities, theorem_inclusion=inclusion)


def _csv_for(op, grid) -> str:
    return sweep_csv(op, grid)


def _fail(code: int, message: str) -> int:
    """Print the error line of a refused input or a failed write; return its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


def _json_text(doc) -> str:
    """The text of every JSON file the CLIs write: sorted keys, indent 2, a final LF."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_out(path, text: str) -> int:
    """Write text to the file path (LF line ends), or to stdout when path is
    None: 0, or 1 with an error line when the file cannot be written."""
    if not path:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(1, str(exc))
    return 0


def _entry_names(ops: list) -> list:
    """Each entry's name (operator_k by default) after checking its keys;
    ValueError unless the names differ and are non-empty strings free of
    '/', os.sep and NUL, since each names two files of the output directory."""
    names = []
    for k, entry in enumerate(ops):
        check_keys(entry, ("name", "descriptor", "E", "grid"), "operator entry key")
        name = entry.get("name", f"operator_{k}")
        if not (isinstance(name, str) and name) or {"/", os.sep, "\0"} & set(name):
            raise ValueError(f"entry name must be a non-empty string without '/', not {name!r:.80}")
        if name in names:
            raise ValueError(f"two operator entries are named {name!r:.80}")
        names.append(name)
    return names


def run_config(path: str, out_dir: str = None) -> int:
    """Process a config file; one report JSON + one CSV per operator.

    Config schema: {"out_dir": str, "seed": int, "operators": [{"name": str,
    "descriptor": {...}, "E": set JSON or null, "grid": {...} or null}, ...]},
    and no other key; every report reads the fixed TOLERANCES.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read config {path}: {exc}")
    ops = cfg.get("operators") if isinstance(cfg, dict) else None
    if not isinstance(ops, list) or not ops or not all(isinstance(e, dict) for e in ops):
        return _fail(2, "config needs a nonempty 'operators' list of objects")
    try:
        check_keys(cfg, ("out_dir", "seed", "operators"), "config key")
        seed = cfg.get("seed", 0)
        if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, not {seed!r:.80}")
        names = _entry_names(ops)
        loaded = [_load(e.get("descriptor"), e.get("E"), e.get("grid")) for e in ops]
    except ValueError as exc:
        return _fail(3 if isinstance(exc, UnknownOperatorType) else 2, str(exc))
    out = out_dir or cfg.get("out_dir")
    if not out:
        return _fail(2, "no output directory (config out_dir or --out)")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        return _fail(1, str(exc))

    any_failed = False
    for name, entry in zip(names, loaded):
        with sweep_scope():     # the report and its CSV share one sweep memo
            rep = _report(entry, name, seed)
            files = {f"{name}_report.json": _json_text(rep.to_json()),
                     f"{name}.csv": _csv_for(entry.op, entry.grid)}
        for file_name, text in files.items():
            if _write_out(os.path.join(out, file_name), text):
                return 1
        print(f"{name}: {rep.status}" + (f" ({'; '.join(rep.failures)})" if rep.failures else ""))
        any_failed = any_failed or rep.status == "FAILED"
    return 1 if any_failed else 0


def bundled_config_path(name: str = "free_suite.json") -> str:
    return os.path.join(os.path.dirname(__file__), "configs", name)


# ---------------------------------------------------------------------------
# set demos

def format_set(s) -> str:
    """Compact human-readable rendering of a canonical set."""
    circle = isinstance(s, CircleArcSet)
    if circle and s.is_full():
        return "full circle"
    parts = ([f"arc[{a.theta1:.6g}, {a.theta2:.6g}]" for a in s.arcs] if circle
             else [f"[{iv.lo:.6g}, {iv.hi:.6g}]" for iv in s.intervals])
    parts += [f"{{{p:.6g}}}" for p in s.isolated_points]
    return " u ".join(parts) if parts else "empty"


def emit_sets_demo() -> str:
    """Three demo lines: isolated points vanish; a fat open set around the
    rationals has small measure but full essential closure; a countable
    support has empty essential closure."""
    lines = []

    a = canonicalize([(0.0, 1.0, "cc")], [2.0])
    lines.append(f"essential closure drops isolated points: "
                 f"[0, 1] u {{2}} -> {format_set(essential_closure(a))}")

    fat = GeneratedFatSet.rational_fat(20)
    lo, hi = lebesgue_measure(fat)
    rep = fat_density_report(fat)
    closure_measure = rep.closure.measure()
    lines.append(
        f"fat open cover of the rationals in [0, 1]: measure <= {hi:.6f} "
        f"(<= 2/3 = {2/3:.6f}), essential closure {format_set(rep.closure)} with "
        f"closure-minus-set measure >= {closure_measure - hi:.6f} (>= 1/3, "
        f"truncation tail {fat.tail_measure_bound:.2e})")

    pp = canonicalize([], rational_enumeration(30))
    lines.append(
        f"countable pure-point support (Lebesgue measure "
        f"{pp.measure():.1f}): essential closure {format_set(essential_closure(pp))}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLIs

def closure_main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="closure", description="essential-closure set utilities")
    sub = p.add_subparsers(dest="cmd", required=True)
    p_sets = sub.add_parser("sets", help="built-in demonstrations")
    p_sets.add_argument("--demo", action="store_true",
                        help="print the three demo lines")
    p_ess = sub.add_parser("essential", help="essential closure of a set JSON")
    p_ess.add_argument("--input", required=True, help="set JSON file")
    p_ess.add_argument("--output", help="write result JSON here (default stdout)")
    ns = p.parse_args(argv)

    if ns.cmd == "sets":
        if ns.demo:
            print(emit_sets_demo())
        else:
            p.error("nothing to do: pass --demo")
        return 0

    try:
        with open(ns.input, encoding="utf-8") as fh:
            s = set_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        return _fail(2, f"cannot read set JSON {ns.input}: {exc}")
    return _write_out(ns.output, _json_text(set_to_json(essential_closure(s))))


def _parse_grid_arg(arg: str):
    """(start, stop, points) of a --grid argument; ValueError unless it has
    the form start:stop:points."""
    try:
        a, b, n = arg.split(":")
        return float(a), float(b), int(n)
    except ValueError:
        raise ValueError(f"--grid expects start:stop:points, got {arg!r}") from None


def spec_main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="spec", description="spectral reports for operator descriptors")
    sub = p.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="process a config of operators")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", help="output directory (overrides config)")

    for kind in OPERATOR_TYPES:
        q = sub.add_parser(kind, help=f"single {kind} descriptor")
        q.add_argument("--desc", required=True, help="descriptor JSON file")
        q.add_argument("--grid", help="start:stop:points "
                       "(cmv: angle grid, endpoint excluded)")
        q.add_argument("--emit", choices=("xi", "spectrum", "report"),
                       default="report")
        q.add_argument("--out", help="write to this file (default stdout)")
    ns = p.parse_args(argv)

    if ns.cmd == "run":
        return run_config(ns.config, ns.out)

    try:
        with open(ns.desc, encoding="utf-8") as fh:
            descriptor = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(2, f"cannot read descriptor {ns.desc}: {exc}")
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    if kind != ns.cmd:
        return _fail(3, f"descriptor type {kind!r} does not match subcommand {ns.cmd!r}")

    fam = family(OPERATOR_TYPES[kind])
    grid_config = None
    try:
        if ns.grid:
            a, b, n = _parse_grid_arg(ns.grid)
            if fam.circle and ns.emit == "report" and not (
                    a == 0.0 and math.isclose(b, 2.0 * math.pi, rel_tol=1e-9)):
                raise ValueError(f"a {kind} report covers the whole circle (step 2 pi/n); "
                                 f"--grid must be 0:{2.0 * math.pi!r}:n, not {ns.grid!r}")
            grid_config = {"angles": n} if fam.circle else {"start": a, "stop": b, "points": n}
        entry = _load(descriptor, None, grid_config)
        op, grid = entry.op, entry.grid
        if ns.grid and fam.circle:      # the angle range of --grid, endpoint excluded
            with np.errstate(over="ignore", invalid="ignore"):  # sweep_grid refuses inf, nan
                angles = np.linspace(a, b, n, endpoint=False)
            grid = sweep_grid(fam, op, angles)[0]
    except ValueError as exc:
        return _fail(2, str(exc))

    failed = False
    if ns.emit == "xi":
        text = _csv_for(op, grid)
    elif ns.emit == "spectrum":
        try:
            ac = ac_spectrum(op, grid)
        except SiteDisagreement as exc:     # the first site's set, as a report keeps it
            ac, failed = exc.spectrum, True
            _fail(1, str(exc))
        text = _json_text(set_to_json(ac))
    else:       # on the loaded grid: the whole circle at step 2 pi/n for cmv
        rep = _report(entry, os.path.splitext(os.path.basename(ns.desc))[0], 0)
        text = _json_text(rep.to_json())
        failed = rep.status == "FAILED"
    return _write_out(ns.out, text) or int(failed)


if __name__ == "__main__":
    sys.exit(spec_main())
