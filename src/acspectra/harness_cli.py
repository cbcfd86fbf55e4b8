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
report is FAILED exactly when some residual exceeds its threshold or an
enforced check is violated; every failure names the violated inequality and
its margin.

Config runs are deterministic: fixed seed, sorted JSON keys, LF endings, no
timestamps; reports embed the effective tolerances for auditability.

One report computes each boundary sweep once: verify_inclusion and each
operator of run_config open a sweep scope (boundary_analysis.sweep_scope),
whose memo (boundary_analysis.memo) keeps each family sweep for the ac
spectrum, the reflectionless test, the multiplicity sets, the CMV boundary
identity residual and the CSV to read.

Exit codes for `spec run`: 0 all reports PASS, 1 failures or IO errors,
2 malformed config JSON, seed, descriptor, grid, tolerances or target set E
(every entry is checked before anything is written), 3 unknown operator
type.  `spec jacobi|cmv|schrodinger` exits the same way: 1 when the report
it writes is FAILED or its --out file cannot be written, 2 for an
unreadable descriptor or a malformed --grid.

The report path needs numpy alone: both identity oracles (Jacobi's
Dirichlet-window resolvent, CMV's truncated Cayley diagonal) are batched
tridiagonal solves (boundary_analysis.tridiagonal_resolvent).
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import jacobi as _jacobi
from . import cmv as _cmv
from . import schrodinger as _schrodinger
from .boundary_analysis import ReflectionlessReport, sweep_at, sweep_csv, sweep_scope
from .errors import SiteDisagreement
from .interval_sets import (CircleArcSet, GeneratedFatSet, RealIntervalSet, canonicalize,
                            contains_mask, essential_closure, fat_density_report,
                            lebesgue_measure, longest_component, rational_enumeration,
                            set_algebra, set_from_json, set_to_json, widen)

SUPPORTED_TYPES = ("jacobi", "cmv", "schrodinger")
# a Schrodinger operator whose transfers may grow like exp(x) on its grid is
# refused at load for x past this: floquet_pair squares the monodromy trace
# and the identity residual's Wronskian multiplies two solutions carried
# across the patch and a period, so products reach exp(3x), and exp
# overflows past 709.78
MAX_TRANSFER_EXPONENT = 700.0 / 3.0
FAMILY_MODULES = {"jacobi": _jacobi, "cmv": _cmv, "schrodinger": _schrodinger}
SCHEMA = "v1"

# the report tolerances, name -> (default, least value): a count has an integer
# least value, every other tolerance (None) is a finite number; the last three
# are identity residual thresholds
TOLERANCES = {"reflectionless_tol": (1e-4, None), "identity_draws": (20, 1),
              "oracle_window": (1024, 6), "green_inverse_identity": (1e-10, None),
              "m11_formula_vs_oracle": (1e-10, None), "m11_boundary_real_part": (1e-3, None)}


class UnknownOperatorType(ValueError):
    def __init__(self, given):
        super().__init__(
            f"unknown operator type {given!r}; supported types: "
            + ", ".join(SUPPORTED_TYPES))
        self.given = given


def build_operator(descriptor: dict):
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    if kind == "jacobi":
        return _jacobi.JacobiCoefficients.from_descriptor(descriptor)
    if kind == "cmv":
        return _cmv.VerblunskyCoefficients.from_descriptor(descriptor)
    if kind == "schrodinger":
        return _schrodinger.PiecewisePotential.from_descriptor(descriptor)
    raise UnknownOperatorType(kind)


def _whole(value, what: str) -> int:
    """value as an int; a fractional or non-finite number raises ValueError."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"grid {what} must be a whole number, not {value!r:.80}")
    return int(value)


def _resolve_grid(kind: str, op, grid_config):
    """Grid array plus its JSON echo from a config dict or family default."""
    if grid_config is not None and not isinstance(grid_config, dict):
        raise ValueError(f"grid must be an object or null, not {grid_config!r:.80}")
    if kind == "cmv":
        n = _whole((grid_config or {}).get("angles", 512), "angles")
        if n < 512:
            raise ValueError(f"a cmv grid needs at least 512 angles, got {n}")
        return _cmv.default_angles(n), {"angles": n}
    if grid_config:
        start = float(grid_config["start"])
        stop = float(grid_config["stop"])
        points = _whole(grid_config["points"], "points")
        if points < 2 or not (math.isfinite(start) and math.isfinite(stop) and stop > start):
            raise ValueError("a grid needs finite start < stop and at least 2 points")
        return np.linspace(start, stop, points), \
            {"start": start, "stop": stop, "points": points}
    g = FAMILY_MODULES[kind].default_grid(op)
    return g, {"start": float(g[0]), "stop": float(g[-1]), "points": int(g.size)}


def _check_tolerances(tolerances) -> dict:
    """Each TOLERANCES value, given (as a Python number) or default.  Raise
    ValueError unless tolerances is None or maps known names to finite numbers
    (numpy scalars too), counts to integers of at least their least value."""
    tolerances = {} if tolerances is None else tolerances
    if not isinstance(tolerances, dict):
        raise ValueError(f"tolerances must be an object, not {tolerances!r:.80}")
    for name, value in tolerances.items():
        if name not in TOLERANCES:
            raise ValueError(f"unknown tolerance {name!r:.80}; the tolerances are "
                             + ", ".join(TOLERANCES))
        least = TOLERANCES[name][1]
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if least is not None:
            if not (number and isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"tolerance {name!r} must be an integer >= {least}, "
                                 f"not {value!r:.80}")
        elif not (number and math.isfinite(value)):
            raise ValueError(f"tolerance {name!r} must be a finite number, not {value!r:.80}")
    return {name: type(default)(tolerances.get(name, default))
            for name, (default, _) in TOLERANCES.items()}


def _load(descriptor: dict, E, grid_config, tolerances=None):
    """(op, grid, grid_echo, E_set) of one operator entry, E_set None when E
    is; a malformed descriptor, grid, target set or tolerances raises
    ValueError, and so does a Schrodinger potential whose transfers would
    overflow on the grid."""
    _check_tolerances(tolerances)
    try:
        op = build_operator(descriptor)
        grid, grid_echo = _resolve_grid(descriptor["type"], op, grid_config)
        E_set = set_from_json(E) if isinstance(E, dict) else E
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed operator entry ({type(exc).__name__}: {exc})") from None
    if descriptor["type"] == "schrodinger":
        reach = max(abs(float(grid[0])), abs(float(grid[-1])))
        growth = _schrodinger.transfer_exponent(op, reach)
        if growth > MAX_TRANSFER_EXPONENT:
            raise ValueError(f"schrodinger transfers may grow like exp({growth:.4g}) on the "
                             f"grid, past exp({MAX_TRANSFER_EXPONENT:.4g}), and overflow; "
                             f"lower the potential or the grid")
    carrier = CircleArcSet if descriptor["type"] == "cmv" else RealIntervalSet
    if E_set is not None and not (isinstance(E_set, carrier) and _testable(E_set, grid)):
        raise ValueError(f"E must be an explicit {carrier.__name__} of positive measure "
                         f"with a grid point inside, not {E_set!r:.80}")
    return op, grid, grid_echo, E_set


def _testable(E, grid) -> bool:
    """Whether the reflectionless test can read E on the grid: E has
    positive measure and a grid point inside."""
    return E.measure() > 0.0 and bool(contains_mask(E, grid).any())


def _covered_fraction(E, M) -> float:
    meet = set_algebra(E, M, "intersect")
    total = E.measure()
    return meet.measure() / total if total > 0 else 1.0


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
    grid_echo: dict
    ac_spectrum: object
    reflectionless: dict
    multiplicity: dict
    identity_residuals: dict
    theorem_inclusion: dict

    def to_json(self) -> dict:
        doc = {
            "schema": SCHEMA,
            "name": self.name,
            "family": self.family,
            "descriptor": self.descriptor,
            "status": self.status,
            "failures": list(self.failures),
            "tolerances": self.tolerances,
            "grid": self.grid_echo,
            "ac_spectrum": set_to_json(self.ac_spectrum),
            "reflectionless": self.reflectionless,
            "multiplicity": self.multiplicity,
            "identity_residuals": self.identity_residuals,
            "theorem_inclusion": self.theorem_inclusion,
        }
        return _json_safe(doc)


def _identity_residuals(kind: str, op, grid, E, refl_verdict: bool, rng,
                        tolerances: dict) -> dict:
    """Named identity residual maxima for one operator family."""
    draws = tolerances["identity_draws"]
    out = {}

    def entry(name, value, n):
        thr = tolerances[name]
        out[name] = {"value": float(value), "threshold": thr,
                     "passed": bool(value < thr), "n_draws": int(n)}

    if kind != "cmv":
        lo, hi = float(grid[0]), float(grid[-1])
        zs = rng.uniform(lo, hi, draws) + 1j * rng.uniform(0.5, 2.0, draws)
        residual = (_jacobi.green_inverse_identity_residual if kind == "jacobi"
                    else _schrodinger.green_identity_residual)
        entry("green_inverse_identity", residual(op, zs), draws)
    else:
        r = np.sqrt(rng.uniform(0.0, 0.81, draws))
        zs = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, draws))
        # the formula route and the truncation oracle of M11's oracle mode,
        # each at all draws in one call
        m11 = _cmv._M11_grid(op, zs, 0)["M11"]
        oracle = _cmv.truncation_cayley_diag(op, zs, 0, tolerances["oracle_window"])
        entry("m11_formula_vs_oracle", np.max(np.abs(m11 - oracle)), draws)
        if refl_verdict:
            idx = np.flatnonzero(contains_mask(E, grid))
            if idx.size:
                idx = idx[:: max(1, idx.size // 64)]
                # the report's site-0 sweep, read at the sampled angles of E;
                # the kernel works point by point, so a sweep of those angles
                # alone has the same bits
                bd = sweep_at(_cmv._FAMILY.sweep(op, grid, 0), idx)
                entry("m11_boundary_real_part", _cmv.m11_identity_residual(bd), idx.size)
    return out


@sweep_scope()
def verify_inclusion(descriptor: dict, E=None, grid_config=None, tolerances=None,
                     name: str = "operator", seed: int = 0) -> SpectralReport:
    """Assemble the full report for one operator descriptor.

    E may be a canonical set, a set JSON dict, or None (then the computed ac
    spectrum itself is used as the target set).  The inclusion check asserts
    essential_closure(E) inside the ac spectrum widened by one grid step, and
    multiplicity two on E up to a 1% defect fraction; both are SKIPPED when
    the reflectionless hypothesis fails on E.  When the ac spectrum differs
    between the two reference sites by more than two grid steps, the report
    keeps the first site's set and is FAILED.
    """
    tolerances = _check_tolerances(tolerances)
    op, grid, grid_echo, E_set = _load(descriptor, E, grid_config)
    kind = descriptor["type"]
    step = 2.0 * math.pi / grid.size if kind == "cmv" else float(grid[1] - grid[0])
    refl_tol = tolerances["reflectionless_tol"]
    rng = np.random.default_rng(seed)
    failures = []

    mod = FAMILY_MODULES[kind]
    try:
        ac = mod.ac_spectrum(op, grid)
    except SiteDisagreement as exc:
        ac = exc.spectrum
        failures.append(f"{exc} by {exc.width:.3e} (> two grid steps "
                        f"{2.0 * (grid[1] - grid[0]):.3e})")

    if E_set is None:
        E_set = ac

    testable = _testable(E_set, grid)
    if testable:
        refl = mod.reflectionless_on(op, E_set, grid, tol=refl_tol)
    else:       # only a computed E: a given one is checked on loading
        refl = ReflectionlessReport(
            verdict=False, fraction=math.nan, max_residual=math.nan, tol=refl_tol,
            sites=(), n_points=0, defect_points=(), xi_fraction=math.nan)
    M2, M1 = mod.multiplicity_sets(op, grid)

    identities = _identity_residuals(kind, op, grid, E_set, refl.verdict, rng,
                                     tolerances)
    for nm, e in identities.items():
        if not e["passed"]:
            failures.append(f"identity {nm}: {e['value']:.3e} >= {e['threshold']:.1e}")

    E_closure = essential_closure(E_set)
    inclusion = {"status": "SKIPPED", "reason": "", "E": set_to_json(E_set),
                 "essential_closure_E": set_to_json(E_closure), "contained_in_ac": None,
                 "overhang": None, "slack": float(step),
                 "multiplicity_two_covers_E": None, "m2_defect_fraction": None}
    if refl.verdict:
        # largest piece of the closure of E outside the ac spectrum's one-step widening
        overhang = longest_component(set_algebra(E_closure, widen(ac, step), "difference"))
        contained = overhang <= 1e-12
        m2_cover = _covered_fraction(E_set, M2)
        covers = (1.0 - m2_cover) <= 0.01 + 1e-12
        if not contained:
            failures.append(
                f"inclusion: essential closure of E exceeds the ac spectrum "
                f"by {overhang:.3e} (> one grid step {step:.3e})")
        if not covers:
            failures.append(
                f"multiplicity: M2 misses {1.0 - m2_cover:.2%} of E (> 1%)")
        inclusion.update(status="PASS" if (contained and covers) else "FAILED",
                         contained_in_ac=bool(contained), overhang=float(overhang),
                         multiplicity_two_covers_E=bool(covers),
                         m2_defect_fraction=float(1.0 - m2_cover))
    else:
        inclusion["reason"] = (
            (f"reflectionless hypothesis fails on E (passing fraction {refl.fraction:.4f} "
             "<= 0.99); ") if testable else
            "E, the computed ac spectrum, has zero measure on the grid, so the "
            "reflectionless test cannot run; ") + "the containment theorem does not apply"

    status = "FAILED" if failures else "PASS"
    echo = ("reflectionless_tol", "identity_draws") + (("oracle_window",) if kind == "cmv" else ())
    eff_tol = dict({name: tolerances[name] for name in echo}, slack_steps=1)

    return SpectralReport(
        name=name, family=kind, descriptor=descriptor, status=status,
        failures=failures, tolerances=eff_tol, grid_echo=grid_echo,
        ac_spectrum=ac,
        reflectionless={
            "E": set_to_json(E_set), "verdict": bool(refl.verdict),
            "fraction": float(refl.fraction),
            "max_residual": float(refl.max_residual), "tol": float(refl.tol),
            "n_points": int(refl.n_points),
            "defect_points": [float(x) for x in refl.defect_points],
            "xi_fraction": float(refl.xi_fraction),
            "witness_residual": float(refl.witness_residual),
        },
        multiplicity={"M2": set_to_json(M2), "M1": set_to_json(M1),
                      "boundary_pair": f"({', '.join(mod._FAMILY.pair)})"},
        identity_residuals=identities,
        theorem_inclusion=inclusion)


def _csv_for(kind: str, op, grid) -> str:
    return sweep_csv(FAMILY_MODULES[kind]._FAMILY, op, grid)


def run_config(path: str, out_dir: str = None) -> int:
    """Process a config file; one report JSON + one CSV per operator.

    Config schema: {"out_dir": str, "seed": int, "operators": [{"name": str,
    "descriptor": {...}, "E": set JSON or null, "grid": {...} or null,
    "tolerances": {...} or null}, ...]}.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return 2

    ops = cfg.get("operators") if isinstance(cfg, dict) else None
    if not isinstance(ops, list) or not ops or not all(isinstance(e, dict) for e in ops):
        print("error: config needs a nonempty 'operators' list of objects", file=sys.stderr)
        return 2
    try:
        seed = cfg.get("seed", 0)
        if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, not {seed!r:.80}")
        loaded = [_load(e.get("descriptor"), e.get("E"), e.get("grid"), e.get("tolerances"))
                  for e in ops]
    except UnknownOperatorType as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = out_dir or cfg.get("out_dir")
    if not out:
        print("error: no output directory (config out_dir or --out)", file=sys.stderr)
        return 2

    any_failed = False
    try:
        os.makedirs(out, exist_ok=True)
        for k, (spec_entry, (op, grid, _, E_set)) in enumerate(zip(ops, loaded)):
            name = spec_entry.get("name", f"operator_{k}")
            kind = spec_entry["descriptor"]["type"]
            with sweep_scope():     # the report and its CSV share one sweep memo
                rep = verify_inclusion(
                    spec_entry["descriptor"], E_set, spec_entry.get("grid"),
                    spec_entry.get("tolerances"), name=name, seed=seed)
                csv_text = _csv_for(kind, op, grid)
            doc = json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n"
            with open(os.path.join(out, f"{name}_report.json"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(doc)
            with open(os.path.join(out, f"{name}.csv"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(csv_text)
            print(f"{name}: {rep.status}"
                  + (f" ({'; '.join(rep.failures)})" if rep.failures else ""))
            any_failed = any_failed or rep.status == "FAILED"
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1 if any_failed else 0


def bundled_config_path(name: str = "free_suite.json") -> str:
    return os.path.join(os.path.dirname(__file__), "configs", name)


# ---------------------------------------------------------------------------
# set demos

def format_set(s) -> str:
    """Compact human-readable rendering of a canonical set."""
    if isinstance(s, CircleArcSet):
        if s.is_full():
            return "full circle"
        parts = [f"arc[{a.theta1:.6g}, {a.theta2:.6g}]" for a in s.arcs]
        parts += [f"{{{p:.6g}}}" for p in s.isolated_points]
        return " u ".join(parts) if parts else "empty"
    parts = [f"[{iv.lo:.6g}, {iv.hi:.6g}]" for iv in s.intervals]
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
        print(f"error: cannot read set JSON {ns.input}: {exc}", file=sys.stderr)
        return 2
    result = set_to_json(essential_closure(s))
    doc = json.dumps(result, sort_keys=True, indent=2) + "\n"
    if ns.output:
        with open(ns.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    return 0


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

    for fam in SUPPORTED_TYPES:
        q = sub.add_parser(fam, help=f"single {fam} descriptor")
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
        print(f"error: cannot read descriptor {ns.desc}: {exc}", file=sys.stderr)
        return 2
    kind = descriptor.get("type") if isinstance(descriptor, dict) else None
    if kind != ns.cmd:
        print(f"error: descriptor type {kind!r} does not "
              f"match subcommand {ns.cmd!r}", file=sys.stderr)
        return 3

    grid_config = None
    if ns.grid:
        try:
            a, b, n = _parse_grid_arg(ns.grid)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if kind == "cmv" and ns.emit == "report" and not (
                a == 0.0 and math.isclose(b, 2.0 * math.pi, rel_tol=1e-9)):
            print(f"error: a cmv report covers the whole circle (step 2 pi/n); "
                  f"--grid must be 0:{2.0 * math.pi!r}:n, not {ns.grid!r}", file=sys.stderr)
            return 2
        grid_config = {"angles": n} if kind == "cmv" else {"start": a, "stop": b, "points": n}
    try:
        op, grid, _, _ = _load(descriptor, None, grid_config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if ns.grid and kind == "cmv":
        grid = np.linspace(a, b, n, endpoint=False)

    failed = False
    if ns.emit == "xi":
        text = _csv_for(ns.cmd, op, grid)
    elif ns.emit == "spectrum":
        mod = FAMILY_MODULES[ns.cmd]
        text = json.dumps(set_to_json(mod.ac_spectrum(op, grid)),
                          sort_keys=True, indent=2) + "\n"
    else:
        rep = verify_inclusion(descriptor, None, grid_config,
                               name=os.path.splitext(os.path.basename(ns.desc))[0])
        text = json.dumps(rep.to_json(), sort_keys=True, indent=2) + "\n"
        failed = rep.status == "FAILED"

    if ns.out:
        try:
            with open(ns.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(spec_main())
