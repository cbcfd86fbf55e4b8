"""Every name the benchmark's tracer hooks resolves in the program, so a
rename or a deleted function cannot silently blind a per-layer metric.

The tracer is read as it stands (perfbench/tracing.py); only the hooks
listed in KNOWN_ABSENT are expected not to resolve.
"""

import importlib.util
import os

import acspectra
from acspectra import boundary_analysis, cmv, harness_cli, jacobi, schrodinger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# hooked, but no such function exists: the CSV of every family is written
# by boundary_analysis.sweep_csv, the Richardson extrapolation is the
# tests' oracle (conftest), not the package's, and a circle set holds its
# line representative, so it has no conversion to it and no closure of its own
KNOWN_ABSENT = {"acspectra.boundary_analysis:richardson_sequence", "acspectra.jacobi:xi_csv",
                "acspectra.cmv:angle_csv", "acspectra.schrodinger:xi_csv",
                "acspectra.interval_sets:CircleArcSet.essential_closure",
                "acspectra.interval_sets:CircleArcSet._to_line"}


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_hook_resolves_but_the_known_absent():
    tracing = _tracing()
    hooks = ([(m, p) for m, p, _, _ in tracing.SPAN_HOOKS]
             + list(tracing.COUNT_HOOKS) + list(tracing.PHASE_HOOKS))
    assert len(hooks) == 62
    absent = {f"{m}:{p}" for m, p in hooks if tracing._resolve(m, p) is None}
    assert absent == KNOWN_ABSENT


SHARED = ("ac_spectrum", "reflectionless_on", "multiplicity_sets")
# each shared read of boundary_analysis -> its name in jacobi, cmv and schrodinger
ALIASES = {"boundary_grid": ("boundary_weyl_grid", "boundary_cmv_grid",
                             "boundary_schrodinger_grid"),
           "phase_grid": ("xi_grid", "Xi11_grid", "xi_grid"),
           "phase_at": ("xi", "Xi11", "xi"),
           "weyl_data": ("weyl_data", "weyl_data", "weyl_data")}
# kernel calls of one report: two sweeps of two calls each, plus one batch
# of identity draws (Jacobi, CMV)
KERNEL_CALLS = {"jacobi": 5, "cmv": 5, "schrodinger": 4}


def test_family_names_are_the_shared_functions():
    """The sweep, phase grid, one-point phase and weyl_data of every family
    are boundary_analysis's, under the family module's names."""
    for shared, names in ALIASES.items():
        fn = getattr(boundary_analysis, shared)
        for mod, name in zip((jacobi, cmv, schrodinger), names):
            assert mod.__dict__[name] is fn, (mod.__name__, name)


def test_hooks_fire_through_the_shared_names(period2_jacobi, geronimus_cmv, square_well):
    """The derived-set, sweep and phase hooks name each family module's
    functions, which are boundary_analysis's; the tracer wraps every binding
    of them, so each report counts one call of each derived set, its two
    sweeps and its family's kernel calls, the phase hook sees its points,
    and uninstall restores every binding."""
    modules = (acspectra, boundary_analysis, cmv, harness_cli, jacobi, schrodinger)
    names = set(SHARED) | set(ALIASES) | {n for group in ALIASES.values() for n in group} \
        | {"_weyl_grid", "_M11_grid", "_m_grid"}
    before = [(mod, name, mod.__dict__[name]) for mod in modules for name in names
              if name in mod.__dict__]
    shared = {name: getattr(boundary_analysis, name) for name in SHARED}
    for name, fn in shared.items():
        assert jacobi.__dict__[name] is cmv.__dict__[name] is schrodinger.__dict__[name] is fn

    tracing = _tracing()
    tracer, stats = tracing.Tracer(), tracing.LayerStats()
    tracer.install()
    try:
        for op, grid in ((period2_jacobi, None), (geronimus_cmv, {"angles": 1024}),
                         (square_well, None)):
            rep, first = tracer.run_op(
                lambda: harness_cli.verify_inclusion(op.to_descriptor(), grid_config=grid))
            assert rep.status == "PASS"
            stats.add_op(tracer.spans, first)
            one = tracing.LayerStats()
            one.add_op(tracer.spans, first)
            assert one.calls["sweep"] == 2, rep.family
            assert {k: c for k, c in one.calls.items() if k.endswith(".kernel")} == {
                f"{rep.family}.kernel": KERNEL_CALLS[rep.family]}
    finally:
        tracer.uninstall()
    assert stats.ops == 3
    for name in SHARED:
        assert stats.calls[f"derived.{name}"] == 3, name
    assert stats.calls["sweep"] == 6
    assert tracer.phase_points > 0
    for mod in modules:
        for name, fn in shared.items():
            assert getattr(mod, name) is fn, (mod.__name__, name)
    for mod, name, fn in before:
        assert mod.__dict__[name] is fn, (mod.__name__, name)
