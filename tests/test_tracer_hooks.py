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
# by boundary_analysis.sweep_csv, and the Richardson extrapolation is the
# tests' oracle (conftest), not the package's
KNOWN_ABSENT = {"acspectra.boundary_analysis:richardson_sequence", "acspectra.jacobi:xi_csv",
                "acspectra.cmv:angle_csv", "acspectra.schrodinger:xi_csv"}


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


def test_hooks_fire_through_the_shared_names(period2_jacobi, geronimus_cmv, square_well):
    """The derived-set hooks name each family module's ac_spectrum,
    reflectionless_on and multiplicity_sets, which are boundary_analysis's;
    the tracer wraps every binding of them, so each report counts one call
    of each and its two sweeps, and uninstall restores every binding."""
    modules = (acspectra, boundary_analysis, cmv, harness_cli, jacobi, schrodinger)
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
    finally:
        tracer.uninstall()
    assert stats.ops == 3
    for name in SHARED:
        assert stats.calls[f"derived.{name}"] == 3, name
    assert stats.calls["sweep"] == 6
    for mod in modules:
        for name, fn in shared.items():
            assert getattr(mod, name) is fn, (mod.__name__, name)
