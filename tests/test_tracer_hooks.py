"""Every name the benchmark's tracer hooks resolves in the program, so a
rename or a deleted function cannot silently blind a per-layer metric.

The tracer is read as it stands (perfbench/tracing.py); only the hooks
listed in KNOWN_ABSENT are expected not to resolve.
"""

import importlib.util
import os

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
