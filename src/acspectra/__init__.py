"""Computational spectral theory: essential closures, Herglotz/Caratheodory
boundary values, and Weyl-Titchmarsh data for Jacobi, CMV, and Schrodinger
operators."""

from .errors import NonConvergent, MonodromyDegenerate, DegenerateDenominator
from .interval_sets import (
    Interval, RealIntervalSet, Arc, CircleArcSet, GeneratedFatSet,
    canonicalize, circle_set, full_circle, lebesgue_measure, set_algebra,
    essential_closure, equivalent_supports, set_to_json, set_from_json,
)
from .jacobi import JacobiCoefficients
from .cmv import VerblunskyCoefficients
from .schrodinger import PiecewisePotential

__version__ = "0.1.0"

_HARNESS = ("SpectralReport", "run_config", "verify_inclusion")


def __getattr__(name):
    """The report API, imported from harness_cli on first use, so that
    `python -m acspectra.harness_cli` runs a module the package has not
    imported yet."""
    if name in _HARNESS:
        from . import harness_cli
        return getattr(harness_cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
