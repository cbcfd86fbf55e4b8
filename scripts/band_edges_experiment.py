"""Cross-check phase-detected ac bands against discriminant band edges.

For a periodic operator the ac spectrum is the set where the discriminant
(trace of the monodromy or period transfer matrix, for CMV rotated by
e^{-i p theta/2}) satisfies |D| <= 2.  The boundary-phase route knows
nothing about the discriminant: it detects the bands from the phase of the
Green's function (of M11 on the circle).  Both routes should name the same
band edges to within one grid step, and the script exits 1 where they do
not: an edge count that differs, or an edge mismatch past one grid step.

Runs a period-2 Jacobi matrix (b alternating +1/-1, bands
[-sqrt5, -1] u [1, sqrt5]), a square-well Schrodinger operator (V = 5 on
half of each unit cell), the Geronimus CMV operator (alpha = 1/2, the arc
[pi/3, 5pi/3]) and a period-2 CMV operator (alpha = 0.3, 0.6, two arcs);
each discriminant is evaluated once over its whole grid.
"""

import argparse
import sys

import numpy as np

from acspectra import cmv, jacobi, schrodinger
from acspectra.harness_cli import format_set
from acspectra.interval_sets import CircleArcSet


def band_edges_from_discriminant(grid, disc):
    """Edges of {|D| <= 2} located by sign changes of |D| - 2 on the grid."""
    inside = np.abs(disc) <= 2.0
    edges = []
    for k in range(1, inside.size):
        if inside[k] != inside[k - 1]:
            edges.append(0.5 * (grid[k - 1] + grid[k]))
    return np.asarray(edges)


def edges_of_set(s):
    """Interval endpoints of a line set, arc endpoints of a circle set."""
    pieces = ([(a.theta1, a.theta2) for a in s.arcs] if isinstance(s, CircleArcSet)
              else [(iv.lo, iv.hi) for iv in s.intervals])
    return np.asarray([x for piece in pieces for x in piece])


def report(name, grid, phase_set, disc_edges) -> bool:
    """Print the comparison; True when the edge counts agree and no edge
    is more than one grid step off."""
    step = grid[1] - grid[0]
    phase_edges = edges_of_set(phase_set)
    # A band running past the grid top contributes a phase edge at the window
    # boundary but no discriminant sign change; drop it from the comparison.
    if phase_edges.size and phase_edges[-1] >= grid[-1] - 2 * step:
        phase_edges = phase_edges[:-1]
    print(f"\n{name}  (grid step {step:.4g})")
    print(f"  phase-route bands : {format_set(phase_set)}")
    print(f"  discriminant edges: {np.array2string(disc_edges, precision=4)}")
    if phase_edges.size != disc_edges.size:
        print(f"  edge count differs: {phase_edges.size} vs {disc_edges.size}")
        return False
    gap = np.max(np.abs(phase_edges - disc_edges), initial=0.0)
    print(f"  max edge mismatch : {gap:.3e} "
          f"({gap / step:.2f} grid steps)")
    return gap <= step


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=4001)
    ns = ap.parse_args()

    cases = [
        ("period-2 Jacobi (b = +1/-1)", jacobi,
         jacobi.JacobiCoefficients(period=2, a_base=(1.0, 1.0), b_base=(1.0, -1.0)),
         np.linspace(-3.0, 3.0, ns.points)),
        ("square-well Schrodinger (V = 0/5)", schrodinger,
         schrodinger.PiecewisePotential(period=1.0, pieces=((0.5, 0.0), (0.5, 5.0))),
         np.linspace(-1.0, 25.0, ns.points)),
        ("Geronimus CMV (alpha = 1/2)", cmv,
         cmv.VerblunskyCoefficients(period=1, alpha_base=(0.5,)), cmv.default_angles(ns.points)),
        ("period-2 CMV (alpha = 0.3, 0.6)", cmv,
         cmv.VerblunskyCoefficients(period=2, alpha_base=(0.3, 0.6)),
         cmv.default_angles(ns.points)),
    ]
    failed = [name for name, family, op, grid in cases
              if not report(name, grid, family.ac_spectrum(op, grid),
                            band_edges_from_discriminant(grid, family.discriminant(op, grid)))]
    if failed:
        print(f"\nFAIL: the phase route and the discriminant disagree on {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
