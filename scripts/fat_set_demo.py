"""Essential-closure demonstrations on measure-theoretically thin and fat sets.

Three constructions with opposite behaviors under the essential closure:
isolated points vanish; a countable set (all rationals of [0, 1]) has empty
essential closure despite being topologically dense; and a small open
neighborhood of those same rationals (total measure below 2/3) has essential
closure equal to the whole of [0, 1].  The last one is the standard example
showing the essential closure can be much larger than the set while the
topological closure adds nothing new.
"""

import argparse
import sys
from collections import Counter

from acspectra.harness_cli import emit_sets_demo, format_set
from acspectra.interval_sets import (GeneratedFatSet, fat_density_report,
                                     lebesgue_measure)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--truncation", type=int, default=20,
                    help="number of enumerated rational centers")
    ap.add_argument("--radius-base", type=float, default=4.0,
                    help="interval around the n-th center has radius base**-n")
    ns = ap.parse_args()

    print(emit_sets_demo())

    g = GeneratedFatSet.rational_fat(ns.truncation, ns.radius_base)
    rep = fat_density_report(g)
    lo, hi = lebesgue_measure(g)
    counts = Counter(status for _, status in rep.verdicts)
    print(f"\nfat set detail (truncation {ns.truncation}, radius base {ns.radius_base}):")
    print(f"  measure in [{lo:.6f}, {hi:.6f}], tail bound {g.tail_measure_bound:.3e}")
    print(f"  density verdicts over {len(rep.verdicts)} grid points: "
          f"{counts['truncated']} truncated, {counts['tail']} tail")
    print(f"  essential closure: {format_set(rep.closure)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
