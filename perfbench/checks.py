"""Independent oracles for the benchmark's correctness checks.

Standard library only, and no call into the program under test: each check
recomputes what it needs from the generated inputs.

* Band oracle: the spectrum of the periodic base operator is
  {|Delta| <= 2}, with Delta the trace of the one-period transfer matrix
  (Jacobi three-term recursion, Schrodinger piece propagators, Szego
  recursion for CMV).  A computed spectrum misses the oracle when some
  component of the symmetric difference (for patched operators: of the
  part outside the bands) is longer than two grid steps.
* Set oracle: measures of unions by sort-and-merge, so that the four set
  operations obey m(A u B) + m(A n B) = m(A) + m(B) and friends.
"""

from __future__ import annotations

import bisect
import cmath
import functools
import json
import math

TWO_PI = 2.0 * math.pi
EDGE_SLACK_STEPS = 2.0


# ---------------------------------------------------------------------------
# discriminants of the periodic base, at one real spectral parameter

def jacobi_trace(a, b, lam: float) -> float:
    """tr T(p-1)...T(0) with T(n) = [[(lam - b(n))/a(n), -a(n-1)/a(n)], [1, 0]]."""
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for n in range(len(a)):
        t00 = (lam - b[n]) / a[n]
        t01 = -a[n - 1] / a[n]
        m00, m01, m10, m11 = (t00 * m00 + t01 * m10, t00 * m01 + t01 * m11,
                              m00, m01)
    return m00 + m11


def schrodinger_trace(pieces, lam: float) -> float:
    """Trace of the product of (psi, psi') propagators across one period."""
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for length, value in pieces:
        k2 = lam - value
        if k2 > 0.0:
            k = math.sqrt(k2)
            c, s, d = math.cos(k * length), math.sin(k * length) / k, -k * math.sin(k * length)
        elif k2 < 0.0:
            k = math.sqrt(-k2)
            c, s, d = math.cosh(k * length), math.sinh(k * length) / k, k * math.sinh(k * length)
        else:
            c, s, d = 1.0, length, 0.0
        m00, m01, m10, m11 = (c * m00 + s * m10, c * m01 + s * m11,
                              d * m00 + c * m10, d * m01 + c * m11)
    return m00 + m11


def cmv_trace(alphas, theta: float) -> float:
    """|tr| of the Szego transfer product A(p-1)...A(0) at z = e^{i theta},
    A(n) = [[z, -alpha(n)], [-conj(alpha(n)) z, 1]] / rho(n).  The product
    has determinant z^p, so its eigenvalues lie on the circle of radius 1
    after the z^(-p/2) normalization exactly when |tr| <= 2.  This placement
    of the conjugate matches the row pattern of acspectra's CMV matrix; the
    other one reflects the bands through theta -> -theta."""
    z = cmath.exp(1j * theta)
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for al in alphas:
        rho = math.sqrt(1.0 - abs(al) ** 2)
        t00, t01, t10, t11 = z / rho, -al / rho, -al.conjugate() * z / rho, 1.0 / rho
        m00, m01, m10, m11 = (t00 * m00 + t01 * m10, t00 * m01 + t01 * m11,
                              t10 * m00 + t11 * m10, t10 * m01 + t11 * m11)
    return abs(m00 + m11)


def band_function(descriptor: dict):
    """x -> |Delta(x)| - 2 for the periodic base of a descriptor (<= 0 on bands)."""
    kind = descriptor["type"]
    if kind == "jacobi":
        a, b = list(descriptor["a"]), list(descriptor["b"])
        return lambda x: abs(jacobi_trace(a, b, x)) - 2.0
    if kind == "schrodinger":
        pieces = [(float(l), float(v)) for l, v in descriptor["pieces"]]
        return lambda x: abs(schrodinger_trace(pieces, x)) - 2.0
    alphas = [complex(re, im) for re, im in descriptor["alpha"]]
    return lambda t: cmv_trace(alphas, t) - 2.0


def bands_on(f, xs) -> list:
    """Closed intervals where f <= 0, from a scan over the sorted points xs
    with every sign change refined by bisection."""
    def edge(lo, hi, inside_lo):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if (f(mid) <= 0.0) == inside_lo:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    out = []
    start = None
    prev_x, prev_in = None, False
    for x in xs:
        inside = f(x) <= 0.0
        if prev_x is None:
            if inside:
                start = x
        elif inside and not prev_in:
            start = edge(prev_x, x, False)
        elif prev_in and not inside:
            out.append((start, edge(prev_x, x, True)))
        prev_x, prev_in = x, inside
    if prev_in:
        out.append((start, prev_x))
    return out


def line_grid(start: float, stop: float, points: int) -> list:
    step = (stop - start) / (points - 1)
    return [start + k * step for k in range(points)]


def angle_grid(points: int) -> list:
    """Angles of an endpoint-excluded circle grid, closed by 2*pi so that
    bands through angle 0 come out as two pieces that touch 0 and 2*pi."""
    return [TWO_PI * k / points for k in range(points)] + [TWO_PI]


# ---------------------------------------------------------------------------
# interval arithmetic on sorted lists of (lo, hi)

def merge(intervals) -> list:
    """Union of closed intervals as a sorted list of disjoint ones."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def measure(intervals) -> float:
    return math.fsum(hi - lo for lo, hi in merge(intervals))


def difference(a, b, symmetric: bool = True) -> list:
    """Components of (A \\ B) u (B \\ A), or of A \\ B alone, for unions
    of closed intervals."""
    a, b = merge(a), merge(b)
    cuts = sorted({x for iv in a + b for x in iv})
    a_lo = [lo for lo, _ in a]
    b_lo = [lo for lo, _ in b]

    def member(sets, los, x):
        i = bisect.bisect_right(los, x) - 1
        return i >= 0 and sets[i][0] <= x <= sets[i][1]

    out = []
    for u, v in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (u + v)
        in_a, in_b = member(a, a_lo, mid), member(b, b_lo, mid)
        if (in_a != in_b) if symmetric else (in_a and not in_b):
            if out and out[-1][1] == u:
                out[-1] = (out[-1][0], v)
            else:
                out.append((u, v))
    return out


def longest_mismatch(a, b, circle: bool = False, symmetric: bool = True) -> float:
    """Longest component of the (symmetric) difference; on the circle the
    two pieces touching 0 and 2*pi are one component."""
    comps = difference(a, b, symmetric)
    lengths = [hi - lo for lo, hi in comps]
    if circle and len(comps) >= 2 and comps[0][0] <= 0.0 and comps[-1][1] >= TWO_PI:
        lengths = lengths[1:-1] + [lengths[0] + lengths[-1]]
    return max(lengths, default=0.0)


def line_pieces(set_json: dict) -> list:
    """Nondegenerate intervals of a set JSON; circle arcs past 2*pi are split."""
    out = []
    for lo, hi, _flags in set_json["intervals"]:
        if set_json.get("carrier") == "circle" and hi > TWO_PI:
            out += [(lo, TWO_PI), (0.0, hi - TWO_PI)]
        elif hi > lo:
            out.append((lo, hi))
    return out


@functools.lru_cache(maxsize=4)
def _bands(descriptor_json: str, xs: tuple) -> list:
    """bands_on for a descriptor, kept for the several sets of one report."""
    return bands_on(band_function(json.loads(descriptor_json)), xs)


def band_mismatch(descriptor: dict, computed: list, xs: list, step: float,
                  what: str = "spectrum") -> str:
    """'' when the computed set (closed intervals, circle split at 0)
    agrees with the band oracle on the scan points xs within the edge slack,
    else a message naming the longest mismatch.

    Unpatched periodic operators are reflectionless, so their phase is
    interior on the whole of every band and the two sets must agree.  A
    patch can push the phase within the tolerance of 0 or 1 over part of a
    band, so for patched operators only the inclusion computed <= bands is
    checked: off the bands the Green's function is real."""
    circle = descriptor["type"] == "cmv"
    exact = not descriptor.get("patch")
    bands = _bands(json.dumps(descriptor, sort_keys=True), tuple(xs))
    worst = longest_mismatch(computed, bands, circle, symmetric=exact)
    if worst > EDGE_SLACK_STEPS * step + 1e-12:
        how = "misses the band oracle" if exact else "leaves the bands"
        return (f"{what} {how} by {worst:.4g} "
                f"(> {EDGE_SLACK_STEPS:g} grid steps of {step:.4g})")
    return ""


def interior_runs(xs, interior, step: float) -> list:
    """Closed hulls of maximal runs of consecutive interior grid points."""
    out = []
    start = prev = None
    for x, inside in zip(xs, interior):
        if inside:
            if start is None:
                start = x
            prev = x
        elif start is not None:
            out.append((start, prev))
            start = None
    if start is not None:
        out.append((start, prev))
    return out


# ---------------------------------------------------------------------------
# canonical sets

def canonical_problem(intervals, points) -> str:
    """'' when sorted, nondegenerate, pairwise disjoint intervals (touching
    only at a point that neither contains) and isolated points outside
    them; else what is wrong."""
    for lo, hi, lo_c, hi_c in intervals:
        if not lo < hi:
            return f"degenerate interval ({lo}, {hi})"
    for (_, h1, _, c1), (l2, _, c2, _) in zip(intervals, intervals[1:]):
        if h1 > l2 or (h1 == l2 and (c1 or c2)):
            return f"intervals not disjoint at {h1}"
    los = [iv[0] for iv in intervals]
    for p in points:
        i = bisect.bisect_right(los, p) - 1
        if i >= 0:
            lo, hi, lo_c, hi_c = intervals[i]
            if lo < p < hi or (p == lo and lo_c) or (p == hi and hi_c):
                return f"isolated point {p} inside an interval"
    return ""


def expected_measure(op: str, m_a: float, m_b: float, m_union: float) -> float:
    m_meet = m_a + m_b - m_union
    return {"union": m_union, "intersect": m_meet, "difference": m_a - m_meet,
            "symmetric_difference": m_union - m_meet}[op]


def close_enough(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= 1e-9 * (1.0 + abs(scale))


def circle_pieces(arcs) -> list:
    """Line pieces on [0, 2*pi] of arcs given as (theta1, theta2) pairs,
    with theta1 reduced mod 2*pi and theta2 - theta1 in [0, 2*pi]."""
    out = []
    for t1, t2 in arcs:
        length = t2 - t1
        t1 = t1 % TWO_PI
        if t1 + length > TWO_PI:
            out += [(t1, TWO_PI), (0.0, t1 + length - TWO_PI)]
        else:
            out.append((t1, t1 + length))
    return out
