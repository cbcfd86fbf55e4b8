"""Periodic-plus-patch one-dimensional Schrodinger operators -d^2/dx^2 + V.

V is piecewise constant: a period-L base pattern, optionally overridden by a
compactly supported patch occupying [0, P).  Across a constant piece of value
v and length ell the solution vector (psi, psi') propagates by the det-1
matrix (w^2 = v - z, even in w, so the branch is immaterial)

    T = [[cosh(w ell),            ell sinhc(w ell)],
         [(v - z) ell sinhc(w ell),  cosh(w ell)]].

Weyl solutions psi_+/- decay at +/-infinity; over a period in the periodic
region they scale by the Floquet multipliers u, 1/u of the monodromy matrix.
Both are eigenvectors of the one monodromy of the base pieces at every
period boundary of the unpatched line, so one call of the kernel, _m_grid,
seeds psi_+ at the nearest such boundary right of x0 and the patch, psi_-
at the nearest one left of x0 and 0, and carries each to x0 by the _steps
of the pieces between (carry).  The m-functions are logarithmic derivatives

    m_+(z, x0) = psi_+'(x0)/psi_+(x0)    Herglotz,      free: +i sqrt(z)
    m_-(z, x0) = psi_-'(x0)/psi_-(x0)    anti-Herglotz, free: -i sqrt(z)

with Im sqrt(z) > 0.  The diagonal Green's function g(z, x0) = 1/(m_- - m_+)
is Herglotz (free: i/(2 sqrt(z))); its boundary phase xi = Arg g(lam+i0)/pi
lies in [0, 1], equals 1/2 exactly where the operator is reflectionless, and
{0 < xi < 1} recovers the ac spectrum through its essential closure.  The
periodic spectrum is also {|tr monodromy| <= 2} (discriminant), a check.

The sweep, the phase grid and the one-point reads of the kernel are
boundary_analysis's, imported as boundary_schrodinger_grid, xi_grid, xi
and weyl_data, with the reference points REFERENCE_EPS (1 + sup|V|) above
the axis.  At a closed gap (lambda = (k pi/L)^2 for the free cell) the
monodromy is +-I, and the axis value takes the reference's eigenvectors
(floquet_pair).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .boundary_analysis import (SweepFamily, carry, floquet_pair, memo, transfer_matrix,
                                transfer_product, transfer_trace)
from .boundary_analysis import (ac_spectrum, multiplicity_sets, reflectionless_on,  # re-exported
                                weyl_data, boundary_grid as boundary_schrodinger_grid,
                                phase_at as xi, phase_grid as xi_grid)
from .errors import check_keys, check_number

LAMBDA_TOP = 25.0


@dataclass(frozen=True)
class PiecewisePotential:
    """Piecewise-constant potential: period-L pieces plus a patch on [0, P)."""
    period: float
    pieces: tuple            # ((length, value), ...) lengths sum to period
    patch: tuple = ()        # ((length, value), ...) override on [0, P)

    def __post_init__(self):
        pieces = tuple((float(l), float(v)) for l, v in self.pieces)
        patch = tuple((float(l), float(v)) for l, v in self.patch)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "patch", patch)
        object.__setattr__(self, "period", float(self.period))
        if not all(map(math.isfinite, (self.period,) + sum(pieces + patch, ()))):
            raise ValueError("period, piece lengths and values must be finite numbers")
        if self.period <= 0.0:
            raise ValueError("period must be positive")
        if any(l <= 0.0 for l, _ in pieces) or any(l <= 0.0 for l, _ in patch):
            raise ValueError("piece lengths must be positive")
        if abs(math.fsum(l for l, _ in pieces) - self.period) > 1e-12 * self.period:
            raise ValueError("piece lengths must sum to the period")
        # _pieces drops spans under 1e-15 as rounding slivers, and the
        # identity residual reads a piece of the period's second half
        if not _pieces(self, self.period / 2.0, self.period):
            raise ValueError("the second half of the period must keep a span of at least 1e-15")

    @cached_property
    def patch_length(self) -> float:
        return math.fsum(l for l, _ in self.patch)

    @cached_property
    def _ends(self):
        """The running sums of the patch's and the pieces' lengths."""
        return tuple(list(itertools.accumulate(l for l, _ in p))
                     for p in (self.patch, self.pieces))

    def value(self, x: float) -> float:
        """V(x): the first patch piece whose running end passes x on [0, P),
        else the first base piece whose end passes x mod L or equals L; both
        found by bisection of the running ends."""
        patch_ends, ends = self._ends
        if self.patch and 0.0 <= x < self.patch_length:
            k = bisect.bisect_right(patch_ends, x)
            if k < len(self.patch):
                return self.patch[k][1]
        k = min(bisect.bisect_right(ends, x % self.period), bisect.bisect_left(ends, self.period))
        return self.pieces[min(k, len(self.pieces) - 1)][1]

    def sup_bound(self) -> float:
        vals = [abs(v) for _, v in self.pieces] + [abs(v) for _, v in self.patch]
        return max(vals)

    def to_descriptor(self) -> dict:
        return {"type": "schrodinger", "period": self.period,
                "pieces": [[l, v] for l, v in self.pieces],
                "patch": [[l, v] for l, v in self.patch]}

    @classmethod
    def from_descriptor(cls, d: dict) -> "PiecewisePotential":
        if d.get("type") != "schrodinger":
            raise ValueError("descriptor type must be 'schrodinger'")
        check_keys(d, ("type", "period", "pieces", "patch"), "schrodinger descriptor key")
        num = lambda v: check_number(v, "schrodinger piece length or value")
        return cls(float(check_number(d["period"], "schrodinger period")),
                   tuple((num(l), num(v)) for l, v in d["pieces"]),
                   tuple((num(l), num(v)) for l, v in d.get("patch", [])))


def _sinhc(x):
    """sinh(x)/x, even entire function; series below the cancellation scale,
    where it replaces the quotient (which overflows at a subnormal x)."""
    x = np.asarray(x, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = np.sinh(x) / x
    small = np.abs(x) < 1e-4
    if small.any():
        xs = x[small]
        out[small] = 1.0 + xs * xs / 6.0 * (1.0 + xs * xs / 20.0)
    return out


def _piece_entries(zs, length: float, value: float):
    """(cosh(w ell), ell sinhc(w ell), (v - z) ell sinhc(w ell)): the entries
    T00 = T11, T01 and T10 of the transfer across a constant piece."""
    w = np.sqrt(value - zs)
    wl = w * length
    sc = length * _sinhc(wl)
    return np.cosh(wl), sc, (value - zs) * sc


def _pieces(V: PiecewisePotential, a: float, b: float):
    """((length, value), ...) of the constant pieces of V from a to b > a,
    cut at the breakpoints of the periodic pieces and of the patch."""
    L, (patch_ends, ends) = V.period, V._ends
    cuts = [0.0] + ends[:-1]
    pts = {k * L + c for k in range(math.floor(a / L) - 1, math.ceil(b / L) + 2) for c in cuts}
    pts.update([0.0] + patch_ends)
    xs = [a] + sorted(x for x in pts if a < x < b) + [b]
    return tuple((hi - lo, V.value((lo + hi) / 2.0))
                 for lo, hi in zip(xs[:-1], xs[1:]) if hi - lo >= 1e-15)


def _steps(zs, pieces):
    """The transfers (ch, sc, lo, ch) of _piece_entries across the pieces in order."""
    return ((ch, sc, lo, ch) for ch, sc, lo in
            (_piece_entries(zs, length, value) for length, value in pieces))


def _product(zs, pieces):
    """(t00, t01, t10, t11, exponent) of the transfer across the pieces in
    order, by transfer_product of _steps: 2^exponent times the entries."""
    return transfer_product(_steps(zs, pieces))


def transfer_interval(V: PiecewisePotential, zs, a: float, b: float) -> np.ndarray:
    """(K, 2, 2) transfer of (psi, psi') from x = a to x = b > a;
    OverflowError where it leaves the float range (transfer_matrix)."""
    if not b > a:
        raise ValueError("need b > a")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    return transfer_matrix(_product(zs, _pieces(V, a, b)), zs.shape)


def _seed_bounds(V: PiecewisePotential, x0: float):
    """(cp, cm): the period boundaries nearest to x0 beyond which the line
    is unpatched, cp >= max(P, x0) on the right and cm <= min(0, x0) on the
    left, where the seeds of psi_+ and psi_- are placed."""
    L = V.period
    return L * math.ceil(max(V.patch_length, x0) / L), L * math.floor(min(0.0, x0) / L)


def _seeds(V: PiecewisePotential, zs, near=0.0):
    """(decaying, growing, branch, ambiguous): (psi, psi') at any period
    boundary of the unpatched line of the solutions decaying toward +inf,
    resp. -inf, from the one monodromy of the base pieces, then the branch
    nearest near and its ambiguous mask (floquet_pair)."""
    *t, e = _product(zs, V.pieces)
    return floquet_pair(*t, np.ldexp(1.0, -2 * e), near, e)


def _m_grid(V: PiecewisePotential, zs, x0: float, near=0.0) -> dict:
    """m_plus, m_minus and g = 1/(m_- - m_+) at x0 over an array of spectral
    parameters, both half lines seeded from one monodromy at the period
    boundaries cp, cm and carried to x0 across the pieces in between, and
    'floquet', the branch and the ambiguous mask of _seeds.  The seeds do
    not depend on x0, so in a report scope the two reference points read
    one _seeds evaluation per zs and near (boundary_analysis.memo)."""
    zs, x0 = np.atleast_1d(np.asarray(zs, dtype=complex)), float(x0)
    cp, cm = _seed_bounds(V, x0)
    dec, grow, *branch = memo(_seeds, V, zs, near)
    p, q = carry(dec, _steps(zs, _pieces(V, x0, cp)[::-1]), backward=True)
    pm, qm = carry(grow, _steps(zs, _pieces(V, cm, x0)))
    mp, mm = q / p, qm / pm
    return {"m_plus": mp, "m_minus": mm, "g": 1.0 / (mm - mp), "floquet": tuple(branch)}


def green_identity_residual(V: PiecewisePotential, zs, x0: float = 0.0) -> float:
    """Max residual of |g*(m_- - m_+) - 1| where g = psi_+ psi_- / W with the
    Wronskian W evaluated at x1, halfway from x0 + L/2 to the next
    breakpoint of V, so strictly inside one constant piece.

    Each solution reaches x0 and x1 along its own stable direction: psi_+
    backward from its seed at the period boundary cp >= max(P, x1), by one
    transfer to x1 and another one to x0, and psi_- forward from its seed
    at cm <= min(0, x0) to x0 and on to x1.  The quotient is W(x0)/W(x1),
    which is 1 only if the transfer from x0 to cp is, numerically, the
    product of those from x0 to x1 and from x1 to cp.  The first crosses
    the piece around x1 whole and the other two cross it in two parts, so
    this tests the piece transfer's law T(l1 + l2) = T(l2) T(l1), through a
    route independent of the m-quotient algebra.  (Were x1 a breakpoint,
    both routes would multiply the same piece transfers, and since
    W(adj(A) a, b) = W(a, A b) for every 2x2 matrix A, the residual would
    measure rounding only.)
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    L, x0 = V.period, float(x0)
    mid = x0 + L / 2.0
    x1 = mid + _pieces(V, mid, x0 + L)[0][0] / 2.0
    cp, cm = _seed_bounds(V, x1)[0], _seed_bounds(V, x0)[1]
    dec, grow, _, _ = _seeds(V, zs)

    def scaled_carry(v, a, b, backward: bool):
        """The pair v carried across [a, b], backward from b (by the
        adjugate, the inverse of a det-1 transfer) or forward from a, at
        _product's scale: the pair and the exponent of its factor 2^e."""
        if not b > a:
            return v, 0
        t00, t01, t10, t11, e = _product(zs, _pieces(V, a, b))
        if backward:
            t00, t01, t10, t11 = t11, -t01, -t10, t00
        return (t00 * v[0] + t01 * v[1], t10 * v[0] + t11 * v[1]), e

    ((p, q), e0), ((p1, q1), e1) = scaled_carry(dec, x0, cp, True), scaled_carry(dec, x1, cp, True)
    (pm, qm), _ = scaled_carry(grow, cm, x0, False)
    (pm1, qm1), e2 = scaled_carry((pm, qm), x0, x1, False)
    # the scale of psi_- cancels; powers of two are exact, so g keeps the
    # bits of the true-scale quotient wherever that is finite
    g = p * pm / (p1 * qm1 - q1 * pm1) * np.ldexp(1.0, e0 - e1 - e2)
    return float(np.max(np.abs(g * (qm / pm - q / p) - 1.0)))


def discriminant(V: PiecewisePotential, lams) -> np.ndarray:
    """Trace of the one-period product of V.pieces, the monodromy _seeds takes
    (patch ignored, transfer_trace); the bands are {lam : |discriminant| <= 2}."""
    return transfer_trace(_product(np.atleast_1d(np.asarray(lams, dtype=complex)), V.pieces))


# ---------------------------------------------------------------------------
# Boundary values and the xi phase

def default_grid(V: PiecewisePotential, points: int = 2001) -> np.ndarray:
    """Uniform grid on [-sup|V| - 1, 25]."""
    return np.linspace(-V.sup_bound() - 1.0, LAMBDA_TOP, points)


PiecewisePotential._FAMILY = SweepFamily(
    kernel=lambda V, zs, x0, near: _m_grid(V, zs, x0, near), grid=default_grid,
    sites=lambda V: (0.0, 0.5 * V.period), circle=False, pair=("m_plus", "m_minus"),
    phase_key="g",
    csv_columns=(("lambda", "loc"), ("xi", "phase"), ("re_g", "re"), ("im_g", "im"),
                 ("verdict", "verdict")), site_word="points")
