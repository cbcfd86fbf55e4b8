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
period boundary of the unpatched line, so one kernel call seeds psi_+ at
the nearest such boundary right of x0 and the patch, psi_- at the nearest
one left of x0 and 0, and carries each to x0 across the pieces in between.
The half-line m-functions are logarithmic derivatives

    m_+(z, x0) = psi_+'(x0)/psi_+(x0)    Herglotz,      free: +i sqrt(z)
    m_-(z, x0) = psi_-'(x0)/psi_-(x0)    anti-Herglotz, free: -i sqrt(z)

with Im sqrt(z) > 0.  The diagonal Green's function g(z, x0) = 1/(m_- - m_+)
is Herglotz (free: i/(2 sqrt(z))); its boundary phase xi = Arg g(lam+i0)/pi
lies in [0, 1], equals 1/2 exactly where the operator is reflectionless, and
{0 < xi < 1} recovers the ac spectrum through its essential closure.  The
periodic spectrum is also {|tr monodromy| <= 2}, an independent check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .boundary_analysis import (REFERENCE_EPS, ReflectionlessReport, SweepFamily,
                                exact_sweep, floquet_pair, memo, normalize_pair,
                                one_point, phase_at, plus_side, stack_2x2, sweep_ac_spectrum,
                                sweep_multiplicity_sets, sweep_phase, sweep_reflectionless)
from .interval_sets import RealIntervalSet

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
        if abs(math.fsum(l for l, _ in pieces) - self.period) > 1e-12:
            raise ValueError("piece lengths must sum to the period")

    @property
    def patch_length(self) -> float:
        return math.fsum(l for l, _ in self.patch)

    def value(self, x: float) -> float:
        if self.patch and 0.0 <= x < self.patch_length:
            acc = 0.0
            for l, v in self.patch:
                acc += l
                if x < acc:
                    return v
        y = x % self.period
        acc = 0.0
        for l, v in self.pieces:
            acc += l
            if y < acc or acc == self.period:
                return v
        return self.pieces[-1][1]

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
        return cls(float(d["period"]),
                   tuple((l, v) for l, v in d["pieces"]),
                   tuple((l, v) for l, v in d.get("patch", [])))


@dataclass(frozen=True)
class SchrodingerWeylData:
    z: complex
    x0: float
    m_plus: complex
    m_minus: complex
    g: complex


def _sinhc(x):
    """sinh(x)/x, even entire function; series below the cancellation scale."""
    x = np.asarray(x, dtype=complex)
    with np.errstate(invalid="ignore", divide="ignore"):
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
    L = V.period
    cuts = list(itertools.accumulate([0.0] + [l for l, _ in V.pieces]))[:-1]
    pts = {k * L + c for k in range(math.floor(a / L) - 1, math.ceil(b / L) + 2) for c in cuts}
    pts.update(itertools.accumulate([0.0] + [l for l, _ in V.patch]))
    xs = [a] + sorted(x for x in pts if a < x < b) + [b]
    return tuple((hi - lo, V.value((lo + hi) / 2.0))
                 for lo, hi in zip(xs[:-1], xs[1:]) if hi - lo >= 1e-15)


def _product(zs, pieces):
    """Entries (t00, t01, t10, t11) of the transfer across the pieces in
    order, multiplied out entrywise; the identity for no pieces."""
    t = None
    for length, value in pieces:
        ch, sc, lo = _piece_entries(zs, length, value)
        t = (ch, sc, lo, ch) if t is None else (
            ch * t[0] + sc * t[2], ch * t[1] + sc * t[3],
            lo * t[0] + ch * t[2], lo * t[1] + ch * t[3])
    return t or (1.0, 0.0, 0.0, 1.0)


def transfer_interval(V: PiecewisePotential, zs, a: float, b: float) -> np.ndarray:
    """(K, 2, 2) transfer of (psi, psi') from x = a to x = b > a."""
    if not b > a:
        raise ValueError("need b > a")
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    return stack_2x2(*_product(zs, _pieces(V, a, b)), zs.shape)


def _seed_bounds(V: PiecewisePotential, x0: float):
    """(cp, cm): the period boundaries nearest to x0 beyond which the line
    is unpatched, cp >= max(P, x0) on the right and cm <= min(0, x0) on the
    left, where the seeds of psi_+ and psi_- are placed."""
    L = V.period
    return L * math.ceil(max(V.patch_length, x0) / L), L * math.floor(min(0.0, x0) / L)


def _propagate_vec(zs, vec, spans, inverse: bool):
    """Carry the pair (psi, psi') across the spans in order (inverted:
    backward through each), renormalizing between pieces; only the
    direction is preserved.  Returns the pair (psi, psi')."""
    p, q = vec
    for length, value in spans:
        ch, sc, lo = _piece_entries(zs, length, value)
        if inverse:             # the inverse of a det-1 [[ch, sc], [lo, ch]]
            sc, lo = -sc, -lo
        p, q = normalize_pair(ch * p + sc * q, lo * p + ch * q)
    return p, q


def _seeds(V: PiecewisePotential, zs, near=None):
    """(decaying, growing): (psi, psi') at any period boundary of the
    unpatched line of the solutions decaying toward +inf, resp. -inf, from
    the one monodromy of the base pieces; with near (a sweep's branch)
    also the branch and the ambiguous mask (floquet_pair)."""
    return floquet_pair(*_product(zs, V.pieces), 1.0, near)


def _m_grid(V: PiecewisePotential, zs, x0: float, near=None):
    """(m_plus, m_minus) at x0 over an array of spectral parameters, both
    half lines seeded from one monodromy at the period boundaries cp, cm
    and carried to x0 across the pieces in between; with near, followed by
    the branch of _seeds.  The seeds do not depend on x0, so in a report
    scope the two reference points read one _seeds evaluation per zs and
    near (boundary_analysis.memo)."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    cp, cm = _seed_bounds(V, x0)
    dec, grow, *branch = memo(_seeds, V, zs, near)
    p, q = _propagate_vec(zs, dec, _pieces(V, x0, cp)[::-1], inverse=True)
    pm, qm = _propagate_vec(zs, grow, _pieces(V, cm, x0), inverse=False)
    return (q / p, qm / pm, *branch)


def _weyl_grid(V: PiecewisePotential, zs, x0: float, near=None) -> dict:
    """m_plus, m_minus and g = 1/(m_- - m_+) at x0 over an array of spectral
    parameters, from one _m_grid call; with near also 'floquet', the
    branch and the ambiguous mask (floquet_pair)."""
    mp, mm, *branch = _m_grid(V, zs, float(x0), near)
    out = {"m_plus": mp, "m_minus": mm, "g": 1.0 / (mm - mp)}
    if branch:
        out["floquet"] = tuple(branch)
    return out


def m_half_line(V: PiecewisePotential, z: complex, x0: float, side: str) -> complex:
    """Weyl m-function psi'(x0)/psi(x0) of the decaying solution on the given
    half line; Herglotz for side '+', anti-Herglotz for side '-'."""
    return one_point(_weyl_grid, V, z, x0)["m_plus" if plus_side(side) else "m_minus"]


def green_diag(V: PiecewisePotential, z: complex, x0: float) -> complex:
    """Diagonal Green's function 1/(m_- - m_+), Herglotz; free: i/(2 sqrt(z))."""
    return one_point(_weyl_grid, V, z, x0)["g"]


def weyl_data(V: PiecewisePotential, z: complex, x0: float = 0.0) -> SchrodingerWeylData:
    return SchrodingerWeylData(complex(z), float(x0), **one_point(_weyl_grid, V, z, x0))


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
    dec, grow = _seeds(V, zs)

    def carry(v, a, b, backward: bool):
        """The pair v carried across [a, b], backward from b (by the
        adjugate, the inverse of a det-1 transfer) or forward from a."""
        if not b > a:
            return v
        t00, t01, t10, t11 = _product(zs, _pieces(V, a, b))
        if backward:
            t00, t01, t10, t11 = t11, -t01, -t10, t00
        return t00 * v[0] + t01 * v[1], t10 * v[0] + t11 * v[1]

    (p, q), (p1, q1) = carry(dec, x0, cp, True), carry(dec, x1, cp, True)
    pm, qm = carry(grow, cm, x0, False)
    pm1, qm1 = carry((pm, qm), x0, x1, False)
    g = p * pm / (p1 * qm1 - q1 * pm1)
    return float(np.max(np.abs(g * (qm / pm - q / p) - 1.0)))


def transfer_exponent(V: PiecewisePotential, reach: float) -> float:
    """Sum of sqrt(|v| + reach) * ell over the base pieces and the patch.
    Since |Re sqrt(v - z)| <= sqrt(|v| + |z|), the one-period monodromy and
    the patch transfers grow at most like exp of it at |z| <= reach."""
    return math.fsum(math.sqrt(abs(v) + reach) * l for l, v in V.pieces + V.patch)


def discriminant(V: PiecewisePotential, lams) -> np.ndarray:
    """Trace of the one-period monodromy of the base pattern (patch ignored);
    the periodic spectrum is {lam : |discriminant| <= 2}."""
    base = PiecewisePotential(V.period, V.pieces)
    zs = np.atleast_1d(np.asarray(lams, dtype=complex))
    M = transfer_interval(base, zs, 0.0, V.period)
    tr = M[..., 0, 0] + M[..., 1, 1]
    if np.all(np.abs(tr.imag) < 1e-9):
        return tr.real
    return tr


# ---------------------------------------------------------------------------
# Boundary values and the xi phase

def boundary_schrodinger_grid(V: PiecewisePotential, lams, x0: float) -> dict:
    """Boundary values of m_+, m_-, g on a real grid, read on the axis by
    boundary_analysis.exact_sweep with the reference points REFERENCE_EPS
    (1 + sup|V|) above it: (value, error, ok) per key plus the
    'inf_'/'div_' flags."""
    return exact_sweep(lambda zs, near: _weyl_grid(V, zs, x0, near), lams, False,
                       REFERENCE_EPS * (1.0 + V.sup_bound()))


def xi_grid(V: PiecewisePotential, lams, x0: float = 0.0):
    """xi(lam) = Arg g(lam + i0)/pi over a grid: (values, errors, ok mask),
    by boundary_analysis.sweep_phase.  At a closed gap (lambda = (k pi/L)^2
    for the free cell) the monodromy is +-I, and the axis value takes the
    reference's eigenvectors (floquet_pair)."""
    return sweep_phase(_FAMILY, _FAMILY.sweep(V, lams, x0))


def xi(V: PiecewisePotential, lam: float, x0: float = 0.0) -> float:
    """Boundary phase of the diagonal Green's function, in [0, 1]."""
    return phase_at(_FAMILY, V, lam, x0)


def default_grid(V: PiecewisePotential, points: int = 2001) -> np.ndarray:
    """Uniform grid on [-sup|V| - 1, 25]."""
    return np.linspace(-V.sup_bound() - 1.0, LAMBDA_TOP, points)


_FAMILY = SweepFamily(
    sweep=lambda V, lams, x0: memo(boundary_schrodinger_grid, V, lams, x0),
    phase=lambda V, lams, x0: xi_grid(V, lams, x0),
    grid=default_grid, sites=lambda V: (0.0, 0.5 * V.period), circle=False,
    pair=("m_plus", "m_minus"), phase_key="g",
    csv_columns=(("lambda", "loc"), ("xi", "phase"), ("re_g", "re"), ("im_g", "im"),
                 ("verdict", "verdict")), site_word="points")


def ac_spectrum(V: PiecewisePotential, grid=None) -> RealIntervalSet:
    """Essential closure of the grid hull of {0 < xi < 1} at x = 0, one grid
    step of margin; recomputed at x = L/2, disagreement raises."""
    return sweep_ac_spectrum(_FAMILY, V, grid)


def reflectionless_on(V: PiecewisePotential, E: RealIntervalSet, grid=None,
                      tol: float = 1e-4) -> ReflectionlessReport:
    """Reflectionless test on a real set E: boundary matching
    m_+(lam+i0) = conj(m_-(lam+i0)) at the reference points 0 and L/2.  Where
    the verdict holds, witness_residual is the max residual on the passing
    points of -1/g = 2i Im m_+ = -2i Im m_- (as for Jacobi, with
    g = 1/(m_- - m_+))."""
    return sweep_reflectionless(_FAMILY, V, E, grid, tol)


def multiplicity_sets(V: PiecewisePotential, grid=None):
    """Interval hulls of the uniform-multiplicity sets from boundary (m_+, m_-) at x = 0:
    multiplicity two where both are nonreal (boundary_analysis.off_axis),
    multiplicity one on the union of the equal-real, both-infinite, and
    exactly-one-nonreal cases."""
    return sweep_multiplicity_sets(_FAMILY, V, grid)
