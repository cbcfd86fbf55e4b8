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

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent
from .boundary_analysis import (ReflectionlessReport, SweepFamily, boundary_sweep,
                                floquet_pair, memo_sweep, normalize_pair, plus_side,
                                require_off_axis, stack_2x2, sweep_ac_spectrum,
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


def _inv_unimodular(T):
    out = np.empty_like(T)
    out[..., 0, 0] = T[..., 1, 1]
    out[..., 0, 1] = -T[..., 0, 1]
    out[..., 1, 0] = -T[..., 1, 0]
    out[..., 1, 1] = T[..., 0, 0]
    return out


@functools.lru_cache(maxsize=64)
def _layout(V: PiecewisePotential, x0: float):
    """(cp, cm, plus_spans, minus_spans): the period boundaries nearest to x0
    beyond which the line is unpatched, cp >= max(P, x0) on the right and
    cm <= min(0, x0) on the left, and the pieces between each of them and
    x0 in the order a seed there crosses them toward x0.  Computed once per
    operator and site, not on every kernel call."""
    L = V.period
    cp = L * math.ceil(max(V.patch_length, x0) / L)
    cm = L * math.floor(min(0.0, x0) / L)
    return cp, cm, _pieces(V, x0, cp)[::-1], _pieces(V, cm, x0)


def _propagate_vec(zs, vec, spans, inverse: bool):
    """Carry (psi, psi') across the spans in order (inverted: backward
    through each), renormalizing between pieces; only the direction is
    preserved.  Returns the pair (psi, psi')."""
    p, q = vec[..., 0], vec[..., 1]
    for length, value in spans:
        ch, sc, lo = _piece_entries(zs, length, value)
        if inverse:             # the inverse of a det-1 [[ch, sc], [lo, ch]]
            sc, lo = -sc, -lo
        p, q = normalize_pair(ch * p + sc * q, lo * p + ch * q)
    return p, q


def _seeds(V: PiecewisePotential, zs):
    """(decaying, growing): (psi, psi') at any period boundary of the
    unpatched line of the solutions decaying toward +inf, resp. -inf, from
    the one monodromy of the base pieces."""
    return floquet_pair(stack_2x2(*_product(zs, V.pieces), zs.shape), 1.0)


def _m_grid(V: PiecewisePotential, zs, x0: float):
    """(m_plus, m_minus) at x0 over an array of spectral parameters, both
    half lines seeded from one monodromy at the period boundaries cp, cm."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    _, _, plus_spans, minus_spans = _layout(V, x0)
    dec, grow = _seeds(V, zs)
    p, q = _propagate_vec(zs, dec, plus_spans, inverse=True)
    pm, qm = _propagate_vec(zs, grow, minus_spans, inverse=False)
    return q / p, qm / pm


def m_half_line(V: PiecewisePotential, z: complex, x0: float, side: str) -> complex:
    """Weyl m-function psi'(x0)/psi(x0) of the decaying solution on the given
    half line; Herglotz for side '+', anti-Herglotz for side '-'."""
    z = require_off_axis(z)
    return complex(_m_grid(V, np.array([z]), float(x0))[0 if plus_side(side) else 1][0])


def green_diag(V: PiecewisePotential, z: complex, x0: float) -> complex:
    """Diagonal Green's function 1/(m_- - m_+), Herglotz; free: i/(2 sqrt(z))."""
    return weyl_data(V, z, x0).g


def weyl_data(V: PiecewisePotential, z: complex, x0: float = 0.0) -> SchrodingerWeylData:
    z = require_off_axis(z)
    mp, mm = (complex(m[0]) for m in _m_grid(V, np.array([z]), float(x0)))
    return SchrodingerWeylData(z, float(x0), mp, mm, 1.0 / (mm - mp))


def green_identity_residual(V: PiecewisePotential, zs, x0: float = 0.0) -> float:
    """Max residual of |g*(m_- - m_+) - 1| where g = psi_+ psi_- / W with the
    Wronskian evaluated half a period away from x0 after an extra transfer.

    W is conserved by det-1 propagation, so the quotient equals W(x0)/W(x0 +
    L/2) = 1 only if the propagators preserve it numerically; this tests the
    inverse identity through a route independent of the m-quotient algebra.
    """
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    x0 = float(x0)
    cp, cm, _, _ = _layout(V, x0)
    vp, vm = _seeds(V, zs)
    if cp > x0:
        vp = (_inv_unimodular(transfer_interval(V, zs, x0, cp)) @ vp[..., None])[..., 0]
    if x0 > cm:
        vm = (transfer_interval(V, zs, cm, x0) @ vm[..., None])[..., 0]

    T = transfer_interval(V, zs, x0, x0 + V.period / 2.0)
    vp1 = (T @ vp[..., None])[..., 0]
    vm1 = (T @ vm[..., None])[..., 0]
    W1 = vp1[..., 0] * vm1[..., 1] - vp1[..., 1] * vm1[..., 0]
    g = vp[..., 0] * vm[..., 0] / W1
    mp = vp[..., 1] / vp[..., 0]
    mm = vm[..., 1] / vm[..., 0]
    return float(np.max(np.abs(g * (mm - mp) - 1.0)))


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
    """Richardson extrapolation of m_+, m_-, g at lam + i*eps along the pinned
    geometric schedule; returns (value, error, converged) per key plus
    'inf_'/'div_' blowup flags."""
    def kernel(zs):
        mp, mm = _m_grid(V, zs, float(x0))
        return {"m_plus": mp, "m_minus": mm, "g": 1.0 / (mm - mp)}
    return boundary_sweep(kernel, lams, False)


def xi_grid(V: PiecewisePotential, lams, x0: float = 0.0):
    """xi(lam) = Arg g(lam + i0)/pi over a grid: (values, errors, ok mask).

    Im g slightly below 0 within the extrapolation error is clamped to the
    real axis; a violation beyond tolerance marks the point not ok.  Exact
    closing band edges (lambda = (k pi/L)^2 for the free cell) stall on a
    noise plateau that the phase tolerance accepts.
    """
    return sweep_phase(_FAMILY, _FAMILY.sweep(V, lams, x0))


def xi(V: PiecewisePotential, lam: float, x0: float = 0.0) -> float:
    """Boundary phase of the diagonal Green's function, in [0, 1]."""
    vals, _, ok = xi_grid(V, np.array([float(lam)]), x0)
    if not bool(ok[0]):
        raise NonConvergent(f"xi extrapolation failed at lam={lam}, x0={x0}")
    return float(vals[0])


def default_grid(V: PiecewisePotential, points: int = 2001) -> np.ndarray:
    """Uniform grid on [-sup|V| - 1, 25]."""
    return np.linspace(-V.sup_bound() - 1.0, LAMBDA_TOP, points)


def _witness(bd: dict, passing) -> float:
    """Count of passing points where the half-line m's lack the correct
    nonreal signs 0 < Im m_+ and Im m_- < 0."""
    mp, mm = bd["m_plus"][0], bd["m_minus"][0]
    return float(np.count_nonzero(passing & ~((mp.imag > 0.0) & (mm.imag < 0.0))))


_FAMILY = SweepFamily(
    sweep=lambda V, lams, x0: memo_sweep(boundary_schrodinger_grid, V, lams, x0),
    phase=lambda V, lams, x0: xi_grid(V, lams, x0),
    grid=default_grid, sites=lambda V: (0.0, 0.5 * V.period), circle=False,
    pair=("m_plus", "m_minus"), phase_key="g", witness=_witness,
    csv_columns=(("lambda", "loc"), ("xi", "phase"), ("re_g", "re"), ("im_g", "im"),
                 ("verdict", "verdict")), site_word="points")


def ac_spectrum(V: PiecewisePotential, grid=None, xi_tol: float = 1e-3) -> RealIntervalSet:
    """Essential closure of the grid hull of {0 < xi < 1} at x = 0, one grid
    step of margin; recomputed at x = L/2, disagreement raises."""
    return sweep_ac_spectrum(_FAMILY, V, grid, xi_tol)


def reflectionless_on(V: PiecewisePotential, E: RealIntervalSet, grid=None,
                      tol: float = 1e-4) -> ReflectionlessReport:
    """Reflectionless test on a real set E: boundary matching
    m_+(lam+i0) = conj(m_-(lam+i0)) at the reference points 0 and L/2, with the
    witness that both half-line m's have finite nonreal limits of the correct
    sign (0 < Im m_+ and Im m_- < 0) on the passing set; witness_residual
    counts the passing points with a wrong-sign imaginary part."""
    return sweep_reflectionless(_FAMILY, V, E, grid, tol)


def multiplicity_sets(V: PiecewisePotential, grid=None):
    """Interval hulls of the uniform-multiplicity sets from boundary (m_+, m_-) at x = 0:
    multiplicity two where both are nonreal, multiplicity one on the union of
    the equal-real, both-infinite, and exactly-one-nonreal cases."""
    return sweep_multiplicity_sets(_FAMILY, V, grid)
