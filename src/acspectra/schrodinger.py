"""Periodic-plus-patch one-dimensional Schrodinger operators -d^2/dx^2 + V.

V is piecewise constant: a period-L base pattern, optionally overridden by a
compactly supported patch occupying [0, P).  Across a constant piece of value
v and length ell the solution vector (psi, psi') propagates by the det-1
matrix (w^2 = v - z, even in w, so the branch is immaterial)

    T = [[cosh(w ell),            ell sinhc(w ell)],
         [(v - z) ell sinhc(w ell),  cosh(w ell)]].

Weyl solutions psi_+/- decay at +/-infinity; over a period in the periodic
region they scale by the Floquet multipliers u, 1/u of the monodromy matrix,
and the half-line m-functions are logarithmic derivatives

    m_+(z, x0) = psi_+'(x0)/psi_+(x0)    Herglotz,      free: +i sqrt(z)
    m_-(z, x0) = psi_-'(x0)/psi_-(x0)    anti-Herglotz, free: -i sqrt(z)

with Im sqrt(z) > 0.  The diagonal Green's function g(z, x0) = 1/(m_- - m_+)
is Herglotz (free: i/(2 sqrt(z))); its boundary phase xi = Arg g(lam+i0)/pi
lies in [0, 1], equals 1/2 exactly where the operator is reflectionless, and
{0 < xi < 1} recovers the ac spectrum through its essential closure.  The
periodic spectrum is also {|tr monodromy| <= 2}, an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MonodromyDegenerate, NonConvergent
from .boundary_analysis import (ReflectionlessReport, SweepFamily, boundary_sweep,
                                phase_verdict, plus_side, require_off_axis,
                                sweep_ac_spectrum, sweep_multiplicity_sets, sweep_phase,
                                sweep_reflectionless, write_csv)
from .interval_sets import RealIntervalSet

LAMBDA_TOP = 25.0
NONREAL_TOL = 1e-4
DEGENERACY_TOL = 1e-10


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
    small = np.abs(x) < 1e-4
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore"):
        direct = np.where(small, 1.0, np.sinh(xs) / np.where(small, 1.0, xs))
    series = 1.0 + x * x / 6.0 * (1.0 + x * x / 20.0)
    return np.where(small, series, direct)


def piece_propagator(zs, length: float, value: float) -> np.ndarray:
    """(K, 2, 2) transfer of (psi, psi') across a constant piece, det 1."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    w = np.sqrt(value - zs)
    wl = w * length
    ch = np.cosh(wl)
    sc = length * _sinhc(wl)
    T = np.empty(zs.shape + (2, 2), dtype=complex)
    T[..., 0, 0] = ch
    T[..., 0, 1] = sc
    T[..., 1, 0] = (value - zs) * sc
    T[..., 1, 1] = ch
    return T


def _boundaries(V: PiecewisePotential, a: float, b: float):
    """Sorted interior breakpoints of V on (a, b)."""
    pts = set()
    if V.patch:
        acc = 0.0
        for l, _ in V.patch:
            if a < acc < b:
                pts.add(acc)
            acc += l
        if a < acc < b:
            pts.add(acc)
    cum = [0.0]
    for l, _ in V.pieces:
        cum.append(cum[-1] + l)
    k_lo = math.floor(a / V.period) - 1
    k_hi = math.ceil(b / V.period) + 1
    for k in range(k_lo, k_hi + 1):
        for c in cum[:-1]:
            x = k * V.period + c
            if a < x < b:
                pts.add(x)
    return sorted(pts)


def transfer_interval(V: PiecewisePotential, zs, a: float, b: float) -> np.ndarray:
    """(K, 2, 2) transfer of (psi, psi') from x = a to x = b > a."""
    if not b > a:
        raise ValueError("need b > a")
    xs = [a] + _boundaries(V, a, b) + [b]
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    T = np.broadcast_to(np.eye(2, dtype=complex), zs.shape + (2, 2)).copy()
    for lo, hi in zip(xs[:-1], xs[1:]):
        if hi - lo < 1e-15:
            continue
        T = piece_propagator(zs, hi - lo, V.value((lo + hi) / 2.0)) @ T
    return T


def _inv_unimodular(T):
    out = np.empty_like(T)
    out[..., 0, 0] = T[..., 1, 1]
    out[..., 0, 1] = -T[..., 0, 1]
    out[..., 1, 0] = -T[..., 1, 0]
    out[..., 1, 1] = T[..., 0, 0]
    return out


def _stable_roots(tr):
    """Floquet multipliers u_big, u_small with u_big u_small = 1, |u_big| >= 1.

    Raises MonodromyDegenerate when the multipliers collide on the unit circle
    (band-edge z on the real axis); off-axis z always separates them.
    """
    sq = np.sqrt(tr * tr - 4.0)
    r1 = (tr + sq) / 2.0
    r2 = (tr - sq) / 2.0
    big = np.where(np.abs(r1) >= np.abs(r2), r1, r2)
    small = 1.0 / big
    if np.any(np.abs(np.abs(big) - np.abs(small)) < DEGENERACY_TOL):
        raise MonodromyDegenerate(
            "Floquet multipliers coincide on the unit circle; move z off the real axis")
    return big, small


def _eigvec(M, u):
    """Eigenvector of the 2x2 stack M for eigenvalue u, larger-norm formula."""
    v1 = np.stack([M[..., 0, 1], u - M[..., 0, 0]], axis=-1)
    v2 = np.stack([u - M[..., 1, 1], M[..., 1, 0]], axis=-1)
    n1 = np.abs(v1).sum(axis=-1)
    n2 = np.abs(v2).sum(axis=-1)
    return np.where((n1 >= n2)[..., None], v1, v2)


def _propagate_vec(V: PiecewisePotential, zs, vec, a: float, b: float,
                   inverse: bool = False):
    """Carry (psi, psi') across [a, b] piece by piece (inverted: from b back
    to a), renormalizing between pieces; only the direction is preserved."""
    xs = [a] + _boundaries(V, a, b) + [b]
    spans = list(zip(xs[:-1], xs[1:]))
    if inverse:
        spans = spans[::-1]
    for lo, hi in spans:
        if hi - lo < 1e-15:
            continue
        T = piece_propagator(zs, hi - lo, V.value((lo + hi) / 2.0))
        if inverse:
            T = _inv_unimodular(T)
        vec = (T @ vec[..., None])[..., 0]
        scale = np.maximum(np.abs(vec[..., 0]), np.abs(vec[..., 1]))
        vec = vec / np.where(scale == 0.0, 1.0, scale)[..., None]
    return vec


def _floquet_seed(V: PiecewisePotential, zs, x0: float, plus: bool):
    """(c, vec): a periodic cell [c, c + L) right (plus) or left of x0 and the
    patch, and (psi, psi')(c) of the solution decaying toward +inf (plus),
    resp. -inf."""
    L = V.period
    if plus:
        c = L * math.ceil(max(V.patch_length, x0) / L + 1.0)
    else:
        c = L * (math.floor(min(0.0, x0) / L) - 1.0)
    M = transfer_interval(V, zs, c, c + L)
    big, small = _stable_roots(M[..., 0, 0] + M[..., 1, 1])
    return c, _eigvec(M, small if plus else big)


def _m_grid(V: PiecewisePotential, zs, x0: float, side: str):
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    plus = plus_side(side)
    c, vec = _floquet_seed(V, zs, x0, plus)
    if plus and c > x0:
        vec = _propagate_vec(V, zs, vec, x0, c, inverse=True)
    elif not plus and x0 > c:
        vec = _propagate_vec(V, zs, vec, c, x0)
    return vec[..., 1] / vec[..., 0]


def m_half_line(V: PiecewisePotential, z: complex, x0: float, side: str) -> complex:
    """Weyl m-function psi'(x0)/psi(x0) of the decaying solution on the given
    half line; Herglotz for side '+', anti-Herglotz for side '-'."""
    z = require_off_axis(z)
    return complex(_m_grid(V, np.array([z]), float(x0), side)[0])


def green_diag(V: PiecewisePotential, z: complex, x0: float) -> complex:
    """Diagonal Green's function 1/(m_- - m_+), Herglotz; free: i/(2 sqrt(z))."""
    z = require_off_axis(z)
    mp = m_half_line(V, z, x0, "+")
    mm = m_half_line(V, z, x0, "-")
    return 1.0 / (mm - mp)


def weyl_data(V: PiecewisePotential, z: complex, x0: float = 0.0) -> SchrodingerWeylData:
    z = require_off_axis(z)
    zs = np.array([z])
    mp = complex(_m_grid(V, zs, float(x0), "+")[0])
    mm = complex(_m_grid(V, zs, float(x0), "-")[0])
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
    c, vp = _floquet_seed(V, zs, x0, True)
    if c > x0:
        vp = (_inv_unimodular(transfer_interval(V, zs, x0, c)) @ vp[..., None])[..., 0]
    c, vm = _floquet_seed(V, zs, x0, False)
    if x0 > c:
        vm = (transfer_interval(V, zs, c, x0) @ vm[..., None])[..., 0]

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

def boundary_schrodinger_grid(V: PiecewisePotential, lams, x0: float,
                              schedule=None) -> dict:
    """Richardson extrapolation of m_+, m_-, g at lam + i*eps along the pinned
    geometric schedule; returns (value, error, converged) per key plus
    'inf_'/'div_' blowup flags."""
    def kernel(zs):
        mp = _m_grid(V, zs, float(x0), "+")
        mm = _m_grid(V, zs, float(x0), "-")
        return {"m_plus": mp, "m_minus": mm, "g": 1.0 / (mm - mp)}
    return boundary_sweep(kernel, lams, False, schedule)


def xi_grid(V: PiecewisePotential, lams, x0: float = 0.0, schedule=None):
    """xi(lam) = Arg g(lam + i0)/pi over a grid: (values, errors, ok mask).

    Im g slightly below 0 within the extrapolation error is clamped to the
    real axis; a violation beyond tolerance marks the point not ok.  Exact
    closing band edges (lambda = (k pi/L)^2 for the free cell) stall on a
    noise plateau that the phase tolerance accepts.
    """
    return sweep_phase(_FAMILY, boundary_schrodinger_grid(V, lams, x0, schedule))


def xi(V: PiecewisePotential, lam: float, x0: float = 0.0, schedule=None) -> float:
    """Boundary phase of the diagonal Green's function, in [0, 1]."""
    vals, _, ok = xi_grid(V, np.array([float(lam)]), x0, schedule)
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
    sweep=lambda V, lams, x0: boundary_schrodinger_grid(V, lams, x0),
    phase=lambda V, lams, x0: xi_grid(V, lams, x0),
    grid=default_grid, circle=False, pair=("m_plus", "m_minus"), phase_key="g",
    witness=_witness, site_word="points")


def ac_spectrum(V: PiecewisePotential, grid=None, x0: float = 0.0, check_site=None,
                xi_tol: float = 1e-3) -> RealIntervalSet:
    """Essential closure of the grid hull of {0 < xi < 1}, one grid step of
    margin; recomputed at a second reference point, disagreement raises."""
    check_site = x0 + 0.5 * V.period if check_site is None else check_site
    return sweep_ac_spectrum(_FAMILY, V, grid, x0, check_site, xi_tol)


def reflectionless_on(V: PiecewisePotential, E: RealIntervalSet, grid=None,
                      points=None, tol: float = 1e-4) -> ReflectionlessReport:
    """Reflectionless test on a real set E: boundary matching
    m_+(lam+i0) = conj(m_-(lam+i0)) at two or more reference points, with the
    witness that both half-line m's have finite nonreal limits of the correct
    sign (0 < Im m_+ and Im m_- < 0) on the passing set; witness_residual
    counts the passing points with a wrong-sign imaginary part."""
    points = (0.0, 0.5 * V.period) if points is None else points
    return sweep_reflectionless(_FAMILY, V, E, grid, points, tol)


def multiplicity_sets(V: PiecewisePotential, grid=None, x0: float = 0.0,
                      nonreal_tol: float = NONREAL_TOL):
    """Interval hulls of the uniform-multiplicity sets from boundary (m_+, m_-):
    multiplicity two where both are nonreal, multiplicity one on the union of
    the equal-real, both-infinite, and exactly-one-nonreal cases."""
    return sweep_multiplicity_sets(_FAMILY, V, grid, x0, nonreal_tol)


def xi_csv(V: PiecewisePotential, lams, x0: float = 0.0, out=None) -> str:
    """Per-point CSV: lambda, xi, Re g, Im g, verdict."""
    lams = np.asarray(lams, dtype=float)
    bd = boundary_schrodinger_grid(V, lams, x0)
    g, _, conv = bd["g"]
    vals, _, ok = sweep_phase(_FAMILY, bd)
    rows = ([f"{lam:.12g}",
             f"{vals[k]:.12g}" if ok[k] else "",
             f"{g[k].real:.12g}" if conv[k] else "",
             f"{g[k].imag:.12g}" if conv[k] else "",
             phase_verdict(_FAMILY, vals[k], ok[k])] for k, lam in enumerate(lams))
    return write_csv(["lambda", "xi", "re_g", "im_g", "verdict"], rows, out)
