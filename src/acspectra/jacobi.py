"""Periodic-plus-patch Jacobi operators on the whole lattice.

The operator acts as (Hf)(n) = a(n)f(n+1) + a(n-1)f(n-1) + b(n)f(n), with
periodic base coefficients and a finite patch of overrides.  Half-lattice
Weyl functions come from the Floquet theory of the one-period transfer
matrix: the eigenvector of the monodromy with contracting (|u| < 1)
multiplier seeds the square-summable solution psi_+ rightward, the expanding
one seeds psi_- leftward, and coefficient stripping carries the seeds
through the patch to the reference site.  Both seeds come from one
monodromy per kernel call: the left one sits at a site congruent to the
right one modulo the period, left of the patch and of n0.  From the Weyl
solutions:

    m_+(z, n0) = -psi_+(n0) / [a(n0-1) psi_+(n0-1)]      (resolvent diagonal
    m_-(z, n0) = -psi_-(n0) / [a(n0) psi_-(n0+1)]         of each half line)
    M_+(z, n0) = -1/m_+(z, n0) - z + b(n0)
    M_-(z, n0) = 1/m_-(z, n0)
    g(z, n0)   = [M_-(z, n0) - M_+(z, n0)]^-1             (diagonal Green)

m_+ and m_- are both Herglotz; M_+ is Herglotz and M_- anti-Herglotz.  The
phase xi(lambda, n0) = Arg(g(lambda+i0, n0))/pi lies in [0, 1]; the set
{0 < xi < 1} recovers the ac spectrum through its essential closure, and
xi = 1/2 (equivalently M_+ = conj(M_-)) characterizes reflectionless points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_analysis import (REFERENCE_EPS, ReflectionlessReport, SweepFamily,
                                exact_sweep, floquet_pair, memo, normalize_pair, one_point,
                                phase_at, plus_side, stack_2x2, sweep_ac_spectrum,
                                sweep_multiplicity_sets, sweep_phase, sweep_reflectionless,
                                tridiagonal_resolvent)
from .interval_sets import RealIntervalSet


@dataclass(frozen=True)
class JacobiCoefficients:
    """Two-sided Jacobi coefficients: period-p base plus a finite patch.

    patch maps a site n to an (a(n), b(n)) override; unpatched sites read
    the base arrays cyclically.
    """
    period: int
    a_base: tuple
    b_base: tuple
    patch: tuple = ()   # sorted ((n, a, b), ...)

    def __post_init__(self):
        if not (float(self.period).is_integer() and self.period >= 1):
            raise ValueError(f"period must be a positive integer, not {self.period!r}")
        object.__setattr__(self, "period", int(self.period))
        if len(self.a_base) != self.period or len(self.b_base) != self.period:
            raise ValueError("base arrays must have length equal to the period")
        object.__setattr__(self, "a_base", tuple(float(a) for a in self.a_base))
        object.__setattr__(self, "b_base", tuple(float(b) for b in self.b_base))
        if isinstance(self.patch, dict):
            items = [(n, a, b) for n, (a, b) in self.patch.items()]
        else:
            items = [(n, a, b) for n, a, b in self.patch]
        if not all(float(n).is_integer() for n, _, _ in items):
            raise ValueError("patch sites must be integers")
        norm = tuple(sorted((int(n), float(a), float(b)) for n, a, b in items))
        object.__setattr__(self, "patch", norm)
        if not all(map(math.isfinite, self.a_base + self.b_base
                       + tuple(x for _, a, b in norm for x in (a, b)))):
            raise ValueError("coefficients must be finite numbers")
        if any(a <= 0 for a in self.a_base) or any(a <= 0 for _, a, _ in self.patch):
            raise ValueError("off-diagonal coefficients a(n) must be positive")
        seen = [n for n, _, _ in self.patch]
        if len(seen) != len(set(seen)):
            raise ValueError("patch sites must be distinct")

    def _patched(self, n):
        for m, a, b in self.patch:
            if m == n:
                return a, b
        return None

    def a(self, n: int) -> float:
        hit = self._patched(n)
        return hit[0] if hit else self.a_base[n % self.period]

    def b(self, n: int) -> float:
        hit = self._patched(n)
        return hit[1] if hit else self.b_base[n % self.period]

    @property
    def patch_sites(self):
        return tuple(n for n, _, _ in self.patch)

    def sup_bound(self) -> float:
        """Upper bound for the spectral radius: sup|b| + 2 sup|a|."""
        a_all = list(self.a_base) + [a for _, a, _ in self.patch]
        b_all = list(self.b_base) + [b for _, _, b in self.patch]
        return max(abs(b) for b in b_all) + 2.0 * max(abs(a) for a in a_all)

    def to_descriptor(self) -> dict:
        return {"type": "jacobi", "period": self.period,
                "a": list(self.a_base), "b": list(self.b_base),
                "patch": {str(n): [a, b] for n, a, b in self.patch}}

    @classmethod
    def from_descriptor(cls, d: dict) -> "JacobiCoefficients":
        if d.get("type") != "jacobi":
            raise ValueError("descriptor type must be 'jacobi'")
        patch = d.get("patch", {})
        if not isinstance(patch, dict):
            raise ValueError(f"patch must be an object of site: [a, b], not {patch!r:.80}")
        patch = {int(n): (ab[0], ab[1]) for n, ab in patch.items()}
        return cls(d["period"], tuple(d["a"]), tuple(d["b"]), patch)


@dataclass(frozen=True)
class WeylData:
    """Pointwise Weyl quantities at (z, n0)."""
    z: complex
    n0: int
    m_plus: complex
    m_minus: complex
    M_plus: complex
    M_minus: complex
    g: complex


def _monodromy_entries(J: JacobiCoefficients, zs, n_start: int):
    """Entries (m00, m01, m10, m11) of monodromy(J, zs, n_start), multiplied
    out entrywise: T(n) = [[(z - b(n))/a(n), -a(n-1)/a(n)], [1, 0]] maps
    [psi(n), psi(n-1)] to [psi(n+1), psi(n)], and T(n) M has M's top row as
    its bottom row."""
    m00, m01 = (zs - J.b(n_start)) / J.a(n_start), -J.a(n_start - 1) / J.a(n_start)
    m10, m11 = 1.0, 0.0
    for n in range(n_start + 1, n_start + J.period):
        t, s = (zs - J.b(n)) / J.a(n), -J.a(n - 1) / J.a(n)
        m00, m01, m10, m11 = t * m00 + s * m10, t * m01 + s * m11, m00, m01
    return m00, m01, m10, m11


def monodromy(J: JacobiCoefficients, z, n_start: int):
    """One-period transfer product T(n_start+p-1) ... T(n_start), shape
    z.shape + (2, 2); det = a(n_start-1)/a(n_start+p-1)."""
    zs = np.asarray(z, dtype=complex)
    return stack_2x2(*_monodromy_entries(J, zs, n_start), zs.shape)


def _weyl_grid(J: JacobiCoefficients, zs, n0: int, near=None) -> dict:
    """All Weyl quantities over an array of spectral parameters.

    Returns m_plus, m_minus, M_plus, M_minus and g as arrays shaped like zs;
    with near (a sweep's branch) also 'floquet', the branch and the
    ambiguous mask (floquet_pair).
    """
    zs = np.asarray(zs, dtype=complex)
    p, sites = J.period, J.patch_sites
    n_r = max(n0 + 2, max(sites) + 2) if sites else n0 + 2
    # the largest site congruent to n_r whose monodromy window, and all left
    # of it, is unpatched: both seeds are eigenvectors of the same matrix
    top = min(n0 + 1, min(sites) - p) if sites else n0 + 1
    n_l = n_r - p * math.ceil((n_r - top) / p)
    m = _monodromy_entries(J, zs, n_r)
    (hi, lo), (cur, prev), *branch = floquet_pair(*m, m[0] * m[3] - m[1] * m[2], near)

    # rightward-decaying solution, stripped down to n0-1; hi = psi(n_r),
    # lo = psi(n_r - 1)
    for n in range(n_r - 1, n0 - 1, -1):
        hi, lo = lo, ((zs - J.b(n)) * lo - J.a(n) * hi) / J.a(n - 1)
        hi, lo = normalize_pair(hi, lo)
    m_plus = -hi / (J.a(n0 - 1) * lo)      # hi = psi(n0), lo = psi(n0-1)

    # leftward-decaying solution, propagated up to n0+1; cur = psi(n_l),
    # prev = psi(n_l - 1)
    for n in range(n_l, n0 + 1):
        cur, prev = ((zs - J.b(n)) * cur - J.a(n - 1) * prev) / J.a(n), cur
        cur, prev = normalize_pair(cur, prev)
    m_minus = -prev / (J.a(n0) * cur)      # cur = psi(n0+1), prev = psi(n0)

    M_plus = -1.0 / m_plus - zs + J.b(n0)
    M_minus = 1.0 / m_minus
    g = 1.0 / (M_minus - M_plus)
    out = {"m_plus": m_plus, "m_minus": m_minus, "M_plus": M_plus, "M_minus": M_minus, "g": g}
    if branch:
        out["floquet"] = tuple(branch)
    return out


def m_half_line(J: JacobiCoefficients, z: complex, n0: int, side: str) -> complex:
    """Half-lattice resolvent diagonal at n0 for the restriction to the
    right (side '+') or left (side '-') of n0; Herglotz on either side."""
    return one_point(_weyl_grid, J, z, n0)["m_plus" if plus_side(side) else "m_minus"]


def big_M(J: JacobiCoefficients, z: complex, n0: int, side: str) -> complex:
    """M_+ = -1/m_+ - z + b(n0) (Herglotz), M_- = 1/m_- (anti-Herglotz)."""
    return one_point(_weyl_grid, J, z, n0)["M_plus" if plus_side(side) else "M_minus"]


def green_diag(J: JacobiCoefficients, z: complex, n0: int) -> complex:
    """Diagonal Green's function g(z, n0) = [M_- - M_+]^-1; Herglotz in z."""
    return one_point(_weyl_grid, J, z, n0)["g"]


def weyl_data(J: JacobiCoefficients, z: complex, n0: int) -> WeylData:
    return WeylData(complex(z), n0, **one_point(_weyl_grid, J, z, n0))


def boundary_weyl_grid(J: JacobiCoefficients, lams, n0: int) -> dict:
    """Boundary values of the Weyl quantities on a real grid, read on the
    axis by boundary_analysis.exact_sweep with the reference points
    REFERENCE_EPS (1 + sup|b| + 2 sup|a|) above it: (value, error, ok) per
    key plus the 'inf_'/'div_' flags."""
    return exact_sweep(lambda zs, near: _weyl_grid(J, zs, n0, near), lams, False,
                       REFERENCE_EPS * (1.0 + J.sup_bound()))


def xi_grid(J: JacobiCoefficients, lams, n0: int):
    """xi = Arg(g(lambda+i0, n0))/pi in [0, 1] over a real grid: (values,
    errors, ok mask), by boundary_analysis.sweep_phase; xi = nan where not ok."""
    return sweep_phase(_FAMILY, _FAMILY.sweep(J, lams, n0))


def xi(J: JacobiCoefficients, lam: float, n0: int) -> float:
    """Boundary phase of the diagonal Green's function, in [0, 1]."""
    return phase_at(_FAMILY, J, lam, n0)


def default_grid(J: JacobiCoefficients, points: int = 4001):
    """Spectral window [-sup|b|-2sup|a|-1, sup|b|+2sup|a|+1]."""
    R = J.sup_bound() + 1.0
    return np.linspace(-R, R, points)


_FAMILY = SweepFamily(
    sweep=lambda J, lams, n0: memo(boundary_weyl_grid, J, lams, n0),
    phase=lambda J, lams, n0: xi_grid(J, lams, n0),
    grid=default_grid, sites=lambda J: (0, 1), circle=False, pair=("M_plus", "M_minus"),
    phase_key="g",
    csv_columns=(("lambda", "loc"), ("xi", "phase"), ("error_estimate", "err"),
                 ("verdict", "verdict")))


def ac_spectrum(J: JacobiCoefficients, grid=None) -> RealIntervalSet:
    """Essential closure of the grid hull of {0 < xi < 1} at site 0, one grid
    step of margin on each side.  Recomputed at site 1; a disagreement beyond
    two grid steps raises SiteDisagreement, since the phase set must not
    depend on the site."""
    return sweep_ac_spectrum(_FAMILY, J, grid)


def reflectionless_on(J: JacobiCoefficients, E: RealIntervalSet, grid=None,
                      tol: float = 1e-4) -> ReflectionlessReport:
    """Reflectionless test on E: boundary matching M_+ = conj(M_-) plus the
    phase criterion xi = 1/2, evaluated on grid points interior to E at the
    reference sites 0 and 1.  Verdict true when the matching condition holds
    (residual < tol) on more than 99% of tested points at every site; the
    witness identity -1/g = 2i Im M_+ = -2i Im M_- is recorded where true."""
    return sweep_reflectionless(_FAMILY, J, E, grid, tol)


def multiplicity_sets(J: JacobiCoefficients, grid=None):
    """Grid hulls of the uniform-multiplicity sets from boundary (M_+, M_-) at site 0.

    Multiplicity two: both nonreal (boundary_analysis.off_axis).  Multiplicity
    one: equal real values, both infinite, or exactly one nonreal.  Returns
    (M2, M1) as interval sets; isolated eigenvalue hits appear as points.
    """
    return sweep_multiplicity_sets(_FAMILY, J, grid)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal truncation; diag[i] = b(sites[i]),
    offdiag[i] = a(sites[i]) couples sites[i] and sites[i+1]."""
    first_site: int
    diag: np.ndarray
    offdiag: np.ndarray

    def index_of(self, n: int) -> int:
        i = n - self.first_site
        if not (0 <= i < self.diag.size):
            raise IndexError(f"site {n} outside the truncation window")
        return i


def truncated_matrix(J: JacobiCoefficients, N: int) -> TridiagonalMatrix:
    """Dirichlet truncation onto the N sites of the window centered on site 0."""
    if N < 4:
        raise ValueError("truncation needs at least 4 sites")
    first = -(N // 2)
    sites = range(first, first + N)
    diag = np.array([J.b(n) for n in sites])
    off = np.array([J.a(n) for n in list(sites)[:-1]])
    return TridiagonalMatrix(first, diag, off)


def green_inverse_identity_residual(J: JacobiCoefficients, zs) -> float:
    """Max residual of |g(z)*(M_-(z) - M_+(z)) - 1| at site 0 with g taken
    from an 801-site Dirichlet-truncation resolvent (one batched tridiagonal
    solve for all zs), so the inverse identity is tested against a route
    independent of the Floquet M-functions.  The truncation error is
    exponentially small for z away from the real axis.  The kernel takes
    the contracting root without the degeneracy test (near = 0), so
    multipliers of near-equal modulus (a large scale) show as a residual,
    not an exception."""
    T = truncated_matrix(J, 801)
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    d = _weyl_grid(J, zs, 0, 0.0)
    g, _ = tridiagonal_resolvent(T.diag - zs[:, None], T.offdiag, T.offdiag, T.index_of(0))
    return float(np.max(np.abs(g * (d["M_minus"] - d["M_plus"]) - 1.0), initial=0.0))


def discriminant(J: JacobiCoefficients, lams):
    """Trace of the one-period monodromy over the periodic base (patch
    ignored); the bands of the periodic operator are {|discriminant| <= 2}."""
    base = JacobiCoefficients(J.period, J.a_base, J.b_base)
    zs = np.asarray(lams, dtype=complex)
    M = monodromy(base, zs, 0)
    tr = M[..., 0, 0] + M[..., 1, 1]
    return tr.real if np.all(np.abs(tr.imag) < 1e-9) else tr
