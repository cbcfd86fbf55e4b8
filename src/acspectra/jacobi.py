"""Periodic-plus-patch Jacobi operators on the whole lattice.

The operator acts as (Hf)(n) = a(n)f(n+1) + a(n-1)f(n-1) + b(n)f(n), with
periodic base coefficients and a finite patch of overrides.  Half-lattice
Weyl functions come from the Floquet theory of the one-period transfer
matrix: the eigenvector of the monodromy with contracting (|u| < 1)
multiplier seeds the square-summable solution psi_+ rightward, the expanding
one seeds psi_- leftward, and the monodromy's steps carry the seeds
through the patch to the reference site (carry).  Both seeds come from one
monodromy per kernel call: the left one sits at a site congruent to the
right one modulo the period, left of the patch and of n0.  From the Weyl
solutions:

    m_+(z, n0) = -psi_+(n0) / [a(n0-1) psi_+(n0-1)]      (resolvent diagonal
    m_-(z, n0) = -psi_-(n0) / [a(n0) psi_-(n0+1)]         of each half line)
    M_+(z, n0) = -1/m_+(z, n0) - z + b(n0)
    M_-(z, n0) = 1/m_-(z, n0)
    g(z, n0)   = [M_-(z, n0) - M_+(z, n0)]^-1             (diagonal Green)

m_+ and m_- are both Herglotz; M_+ is Herglotz and M_- anti-Herglotz.  The
phase xi(lambda, n0) = Arg(g(lambda+i0, n0))/pi lies in [0, 1] (nan where
undetermined); the set {0 < xi < 1} recovers the ac spectrum through its
essential closure, and xi = 1/2 (equivalently M_+ = conj(M_-))
characterizes reflectionless points.

The kernel _weyl_grid returns all five quantities; the sweep, the phase
grid and the one-point reads are boundary_analysis's, imported as
boundary_weyl_grid, xi_grid, xi and weyl_data, with the reference points
REFERENCE_EPS (1 + sup|b| + 2 sup|a|) above the axis.  weyl_data returns
all five, and the sweep keeps the three a report reads: M_plus, M_minus
and g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary_analysis import (SweepFamily, carry, floquet_pair, resolvent_in_blocks,
                                transfer_matrix, transfer_product, transfer_trace)
from .boundary_analysis import (ac_spectrum, multiplicity_sets, reflectionless_on,  # re-exported
                                weyl_data, boundary_grid as boundary_weyl_grid,
                                phase_at as xi, phase_grid as xi_grid)
from .errors import check_keys, check_number


# the coefficient range a report runs in without overflow: a uniform scale
# s (a = s, or a = b = s) overflows from s = 2^341 and from s = 2^-1022 (2^-1021
# as a patch), and b alone from 2^512
MAX_COEFFICIENT = 2.0 ** 320
MIN_OFF_DIAGONAL = 2.0 ** -1000


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
        a_all = self.a_base + tuple(a for _, a, _ in norm)
        b_all = self.b_base + tuple(b for _, _, b in norm)
        if any(a <= 0 for a in a_all):
            raise ValueError("off-diagonal coefficients a(n) must be positive")
        if max(a_all + tuple(map(abs, b_all))) > MAX_COEFFICIENT or min(a_all) < MIN_OFF_DIAGONAL:
            raise ValueError("coefficients must have magnitudes of at most 2^320, and a(n) of "
                             f"at least 2^-1000, not a = {a_all!r:.80}, b = {b_all!r:.80}")
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
        check_keys(d, ("type", "period", "a", "b", "patch"), "jacobi descriptor key")
        num = lambda v: check_number(v, "jacobi coefficient")
        period = check_number(d["period"], "jacobi period")
        a, b = tuple(map(num, d["a"])), tuple(map(num, d["b"]))
        patch = d.get("patch", {})
        if not isinstance(patch, dict):
            raise ValueError(f"patch must be an object of site: [a, b], not {patch!r:.80}")
        patch = {int(n): (num(ab[0]), num(ab[1])) for n, ab in patch.items()}
        return cls(period, a, b, patch)


def _steps(J: JacobiCoefficients, zs, sites):
    """T(n) = [[(z - b(n))/a(n), -a(n-1)/a(n)], [1, 0]] over the sites in
    order, mapping [psi(n), psi(n-1)] to [psi(n+1), psi(n)]."""
    return (((zs - J.b(n)) / J.a(n), -J.a(n - 1) / J.a(n), 1.0, 0.0) for n in sites)


def _monodromy_entries(J: JacobiCoefficients, zs, n_start: int):
    """(m00, m01, m10, m11, exponent) of monodromy(J, zs, n_start) by
    transfer_product of _steps."""
    return transfer_product(_steps(J, zs, range(n_start, n_start + J.period)))


def monodromy(J: JacobiCoefficients, z, n_start: int):
    """One-period transfer product T(n_start+p-1) ... T(n_start), shape
    z.shape + (2, 2); det = a(n_start-1)/a(n_start+p-1).  OverflowError
    where it leaves the float range (transfer_matrix)."""
    zs = np.asarray(z, dtype=complex)
    return transfer_matrix(_monodromy_entries(J, zs, n_start), zs.shape)


def _weyl_grid(J: JacobiCoefficients, zs, n0: int, near=0.0) -> dict:
    """All Weyl quantities over an array of spectral parameters.

    Returns m_plus, m_minus, M_plus, M_minus and g as arrays shaped like zs,
    and 'floquet', the branch nearest near and its ambiguous mask
    (floquet_pair).
    """
    zs = np.asarray(zs, dtype=complex)
    p, sites = J.period, J.patch_sites
    n_r = max(n0 + 2, max(sites) + 2) if sites else n0 + 2
    # the largest site congruent to n_r whose monodromy window, and all left
    # of it, is unpatched: both seeds are eigenvectors of the same matrix
    top = min(n0 + 1, min(sites) - p) if sites else n0 + 1
    n_l = n_r - p * math.ceil((n_r - top) / p)
    *m, e = _monodromy_entries(J, zs, n_r)
    dec, grow, *branch = floquet_pair(*m, m[0] * m[3] - m[1] * m[2], near, e)
    del m       # each pair below, too, is freed after its last read
    # rightward-decaying solution [psi(n_r), psi(n_r - 1)], back to n0
    hi, lo = carry(dec, _steps(J, zs, range(n_r - 1, n0 - 1, -1)), backward=True)
    m_plus = -hi / (J.a(n0 - 1) * lo)      # hi = psi(n0), lo = psi(n0-1)
    del hi, lo
    # leftward-decaying solution [psi(n_l), psi(n_l - 1)], up to n0+1
    cur, prev = carry(grow, _steps(J, zs, range(n_l, n0 + 1)))
    m_minus = -prev / (J.a(n0) * cur)      # cur = psi(n0+1), prev = psi(n0)
    del cur, prev

    M_plus = -1.0 / m_plus - zs + J.b(n0)
    M_minus = 1.0 / m_minus
    g = 1.0 / (M_minus - M_plus)
    return {"m_plus": m_plus, "m_minus": m_minus, "M_plus": M_plus, "M_minus": M_minus, "g": g,
            "floquet": tuple(branch)}


def default_grid(J: JacobiCoefficients, points: int = 4001):
    """Spectral window [-sup|b|-2sup|a|-1, sup|b|+2sup|a|+1]."""
    R = J.sup_bound() + 1.0
    return np.linspace(-R, R, points)


JacobiCoefficients._FAMILY = SweepFamily(
    kernel=lambda J, zs, n0, near: _weyl_grid(J, zs, n0, near), grid=default_grid,
    sites=lambda J: (0, 1), circle=False, pair=("M_plus", "M_minus"), phase_key="g",
    csv_columns=(("lambda", "loc"), ("xi", "phase"), ("error_estimate", "err"),
                 ("verdict", "verdict")))


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
    base = np.arange(first, first + N) % J.period
    diag = np.array(J.b_base)[base]
    off = np.array(J.a_base)[base[:-1]]
    for n, a, b in J.patch:
        if 0 <= n - first < N:
            diag[n - first] = b
        if 0 <= n - first < N - 1:
            off[n - first] = a
    return TridiagonalMatrix(first, diag, off)


def green_inverse_identity_residual(J: JacobiCoefficients, zs) -> float:
    """Max residual of |g(z)*(M_-(z) - M_+(z)) - 1| at site 0 with g taken
    from a Dirichlet-truncation resolvent (boundary_analysis.
    resolvent_in_blocks), so the inverse identity is tested against a route
    independent of the Floquet M-functions.  The resolvent decays like
    exp(-|n| Im z / (2 max a)), so the window is sized from the operator's
    scale: N = max(801, 2 ceil(80 max a / min |Im z|) + 1) sites, where
    that decay reaches exp(-40), capped at 2^15 + 1 to bound the time of
    the solve (past max a / min |Im z| of about 200 the window stops
    growing).  The diagonals T - z are built one block of draws at a time,
    so no (draws x window) array is ever whole: a report's 20 draws take 5
    blocks of 4, a capped window one draw at a time.  The kernel takes the
    contracting root and never raises, so multipliers of near-equal modulus
    (a large scale) show as a residual too."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    im = float(np.abs(zs.imag).min(initial=np.inf))
    reach = 80.0 * max(J.a_base + tuple(a for _, a, _ in J.patch)) / im if im else math.inf
    T = truncated_matrix(J, 2 * math.ceil(min(2.0 ** 14, max(400.0, reach))) + 1)
    d = _weyl_grid(J, zs, 0)
    g, _ = resolvent_in_blocks(lambda b: (T.diag - zs[b, None], T.offdiag, T.offdiag),
                               zs.size, T.diag.size, T.index_of(0))
    return float(np.max(np.abs(g * (d["M_minus"] - d["M_plus"]) - 1.0), initial=0.0))


def discriminant(J: JacobiCoefficients, lams):
    """Trace of the one-period monodromy over the periodic base (patch
    ignored, transfer_trace); the bands are {|discriminant| <= 2}."""
    base = JacobiCoefficients(J.period, J.a_base, J.b_base)
    return transfer_trace(_monodromy_entries(base, np.asarray(lams, dtype=complex), 0))
