"""Periodic-plus-patch CMV operators from Verblunsky coefficients.

The five-diagonal unitary U acts on the whole lattice; setting alpha(n0) = 1
splits it into half-lattice blocks on (-inf, n0-1] and [n0, +inf).  The
half-lattice m-functions are Cayley-transform diagonals,

    m_+(z, n0) = ((U_{+,n0} + z)(U_{+,n0} - z)^-1)(n0, n0)     Caratheodory
    m_-(z, n0) = -((U_{-,n0} + z)(U_{-,n0} - z)^-1)(n0, n0)    anti-Caratheodory

computed through the Schur algorithm: the spectral measure of U_{+,n0} has
Schur parameters gamma_j = -conj(alpha(n0+1+j)), the left Cayley diagonal at
site m has gamma_j = -alpha(m-j), and for a periodic tail the Schur function
is the contracting fixed point of the one-period Moebius monodromy, read
off its growing Floquet eigenvector.  Then

    M_+(z, n0) = m_+(z, n0)
    M_-(z, n0) = [Re(1+a0) + i Im(1-a0) m_-(z, n0-1)]
                 / [i Im(1+a0) + Re(1-a0) m_-(z, n0-1)],   a0 = alpha(n0)
    M11(z, n0) = (1 - M_+ M_-) / (M_+ - M_-)

with M11 the Caratheodory function of the (n0, n0) spectral measure entry.
The phase Xi11 = Arg(M11)/pi on the boundary lies in [-1/2, 1/2]; the set
{|Xi11| < 1/2} recovers the ac spectrum through its circle essential closure,
and Xi11 = 0 (equivalently M_+ = -conj(M_-)) characterizes reflectionless
arcs.  Truncations are exactly unitary thanks to the alpha = 1 cuts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator
from .boundary_analysis import (REFERENCE_EPS, ReflectionlessReport, SweepFamily, accepted,
                                boundary_sweep, exact_sweep, floquet_pair, memo, one_point,
                                phase_at, plus_side, require_in_disk,
                                sweep_ac_spectrum, sweep_multiplicity_sets, sweep_phase,
                                sweep_reflectionless, tridiagonal_resolvent)
from .interval_sets import CircleArcSet, circle_set, full_circle

TWO_PI = 2.0 * math.pi
RANK_TOL = 1e-2             # eigenvalues of R above it count toward its rank
EIG_BLOCKS = 4              # direct summands of the eigenvalue-angle window


@dataclass(frozen=True)
class VerblunskyCoefficients:
    """Period-p Verblunsky coefficients in the open unit disk plus a patch."""
    period: int
    alpha_base: tuple
    patch: tuple = ()   # sorted ((n, alpha), ...)

    def __post_init__(self):
        if not (float(self.period).is_integer() and self.period >= 1):
            raise ValueError(f"period must be a positive integer, not {self.period!r}")
        object.__setattr__(self, "period", int(self.period))
        if len(self.alpha_base) != self.period:
            raise ValueError("alpha_base must have length equal to the period")
        object.__setattr__(self, "alpha_base", tuple(complex(a) for a in self.alpha_base))
        items = self.patch.items() if isinstance(self.patch, dict) else self.patch
        if not all(float(n).is_integer() for n, _ in items):
            raise ValueError("patch sites must be integers")
        norm = tuple(sorted(((int(n), complex(a)) for n, a in items), key=lambda t: t[0]))
        object.__setattr__(self, "patch", norm)
        if not all(map(cmath.isfinite, self.alpha_base + tuple(a for _, a in norm))):
            raise ValueError("Verblunsky coefficients must be finite numbers")
        if any(abs(a) >= 1.0 for a in self.alpha_base) or any(abs(a) >= 1.0 for _, a in self.patch):
            raise ValueError("Verblunsky coefficients must lie in the open unit disk")
        sites = [n for n, _ in self.patch]
        if len(sites) != len(set(sites)):
            raise ValueError("patch sites must be distinct")

    def alpha(self, n: int) -> complex:
        for m, a in self.patch:
            if m == n:
                return a
        return self.alpha_base[n % self.period]

    def rho(self, n: int) -> float:
        return math.sqrt(1.0 - abs(self.alpha(n)) ** 2)

    @property
    def patch_sites(self):
        return tuple(n for n, _ in self.patch)

    def to_descriptor(self) -> dict:
        return {"type": "cmv", "period": self.period,
                "alpha": [[a.real, a.imag] for a in self.alpha_base],
                "patch": {str(n): [a.real, a.imag] for n, a in self.patch}}

    @classmethod
    def from_descriptor(cls, d: dict) -> "VerblunskyCoefficients":
        if d.get("type") != "cmv":
            raise ValueError("descriptor type must be 'cmv'")
        base = tuple(complex(re, im) for re, im in d["alpha"])
        patch = d.get("patch", {})
        if not isinstance(patch, dict):
            raise ValueError(f"patch must be an object of site: [re, im], not {patch!r:.80}")
        patch = {int(n): complex(v[0], v[1]) for n, v in patch.items()}
        return cls(d["period"], base, patch)


@dataclass(frozen=True)
class CMVWeylData:
    z: complex
    n0: int
    m_plus: complex
    m_minus: complex
    M_plus: complex
    M_minus: complex
    M11: complex


# ---------------------------------------------------------------------------
# Schur-algorithm evaluation of the half-lattice m-functions

def _schur_to_caratheodory(head, period_gammas, zs, near=None):
    """Caratheodory value (1 + z f)/(1 - z f) for the Schur function with
    parameter sequence head + periodic tail, vectorized over zs.  The
    one-period product A of the Schur step matrices [[z, g], [conj(g) z, 1]]
    is multiplied out entrywise; det A = z^p prod(1 - |g|^2).  The tail's
    Schur function is the contracting fixed point of A's Moebius map, x/y
    of its growing eigenvector (x, y) by floquet_pair: the map's derivative
    there is the ratio of the other multiplier to this one.  With near (a
    sweep's branch) the return is (value, branch, ambiguous)."""
    zs = np.asarray(zs, dtype=complex)
    g = period_gammas[0]
    a00, a01, a10, a11 = zs, g, np.conj(g) * zs, 1.0
    for g in period_gammas[1:]:
        gz = np.conj(g) * zs
        a00, a01, a10, a11 = a00 * zs + a01 * gz, a00 * g + a01, a10 * zs + a11 * gz, a10 * g + a11
    det = zs ** len(period_gammas) * math.prod(1.0 - abs(g) ** 2 for g in period_gammas)
    _, (x, y), *branch = floquet_pair(a00, a01, a10, a11, det, near)
    f = x / y
    for g in reversed(head):
        f = (g + zs * f) / (1.0 + np.conj(g) * zs * f)
    value = (1.0 + zs * f) / (1.0 - zs * f)
    return (value, *branch) if branch else value


def _gammas_plus(V: VerblunskyCoefficients, n0: int):
    """Schur parameters of the right half-lattice measure, split into the
    aperiodic head (through the patch) and one periodic tail period."""
    sites = V.patch_sites
    j_head = max(0, (max(sites) - n0) if sites else 0)
    head = [-np.conj(V.alpha(n0 + 1 + j)) for j in range(j_head)]
    tail = [-np.conj(V.alpha(n0 + 1 + j_head + j)) for j in range(V.period)]
    return head, tail


def _gammas_minus(V: VerblunskyCoefficients, m: int):
    """Schur parameters of the left Cayley diagonal at site m."""
    sites = V.patch_sites
    j_head = max(0, (m - min(sites) + 1) if sites else 0)
    head = [-V.alpha(m - j) for j in range(j_head)]
    tail = [-V.alpha(m - j_head - j) for j in range(V.period)]
    return head, tail


def _m_grid(V: VerblunskyCoefficients, zs, n0: int, side: str, near=None):
    """m_+(z, n0) or m_-(z, n0) over zs; with near, (value, branch,
    ambiguous) as _schur_to_caratheodory."""
    if plus_side(side):
        return _schur_to_caratheodory(*_gammas_plus(V, n0), zs, near)
    out = _schur_to_caratheodory(*_gammas_minus(V, n0), zs, near)
    return (-out[0], *out[1:]) if near is not None else -out


def m_half_lattice(V: VerblunskyCoefficients, z: complex, n0: int, side: str) -> complex:
    """Half-lattice Cayley-transform diagonal at n0: Caratheodory for the
    right block (side '+'), anti-Caratheodory (Re <= 0) for the left."""
    return one_point(_m_grid, V, z, n0, side, circle=True)


def _twist(a0: complex, mm):
    """M_- from m_-(z, n0-1): the Moebius twist by a0 = alpha(n0)."""
    num = (1.0 + a0).real + 1j * (1.0 - a0).imag * mm
    den = 1j * (1.0 + a0).imag + (1.0 - a0).real * mm
    return num / den


def _big_M_grid(V: VerblunskyCoefficients, zs, n0: int, side: str):
    if plus_side(side):
        return _m_grid(V, zs, n0, "+")
    return _twist(V.alpha(n0), _m_grid(V, zs, n0 - 1, "-"))


def _finite_M_minus(Mm: complex, z, n0: int) -> complex:
    """M_- unless the denominator of its twist vanished (M_- not finite)."""
    if not cmath.isfinite(Mm):
        raise ZeroDivisionError(f"M_- denominator vanished at z={z}, n0={n0}")
    return Mm


def big_M(V: VerblunskyCoefficients, z: complex, n0: int, side: str) -> complex:
    """M_+ = m_+ verbatim; M_- is the alpha(n0) Moebius twist of m_-(z, n0-1),
    ZeroDivisionError where its denominator vanishes.  Re M_+ >= 0 >= Re M_-
    in the disk."""
    return _finite_M_minus(one_point(_big_M_grid, V, z, n0, side, circle=True), z, n0)


def _M11_grid(V: VerblunskyCoefficients, zs, n0: int, near=None) -> dict:
    """M_plus, M_minus and M11 over zs; with near (a sweep's branch: 0, or
    the stacked branches of both half lattices) also 'floquet', the stacked
    branches and their joint ambiguous mask (floquet_pair)."""
    if near is None:
        Mp, Mm = _big_M_grid(V, zs, n0, "+"), _big_M_grid(V, zs, n0, "-")
    else:
        near_p, near_m = (near, near) if np.ndim(near) == 0 else near
        Mp, up, ap = _m_grid(V, zs, n0, "+", near_p)
        mm, um, am = _m_grid(V, zs, n0 - 1, "-", near_m)
        Mm = _twist(V.alpha(n0), mm)
    out = {"M_plus": Mp, "M_minus": Mm, "M11": (1.0 - Mp * Mm) / (Mp - Mm)}
    if near is not None:
        out["floquet"] = (np.stack([up, um]), ap | am)
    return out


def M11(V: VerblunskyCoefficients, z: complex, n0: int, mode: str = "formula",
        window: int = 2048) -> complex:
    """Caratheodory function of the (n0, n0) spectral measure entry.

    formula mode: (1 - M_+ M_-)/(M_+ - M_-); raises DegenerateDenominator
    when |M_+ - M_-| <= 1e-12, ZeroDivisionError as big_M does.  oracle
    mode: Cayley diagonal of the unitary truncation of the stated window
    size around n0 (truncation_cayley_diag).
    """
    if mode == "oracle":
        return complex(truncation_cayley_diag(V, require_in_disk(z), n0, window))
    if mode != "formula":
        raise ValueError(f"mode must be 'formula' or 'oracle', got {mode!r}")
    d = one_point(_M11_grid, V, z, n0, circle=True)
    if abs(d["M_plus"] - _finite_M_minus(d["M_minus"], z, n0)) <= 1e-12:
        raise DegenerateDenominator(
            f"M_+ = M_- at z={z}, n0={n0}; use mode='oracle' for this point")
    return d["M11"]


def weyl_data(V: VerblunskyCoefficients, z: complex, n0: int) -> CMVWeylData:
    d = one_point(_M11_grid, V, z, n0, circle=True)
    return CMVWeylData(complex(z), n0, d["M_plus"], m_half_lattice(V, z, n0, "-"),
                       d["M_plus"], d["M_minus"], d["M11"])     # M_+ = m_+


# ---------------------------------------------------------------------------
# Boundary sweeps

def boundary_cmv_grid(V: VerblunskyCoefficients, thetas, n0: int) -> dict:
    """Boundary values of M_+, M_-, M11 on an angle grid, read on the circle
    by boundary_analysis.exact_sweep with the reference points at radius
    1 - REFERENCE_EPS: (value, error, ok) per key plus the 'inf_'/'div_'
    flags."""
    return exact_sweep(lambda zs, near: _M11_grid(V, zs, n0, near), thetas, True,
                       REFERENCE_EPS)


def Xi11_grid(V: VerblunskyCoefficients, thetas, n0: int):
    """Xi11 = Arg(M11(zeta))/pi in [-1/2, 1/2] over an angle grid: (values,
    errors, ok mask), by boundary_analysis.sweep_phase.  Boundary zeros of
    M11 (|M11| within 100 errors of 0) leave the phase undefined and are
    marked not ok; they carry zero ac density."""
    return sweep_phase(_FAMILY, _FAMILY.sweep(V, thetas, n0))


def Xi11(V: VerblunskyCoefficients, theta: float, n0: int) -> float:
    """Boundary phase of M11 at angle theta, in [-1/2, 1/2]."""
    return phase_at(_FAMILY, V, theta, n0)


def default_angles(points: int = 512):
    return np.linspace(0.0, TWO_PI, points, endpoint=False)


_FAMILY = SweepFamily(
    sweep=lambda V, thetas, n0: memo(boundary_cmv_grid, V, thetas, n0),
    phase=lambda V, thetas, n0: Xi11_grid(V, thetas, n0),
    grid=lambda V: default_angles(), sites=lambda V: (0, 1), circle=True,
    pair=("M_plus", "M_minus"), phase_key="M11",
    csv_columns=(("theta", "loc"), ("re_m11", "re"), ("im_m11", "im"), ("xi", "phase"),
                 ("verdict", "verdict"), ("r00", "empty"), ("r11", "empty"), ("rank", "empty")),
    zero_floor=True)


def ac_spectrum(V: VerblunskyCoefficients, grid=None) -> CircleArcSet:
    """Circle essential closure of the angle hull of {|Xi11| < 1/2} at site 0,
    one grid step of margin; recomputed at site 1, disagreement raises."""
    grid = default_angles() if grid is None else np.asarray(grid, dtype=float)
    if grid.size < 512:
        raise ValueError("angular grid needs at least 512 points")
    return sweep_ac_spectrum(_FAMILY, V, grid)


def reflectionless_on(V: VerblunskyCoefficients, E: CircleArcSet, grid=None,
                      tol: float = 1e-4) -> ReflectionlessReport:
    """Reflectionless test on an arc set E: boundary matching M_+ = -conj(M_-)
    plus the phase criterion Xi11 = 0, at the reference sites 0 and 1.  Where
    the verdict holds, the uniform-multiplicity witness
    M11 = (1+|M_+-|^2)/(+-2 Re M_+-) is recorded as a max residual."""
    return sweep_reflectionless(_FAMILY, V, E, grid, tol)


def m11_boundary_identity_residual(V: VerblunskyCoefficients, thetas, n0: int) -> float:
    """Max residual of the boundary identity expressing Re M11 through the
    one-sided data on an angle grid (see m11_identity_residual)."""
    return m11_identity_residual(boundary_cmv_grid(V, np.asarray(thetas, dtype=float), n0))


def m11_identity_residual(bd: dict) -> float:
    """Max residual over a boundary_cmv_grid sweep of the identity
    Re M11 = [Re M_+ (1+|M_-|^2) - Re M_- (1+|M_+|^2)] / |M_+ - M_-|^2."""
    Mp, Mm, m11 = bd["M_plus"][0], bd["M_minus"][0], bd["M11"][0]
    ok = (accepted(bd, "M_plus") & accepted(bd, "M_minus") & accepted(bd, "M11")
          & (np.abs(Mp - Mm) > 1e-8))
    quot = (Mp.real * (1.0 + np.abs(Mm) ** 2) - Mm.real * (1.0 + np.abs(Mp) ** 2)) \
        / np.abs(Mp - Mm) ** 2
    res = np.where(ok, np.abs(m11.real - quot), 0.0)
    return float(np.max(res))


def multiplicity_sets(V: VerblunskyCoefficients, grid=None):
    """Angle hulls of the uniform-multiplicity sets from boundary (M_+, M_-) at site 0.

    Multiplicity two needs both boundary values off the imaginary axis
    (boundary_analysis.off_axis), multiplicity one collects the
    equal-imaginary, both-infinite, and exactly-one-off-axis cases.
    """
    return sweep_multiplicity_sets(_FAMILY, V, grid)


# ---------------------------------------------------------------------------
# Banded truncations and the matrix spectral measure

@dataclass(frozen=True)
class CMVTruncation:
    """Banded storage of a unitary CMV window [first_site, first_site+N-1]
    with alpha = 1 cuts at both ends; bands[u + i - j, j] holds U[i, j] for
    |i - j| <= 2 (scipy solve_banded layout, u = 2).  Its solves import
    scipy; the report's oracle is truncation_cayley_diag, numpy only."""
    first_site: int
    bands: np.ndarray   # (5, N) complex

    @property
    def size(self) -> int:
        return self.bands.shape[1]

    def index_of(self, n: int) -> int:
        i = n - self.first_site
        if not (0 <= i < self.size):
            raise IndexError(f"site {n} outside the truncation window")
        return i

    def dense(self) -> np.ndarray:
        N = self.size
        U = np.zeros((N, N), dtype=complex)
        for off in range(-2, 3):
            idx = np.arange(max(0, -off), min(N, N - off))
            U[idx, idx + off] = self.bands[2 - off, idx + off]
        return U

    def unitarity_residual(self) -> float:
        U = self.dense()
        return float(np.abs(U.conj().T @ U - np.eye(self.size)).max())

    def solve(self, z: complex, rhs: np.ndarray) -> np.ndarray:
        """x with (U - z) x = rhs."""
        from scipy.linalg import solve_banded
        ab = self.bands.copy()
        ab[2, :] = ab[2, :] - z
        return solve_banded((2, 2), ab, rhs)

    def cayley_diag(self, z: complex, site: int) -> complex:
        """((U + z)(U - z)^-1)(site, site) = 1 + 2 z [(U - z)^-1](site, site)."""
        return matrix_M_entry(self, z, site, site)


def _window_alphas(V: VerblunskyCoefficients, n_lo: int, n_hi: int):
    """a(n) = alpha(n) and r(n) = rho(n) on sites n_lo - 1 .. n_hi + 2, with
    the cut alpha = 1 at n_lo and n_hi + 1 that decouples the window
    [n_lo, n_hi] exactly; r is taken per distinct value (the base, the
    patch and the cut)."""
    sites = np.arange(n_lo - 1, n_hi + 3)
    values = list(V.alpha_base) + [a for _, a in V.patch] + [1.0 + 0.0j]
    which = sites % V.period
    for k, (m, _) in enumerate(V.patch):
        which[sites == m] = V.period + k
    which[(sites == n_lo) | (sites == n_hi + 1)] = len(values) - 1
    r = np.array([math.sqrt(max(0.0, 1.0 - abs(v) ** 2)) for v in values])[which]
    return np.array(values)[which], r


def build_truncation(V: VerblunskyCoefficients, window) -> CMVTruncation:
    """Unitary truncation onto sites [n_lo, n_hi] (inclusive, even length >= 6)
    by setting alpha = 1 at both cuts.

    Row pattern of the five-diagonal unitary, with a(n) = alpha(n) and
    r(n) = rho(n):
      n even: (n,n-2) r(n-1)r(n); (n,n-1) conj(a(n-1))r(n);
              (n,n) -conj(a(n))a(n+1); (n,n+1) conj(a(n))r(n+1)
      n odd:  (n,n-1) -a(n+1)r(n); (n,n) -conj(a(n))a(n+1);
              (n,n+1) -a(n+2)r(n+1); (n,n+2) r(n+1)r(n+2)
    """
    n_lo, n_hi = int(window[0]), int(window[1])
    N = n_hi - n_lo + 1
    if N < 6 or N % 2 != 0:
        raise ValueError("window must span an even number of sites, at least 6")
    a, r = _window_alphas(V, n_lo, n_hi)
    am1, a0, ap1, ap2 = a[:N], a[1:N + 1], a[2:N + 2], a[3:]
    rm1, r0, rp1, rp2 = r[:N], r[1:N + 1], r[2:N + 2], r[3:]
    even = (np.arange(n_lo, n_hi + 1) % 2 == 0)

    # U[i, j] with i = n - n_lo sits at bands[2 + i - j, j]: row values shift
    # to their columns, and entries outside the window drop
    bands = np.zeros((5, N), dtype=complex)
    bands[4, :-2] = np.where(even, rm1 * r0, 0.0)[2:]
    bands[3, :-1] = np.where(even, np.conj(am1) * r0, -ap1 * r0)[1:]
    # -conj(a(n)) a(n+1) in real arithmetic: numpy's vectorized complex
    # product may fuse multiply-adds, its scalar product (the loop's) does not
    x = -np.conj(a0)
    bands[2].real = x.real * ap1.real - x.imag * ap1.imag
    bands[2].imag = x.real * ap1.imag + x.imag * ap1.real
    bands[1, 1:] = np.where(even, np.conj(a0) * rp1, -ap2 * rp1)[:-1]
    bands[0, 2:] = np.where(even, 0.0, rp1 * rp2)[:-2]
    return CMVTruncation(n_lo, bands)


def truncation_cayley_diag(V: VerblunskyCoefficients, zs, n0: int, window: int):
    """((U + z)(U - z)^-1)(n0, n0) at each z of zs, U the unitary truncation
    onto the window sites [n0 - window//2, n0 + window//2 - 1] (that of
    build_truncation), from the alphas in one batched tridiagonal solve.

    With Theta(m) = [[-a(m+1), r(m+1)], [r(m+1), conj(a(m+1))]] on the site
    pair (m, m+1), U = O E, E the direct sum of Theta(m) over even m and O
    over odd m, cuts included.  Let P be the factor holding the pair
    (n0-1, n0) and Q the other one: U = P Q or Q P, both unitary and
    complex symmetric, so (U - z)^-1 is (Q - z P*)^-1 P* or
    P* (Q - z P*)^-1 and Q - z P* is tridiagonal.  Either way, with G its
    inverse, the Cayley diagonal is
    1 + 2z [G(n0, n0) a(n0) + G(n0, n0-1) r(n0)].
    """
    half = window // 2
    if half < 3:
        raise ValueError("window must span an even number of sites, at least 6")
    zs = np.asarray(zs, dtype=complex)[..., None]
    a, r = _window_alphas(V, n0 - half, n0 + half - 1)
    a, r = a[1:-1], r[1:-1]            # sites n0 - half .. n0 + half
    # site n of the window starts a pair of Q when n - n0 is even
    q_first = np.arange(-half, half) % 2 == 0
    diag = np.where(q_first, -a[1:] - zs * a[:-1], np.conj(a[:-1]) + zs * np.conj(a[1:]))
    off = np.where(q_first[:-1], r[1:-1], -zs * r[1:-1])
    g, g_prev = tridiagonal_resolvent(diag, off, off, half)
    return 1.0 + 2.0 * zs[..., 0] * (g * a[half] + g_prev * r[half])


@dataclass(frozen=True)
class MatrixMeasureData:
    """Boundary samples of the 2x2 matrix Caratheodory field at n0.

    R[k] is the density matrix at angles[k] (Hermitian part of M normalized
    to unit trace), rank[k] its numerical rank; the identity and trace checks
    certify M00(z, n0) = M11(z, n0-1) and Re M^tr(0) = 2.
    """
    n0: int
    angles: np.ndarray
    R: np.ndarray            # (K, 2, 2) complex Hermitian
    rank: np.ndarray         # (K,) int
    min_eigenvalue: float
    trace_error: float       # |sum R_jj - 1| max over angles
    trace_at_zero: float     # Re M^tr(0)
    identity_residual: float # max |M00(z,n0) - M11(z,n0-1)| at probe z


def matrix_M_entry(T: CMVTruncation, z: complex, row_site: int, col_site: int) -> complex:
    """(delta_row, (U+z)(U-z)^-1 delta_col) from the banded truncation."""
    e = np.zeros(T.size, dtype=complex)
    e[T.index_of(col_site)] = 1.0
    x = T.solve(z, e)
    val = 2.0 * z * x[T.index_of(row_site)]
    if row_site == col_site:
        val += 1.0
    return complex(val)


def matrix_M_and_R(V: VerblunskyCoefficients, n0: int, grid=None,
                   window: int = 2048) -> MatrixMeasureData:
    """2x2 matrix measure machinery at n0 from the truncation oracle.

    M_{j,k}(z, n0) = (delta_{n0-1+j}, (U+z)(U-z)^-1 delta_{n0-1+k}); R(zeta)
    is the radial limit of the Hermitian part of M normalized to trace one.
    """
    grid = default_angles() if grid is None else np.asarray(grid, dtype=float)
    if grid.size < 512:
        raise ValueError("angular grid needs at least 512 points")
    half = window // 2
    T = build_truncation(V, (n0 - half, n0 + half - 1))
    i0, i1 = T.index_of(n0 - 1), T.index_of(n0)
    rhs = np.zeros((T.size, 2), dtype=complex)
    rhs[i0, 0] = 1.0
    rhs[i1, 1] = 1.0

    def hermitian_part(zs):
        H = np.empty((zs.size, 2, 2), dtype=complex)
        for k, z in enumerate(zs):
            x = T.solve(z, rhs)
            M = 2.0 * z * np.array([[x[i0, 0], x[i0, 1]], [x[i1, 0], x[i1, 1]]])
            M[0, 0] += 1.0
            M[1, 1] += 1.0
            H[k] = (M + M.conj().T) / 2.0
        return {"H": H}
    H = boundary_sweep(hermitian_part, grid, True)["H"][0]

    tr = np.real(H[:, 0, 0] + H[:, 1, 1])
    R = H / tr[:, None, None]
    eigs = np.linalg.eigvalsh(R)
    rank = np.sum(eigs > RANK_TOL, axis=1)

    # pointwise identity between the two diagonal Caratheodory entries
    probes = [0.3 + 0.2j, -0.4 + 0.1j, 0.05 - 0.55j]
    ident = max(abs(matrix_M_entry(T, z, n0 - 1, n0 - 1)
                    - M11(V, z, n0 - 1, mode="oracle", window=window)) for z in probes)
    tr0 = matrix_M_entry(T, 0.0, n0 - 1, n0 - 1).real + matrix_M_entry(T, 0.0, n0, n0).real
    return MatrixMeasureData(
        n0=n0, angles=grid, R=R, rank=rank,
        min_eigenvalue=float(eigs.min()),
        trace_error=float(np.abs(np.real(R[:, 0, 0] + R[:, 1, 1]) - 1.0).max()),
        trace_at_zero=float(tr0),
        identity_residual=float(ident))


# ---------------------------------------------------------------------------
# Eigenvalue-support oracle

def eigenvalue_angles(V: VerblunskyCoefficients, window: int = 4096) -> np.ndarray:
    """Sorted eigenvalue angles of the window centered on site 0, in EIG_BLOCKS blocks.

    Interior alpha = 1 cuts split the window into direct summands, adding O(1)
    spurious angles per cut; downstream support estimation must drop isolated
    outliers.  Blockwise dense eigensolves keep the cost near-linear, and
    each distinct block (all of them, for an unpatched operator whose period
    divides the block size) is solved once.
    """
    if window % EIG_BLOCKS != 0:
        raise ValueError("window must split evenly into blocks")
    size = window // EIG_BLOCKS
    lo = -(window // 2)
    solved = {}
    angles = []
    for b in range(EIG_BLOCKS):
        T = build_truncation(V, (lo + b * size, lo + (b + 1) * size - 1))
        key = T.bands.tobytes()
        if key not in solved:
            solved[key] = np.angle(np.linalg.eigvals(T.dense())) % TWO_PI
        angles.append(solved[key])
    return np.sort(np.concatenate(angles))


def support_arcs(angles: np.ndarray) -> CircleArcSet:
    """Arc support of an eigenvalue-angle sample: split at circular gaps
    above 20 times the mean spacing 2*pi/n (robust to exact degeneracies from
    repeated blocks), drop clusters of fewer than 5 angles (cut artifacts)."""
    angles = np.sort(np.asarray(angles, dtype=float) % TWO_PI)
    if angles.size == 0:
        raise ValueError("no angles given")
    gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
    cut = 20.0 * TWO_PI / angles.size
    split_at = np.where(gaps > cut)[0]
    if split_at.size == 0:
        return full_circle()
    arcs = []
    start = (split_at[-1] + 1) % angles.size
    order = list(range(angles.size))
    order = order[start:] + order[:start]
    cluster = [angles[order[0]]]
    for idx in order[1:]:
        prev = cluster[-1]
        t = angles[idx]
        gap = (t - prev) % TWO_PI
        if gap > cut:
            if len(cluster) >= 5:
                arcs.append((cluster[0], cluster[-1]))
            cluster = [t]
        else:
            cluster.append(t)
    if len(cluster) >= 5:
        arcs.append((cluster[0], cluster[-1]))
    if not arcs:
        raise ValueError("every cluster fell below the outlier threshold")
    return circle_set([(a, b if b > a else b + TWO_PI, "cc") for a, b in arcs], [])
