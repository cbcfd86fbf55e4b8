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
off its growing Floquet eigenvector carried across the head.  Then

    M_+(z, n0) = m_+(z, n0)
    M_-(z, n0) = [Re(1+a0) + i Im(1-a0) m_-(z, n0-1)]
                 / [i Im(1+a0) + Re(1-a0) m_-(z, n0-1)],   a0 = alpha(n0)
    M11(z, n0) = (1 - M_+ M_-) / (M_+ - M_-)

with M11 the Caratheodory function of the (n0, n0) spectral measure entry.
The phase Xi11 = Arg(M11)/pi on the boundary lies in [-1/2, 1/2]; the set
{|Xi11| < 1/2} recovers the ac spectrum through its circle essential closure,
and Xi11 = 0 (equivalently M_+ = -conj(M_-)) characterizes reflectionless
arcs.  The 2x2 matrix Caratheodory function on the site pair (n0-1, n0),
whose boundary density has rank two on the ac spectrum, is closed form in
the same m_+ and m_- (matrix_M_and_R).  Every value is read on the circle
by boundary_analysis.exact_sweep.  The kernel _M11_grid returns M_+, M_-
and M11; the sweep, the phase grid and the one-point reads are
boundary_analysis's, imported as boundary_cmv_grid, Xi11_grid, Xi11 and
weyl_data, with the reference points at radius 1 - REFERENCE_EPS.
Boundary zeros of M11 (|M11| within 100 errors of 0) leave Xi11
undefined, and it is marked not ok there; they carry zero ac density.

The oracles are numpy only: truncations, exactly unitary thanks to the
alpha = 1 cuts, give the Cayley diagonal (truncation_cayley_diag) and the
eigenvalue angles, and the discriminant of the Szego transfer matrices
gives the bands.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, check_keys, check_number
from .boundary_analysis import (MIN_ANGLES, REFERENCE_EPS, SweepFamily, _axis_margin, carry,
                                exact_sweep, family, floquet_pair, require_in_disk, stack_2x2,
                                resolvent_in_blocks, sweep_grid, transfer_product,
                                transfer_trace)
from .boundary_analysis import (ac_spectrum, multiplicity_sets, reflectionless_on,  # re-exported
                                weyl_data, boundary_grid as boundary_cmv_grid,
                                phase_at as Xi11, phase_grid as Xi11_grid)
from .interval_sets import CircleArcSet, circle_set, full_circle

TWO_PI = 2.0 * math.pi
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
        check_keys(d, ("type", "period", "alpha", "patch"), "cmv descriptor key")
        num = lambda v: check_number(v, "cmv alpha part")
        period = check_number(d["period"], "cmv period")
        base = tuple(complex(num(re), num(im)) for re, im in d["alpha"])
        patch = d.get("patch", {})
        if not isinstance(patch, dict):
            raise ValueError(f"patch must be an object of site: [re, im], not {patch!r:.80}")
        patch = {int(n): complex(num(v[0]), num(v[1])) for n, v in patch.items()}
        return cls(period, base, patch)


# ---------------------------------------------------------------------------
# Schur-algorithm evaluation of the half-lattice m-functions

def _schur_steps(zs, gammas):
    """The Schur steps [[z, g], [conj(g) z, 1]] of the parameters, last
    first.  The step of g maps (f, 1) to (g + z f, 1 + conj(g) z f), whose
    ratio is the Schur function of the parameters g and then f's."""
    return ((zs, g, np.conj(g) * zs, 1.0) for g in reversed(gammas))


def _schur_to_caratheodory(head, period_gammas, zs, near=0.0):
    """Caratheodory value (1 + z f)/(1 - z f) for the Schur function with
    parameter sequence head + periodic tail, vectorized over zs.  The
    one-period product A of _schur_steps is transfer_product's; det A =
    z^p prod(1 - |g|^2).  The tail's Schur function is the contracting
    fixed point of A's Moebius map, whose derivative there is the ratio of
    the other multiplier to this one: x/y of the growing eigenvector (x, y)
    of floquet_pair, carried across the head's steps.  Returns (value,
    branch, ambiguous)."""
    zs = np.asarray(zs, dtype=complex)
    *a, e = transfer_product(_schur_steps(zs, period_gammas))
    det = zs ** len(period_gammas) * math.prod(1.0 - abs(g) ** 2 for g in period_gammas)
    _, grow, *branch = floquet_pair(*a, det * np.ldexp(1.0, -2 * e), near, e)
    x, y = carry(grow, _schur_steps(zs, head))
    f = x / y
    return ((1.0 + zs * f) / (1.0 - zs * f), *branch)


def _gammas(V: VerblunskyCoefficients, n0: int, plus: bool):
    """Schur parameters gamma_j, split into the aperiodic head (through the
    patch) and one periodic tail period: -conj(alpha(n0+1+j)) of the right
    half-lattice measure at n0 if plus, else -alpha(n0-j) of the left
    Cayley diagonal at site n0."""
    sites = V.patch_sites
    if plus:
        gamma = lambda j: -np.conj(V.alpha(n0 + 1 + j))
        j_head = max(0, (max(sites) - n0) if sites else 0)
    else:
        gamma = lambda j: -V.alpha(n0 - j)
        j_head = max(0, (n0 - min(sites) + 1) if sites else 0)
    return [gamma(j) for j in range(j_head)], [gamma(j_head + j) for j in range(V.period)]


def _m_grid(V: VerblunskyCoefficients, zs, n0: int, side: str, near=0.0) -> dict:
    """'m', m_+(z, n0) for side '+', else m_-(z, n0), over zs, and
    'floquet', the branch nearest near and its ambiguous mask
    (_schur_to_caratheodory)."""
    plus = side == "+"
    value, *branch = _schur_to_caratheodory(*_gammas(V, n0, plus), zs, near)
    return {"m": value if plus else -value, "floquet": tuple(branch)}


def _twist(a0: complex, mm):
    """M_- from m_-(z, n0-1): the Moebius twist by a0 = alpha(n0)."""
    num = (1.0 + a0).real + 1j * (1.0 - a0).imag * mm
    den = 1j * (1.0 + a0).imag + (1.0 - a0).real * mm
    return num / den


def _half_lattices(V: VerblunskyCoefficients, zs, n0: int, near):
    """(m_+(z, n0), m_-(z, n0-1), floquet) over zs: floquet pairs the
    branches of both half lattices nearest near (0, or such a pair) and
    joins their ambiguous masks (floquet_pair)."""
    near_p, near_m = near if isinstance(near, tuple) else (near, near)
    plus, minus = _m_grid(V, zs, n0, "+", near_p), _m_grid(V, zs, n0 - 1, "-", near_m)
    (up, ap), (um, am) = plus["floquet"], minus["floquet"]
    return plus["m"], minus["m"], ((up, um), ap | am)


def _M11_grid(V: VerblunskyCoefficients, zs, n0: int, near=0.0) -> dict:
    """M_plus, M_minus and M11 over zs, and 'floquet' (_half_lattices)."""
    Mp, mm, floquet = _half_lattices(V, zs, n0, near)
    Mm = _twist(V.alpha(n0), mm)
    return {"M_plus": Mp, "M_minus": Mm, "M11": (1.0 - Mp * Mm) / (Mp - Mm),
            "floquet": floquet}


def _M_matrix_grid(V: VerblunskyCoefficients, zs, n0: int, near=0.0) -> dict:
    """M00, M01, M10, M11 of the 2x2 matrix Caratheodory function
    M_jk(z, n0) = (delta_{n0-1+j}, (U+z)(U-z)^-1 delta_{n0-1+k}) over zs,
    and 'floquet' (_half_lattices).

    The cut operator U_c (alpha(n0) = 1) splits into the half lattices, so
    its resolvent block on the pair (n0-1, n0) is g = diag(-m_-(z, n0-1) -
    1, m_+(z, n0) - 1) / 2z.  The pair's block of U = O E is Theta =
    [[-a, r], [r, conj a]] (a = alpha(n0)), in E for n0-1 even, where U =
    U_c D with D = diag(-1, 1) Theta, and in O for n0-1 odd, where U = D U_c
    with D = Theta diag(-1, 1).  Then M = I + 2z D* X, resp. I + 2z X D*,
    with (I - z g (D* - I)) X = g; Cramer's rule gives 2z X from 2z g, so g
    is never inverted (m_+ = 1 makes it singular for the free operator)."""
    mp, mm, floquet = _half_lattices(V, zs, n0, near)
    a, r = V.alpha(n0), V.rho(n0)
    even = (n0 - 1) % 2 == 0
    theta, cut = np.array([[-a, r], [r, np.conj(a)]]), np.diag([-1.0, 1.0])
    D_inv = (cut @ theta if even else theta @ cut).conj().T
    (k00, k01), (k10, k11) = (D_inv - np.eye(2)) / 2.0
    u0, u1 = -mm - 1.0, mp - 1.0            # 2z g
    p, q, s, t = 1.0 - u0 * k00, -u0 * k01, -u1 * k10, 1.0 - u1 * k11
    det = p * t - q * s
    X2z = stack_2x2(t * u0 / det, -q * u1 / det, -s * u0 / det, p * u1 / det, np.shape(det))
    M = np.eye(2) + (D_inv @ X2z if even else X2z @ D_inv)
    return {"M00": M[..., 0, 0], "M01": M[..., 0, 1], "M10": M[..., 1, 0],
            "M11": M[..., 1, 1], "floquet": floquet}


def M11(V: VerblunskyCoefficients, z: complex, n0: int, mode: str = "formula",
        window: int = 2048) -> complex:
    """Caratheodory function of the (n0, n0) spectral measure entry.

    formula mode: (1 - M_+ M_-)/(M_+ - M_-); raises ZeroDivisionError where
    the denominator of M_-'s twist vanishes (M_- not finite), and
    DegenerateDenominator when |M_+ - M_-| <= 1e-12.  oracle
    mode: Cayley diagonal of the unitary truncation of the stated window
    size around n0 (truncation_cayley_diag).
    """
    if mode == "oracle":
        return complex(truncation_cayley_diag(V, require_in_disk(z), n0, window))
    if mode != "formula":
        raise ValueError(f"mode must be 'formula' or 'oracle', got {mode!r}")
    d = weyl_data(V, z, n0)
    if not cmath.isfinite(d["M_minus"]):
        raise ZeroDivisionError(f"M_- denominator vanished at z={z}, n0={n0}")
    if abs(d["M_plus"] - d["M_minus"]) <= 1e-12:
        raise DegenerateDenominator(
            f"M_+ = M_- at z={z}, n0={n0}; use mode='oracle' for this point")
    return d["M11"]


# ---------------------------------------------------------------------------
# Boundary sweeps

def default_angles(points: int = MIN_ANGLES):
    return np.linspace(0.0, TWO_PI, points, endpoint=False)


VerblunskyCoefficients._FAMILY = SweepFamily(
    kernel=lambda V, zs, n0, near: _M11_grid(V, zs, n0, near),
    grid=lambda V: default_angles(), sites=lambda V: (0, 1), circle=True,
    pair=("M_plus", "M_minus"), phase_key="M11",
    csv_columns=(("theta", "loc"), ("re_m11", "re"), ("im_m11", "im"), ("xi", "phase"),
                 ("verdict", "verdict")),
    zero_floor=True)


def m11_boundary_identity_residual(V: VerblunskyCoefficients, thetas, n0: int) -> float:
    """Max residual of the boundary identity expressing Re M11 through the
    one-sided data on an angle grid (see m11_identity_residual)."""
    return m11_identity_residual(boundary_cmv_grid(V, np.asarray(thetas, dtype=float), n0))


def m11_identity_residual(bd: dict) -> float:
    """Max residual over a boundary_cmv_grid sweep of the identity
    Re M11 = [Re M_+ (1+|M_-|^2) - Re M_- (1+|M_+|^2)] / |M_+ - M_-|^2."""
    Mp, Mm, m11 = bd["M_plus"][0], bd["M_minus"][0], bd["M11"][0]
    ok = bd["M_plus"][2] & bd["M_minus"][2] & bd["M11"][2] & (np.abs(Mp - Mm) > 1e-8)
    quot = (Mp.real * (1.0 + np.abs(Mm) ** 2) - Mm.real * (1.0 + np.abs(Mp) ** 2)) \
        / np.abs(Mp - Mm) ** 2
    res = np.where(ok, np.abs(m11.real - quot), 0.0)
    return float(np.max(res))


# ---------------------------------------------------------------------------
# Banded truncations and the matrix spectral measure

@dataclass(frozen=True)
class CMVTruncation:
    """Banded storage of a unitary CMV window [first_site, first_site+N-1]
    with alpha = 1 cuts at both ends; bands[2 + i - j, j] holds U[i, j] for
    |i - j| <= 2.  The eigenvalue oracle reads its dense form; the
    resolvent oracle is truncation_cayley_diag, from the same alphas."""
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
        """max |U*U - I| from the bands: column j of U is bands[:, j] on rows
        j-2 .. j+2 (zero outside the window), so (U*U)[i, i+d] is the sum
        over r = d-2 .. 2 of conj(bands[2+r, i]) bands[2+r-d, i+d] for
        0 <= d <= 4, its conjugate for -4 <= d < 0, and zero beyond."""
        b, N = self.bands, self.size
        return max(float(np.abs(sum(np.conj(b[2 + r, :N - d]) * b[2 + r - d, d:]
                                    for r in range(d - 2, 3)) - (d == 0)).max(initial=0.0))
                   for d in range(5))


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
    onto the window sites [n0 - window/2, n0 + window/2 - 1] (that of
    build_truncation), from the alphas by a tridiagonal solve whose rows
    are built one block of draws at a time (resolvent_in_blocks).  ValueError
    unless window is even and at least 6, as build_truncation's.

    With Theta(m) = [[-a(m+1), r(m+1)], [r(m+1), conj(a(m+1))]] on the site
    pair (m, m+1), U = O E, E the direct sum of Theta(m) over even m and O
    over odd m, cuts included.  Let P be the factor holding the pair
    (n0-1, n0) and Q the other one: U = P Q or Q P, both unitary and
    complex symmetric, so (U - z)^-1 is (Q - z P*)^-1 P* or
    P* (Q - z P*)^-1 and Q - z P* is tridiagonal.  Either way, with G its
    inverse, the Cayley diagonal is
    1 + 2z [G(n0, n0) a(n0) + G(n0, n0-1) r(n0)].
    """
    if window % 2 or window < 6:
        raise ValueError("window must span an even number of sites, at least 6")
    half = window // 2
    zs = np.asarray(zs, dtype=complex)
    a, r = _window_alphas(V, n0 - half, n0 + half - 1)
    a, r = a[1:-1], r[1:-1]            # sites n0 - half .. n0 + half
    # site n of the window starts a pair of Q when n - n0 is even
    q_first = np.arange(-half, half) % 2 == 0
    column = zs.reshape(-1, 1)

    def rows(b):
        z = column[b]
        off = np.where(q_first[:-1], r[1:-1], -z * r[1:-1])
        return (np.where(q_first, -a[1:] - z * a[:-1], np.conj(a[:-1]) + z * np.conj(a[1:])),
                off, off)

    g, g_prev = (x.reshape(zs.shape) for x in resolvent_in_blocks(rows, zs.size, window, half))
    return 1.0 + 2.0 * zs * (g * a[half] + g_prev * r[half])


@dataclass(frozen=True)
class MatrixMeasureData:
    """Boundary samples of the 2x2 matrix Caratheodory function at n0.

    R[k] is the density matrix at the k-th angle where it is defined, else 0.
    rank[k] is 0 where R is not, else 1, plus 1 where its smaller eigenvalue
    exceeds 10 e_R (the factor of _axis_margin), e_R the declared errors of
    the four entries over tr H.  min_eigenvalue and trace_error are taken
    over the defined angles (nan if there is none).
    """
    R: np.ndarray            # (K, 2, 2) complex Hermitian
    rank: np.ndarray         # (K,) int
    min_eigenvalue: float
    trace_error: float       # |sum R_jj - 1| max over the defined angles
    trace_at_zero: float     # Re tr M(0) of the truncation
    identity_residual: float # max |M00(z,n0) - M11(z,n0-1)| at probe z


_MATRIX_KEYS = ("M00", "M01", "M10", "M11")


def matrix_M_and_R(V: VerblunskyCoefficients, n0: int, grid=None,
                   window: int = 2048) -> MatrixMeasureData:
    """2x2 matrix measure at n0: M_jk(z, n0) = (delta_{n0-1+j},
    (U+z)(U-z)^-1 delta_{n0-1+k}) in closed form (_M_matrix_grid), read on
    the circle by exact_sweep.  R = H / tr H, H the Hermitian part of M,
    where all four entries are ok and tr H exceeds the sum of the axis
    margins of M00 and M11.  window sizes the truncation oracle of the
    identity and trace checks only.
    """
    # the truncation oracle first: it refuses a window it cannot take
    # before the sweep runs
    probes = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.05 - 0.55j])
    oracle = truncation_cayley_diag(V, probes, n0 - 1, window)
    tr0 = sum(truncation_cayley_diag(V, 0.0, n, window).real for n in (n0 - 1, n0))
    grid, _ = sweep_grid(family(V), V, grid)
    bd = exact_sweep(lambda zs, near: _M_matrix_grid(V, zs, n0, near), grid, True,
                     REFERENCE_EPS)
    ok = np.logical_and.reduce([bd[k][2] for k in _MATRIX_KEYS])
    m00, m01, m10, m11 = (np.where(ok, bd[k][0], 0.0) for k in _MATRIX_KEYS)
    tr = m00.real + m11.real
    defined = ok & (tr > _axis_margin(m00, bd["M00"][1]) + _axis_margin(m11, bd["M11"][1]))
    H = stack_2x2(m00.real, (m01 + np.conj(m10)) / 2.0, (m10 + np.conj(m01)) / 2.0, m11.real,
                  grid.shape)
    scale = np.where(defined, tr, 1.0)
    R = np.where(defined[:, None, None], H / scale[:, None, None], 0.0)
    eigs = np.linalg.eigvalsh(R)
    e_R = sum(bd[k][1] for k in _MATRIX_KEYS) / scale
    rank = np.where(defined, 1 + (eigs[:, 0] > 10.0 * e_R), 0)

    def over_defined(values):
        return float(values[defined].max()) if defined.any() else math.nan

    # pointwise identity between the two diagonal Caratheodory entries
    ident = np.abs(_M_matrix_grid(V, probes, n0)["M00"] - oracle).max()
    return MatrixMeasureData(
        R=R, rank=rank,
        min_eigenvalue=-over_defined(-eigs[:, 0]),
        trace_error=over_defined(np.abs(np.real(R[:, 0, 0] + R[:, 1, 1]) - 1.0)),
        trace_at_zero=float(tr0),
        identity_residual=float(ident))


# ---------------------------------------------------------------------------
# Band oracles: the discriminant and the eigenvalue support

def discriminant(V: VerblunskyCoefficients, thetas):
    """Delta(e^{i theta}) = e^{-i p theta/2} tr(A_{p-1} ... A_0) over the
    periodic base (patch ignored), with the Szego transfer matrices A_n =
    rho_n^-1 [[z, -alpha_n], [-conj(alpha_n) z, 1]] at z = e^{i theta}
    (transfer_trace); real on the circle, where the bands of the periodic
    operator are {|Delta| <= 2}."""
    thetas = np.asarray(thetas, dtype=float)
    zs = np.exp(1j * thetas)
    steps = ((zs / r, -a / r, -np.conj(a) * zs / r, 1.0 / r)
             for a, r in ((a, math.sqrt(1.0 - abs(a) ** 2)) for a in V.alpha_base))
    return transfer_trace(transfer_product(steps), np.exp(-0.5j * V.period * thetas))


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
    # gaps[k] follows angles[k]; a cluster runs from one split to the next
    gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
    ends = np.flatnonzero(gaps > 20.0 * TWO_PI / angles.size)
    if ends.size == 0:
        return full_circle()
    starts = (np.roll(ends, 1) + 1) % angles.size
    keep = (ends - starts) % angles.size + 1 >= 5
    arcs = zip(angles[starts[keep]], angles[ends[keep]])
    return circle_set([(a, b if b > a else b + TWO_PI, "cc") for a, b in arcs], [])
