"""CMV unitary truncations, Caratheodory Weyl data, and circle phase sets.

Free coefficients (alpha = 0) make the operator a pure two-step shift with
m identically 1 and full-circle spectrum; constant alpha = 1/2 gives the
standard single-arc example with spectrum {theta in [pi/3, 5pi/3]}.  The
banded truncation carries its own independent structure oracle: the window
matrix must factor exactly into the product of two block-diagonal unitaries
whose 2x2 blocks on the coordinate pair (j, j+1) are built from alpha(j+1).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acspectra.cmv as cmv
from acspectra.errors import DegenerateDenominator
from acspectra.interval_sets import circle_set, contains_mask, full_circle, set_algebra
from acspectra.cmv import (M11, VerblunskyCoefficients, Xi11, Xi11_grid,
                           ac_spectrum, build_truncation,
                           default_angles, discriminant, eigenvalue_angles,
                           m11_boundary_identity_residual, matrix_M_and_R,
                           multiplicity_sets, reflectionless_on, support_arcs, weyl_data)

TWO_PI = 2.0 * math.pi


def factorization_oracle(V, lo, hi):
    """Dense window matrix built as a product of two block-diagonal unitaries.

    The pair (j, j+1) carries the rotation [[-a, r], [r, conj(a)]] with
    a = alpha(j+1); odd-pair factor times even-pair factor.  Cut blocks
    (alpha = 1, rho = 0) are diagonal, so a pair straddling the window edge
    contributes just its inside diagonal entry.
    """
    N = hi - lo + 1

    def a(n):
        return 1.0 + 0.0j if n in (lo, hi + 1) else V.alpha(n)

    def factor(parity):
        M = np.eye(N, dtype=complex)
        for j in range(lo - 1, hi + 1):
            if j % 2 != parity:
                continue
            al = a(j + 1)
            r = math.sqrt(max(0.0, 1.0 - abs(al) ** 2))
            i = j - lo
            if 0 <= i and i + 1 < N:
                M[i:i + 2, i:i + 2] = [[-al, r], [r, np.conj(al)]]
            elif i + 1 == 0 and r == 0.0:
                M[0, 0] = np.conj(al)
            elif i == N - 1 and r == 0.0:
                M[N - 1, N - 1] = -al
        return M

    return factor(1) @ factor(0)


class TestCoefficients:
    def test_access_and_patch(self):
        V = VerblunskyCoefficients(2, (0.1, 0.2j), patch=((4, 0.5),))
        assert V.alpha(0) == 0.1 and V.alpha(2) == 0.1 and V.alpha(3) == 0.2j
        assert V.alpha(4) == 0.5
        assert V.rho(4) == pytest.approx(math.sqrt(0.75))

    def test_descriptor_round_trip(self):
        V = VerblunskyCoefficients(2, (0.1, 0.2j), patch=((4, 0.5 - 0.1j),))
        assert VerblunskyCoefficients.from_descriptor(V.to_descriptor()) == V

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            VerblunskyCoefficients(1, (1.0,))
        with pytest.raises(ValueError):
            VerblunskyCoefficients(1, (0.0,), patch=((0, 1.0 + 0j),))

    @pytest.mark.parametrize("patch", [((1.5, 0.5),), {1.5: 0.5}])
    def test_fractional_patch_site_rejected(self, patch):
        with pytest.raises(ValueError, match="patch sites must be integers"):
            VerblunskyCoefficients(1, (0.0,), patch=patch)

    @pytest.mark.parametrize("patch", [((2.0, 0.5),), {2.0: 0.5}])
    def test_whole_float_patch_site_accepted(self, patch):
        V = VerblunskyCoefficients(1, (0.0,), patch=patch)
        assert V.patch == ((2, 0.5 + 0j),) and V.alpha(2) == 0.5


def site_loop_bands(V, n_lo, n_hi):
    """Bands of the window [n_lo, n_hi] placed entry by entry, one site at a
    time, from the row pattern of the build_truncation docstring."""
    N = n_hi - n_lo + 1

    def a(n):
        return 1.0 + 0.0j if n in (n_lo, n_hi + 1) else V.alpha(n)

    def r(n):
        return math.sqrt(max(0.0, 1.0 - abs(a(n)) ** 2))

    bands = np.zeros((5, N), dtype=complex)

    def put(n, m, v):
        if n_lo <= m <= n_hi:
            bands[2 + n - m, m - n_lo] = v

    for n in range(n_lo, n_hi + 1):
        if n % 2 == 0:
            put(n, n - 2, r(n - 1) * r(n))
            put(n, n - 1, np.conj(a(n - 1)) * r(n))
            put(n, n, -np.conj(a(n)) * a(n + 1))
            put(n, n + 1, np.conj(a(n)) * r(n + 1))
        else:
            put(n, n - 1, -a(n + 1) * r(n))
            put(n, n, -np.conj(a(n)) * a(n + 1))
            put(n, n + 1, -a(n + 2) * r(n + 1))
            put(n, n + 2, r(n + 1) * r(n + 2))
    return bands


class TestTruncation:
    @pytest.mark.parametrize("alphas,patch", [
        ((0.0,), ()),
        ((0.5,), ()),
        ((0.3 + 0.4j, -0.2), ((0, 0.1 - 0.5j),)),
    ])
    def test_unitarity(self, alphas, patch):
        V = VerblunskyCoefficients(len(alphas), alphas, patch=patch)
        T = build_truncation(V, (-64, 63))
        assert T.unitarity_residual() < 1e-12

    @pytest.mark.parametrize("window", [(-4, 5), (2, 9), (-8, 3)])
    def test_factorization_oracle(self, window, rng):
        als = tuple(rng.uniform(-0.6, 0.6, 3) + 1j * rng.uniform(-0.6, 0.6, 3))
        V = VerblunskyCoefficients(3, als, patch=((1, 0.3 + 0.2j),))
        T = build_truncation(V, window)
        oracle = factorization_oracle(V, *window)
        assert np.abs(T.dense() - oracle).max() < 1e-12

    def test_free_operator_is_two_step_shift(self, free_cmv):
        T = build_truncation(free_cmv, (-6, 5))
        D = T.dense()
        for n in range(-4, 4):
            i = T.index_of(n)
            col = np.zeros(T.size)
            col[T.index_of(n - 2 if n % 2 == 0 else n + 2)] = 1.0
            assert np.abs(D[i] - col).max() < 1e-15

    @pytest.mark.parametrize("window", [(-6, 5), (-5, 6), (-64, 63), (3, 40)])
    def test_bands_equal_the_site_loop(self, window, free_cmv, geronimus_cmv):
        """The vectorized band assembly has the bits of the per-site loop
        below, on windows whose cuts fall on even and odd sites and on or
        next to patch sites."""
        rng = np.random.default_rng(600)
        ops = [free_cmv, geronimus_cmv,
               VerblunskyCoefficients(2, (0.3 + 0.4j, -0.2), {0: 0.1 - 0.5j, 5: 0.7j})]
        for period in (1, 2, 3, 4):
            alphas = rng.uniform(0.0, 0.8, period) * np.exp(1j * rng.uniform(0, TWO_PI, period))
            sites = rng.choice(np.arange(window[0] - 2, window[1] + 4), 3, replace=False)
            patch = {int(n): complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                     for n in sites}
            ops.append(VerblunskyCoefficients(period, tuple(alphas), patch))
        for V in ops:
            assert np.array_equal(build_truncation(V, window).bands,
                                  site_loop_bands(V, *window)), V

    def test_window_validation(self, free_cmv):
        with pytest.raises(ValueError):
            build_truncation(free_cmv, (0, 4))   # odd length
        with pytest.raises(ValueError):
            build_truncation(free_cmv, (0, 3))   # too short


class TestWeylData:
    def test_free_closed_forms(self, free_cmv):
        z = 0.3 + 0.4j
        wd = weyl_data(free_cmv, z, 0)
        assert wd["M_plus"] == pytest.approx(1.0)
        assert cmv._m_grid(free_cmv, np.array([z]), 0, "-")["m"][0] == pytest.approx(-1.0)
        assert M11(free_cmv, z, 0) == pytest.approx(1.0)

    @given(st.floats(0.02, 0.93), st.floats(0, TWO_PI))
    @settings(max_examples=120, deadline=None)
    def test_caratheodory_signs(self, r, phi):
        V = VerblunskyCoefficients(2, (0.4, -0.2 + 0.3j))
        z = r * complex(math.cos(phi), math.sin(phi))
        wd = weyl_data(V, z, 0)
        assert wd["M_plus"].real > 0 and cmv._m_grid(V, np.array([z]), 0, "-")["m"][0].real < 0
        assert wd["M_plus"].real > 0 and wd["M_minus"].real < 0
        assert wd["M11"].real > 0

    def test_formula_matches_truncation_oracle(self, geronimus_cmv, rng):
        zs = np.sqrt(rng.uniform(0, 0.81, 40)) * np.exp(1j * rng.uniform(0, TWO_PI, 40))
        worst = max(abs(M11(geronimus_cmv, complex(z), 0)
                        - M11(geronimus_cmv, complex(z), 0, mode="oracle", window=512))
                    for z in zs)
        assert worst < 1e-6

    def test_degenerate_denominator_guard(self, free_cmv, monkeypatch):
        """M11's formula mode refuses a point where its kernel gives M_+ = M_-."""
        half = np.array([0.5 + 0.0j])
        monkeypatch.setattr(cmv, "_M11_grid", lambda V, zs, n0, near=0.0: {
            "M_plus": half, "M_minus": half, "M11": np.array([np.inf + 0.0j]),
            "floquet": (np.zeros((2, 5, 1), dtype=complex), np.array([False]))})
        with pytest.raises(DegenerateDenominator):
            cmv.M11(free_cmv, 0.1 + 0.1j, 0)

    def test_vanished_twist_denominator(self, free_cmv, monkeypatch):
        """With alpha(n0) = 0 the twist of M_- divides by m_-(z, n0-1), so a
        vanishing m_- leaves M_- undefined: M11 raises ZeroDivisionError,
        while M_+ is unaffected."""
        monkeypatch.setattr(cmv, "_m_grid", lambda V, zs, n0, side, near=0.0: {
            "m": np.zeros_like(zs),
            "floquet": (np.zeros((5,) + zs.shape, dtype=complex), np.zeros(zs.shape, bool))})
        with np.errstate(divide="ignore", invalid="ignore"):
            assert weyl_data(free_cmv, 0.1 + 0.1j, 0)["M_plus"] == 0.0
            with pytest.raises(ZeroDivisionError):
                M11(free_cmv, 0.1 + 0.1j, 0)

    def test_weyl_data_agrees_with_the_pointwise_functions(self, geronimus_cmv):
        V, z = VerblunskyCoefficients(2, (0.4, -0.2 + 0.3j), patch=((1, 0.5j),)), 0.2 - 0.5j
        wd = weyl_data(V, z, 1)
        one = np.array([z])
        assert wd["M_plus"] == cmv._m_grid(V, one, 1, "+")["m"][0]
        assert wd["M_minus"] == cmv._twist(V.alpha(1), cmv._m_grid(V, one, 0, "-")["m"])[0]
        assert wd["M_minus"] == pytest.approx(cmv._M11_grid(V, one, 1)["M_minus"][0], rel=1e-13)
        assert wd["M11"] == pytest.approx(M11(V, z, 1), rel=1e-13)

    def test_site_translation_consistency(self, geronimus_cmv):
        z = 0.2 - 0.5j
        assert weyl_data(geronimus_cmv, z, 0)["M_plus"] == pytest.approx(
            weyl_data(geronimus_cmv, z, 3)["M_plus"])


class TestXi:
    def test_free_phase_vanishes(self, free_cmv):
        thetas = default_angles(512)
        vals, err, ok = Xi11_grid(free_cmv, thetas, 0)
        assert ok.all()
        assert np.abs(vals).max() < 1e-3

    def test_geronimus_gap_and_interior(self, geronimus_cmv):
        # deep inside the arc the phase vanishes; in the gap it is +-1/2
        assert Xi11(geronimus_cmv, math.pi, 0) == pytest.approx(0.0, abs=1e-3)
        assert abs(Xi11(geronimus_cmv, 0.3, 0)) == pytest.approx(0.5, abs=1e-3)

    def test_boundary_zero_excluded_not_misread(self, geronimus_cmv):
        # M11 has a boundary zero at theta = 0: the radial limit is 0, whose
        # angle would fake a passing phase; the sweep must mark it not-ok
        vals, err, ok = Xi11_grid(geronimus_cmv, np.array([0.0]), 0)
        assert not ok[0]


class TestAcSpectrum:
    def test_free_full_circle(self, free_cmv):
        s = ac_spectrum(free_cmv, default_angles(512))
        assert s.is_full()

    def test_geronimus_arc(self, geronimus_cmv):
        thetas = default_angles(1024)
        step = TWO_PI / 1024
        s = ac_spectrum(geronimus_cmv, thetas)
        assert len(s.arcs) == 1
        (arc,) = s.arcs
        assert arc.theta1 == pytest.approx(math.pi / 3, abs=2 * step)
        assert arc.theta2 == pytest.approx(5 * math.pi / 3, abs=2 * step)

    def test_arc_matches_eigenvalue_support(self, geronimus_cmv):
        thetas = default_angles(1024)
        step = TWO_PI / 1024
        s = ac_spectrum(geronimus_cmv, thetas)
        supp = support_arcs(eigenvalue_angles(geronimus_cmv, window=1024))
        diff = set_algebra(s, supp, "difference")
        diff2 = set_algebra(supp, s, "difference")
        assert all(a.length <= 3 * step for a in diff.arcs)
        assert all(a.length <= 3 * step for a in diff2.arcs)


def _support_arcs_loop(angles):
    """support_arcs as a loop over the sorted angles: the reference of its
    array form."""
    angles = np.sort(np.asarray(angles, dtype=float) % TWO_PI)
    gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
    cut = 20.0 * TWO_PI / angles.size
    split_at = np.where(gaps > cut)[0]
    if split_at.size == 0:
        return full_circle()
    start = (split_at[-1] + 1) % angles.size
    order = list(range(start, angles.size)) + list(range(start))
    arcs, cluster = [], [angles[order[0]]]
    for t in angles[order[1:]]:
        if (t - cluster[-1]) % TWO_PI > cut:
            if len(cluster) >= 5:
                arcs.append((cluster[0], cluster[-1]))
            cluster = [t]
        else:
            cluster.append(t)
    if len(cluster) >= 5:
        arcs.append((cluster[0], cluster[-1]))
    return circle_set([(a, b if b > a else b + TWO_PI, "cc") for a, b in arcs], [])


def test_support_arcs_matches_the_loop(rng):
    """Uniform samples, clusters, clusters across angle 0, exact repeats
    and eigenvalue angles, each against the loop reference."""
    samples = [cmv.eigenvalue_angles(VerblunskyCoefficients(2, (0.3 + 0.2j, -0.6)), 1024),
               cmv.eigenvalue_angles(VerblunskyCoefficients(3, (0.3, 0.5j, -0.2), {0: 0.9}),
                                     1024)]
    for k in range(200):
        n = int(rng.integers(1, 300))
        centers = rng.uniform(0.0, TWO_PI, int(rng.integers(1, 5)))
        samples.append([rng.uniform(0.0, TWO_PI, n),
                        np.concatenate([c + rng.uniform(0.0, 0.3, n) for c in centers]),
                        np.concatenate([rng.uniform(0.0, 0.5, n), rng.uniform(6.0, 6.3, n),
                                        rng.uniform(2.0, 2.01, 3)]),
                        np.repeat(centers, n % 10 + 1)][k % 4])
    for angles in samples:
        got, want = support_arcs(angles), _support_arcs_loop(angles)
        assert [(a.theta1, a.theta2) for a in got.arcs] == \
            [(a.theta1, a.theta2) for a in want.arcs]


class TestDiscriminant:
    def test_geronimus_bands_are_the_arc(self, geronimus_cmv):
        """Delta = 2 cos(theta/2) / rho for alpha = 1/2: |Delta| <= 2
        exactly on [pi/3, 5pi/3]."""
        thetas = default_angles(2048)
        d = discriminant(geronimus_cmv, thetas)
        assert np.isrealobj(d)
        assert np.abs(d - 2.0 * np.cos(thetas / 2.0) / math.sqrt(0.75)).max() < 1e-13
        inside = (thetas > math.pi / 3 + 1e-9) & (thetas < 5 * math.pi / 3 - 1e-9)
        assert np.array_equal(np.abs(d) <= 2.0, inside)

    def test_patch_is_ignored(self, geronimus_cmv):
        thetas = default_angles(512)
        patched = VerblunskyCoefficients(1, (0.5,), patch=((0, 0.2), (3, -0.4j)))
        assert np.array_equal(discriminant(patched, thetas), discriminant(geronimus_cmv, thetas))

    @pytest.mark.parametrize("period", [1, 2, 3, 4])
    def test_bands_are_the_ac_spectrum(self, period):
        """{|Delta| <= 2} is the ac spectrum on the grid, away from one grid
        step of each band edge, on seeded periodic coefficients."""
        rng = np.random.default_rng(period)
        thetas = default_angles(2048)
        for _ in range(3):
            radii, phases = rng.uniform(0.05, 0.8, period), rng.uniform(size=period)
            V = VerblunskyCoefficients(period, tuple(radii * np.exp(2j * math.pi * phases)))
            d = discriminant(V, thetas)
            assert np.isrealobj(d)
            band = np.abs(d) <= 2.0
            away = (band == np.roll(band, 1)) & (band == np.roll(band, -1))
            ac = contains_mask(ac_spectrum(V, thetas), thetas)
            assert np.array_equal(ac[away], band[away])


class TestReflectionless:
    def test_free_on_full_circle(self, free_cmv):
        rep = reflectionless_on(free_cmv, full_circle(), default_angles(512))
        assert rep.verdict
        assert rep.max_residual < 1e-8
        assert rep.xi_fraction > 0.99

    def test_geronimus_on_its_arc(self, geronimus_cmv):
        E = circle_set([(math.pi / 3 + 0.05, 5 * math.pi / 3 - 0.05, "cc")])
        rep = reflectionless_on(geronimus_cmv, E, default_angles(512))
        assert rep.verdict
        assert np.isfinite(rep.witness_residual) and rep.witness_residual < 1e-3

    def test_geronimus_fails_on_full_circle(self, geronimus_cmv):
        rep = reflectionless_on(geronimus_cmv, full_circle(), default_angles(512))
        assert not rep.verdict

    def test_patched_fails_on_arc(self, geronimus_cmv):
        patched = VerblunskyCoefficients(1, (0.5,), patch=((0, 0.2),))
        E = circle_set([(math.pi / 3 + 0.05, 5 * math.pi / 3 - 0.05, "cc")])
        rep = reflectionless_on(patched, E, default_angles(512))
        assert not rep.verdict


class TestBoundaryIdentity:
    def test_free_real_part_quotient(self, free_cmv):
        thetas = np.linspace(0.3, TWO_PI - 0.3, 24)
        assert m11_boundary_identity_residual(free_cmv, thetas, 0) < 1e-6


class TestMatrixMeasure:
    def test_free_density_matrix(self, free_cmv):
        data = matrix_M_and_R(free_cmv, 0, grid=default_angles(512), window=512)
        target = 0.5 * np.eye(2)
        assert np.abs(data.R - target).max() < 1e-2
        assert (data.rank == 2).all()
        assert data.trace_error < 1e-10
        assert data.trace_at_zero == pytest.approx(2.0, abs=1e-10)
        assert data.identity_residual < 1e-8


class TestMultiplicity:
    def test_free_multiplicity_two_everywhere(self, free_cmv):
        M2, M1 = multiplicity_sets(free_cmv, default_angles(512))
        assert M2.is_full()
        assert M1.is_empty()

    def test_geronimus_gap_not_multiplicity_two(self, geronimus_cmv):
        M2, M1 = multiplicity_sets(geronimus_cmv, default_angles(512))
        assert not M2.contains(0.05)
        assert M2.contains(math.pi)
