"""Jacobi half-lattice Weyl data, phase sets, and reflectionless tests.

Free coefficients (a = 1, b = 0) give closed-form targets: spectrum [-2, 2],
arcsine density of states, xi identically 1/2 on the interior.  The period-2
alternating-b operator adds a genuine gap; finite truncations provide
independent resolvent and eigenvalue oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from acspectra.interval_sets import canonicalize, set_algebra
from acspectra.jacobi import (JacobiCoefficients, ac_spectrum, big_M,
                              boundary_weyl_grid, default_grid, discriminant,
                              green_diag, green_inverse_identity_residual,
                              m_half_line, monodromy, multiplicity_sets,
                              reflectionless_on, truncated_matrix, weyl_data,
                              xi, xi_grid)
from conftest import resolvent_entry


def arcsine_stieltjes(z: complex, points: int = 20001) -> complex:
    """Quadrature oracle for the free diagonal Green's function.

    g(z) = integral of the arcsine density 1/(pi sqrt(4 - x^2)) against
    1/(x - z); the substitution x = 2 sin(phi) removes the endpoint
    singularities so the trapezoid rule converges fast.
    """
    phi = np.linspace(-math.pi / 2, math.pi / 2, points)
    vals = 1.0 / (2.0 * np.sin(phi) - z)
    return complex(np.trapezoid(vals, phi) / math.pi)


class TestCoefficients:
    def test_cyclic_access_and_patch(self):
        J = JacobiCoefficients(2, (1.0, 2.0), (0.5, -0.5), patch=((3, 9.0, 7.0),))
        assert J.a(0) == 1.0 and J.a(2) == 1.0 and J.a(1) == 2.0
        assert J.b(-1) == -0.5
        assert J.a(3) == 9.0 and J.b(3) == 7.0

    def test_descriptor_round_trip(self):
        J = JacobiCoefficients(2, (1.0, 2.0), (0.5, -0.5), patch=((3, 9.0, 7.0),))
        assert JacobiCoefficients.from_descriptor(J.to_descriptor()) == J

    def test_validation(self):
        with pytest.raises(ValueError):
            JacobiCoefficients(2, (1.0,), (0.0, 0.0))
        with pytest.raises(ValueError):
            JacobiCoefficients(1, (-1.0,), (0.0,))
        with pytest.raises(ValueError):
            JacobiCoefficients(1, (1.0,), (0.0,), patch=((0, 1, 0), (0, 2, 0)))

    @pytest.mark.parametrize("patch", [((1.5, 1.0, 0.0),), {1.5: (1.0, 0.0)}])
    def test_fractional_patch_site_rejected(self, patch):
        with pytest.raises(ValueError, match="patch sites must be integers"):
            JacobiCoefficients(1, (1.0,), (0.0,), patch=patch)

    @pytest.mark.parametrize("patch", [((2.0, 3.0, 0.5),), {2.0: (3.0, 0.5)}])
    def test_whole_float_patch_site_accepted(self, patch):
        J = JacobiCoefficients(1, (1.0,), (0.0,), patch=patch)
        assert J.patch == ((2, 3.0, 0.5),) and J.a(2) == 3.0


class TestWeylData:
    def test_free_monodromy_trace_is_discriminant(self, free_jacobi):
        for lam in (-1.0, 0.0, 1.7):
            T = monodromy(free_jacobi, lam + 0j, 0)
            assert np.trace(np.asarray(T)).real == pytest.approx(
                float(discriminant(free_jacobi, lam)))

    @given(st.floats(-4, 4), st.floats(0.05, 4))
    @settings(max_examples=100, deadline=None)
    def test_herglotz_signs(self, x, y):
        J = JacobiCoefficients(2, (1.0, 1.5), (0.5, -0.5))
        z = complex(x, y)
        wd = weyl_data(J, z, 0)
        assert wd.m_plus.imag > 0 and wd.m_minus.imag > 0
        assert wd.M_plus.imag > 0 and wd.M_minus.imag < 0
        assert wd.g.imag > 0

    def test_free_green_matches_quadrature_oracle(self, free_jacobi):
        for z in (2j, 1.0 + 0.5j, -1.5 + 0.25j):
            assert green_diag(free_jacobi, z, 0) == pytest.approx(
                arcsine_stieltjes(z), abs=1e-9)

    def test_green_matches_truncation_resolvent(self, period2_jacobi):
        T = truncated_matrix(period2_jacobi, 3000)
        for z in (2j, 0.5 + 1j):
            oracle = resolvent_entry(T, z, 0, 0)
            assert green_diag(period2_jacobi, z, 0) == pytest.approx(oracle, abs=1e-6)

    def test_site_translation_consistency(self, free_jacobi):
        z = 0.3 + 0.8j
        assert m_half_line(free_jacobi, z, 0, "+") == pytest.approx(
            m_half_line(free_jacobi, z, 5, "+"))

    def test_real_z_rejected(self, free_jacobi):
        with pytest.raises(ValueError):
            m_half_line(free_jacobi, 1.0 + 0j, 0, "+")

    def test_anti_herglotz_minus_M(self, period2_jacobi):
        z = 0.7 + 0.9j
        assert big_M(period2_jacobi, z, 0, "+").imag > 0
        assert big_M(period2_jacobi, z, 0, "-").imag < 0


class TestXi:
    def test_free_interior_half(self, free_jacobi):
        for lam in (-1.5, 0.0, 0.3, 1.9):
            assert xi(free_jacobi, lam, 0) == pytest.approx(0.5, abs=1e-4)

    def test_free_exterior_values(self, free_jacobi):
        assert xi(free_jacobi, -2.5, 0) == pytest.approx(0.0, abs=1e-6)
        assert xi(free_jacobi, 2.5, 0) == pytest.approx(1.0, abs=1e-6)

    def test_site_independence_of_xi(self, free_jacobi):
        assert xi(free_jacobi, 0.3, 4) == pytest.approx(0.5, abs=1e-4)

    def test_xi_grid_masks(self, free_jacobi):
        lams = np.linspace(-3, 3, 41)
        vals, err, ok = xi_grid(free_jacobi, lams, 0)
        assert ok.all()
        assert np.all((0 <= vals) & (vals <= 1))


class TestAcSpectrum:
    def test_free_band(self, free_jacobi):
        grid = np.linspace(-3, 3, 1001)
        step = grid[1] - grid[0]
        s = ac_spectrum(free_jacobi, grid)
        assert len(s.intervals) == 1
        assert s.intervals[0].lo == pytest.approx(-2.0, abs=step)
        assert s.intervals[0].hi == pytest.approx(2.0, abs=step)

    def test_period2_bands_match_discriminant(self, period2_jacobi):
        grid = np.linspace(-3, 3, 1501)
        step = grid[1] - grid[0]
        s = ac_spectrum(period2_jacobi, grid)
        disc = discriminant(period2_jacobi, grid)
        inside = np.abs(disc) <= 2.0
        edges = [0.5 * (grid[k - 1] + grid[k])
                 for k in range(1, grid.size) if inside[k] != inside[k - 1]]
        got = [x for iv in s.intervals for x in (iv.lo, iv.hi)]
        assert len(got) == len(edges) == 4
        assert np.max(np.abs(np.array(got) - np.array(edges))) < 2 * step

    def test_period2_truncation_eigenvalues_in_bands(self, period2_jacobi):
        N = 600
        diag = np.array([period2_jacobi.b(n) for n in range(N)])
        off = np.array([period2_jacobi.a(n) for n in range(N - 1)])
        evs = eigh_tridiagonal(diag, off, eigvals_only=True)
        grid = np.linspace(-3, 3, 1501)
        step = grid[1] - grid[0]
        s = ac_spectrum(period2_jacobi, grid)
        # all but a handful of boundary-defect eigenvalues inside the bands
        misses = sum(0 if any(iv.lo - 2 * step <= e <= iv.hi + 2 * step
                              for iv in s.intervals) else 1 for e in evs)
        assert misses <= 2
        counts = [sum(1 for e in evs if iv.lo - 2 * step <= e <= iv.hi + 2 * step)
                  for iv in s.intervals]
        assert all(c >= 0.45 * N for c in counts)


class TestReflectionless:
    def test_free_on_spectrum(self, free_jacobi):
        E = canonicalize([(-2.0, 2.0, "cc")])
        rep = reflectionless_on(free_jacobi, E, np.linspace(-3, 3, 1001))
        assert rep.verdict
        assert rep.fraction > 0.99
        assert rep.xi_fraction > 0.99
        assert np.isfinite(rep.witness_residual) and rep.witness_residual < 1e-3

    def test_period2_on_bands(self, period2_jacobi):
        grid = np.linspace(-3, 3, 1501)
        E = ac_spectrum(period2_jacobi, grid)
        rep = reflectionless_on(period2_jacobi, E, grid)
        assert rep.verdict

    def test_period2_fails_across_gap(self, period2_jacobi):
        E = canonicalize([(-2.5, 2.5, "cc")])
        rep = reflectionless_on(period2_jacobi, E, np.linspace(-3, 3, 1501))
        assert not rep.verdict
        assert len(rep.defect_points) > 0

    def test_patched_operator_fails(self, free_jacobi):
        patched = JacobiCoefficients(1, (1.0,), (0.0,), patch=((0, 1.0, 0.7),))
        E = canonicalize([(-2.0, 2.0, "cc")])
        rep = reflectionless_on(patched, E, np.linspace(-3, 3, 1001))
        assert not rep.verdict

    def test_zero_measure_set_rejected(self, free_jacobi):
        with pytest.raises(ValueError):
            reflectionless_on(free_jacobi, canonicalize([], [0.0]),
                              np.linspace(-3, 3, 101))


class TestIdentity:
    def test_residual_free_and_patched(self, free_jacobi, rng):
        zs = rng.uniform(-2, 2, 40) + 1j * rng.uniform(0.5, 2.0, 40)
        assert green_inverse_identity_residual(free_jacobi, zs) < 1e-10
        patched = JacobiCoefficients(1, (1.0,), (0.0,), patch=((1, 0.8, 0.3),))
        assert green_inverse_identity_residual(patched, zs) < 1e-10


class TestMultiplicity:
    def test_free_interior_multiplicity_two(self, free_jacobi):
        grid = np.linspace(-3, 3, 1001)
        step = grid[1] - grid[0]
        M2, M1 = multiplicity_sets(free_jacobi, grid)
        target = canonicalize([(-2 + step, 2 - step, "cc")])
        assert set_algebra(target, M2, "difference").measure() <= 2 * step
        # the gaps carry neither multiplicity
        assert not M2.contains(2.5) and not M1.contains(2.5)

    def test_band_edge_points_enter_no_set(self, period2_jacobi):
        """The band edges -1 and 1 of period2_jacobi are grid points of its
        default grid.  On the axis the Floquet roots coincide there, so the
        points are undetermined: not ok and unflagged, in no set (a flagged
        edge point would read as 'both infinite', multiplicity one)."""
        grid = default_grid(period2_jacobi)
        assert {-1.0, 1.0} <= set(grid.tolist())
        bd = boundary_weyl_grid(period2_jacobi, np.array([-1.0, 1.0]), 0)
        for key in ("M_plus", "M_minus", "g"):
            assert not bd[key][2].any() and not (bd["inf_" + key] | bd["div_" + key]).any()
        M2, M1 = multiplicity_sets(period2_jacobi)
        assert M1.is_empty() and not M2.contains(1.0) and not M2.contains(-1.0)

    def test_bound_state_appears_in_M1(self):
        patched = JacobiCoefficients(1, (1.0,), (0.0,), patch=((0, 1.0, 10.0),))
        T = truncated_matrix(patched, 801)
        diag = np.array([patched.b(n) for n in range(-400, 401)])
        off = np.array([patched.a(n) for n in range(-400, 400)])
        evs = eigh_tridiagonal(diag, off, eigvals_only=True)
        lam0 = float(evs[evs > 3].min())   # isolated eigenvalue near b(0)
        local = np.linspace(lam0 - 2e-3, lam0 + 2e-3, 41)
        M2, M1 = multiplicity_sets(patched, local)
        assert M2.is_empty()
        assert not M1.is_empty()
        hits = [x for x in (list(M1.isolated_points)
                            + [0.5 * (iv.lo + iv.hi) for iv in M1.intervals])]
        assert min(abs(x - lam0) for x in hits) < 1e-3
