"""Half-line Weyl data and phase sets for periodic piecewise potentials.

The free potential has closed forms (m = +-i sqrt z, g = i/(2 sqrt z),
spectrum [0, inf)); the square well (V = 5 on half of each unit cell) has a
genuine band structure.  Transfer matrices are checked against the matrix
exponential, and the diagonal Green's function against a finite-difference
resolvent with cell-averaged potential sampling (pointwise sampling of a
discontinuous V costs one order of h in accuracy, averaging restores it).
"""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, solve_banded

from acspectra import schrodinger
from acspectra.boundary_analysis import floquet_pair
from acspectra.errors import MonodromyDegenerate
from acspectra.interval_sets import canonicalize, set_algebra
from acspectra.schrodinger import (PiecewisePotential, ac_spectrum, discriminant, default_grid,
                                   green_diag, green_identity_residual,
                                   m_half_line, multiplicity_sets, reflectionless_on,
                                   transfer_exponent, transfer_interval, weyl_data, xi,
                                   xi_grid)


def fd_green_oracle(v_of_x, z: complex, half_width: float = 200.0,
                    h: float = 1e-3) -> complex:
    """(0,0) resolvent entry of -d^2/dx^2 + V on [-W, W] (Dirichlet).

    v_of_x must be vectorized; each node takes the 9-point cell average of V
    over [x - h/2, x + h/2].
    """
    n = int(round(2 * half_width / h)) + 1
    xs = np.linspace(-half_width, half_width, n)
    offs = np.linspace(-0.5 * h, 0.5 * h, 9)
    vbar = np.mean([v_of_x(xs + o) for o in offs], axis=0)
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = -1.0 / h ** 2
    ab[2, :-1] = -1.0 / h ** 2
    ab[1, :] = 2.0 / h ** 2 + vbar - z
    rhs = np.zeros(n, dtype=complex)
    center = n // 2
    rhs[center] = 1.0 / h
    u = solve_banded((1, 1), ab, rhs)
    return complex(u[center])


def square_well_v(xs):
    return np.where(np.mod(xs, 1.0) >= 0.5, 5.0, 0.0)


class TestPotential:
    def test_value_and_patch(self):
        V = PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 5.0)),
                               patch=((0.25, -3.0), (0.75, 2.0)))
        assert V.value(0.1) == -3.0 and V.value(0.6) == 2.0
        assert V.value(1.2) == 0.0 and V.value(1.7) == 5.0
        assert V.value(-0.4) == 5.0

    def test_descriptor_round_trip(self):
        V = PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 5.0)), patch=((1.0, 9.0),))
        assert PiecewisePotential.from_descriptor(V.to_descriptor()) == V

    def test_piece_lengths_validated(self):
        with pytest.raises(ValueError):
            PiecewisePotential(1.0, ((0.4, 0.0), (0.5, 5.0)))


class TestTransfer:
    @given(st.floats(0.05, 2.0), st.floats(-5, 5),
           st.floats(-3, 8), st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_piece_transfer_is_matrix_exponential(self, ell, v, x, y):
        z = complex(x, y)
        T = transfer_interval(PiecewisePotential(ell, ((ell, v),)), z, 0.0, ell)[0]
        gen = np.array([[0.0, 1.0], [v - z, 0.0]], dtype=complex)
        assert np.abs(T - expm(ell * gen)).max() < 1e-10
        # det is formed from entries whose products reach |T|^2, so its
        # rounding error scales with |T|^2 (a few ulp of it)
        assert np.linalg.det(T) == pytest.approx(1.0, abs=1e-14 * max(1.0, np.abs(T).max() ** 2))

    def test_interval_transfer_composes_pieces(self, square_well):
        z = np.array([1.0 + 2.0j])
        whole = transfer_interval(square_well, z, 0.0, 2.0)[0]
        half1 = transfer_interval(square_well, z, 0.0, 0.7)[0]
        half2 = transfer_interval(square_well, z, 0.7, 2.0)[0]
        assert np.abs(half2 @ half1 - whole).max() < 1e-12

    @pytest.mark.parametrize("reach", [1.0, 100.0, 1e4])
    def test_transfer_exponent_bounds_the_monodromy(self, square_well, reach):
        """At z = -reach the bound is nearly tight for a nonnegative
        potential; the prefactors |w| of the two pieces are all it leaves
        out."""
        growth = transfer_exponent(square_well, reach)
        assert growth == math.fsum([0.5 * math.sqrt(reach), 0.5 * math.sqrt(5.0 + reach)])
        T = transfer_interval(square_well, np.array([-reach + 0.0j]), 0.0, 1.0)[0]
        assert growth - 2.0 <= math.log(np.abs(T).max()) \
            <= growth + 2.0 * math.log(1.0 + math.sqrt(5.0 + reach))
        patched = PiecewisePotential(1.0, square_well.pieces, patch=((0.25, 9.0),))
        assert transfer_exponent(patched, reach) == pytest.approx(
            growth + 0.25 * math.sqrt(9.0 + reach), rel=1e-15)

    def test_degenerate_multipliers_raise(self):
        with pytest.raises(MonodromyDegenerate):
            # trace 2 and det 1: both multipliers are 1
            floquet_pair(*np.array([[1.0, 1.0, 0.0, 1.0]], dtype=complex).T, 1.0)


class TestWeylData:
    @given(st.floats(-4, 20), st.floats(0.1, 4))
    @settings(max_examples=60, deadline=None)
    def test_free_closed_forms(self, x, y):
        V = PiecewisePotential(1.0, ((1.0, 0.0),))
        z = complex(x, y)
        root = cmath.sqrt(z)
        if root.imag < 0:
            root = -root
        assert m_half_line(V, z, 0.0, "+") == pytest.approx(1j * root, rel=1e-9)
        assert m_half_line(V, z, 0.0, "-") == pytest.approx(-1j * root, rel=1e-9)
        assert green_diag(V, z, 0.0) == pytest.approx(1j / (2 * root), rel=1e-9)

    def test_herglotz_signs(self, square_well):
        z = 3.0 + 0.7j
        wd = weyl_data(square_well, z, 0.3)
        assert wd.m_plus.imag > 0 and wd.m_minus.imag < 0
        assert wd.g.imag > 0

    def test_square_well_green_matches_fd_oracle(self, square_well):
        z = 2.0j
        got = green_diag(square_well, z, 0.0)
        oracle = fd_green_oracle(square_well_v, z)
        assert abs(got - oracle) < 1e-4

    def test_period_translation_invariance(self, square_well):
        z = 1.5 + 1.0j
        assert m_half_line(square_well, z, 0.3, "+") == pytest.approx(
            m_half_line(square_well, z, 1.3, "+"))

    def test_real_z_rejected(self, free_schrodinger):
        with pytest.raises(ValueError):
            m_half_line(free_schrodinger, 4.0 + 0j, 0.0, "+")


class TestXi:
    def test_free_interior_half(self, free_schrodinger):
        for lam in (0.5, 4.0, 11.0, 20.0):
            assert xi(free_schrodinger, lam) == pytest.approx(0.5, abs=1e-4)

    def test_free_below_spectrum(self, free_schrodinger):
        for lam in (-0.5, -2.0):
            assert xi(free_schrodinger, lam) == pytest.approx(0.0, abs=1e-4)

    def test_grid_masks_accept_closing_gaps(self, free_schrodinger):
        # lambda = (k pi)^2 are closing band edges of the period-1
        # representation; the eigenvector there is noisy at the 1e-10 level
        # and the sweep must still accept the points
        lams = np.array([math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2])
        vals, err, ok = xi_grid(free_schrodinger, lams)
        assert ok.all()
        assert np.abs(vals - 0.5).max() < 1e-4

    def test_boundary_green_value(self, free_schrodinger):
        # g(4 + i0) = i/4 for the free operator
        from acspectra.schrodinger import boundary_schrodinger_grid
        bd = boundary_schrodinger_grid(free_schrodinger, np.array([4.0]), 0.0)
        g, err, conv = bd["g"]
        assert conv[0]
        assert abs(complex(g[0]) - 0.25j) < 1e-6


class TestAcSpectrum:
    def test_free_single_band(self, free_schrodinger):
        grid = default_grid(free_schrodinger)
        step = grid[1] - grid[0]
        s = ac_spectrum(free_schrodinger, grid)
        assert len(s.intervals) == 1   # no spurious splits at closing gaps
        assert s.intervals[0].lo == pytest.approx(0.0, abs=step)
        assert s.intervals[0].hi >= grid[-1] - step

    def test_square_well_bands_match_discriminant(self, square_well):
        grid = np.linspace(-1.0, 25.0, 1301)
        step = grid[1] - grid[0]
        s = ac_spectrum(square_well, grid)
        disc = discriminant(square_well, grid)
        inside = np.abs(disc) <= 2.0
        edges = [0.5 * (grid[k - 1] + grid[k])
                 for k in range(1, grid.size) if inside[k] != inside[k - 1]]
        got = [x for iv in s.intervals for x in (iv.lo, iv.hi)]
        # top band runs past the window; compare the interior edges
        assert len(got) == 4 and len(edges) == 3
        assert np.max(np.abs(np.array(got[:3]) - np.array(edges))) < 2 * step

    def test_patch_does_not_move_bands(self, square_well):
        patched = PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 5.0)),
                                     patch=((1.0, -2.0),))
        grid = np.linspace(-1.0, 25.0, 1301)
        step = grid[1] - grid[0]
        a = ac_spectrum(square_well, grid)
        b = ac_spectrum(patched, grid)
        for x, y in ((p, q) for p in a.intervals for q in b.intervals):
            pass
        sym = set_algebra(a, b, "difference").measure() + \
            set_algebra(b, a, "difference").measure()
        assert sym <= 4 * step


class TestReflectionless:
    def test_free_on_spectrum(self, free_schrodinger):
        E = canonicalize([(0.0, 24.0, "cc")])
        rep = reflectionless_on(free_schrodinger, E,
                                np.linspace(-1.0, 25.0, 801))
        assert rep.verdict
        assert rep.fraction > 0.99
        assert rep.xi_fraction > 0.99
        assert np.isfinite(rep.witness_residual) and rep.witness_residual < 1e-3

    def test_square_well_on_bands(self, square_well):
        grid = np.linspace(-1.0, 25.0, 1301)
        E = ac_spectrum(square_well, grid)
        rep = reflectionless_on(square_well, E, grid)
        assert rep.verdict

    def test_square_well_fails_across_gap(self, square_well):
        E = canonicalize([(2.5, 25.0, "cc")])
        rep = reflectionless_on(square_well, E, np.linspace(-1.0, 25.0, 1301))
        assert not rep.verdict
        assert len(rep.defect_points) > 0

    def test_patched_fails(self, free_schrodinger):
        patched = PiecewisePotential(1.0, ((1.0, 0.0),), patch=((1.0, 3.0),))
        E = canonicalize([(0.5, 24.0, "cc")])
        rep = reflectionless_on(patched, E, np.linspace(-1.0, 25.0, 801))
        assert not rep.verdict


class TestIdentity:
    def test_residual_free_well_patched(self, free_schrodinger, square_well, rng):
        zs = rng.uniform(-1, 24, 40) + 1j * rng.uniform(0.5, 2.0, 40)
        assert green_identity_residual(free_schrodinger, zs) < 1e-10
        assert green_identity_residual(square_well, zs, x0=0.3) < 1e-10
        patched = PiecewisePotential(1.0, ((0.5, 0.0), (0.5, 5.0)),
                                     patch=((1.0, -2.0),))
        assert green_identity_residual(patched, zs) < 1e-10

    @pytest.mark.parametrize("pieces, patch, x0", [
        (((1.0, 1e4),), (), 0.0), (((1.0, 1e4),), (), 0.5),
        (((1.0, 1.0),), ((0.5, 1e3),), 0.0), (((1.0, 1e2),), (), 0.0)])
    def test_residual_stable_on_steep_potentials(self, pieces, patch, x0):
        """Transfers up to exp(100): each solution reaches the Wronskian's
        point along its own stable direction, with no overflow or 0/0."""
        V = PiecewisePotential(1.0, pieces, patch)
        zs = np.array([1 + 1j, 5 + 0.5j, -3 + 2j])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert green_identity_residual(V, zs, x0) < 1e-10

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("x0", [0.0, 0.5])
    def test_residual_trips_on_a_faulty_transfer(self, monkeypatch, square_well, entry, x0):
        """One transfer entry scaled by 1 + 1e-6 breaks the product of the
        transfers on the two routes, and the residual shows it."""
        exact = transfer_interval

        def faulty(*args):
            T = exact(*args)
            T[..., entry[0], entry[1]] *= 1.0 + 1e-6
            return T
        monkeypatch.setattr(schrodinger, "transfer_interval", faulty)
        zs = np.array([1 + 1j, 5 + 0.5j, -3 + 2j, 12 + 0.7j])
        for V in (square_well, PiecewisePotential(1.0, ((1.0, 1e4),))):
            assert green_identity_residual(V, zs, x0) > 1e-8

    @pytest.mark.parametrize("entry", [0, 1, 2])
    @pytest.mark.parametrize("x0", [0.0, 0.5])
    def test_residual_trips_on_a_faulty_piece(self, monkeypatch, square_well, entry, x0):
        """One entry of every piece transfer scaled by 1 + 1e-6, also where
        x0 + L/2 is a piece boundary (the square well at x0 = 0 and 0.5):
        the Wronskian's point splits a piece, and the residual shows it."""
        exact = schrodinger._piece_entries

        def faulty(*args):
            out = list(exact(*args))
            out[entry] = out[entry] * (1.0 + 1e-6)
            return tuple(out)
        monkeypatch.setattr(schrodinger, "_piece_entries", faulty)
        zs = np.array([1 + 1j, 5 + 0.5j, -3 + 2j, 12 + 0.7j])
        for V in (square_well, PiecewisePotential(1.0, ((1.0, 1e4),)),
                  PiecewisePotential(1.0, ((0.3, 2.0), (0.7, -1.0)),
                                     ((0.25, 3.0), (0.4, -2.0)))):
            assert green_identity_residual(V, zs, x0) > 1e-8


class TestMultiplicity:
    def test_free_interior_multiplicity_two(self, free_schrodinger):
        grid = np.linspace(-1.0, 25.0, 801)
        step = grid[1] - grid[0]
        M2, M1 = multiplicity_sets(free_schrodinger, grid)
        target = canonicalize([(2 * step, 25.0 - 2 * step, "cc")])
        assert set_algebra(target, M2, "difference").measure() <= 4 * step
        assert M1.measure() <= 2 * step

    def test_square_well_gap_in_neither_set(self, square_well):
        grid = np.linspace(-1.0, 25.0, 1301)
        M2, M1 = multiplicity_sets(square_well, grid)
        assert not M2.contains(12.0) and not M1.contains(12.0)
        assert M2.contains(5.0)
