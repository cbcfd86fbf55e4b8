"""Boundary-value extraction and classification on analytic models.

Every model here has a closed-form boundary behavior, so the verdicts of the
numerical trichotomy (ac / pp / sc / regular) and the extrapolated limits can
be checked against exact values.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acspectra.boundary_analysis import (BoundaryFunction, boundary_value,
                                         classification_csv, classify_point,
                                         essential_support_ac,
                                         SCHEDULE,
                                         herglotz_representation,
                                         reflect, relaxed_ok,
                                         richardson_sequence, scaled_limit,
                                         validate)


def herglotz(fn, note=""):
    return BoundaryFunction("herglotz", fn, note)


def caratheodory(fn, note=""):
    return BoundaryFunction("caratheodory", fn, note)


# uniform density on [0, 1]: Stieltjes transform with Im = pi on (0, 1)
UNIFORM = herglotz(lambda z: cmath.log((1.0 - z) / (-z)))
POLE = herglotz(lambda z: 1.0 / (2.0 - z))                 # unit mass at 2
SQRT_SC = herglotz(lambda z: 1j / cmath.sqrt(z - 2.0))     # blows up, no mass
LINEAR = herglotz(lambda z: z)                             # regular limits
DISK_POLE = caratheodory(lambda z: (1.0 + z) / (1.0 - z))  # unit mass at 0


class TestRichardson:
    def test_linear_error_collapses(self):
        eps = np.asarray(SCHEDULE)
        vals = 3.0 + 2.0 * eps + 0.5 * eps ** 2
        value, err, conv = richardson_sequence(vals)
        assert conv and abs(value - 3.0) < 1e-9 and err < 1e-8

    def test_nonconverging_sequence_flagged(self):
        vals = np.cos(np.arange(13) * 2.0)
        _, _, conv = richardson_sequence(vals)
        assert not conv

    def test_relaxed_ok_accepts_noise_floor(self):
        conv = np.array([False, False, True])
        err = np.array([1e-9, 0.5, 1e-3])
        val = np.array([1.0, 1.0, 1.0])
        assert relaxed_ok(val, err, conv).tolist() == [True, False, True]


class TestSchedule:
    def test_geometric_schedule(self):
        s = SCHEDULE
        assert len(s) == 13
        assert s[0] == pytest.approx(0.1)
        assert s[1] / s[0] == pytest.approx(0.5)


class TestClassification:
    def test_ac_point_of_uniform_density(self):
        cp = classify_point(UNIFORM, 0.5)
        assert cp.verdict == "ac"
        assert cp.limit_value.imag == pytest.approx(math.pi, abs=1e-8)

    def test_regular_point_outside_support(self):
        cp = classify_point(LINEAR, 2.0)
        assert cp.verdict == "regular"
        assert cp.limit_value.real == pytest.approx(2.0, abs=1e-10)

    def test_point_mass_detected_with_weight(self):
        cp = classify_point(POLE, 2.0)
        assert cp.verdict == "pp"
        assert cp.point_mass == pytest.approx(1.0, rel=1e-6)
        assert cp.singular_unprimed and cp.singular_primed

    def test_sqrt_blowup_has_no_mass(self):
        # the scaled limit of a 1/sqrt singularity decays like sqrt(eps),
        # too slowly for the extrapolant to certify; the classifier must
        # report the blowup without inventing a point mass
        cp = classify_point(SQRT_SC, 2.0)
        assert cp.verdict == "singular"
        assert cp.point_mass == 0.0
        assert abs(cp.scaled_value) < 1e-3
        assert "scaled limit" in cp.diagnostics

    def test_sc_verdict_when_scaled_limit_settles_at_zero(self):
        # numerically infinite samples with a cleanly vanishing scaled limit
        f = herglotz(lambda z: 1e12j)
        cp = classify_point(f, 0.0)
        assert cp.verdict == "sc"
        assert abs(cp.scaled_value) < 1e-8

    def test_pole_close_to_probe_point(self):
        # mass must be attributed to the pole location even when the probe
        # schedule has to extend well below the default depth
        f = herglotz(lambda z: 0.25 / (2.0 - z))
        cp = classify_point(f, 2.0)
        assert cp.verdict == "pp"
        assert cp.point_mass == pytest.approx(0.25, rel=1e-5)

    def test_disk_point_mass(self):
        cp = classify_point(DISK_POLE, 0.0)
        assert cp.verdict == "pp"
        assert cp.point_mass == pytest.approx(1.0, rel=1e-6)

    def test_disk_regular_point(self):
        cp = classify_point(DISK_POLE, math.pi)
        assert cp.verdict == "regular"
        assert abs(cp.limit_value) < 1e-8

    def test_disk_ac_point(self):
        f = caratheodory(lambda z: 1.0 + 0.0 * z)
        cp = classify_point(f, 1.0)
        assert cp.verdict == "ac"


class TestBoundaryValue:
    def test_boundary_value_of_uniform(self):
        bv = boundary_value(UNIFORM, 0.25)
        exact = cmath.log((1.0 - 0.25) / (-0.25 + 0j))
        # principal log approached from above: Im -> +pi branch
        assert bv.value.imag == pytest.approx(math.pi, abs=1e-8)
        assert bv.value.real == pytest.approx(exact.real, abs=1e-8)
        assert not bv.diverged

    def test_scaled_limit_weights(self):
        val, err, conv = scaled_limit(POLE, 2.0)
        assert conv and val.real == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("f, p", [(POLE, 2.0), (DISK_POLE, 0.0), (SQRT_SC, 2.0)],
                             ids=["pole", "disk_pole", "sqrt_sc"])
    def test_scaled_limit_reads_the_classifier_stack(self, f, p):
        # both follow the same deepened schedule, so they agree bit for bit
        assert scaled_limit(f, p)[0] == classify_point(f, p).scaled_value


class TestEssentialSupport:
    def test_uniform_density_support(self):
        grid = np.linspace(-0.5, 1.5, 201)
        s, verdicts = essential_support_ac(UNIFORM, grid)
        step = grid[1] - grid[0]
        assert len(s.intervals) == 1
        assert s.intervals[0].lo == pytest.approx(0.0, abs=2 * step)
        assert s.intervals[0].hi == pytest.approx(1.0, abs=2 * step)
        assert len(verdicts) == grid.size


class TestReflection:
    def test_herglotz_reflection_matches_continuation(self):
        z = 1.5 - 0.7j
        assert reflect(POLE, z) == pytest.approx(1.0 / (2.0 - z))

    def test_disk_reflection(self):
        z = 1.25 + 0.5j   # outside the closed disk
        expected = -np.conj(DISK_POLE(1.0 / np.conj(z)))
        assert reflect(DISK_POLE, z) == pytest.approx(expected)

    def test_natural_domain_rejected(self):
        with pytest.raises(ValueError):
            reflect(POLE, 1.0 + 1.0j)
        with pytest.raises(ValueError):
            reflect(DISK_POLE, 0.5)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            reflect(POLE, 3.0 + 0.0j)


class TestValidation:
    @given(st.floats(-5, 5), st.floats(0.1, 5))
    @settings(max_examples=50, deadline=None)
    def test_herglotz_models_pass(self, x, y):
        rep = validate(UNIFORM, [complex(x, y)])
        assert rep.passed

    def test_conjugated_model_fails(self):
        bad = herglotz(lambda z: np.conj(1.0 / (2.0 - z)))
        rep = validate(bad, [2.0 + 1.0j])
        assert not rep.passed and rep.worst_violation < 0

    def test_kind_is_checked(self):
        with pytest.raises(ValueError):
            BoundaryFunction("schur", lambda z: z)


class TestRepresentation:
    def test_affine_plus_pole_constants(self):
        f = herglotz(lambda z: 1.5 + 0.25 * z + 1.0 / (2.0 - z))
        rep = herglotz_representation(f)
        assert rep.c == pytest.approx((1.5 + 1.0 / (2.0 - 1j)).real)
        assert rep.d == pytest.approx(0.25, abs=1e-3)

    def test_kind_guard(self):
        with pytest.raises(ValueError):
            herglotz_representation(DISK_POLE)


class TestCsv:
    def test_header_and_rows(self):
        text = classification_csv(UNIFORM, [0.5, 2.0])
        lines = text.strip().split("\n")
        assert lines[0] == "location,re,im,error_estimate,verdict,point_mass"
        assert len(lines) == 3
        assert "ac" in lines[1]
