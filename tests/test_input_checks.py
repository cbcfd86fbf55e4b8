"""Every documented input check of the families, the sets and the sweeps
raises ValueError with its own message, and a truncation window's site
lookup raises IndexError outside the window."""

import re

import numpy as np
import pytest

from acspectra import cmv, jacobi, schrodinger
from acspectra.boundary_analysis import reflectionless_on, require_in_disk
from acspectra.interval_sets import (canonicalize, full_circle, points_hull, set_algebra,
                                     set_from_json)

V = cmv.VerblunskyCoefficients(2, (0.2 - 0.3j, 0.6))
J = jacobi.JacobiCoefficients(1, (1.0,), (0.0,))
W = schrodinger.PiecewisePotential(1.0, ((1.0, 0.0),))
LINE = canonicalize([(0.0, 1.0, "cc")])
GRID_RULE = "at least 2 finite points and a positive first step"
MAGNITUDES = re.escape("magnitudes of at most 2^320, and a(n) of at least 2^-1000")

CHECKS = {
    "cmv_period": (lambda: cmv.VerblunskyCoefficients(0, ()), "period must be a positive"),
    "cmv_alpha_base_length": (lambda: cmv.VerblunskyCoefficients(2, (0.1,)),
                              "alpha_base must have length"),
    "cmv_repeated_patch_site": (
        lambda: cmv.VerblunskyCoefficients(1, (0.1,), ((1, 0.2), (1, 0.3))),
        "patch sites must be distinct"),
    "cmv_descriptor_type": (
        lambda: cmv.VerblunskyCoefficients.from_descriptor({"type": "jacobi"}),
        "descriptor type must be 'cmv'"),
    "cmv_M11_mode": (lambda: cmv.M11(V, 0.3j, 0, mode="banded"), "mode must be"),
    "cmv_ac_spectrum_angles": (
        lambda: cmv.ac_spectrum(V, cmv.default_angles(cmv.MIN_ANGLES - 1)),
        f"at least {cmv.MIN_ANGLES} points"),
    "cmv_matrix_M_and_R_angles": (
        lambda: cmv.matrix_M_and_R(V, 0, grid=cmv.default_angles(cmv.MIN_ANGLES - 1)),
        f"at least {cmv.MIN_ANGLES} points"),
    "cmv_multiplicity_sets_angles": (
        lambda: cmv.multiplicity_sets(V, cmv.default_angles(100)),
        f"at least {cmv.MIN_ANGLES} points"),
    "cmv_reflectionless_on_angles": (
        lambda: cmv.reflectionless_on(V, full_circle(), cmv.default_angles(100)),
        f"at least {cmv.MIN_ANGLES} points"),
    "cmv_eigenvalue_blocks": (lambda: cmv.eigenvalue_angles(V, window=cmv.EIG_BLOCKS * 8 + 2),
                              "split evenly into blocks"),
    "cmv_empty_support_arcs": (lambda: cmv.support_arcs(np.array([])), "no angles given"),
    "cmv_cayley_window": (lambda: cmv.truncation_cayley_diag(V, 0.1, 0, 4),
                          "even number of sites, at least 6"),
    # an odd window is refused, not shortened to the even one below it
    "cmv_M11_oracle_odd_window": (lambda: cmv.M11(V, 0.3j, 0, mode="oracle", window=1025),
                                  "even number of sites, at least 6"),
    "cmv_matrix_M_and_R_odd_window": (lambda: cmv.matrix_M_and_R(V, 0, window=1025),
                                      "even number of sites, at least 6"),
    "jacobi_descriptor_type": (
        lambda: jacobi.JacobiCoefficients.from_descriptor({"type": "cmv"}),
        "descriptor type must be 'jacobi'"),
    "jacobi_ac_spectrum_one_point": (lambda: jacobi.ac_spectrum(J, [0.5]), GRID_RULE),
    "jacobi_multiplicity_sets_one_point": (lambda: jacobi.multiplicity_sets(J, [0.5]), GRID_RULE),
    "jacobi_ac_spectrum_decreasing": (lambda: jacobi.ac_spectrum(J, [1.0, 0.0, -1.0]), GRID_RULE),
    "jacobi_multiplicity_sets_decreasing": (
        lambda: jacobi.multiplicity_sets(J, [1.0, 0.0, -1.0]), GRID_RULE),
    "jacobi_reflectionless_on_nan": (
        lambda: jacobi.reflectionless_on(J, LINE, [0.0, np.nan, 1.0]), GRID_RULE),
    "jacobi_truncation_size": (lambda: jacobi.truncated_matrix(J, 3), "at least 4 sites"),
    "jacobi_large_a": (lambda: jacobi.JacobiCoefficients(1, (1e300,), (0.0,)), MAGNITUDES),
    "jacobi_large_b": (lambda: jacobi.JacobiCoefficients(1, (1.0,), (-(2.0 ** 321),)), MAGNITUDES),
    "jacobi_subnormal_a": (lambda: jacobi.JacobiCoefficients(1, (5e-324,), (0.0,)), MAGNITUDES),
    "jacobi_small_patch_a": (
        lambda: jacobi.JacobiCoefficients(1, (1.0,), (0.0,), {3: (2.0 ** -1001, 0.0)}),
        MAGNITUDES),
    "schrodinger_period": (lambda: schrodinger.PiecewisePotential(0.0, ((1.0, 0.0),)),
                           "period must be positive"),
    "schrodinger_piece_length": (
        lambda: schrodinger.PiecewisePotential(1.0, ((1.5, 0.0), (-0.5, 1.0))),
        "piece lengths must be positive"),
    "schrodinger_descriptor_type": (
        lambda: schrodinger.PiecewisePotential.from_descriptor({"type": "jacobi"}),
        "descriptor type must be 'schrodinger'"),
    "schrodinger_ac_spectrum_inf": (
        lambda: schrodinger.ac_spectrum(W, [0.0, 1.0, np.inf]), GRID_RULE),
    "schrodinger_transfer_interval": (
        lambda: schrodinger.transfer_interval(W, [1.0j], 0.5, 0.5), "need b > a"),
    "set_algebra_op": (lambda: set_algebra(LINE, LINE, "xor"), "unknown op 'xor'"),
    "set_algebra_carriers": (lambda: set_algebra(LINE, full_circle(), "union"),
                             "mixed carriers"),
    "set_json_unknown_family": (lambda: set_from_json({"family": "cantor"}),
                                "unknown generated family 'cantor'"),
    "points_hull_nan": (lambda: points_hull([0.0, np.nan], 0.1),
                        "interval endpoints must be finite"),
    "reflectionless_on_E_between_grid_points": (
        lambda: reflectionless_on(J, canonicalize([(0.0002, 0.0013, "cc")]),
                                  np.linspace(-3.0, 3.0, 4001)),
        "grid does not meet E"),
    "require_in_disk": (lambda: require_in_disk(1.0), "open unit disk"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_input_check_raises(case):
    call, message = CHECKS[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("window", [jacobi.truncated_matrix(J, 6),
                                    cmv.build_truncation(V, (-3, 2))], ids=["jacobi", "cmv"])
def test_site_outside_the_truncation_window_raises(window):
    assert window.index_of(-3) == 0
    with pytest.raises(IndexError, match="site 100 outside the truncation window"):
        window.index_of(100)
