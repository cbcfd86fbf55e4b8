"""Shared operator fixtures, and the banded-solve reference of the Jacobi
truncation oracle.

The same six operators recur across the suite: the three free operators
(closed-form boundary data, so every numerical route has an exact target),
one genuinely periodic example per lattice family, and patched variants
whose local defects the reflectionless tests must detect.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from acspectra.cmv import VerblunskyCoefficients
from acspectra.jacobi import JacobiCoefficients
from acspectra.schrodinger import PiecewisePotential


@pytest.fixture(scope="session")
def free_jacobi():
    return JacobiCoefficients(period=1, a_base=(1.0,), b_base=(0.0,))


@pytest.fixture(scope="session")
def period2_jacobi():
    # bands [-sqrt5, -1] u [1, sqrt5]
    return JacobiCoefficients(period=2, a_base=(1.0, 1.0), b_base=(1.0, -1.0))


@pytest.fixture(scope="session")
def free_cmv():
    return VerblunskyCoefficients(period=1, alpha_base=(0.0,))


@pytest.fixture(scope="session")
def geronimus_cmv():
    # constant alpha = 1/2: ac spectrum is the arc [pi/3, 5pi/3]
    return VerblunskyCoefficients(period=1, alpha_base=(0.5,))


@pytest.fixture(scope="session")
def free_schrodinger():
    return PiecewisePotential(period=1.0, pieces=((1.0, 0.0),))


@pytest.fixture(scope="session")
def square_well():
    # V = 5 on half of each unit cell; two gaps below 25
    return PiecewisePotential(period=1.0, pieces=((0.5, 0.0), (0.5, 5.0)))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260814)


def resolvent_entry(T, z: complex, row: int, col: int) -> complex:
    """[(T - z)^-1](row, col) of a jacobi.TridiagonalMatrix by a banded
    solve; row and col are lattice sites."""
    N = T.diag.size
    ab = np.zeros((3, N), dtype=complex)
    ab[0, 1:] = T.offdiag
    ab[1, :] = T.diag - z
    ab[2, :-1] = T.offdiag
    rhs = np.zeros(N, dtype=complex)
    rhs[T.index_of(col)] = 1.0
    x = solve_banded((1, 1), ab, rhs)
    return complex(x[T.index_of(row)])
