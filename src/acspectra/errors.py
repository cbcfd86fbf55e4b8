"""Shared exception types for boundary extrapolation and transfer-matrix kernels."""


class NonConvergent(RuntimeError):
    """Boundary extrapolants failed to contract (or no admissible fixed point exists)."""


class MonodromyDegenerate(RuntimeError):
    """Both Floquet multipliers have (numerically) equal modulus at Im z != 0.

    Cannot happen off the real axis for positive off-diagonal coefficients; raised
    to signal an internal error rather than silently picking a branch.
    """


class DegenerateDenominator(ZeroDivisionError):
    """The Mobius composition denominator vanished (M_+ = M_-), formula indeterminate."""


class SiteDisagreement(RuntimeError):
    """The ac spectrum at two reference sites differs by more than two grid steps.

    Carries the spectrum computed at the first site and the width of the
    longest piece of the symmetric difference.
    """

    def __init__(self, message, spectrum, width):
        super().__init__(message)
        self.spectrum = spectrum
        self.width = width
