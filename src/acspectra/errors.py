"""Shared exception types for boundary sweeps and transfer-matrix kernels."""


class NonConvergent(RuntimeError):
    """A boundary value is undetermined at the requested point (a one-point phase read)."""


class MonodromyDegenerate(RuntimeError):
    """Both Floquet multipliers have (numerically) equal modulus at a one-point z.

    Cannot happen off the real axis for positive off-diagonal coefficients in
    exact arithmetic; raised by the one-point functions rather than silently
    picking a branch.  Sweeps never raise it: they mark such points undetermined.
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
