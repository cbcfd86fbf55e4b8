"""Shared exception types for boundary sweeps and transfer-matrix kernels,
and the key and number checks of every JSON object the package reads."""


def check_keys(d: dict, keys, what: str) -> None:
    """Raise ValueError naming the first key of d that keys does not list,
    as `unknown {what} 'k'; the {what}s are ...`."""
    unknown = next((k for k in d if k not in keys), None)
    if unknown is not None:
        raise ValueError(f"unknown {what} {unknown!r:.80}; the {what}s are " + ", ".join(keys))


def check_number(v, what: str):
    """v, unless it is a string or a bool: ValueError `{what} must be a
    number, not v`.  float() and int() would read the JSON string "1" and
    true as numbers; a documented number takes neither."""
    if isinstance(v, (str, bool)):
        raise ValueError(f"{what} must be a number, not {v!r:.80}")
    return v


class NonConvergent(RuntimeError):
    """A boundary value is undetermined at the requested point (a one-point phase read)."""


class MonodromyDegenerate(RuntimeError):
    """The Floquet branch is ambiguous at a one-point z: the multipliers
    coincide (a band edge) or have (numerically) equal modulus.

    Cannot happen off the real axis in exact arithmetic; weyl_data raises it
    exactly where floquet_pair marks the branch ambiguous, the points a sweep
    leaves undetermined, rather than silently picking a branch.
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
