"""Exception hierarchy shared across the library."""


class MixlabError(Exception):
    """Base class for all library-specific errors."""


class DegenerateSection(MixlabError):
    """The flow generator is tangent to the section (w_y = 0)."""


class NonPositiveRoof(MixlabError):
    """The certified lower bound of a roof function is <= 0."""


class SmallDivisor(MixlabError):
    """A Fourier divisor e^{2 pi i m alpha} - 1 fell below the safety floor.

    Carries the offending frequency and the divisor modulus so callers can
    report which mode is resonant.
    """

    def __init__(self, m: int, modulus: float, floor: float):
        self.m = m
        self.modulus = modulus
        self.floor = floor
        super().__init__(
            f"divisor |e^(2 pi i {m} alpha) - 1| = {modulus:.3e} "
            f"below floor {floor:.3e}"
        )


class ObstructionNonzero(MixlabError):
    """The invariant-distribution value of a component is too large to solve.

    Carries the component label and the distribution value.
    """

    def __init__(self, label, value: complex, threshold: float):
        self.label = label
        self.value = value
        self.threshold = threshold
        super().__init__(
            f"component {label}: |D| = {abs(value):.3e} exceeds "
            f"solvability threshold {threshold:.3e}"
        )


class RationalAlpha(MixlabError):
    """The continued-fraction expansion terminated before the requested depth."""


class NonzeroFiberAverage(MixlabError):
    """An operation requiring zero fiber average received c_0 != 0."""


class NotACoboundary(MixlabError):
    """The transfer-function identity u(f(p)) - u(p) = Phi(p) - C failed."""


class InvalidRoofFile(MixlabError, ValueError):
    """A roof JSON file violated the schema or the realness invariant."""
