"""Exception types shared across the package."""


class ZerowindError(Exception):
    """Base class for all package-specific failures."""


class AmbiguousClassification(ZerowindError):
    """A point cannot be placed against a curve: it lies within rounding of it, or the winding around it is not 0 or 1."""


class DetourFailed(ZerowindError):
    """No radius in the schedule produced a valid detour curve."""


class NoConvergence(ZerowindError):
    """A numerical iteration failed to reach its tolerance."""


class ZeroOnCurve(ZerowindError):
    """The function is (numerically) zero somewhere on the curve, but the operation requires it nonzero there."""


class NonIntegerWinding(ZerowindError):
    """The accumulated argument variation was not close enough to a whole number of turns."""


class BelowNoiseFloor(ZerowindError):
    """The polynomial's values on the curve do not rise above the rounding noise of their evaluation."""


class BoundaryCoefficientZero(ZerowindError):
    """Coefficient reversal needs nonzero constant and leading coefficients."""


class DegreeZero(ZerowindError):
    """The operation requires a non-constant polynomial."""


class SelfCheckFailed(ZerowindError):
    """Two independent computations of the same quantity disagreed."""
