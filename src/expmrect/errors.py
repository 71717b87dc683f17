"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that drivers and the command line can distinguish "the request is malformed"
from "the method honestly cannot meet the requested tolerance".
"""


class ExpmrectError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(ExpmrectError):
    """Operands have incompatible shapes."""


class SingularMatrix(ExpmrectError):
    """A factorization hit an (almost) exactly zero pivot."""


class NotSPD(ExpmrectError):
    """A matrix required to be symmetric positive definite is not."""


class NotSymmetric(ExpmrectError):
    """A matrix required to be symmetric is not."""


class NoConvergence(ExpmrectError):
    """An iteration reached its budget without meeting its tolerance."""


class PoleInsideRegion(ExpmrectError):
    """A rational function has a pole inside or on the target rectangle."""


class PoleEvaluation(ExpmrectError):
    """A rational function was evaluated at (or numerically at) a pole."""


class SingularShift(ExpmrectError):
    """A shifted pencil beta*M - tau*K is numerically singular."""


class ToleranceUnreachable(ExpmrectError):
    """The method honestly cannot meet the requested tolerance within its caps.

    Carries a ``context`` dict describing how far the search got; the driver
    adds the rectangle, ``kappa_safe`` and the scalar target.
    """

    def __init__(self, *args, context=None):
        super().__init__(*args)
        self.context = dict(context) if context else {}


class ScalingExhausted(ToleranceUnreachable):
    """No admissible scaling parameter up to the cap meets the target."""


class DegreeExhausted(ToleranceUnreachable):
    """The greedy interpolation reached its degree cap above the target."""


class RefitFailed(ToleranceUnreachable):
    """The certified sup-error of a refitted approximant exceeds its target."""


class DegenerateMesh(ExpmrectError):
    """A mesh operation produced (or received) zero-area or inverted cells."""
