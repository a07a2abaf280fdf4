"""Exception hierarchy.

Two families matter for the CLI exit codes: ``ValidationError`` means an input
violated a documented precondition (exit code 2), ``NumericalBreakdownError``
means a computation failed in a way the underlying theory forbids, i.e. a
genuine numerical breakdown (exit code 3).
"""


class ScatZipError(Exception):
    """Base class for all library errors."""


class ValidationError(ScatZipError):
    """An input violates a documented precondition."""


class NumericalBreakdownError(ScatZipError):
    """A numerical failure that contradicts a theoretical guarantee."""


# -- dense matrix utilities ------------------------------------------------

class NotHermitianError(ValidationError):
    pass


class NotPSDError(ValidationError):
    pass


class SingularMatrixError(ValidationError):
    pass


class SingularDenominatorError(NumericalBreakdownError):
    """Moebius denominator became singular."""


# -- scattering blocks -----------------------------------------------------

class NotContractionError(ValidationError):
    pass


class NotUnitaryError(ValidationError):
    pass


class NotInUInvError(ValidationError):
    """Upper-right block singular: the scattering event is not effective."""


class SingularBetaError(ValidationError):
    pass


class NotLorentzError(ValidationError):
    pass


class SingularDError(ValidationError):
    pass


# -- operator assembly -----------------------------------------------------

class OddNError(ValidationError):
    pass


class MissingBlockError(ValidationError):
    pass


class MissingS1Error(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class CapExceededError(ValidationError):
    pass


# -- transfer matrices -----------------------------------------------------

class ZeroZError(ValidationError):
    pass


class DegenerateFrameError(NumericalBreakdownError):
    pass


class ImpossibleByTheoryError(NumericalBreakdownError):
    """A pivot the theory proves invertible came out singular."""


# -- Weyl discs ------------------------------------------------------------

class SingularBlockError(NumericalBreakdownError):
    pass


class DiscBreakdownError(NumericalBreakdownError):
    """A disc radius underflowed, or the center lost its reflection symmetry."""


class NotOnSurfaceError(ValidationError):
    pass


# -- oscillation -----------------------------------------------------------

class DegeneratePhiBlockError(NumericalBreakdownError):
    pass


class DegenerateBlockError(NumericalBreakdownError):
    pass


class CrossingCountMismatchError(NumericalBreakdownError):
    pass


class SizeMismatchError(ValidationError):
    pass


# -- file I/O --------------------------------------------------------------

class ParseError(ValidationError):
    pass


class GridOutsideDiscError(ValidationError):
    pass
