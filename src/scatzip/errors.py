"""Exception hierarchy.

Two families matter for the CLI exit codes: ``ValidationError`` means an input
violated a documented precondition (exit code 2), ``NumericalBreakdownError``
means a computation failed in a way the underlying theory forbids, i.e. a
genuine numerical breakdown (exit code 3).  The message of every raise names
its cause (and its site or point where there is one), so callers tell
failures apart by family and message, not by class; a subclass earns its
place only where code catches it by type.
"""


class ScatZipError(Exception):
    """Base class for all library errors."""


class ValidationError(ScatZipError):
    """An input violates a documented precondition."""


class NumericalBreakdownError(ScatZipError):
    """A numerical failure that contradicts a theoretical guarantee."""
