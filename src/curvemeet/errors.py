"""Exception types shared across the package.

Kept in one place so the command line tool can map them to exit codes
without importing every module.
"""


class CurveMeetError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomain(CurveMeetError):
    """A parameter lies outside the domain of a track or path."""


class GridMismatch(CurveMeetError):
    """Two tracks were expected to share a parameter grid but do not."""


class EndpointViolation(CurveMeetError):
    """A unit-square path provably misses its required corner."""


class NotSeparated(CurveMeetError):
    """A track pair fails the weak separation precondition."""


class SeparationInvariantError(CurveMeetError):
    """Internal consistency failure: a configuration that weak separation
    rules out (touching or collinear overlapping segments) was observed."""


class EffortExhausted(CurveMeetError):
    """Positivity of a distance could not be certified within the
    configured precision budget."""


class PreconditionViolated(CurveMeetError):
    """An explicitly checked caller obligation does not hold."""


class InvariantViolation(CurveMeetError):
    """A property guaranteed by construction failed; indicates a bug or
    an input outside the supported class."""


class NotConverged(CurveMeetError):
    """Refinement did not isolate the intersection tightly enough for the
    requested tolerance."""


class SpecFileError(CurveMeetError):
    """A curve description or certificate file cannot be parsed."""


class UsageError(CurveMeetError):
    """A command-line value is malformed or out of range."""
