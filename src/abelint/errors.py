"""Exception hierarchy shared by the whole toolkit.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them to stable exit codes.
"""


class AbelintError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ParseError(AbelintError):
    """Malformed polynomial / operator / command-line input."""

    exit_code = 2


class NoSolution(AbelintError):
    """An exact linear system is inconsistent."""

    exit_code = 4


class SingularDivision(AbelintError):
    """Division in the module of forms has no solution within degree bounds."""

    exit_code = 4


class DegenerateBasis(AbelintError):
    """The standard monomial basis is not regular for this Hamiltonian."""

    exit_code = 4


class LineInLocus(AbelintError):
    """The requested pencil line lies inside the degeneracy locus."""

    exit_code = 4


class NotClosed(AbelintError):
    """Curve tracing failed to return to the start point."""

    exit_code = 4


class SeedOffCurve(AbelintError):
    """Oval tracing could not project the seed onto the level curve."""

    exit_code = 4


class PathTooClose(AbelintError):
    """An integration path passes too close to the singular locus."""

    exit_code = 3


class ZeroOnPath(AbelintError):
    """The tracked solution vanishes (numerically) on the path."""

    exit_code = 3


class NonIntegerWinding(AbelintError):
    """Total argument variation along a closed path is not close to 2*pi*Z."""

    exit_code = 3


class ToleranceNotMet(AbelintError):
    """A numeric routine could not reach its requested tolerance."""

    exit_code = 3


class NumericOverflow(AbelintError):
    """A float derived from exact data is beyond the float range."""

    exit_code = 3


class NotQuasiunipotent(AbelintError):
    """Equatorial monodromy fails the quasiunipotence test."""

    exit_code = 5


class UnsupportedInput(AbelintError):
    """Structurally valid input outside the supported fragment."""

    exit_code = 2
