"""Exception hierarchy shared by the whole package.

Four branches, one per CLI exit code:

  ParseError        (exit 2)  malformed textual input
  PreconditionError (exit 3)  structurally valid input outside a function's domain
  NumericError      (exit 4)  a certified numeric procedure could not conclude
  VerificationError (exit 5)  an internal cross-check or bound failed; always a bug
"""


class PinclassesError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(PinclassesError):
    exit_code = 2


class MalformedSyntax(ParseError):
    """Input text does not match the expected grammar."""


class EmptyInput(ParseError):
    """Input text is empty or whitespace only."""


class AlignmentViolation(ParseError):
    """Two consecutive pin letters share an axis (both horizontal or both vertical)."""


class NonAlternatingCycle(ParseError):
    """A cycle fails alternation at the wrap-around or at the prefix junction."""


class NotAPermutation(ParseError):
    """One-line text does not spell a permutation of 1..n."""


class NoOrigin(ParseError):
    """One-line text for a centred permutation lacks a bracketed entry."""


class MultipleOrigins(ParseError):
    """One-line text for a centred permutation has more than one bracketed entry."""


class PreconditionError(PinclassesError):
    exit_code = 3


class IndexOutOfRange(PreconditionError):
    """Factor or point index outside the valid range."""


class EmptyPermutation(PreconditionError):
    """Operation needs at least one non-origin point."""


class NotInterior(PreconditionError):
    """Requested point is the first or last point of the pin sequence."""


class NonIndecomposableElement(PreconditionError):
    """Normal-form input contains a box-decomposable element."""


class NotRecurrent(PreconditionError):
    """Pin spec is not recurrent, so the requested class-level quantity is undefined."""


class DisconnectedQuadrants(PreconditionError):
    """Quadrant set is not connected under adjacency, so confinement splits the class."""


class NonzeroConstantTerm(PreconditionError):
    """Seq() needs a generating function with zero constant term."""


class PoleAtZero(PreconditionError):
    """Coefficient extraction needs a denominator nonzero at z = 0."""


class DivisionByZero(PreconditionError, ZeroDivisionError):
    """Division of rational generating functions by zero."""


class CensusTooLarge(PreconditionError):
    """A census would retain more permutations than the memory guard allows."""


class ParameterOutOfRange(PreconditionError, ValueError):
    """A numeric argument (tolerance, digits, depth, bound) is outside its range."""


class NumericError(PinclassesError):
    exit_code = 4


class NoRootInRange(NumericError):
    """No root of the target polynomial in the searched interval."""


class StabilizationFailure(NumericError):
    """Factor counts kept changing past the proven stabilisation window."""


class VerificationError(PinclassesError):
    exit_code = 5


class CrossCheckMismatch(VerificationError):
    """Two independent computations of the same quantity disagree."""


class BoundViolation(VerificationError):
    """A proven coefficient bound failed on computed data."""
