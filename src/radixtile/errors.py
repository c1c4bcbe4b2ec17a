"""Exception hierarchy shared by every module.

Two broad classes matter to callers: precondition failures (the input does
not satisfy a documented requirement) and budget failures (the computation
was cut off before an answer could be certified).  The CLI maps the former
to exit code 2 and the latter to exit code 3.
"""


class RadixTileError(Exception):
    """Base class for all library errors."""


class PreconditionError(RadixTileError):
    """An input violates a documented precondition."""


class BudgetError(RadixTileError):
    """A configurable resource cap was hit before the answer was certain."""


class UsageError(Exception):
    """The command line does not parse; the CLI exits 64 (EX_USAGE of sysexits.h)."""


class SingularMatrix(PreconditionError):
    pass


class NotExpanding(PreconditionError):
    pass


class NotACrs(PreconditionError):
    """The digit set is not a complete residue system for the matrix."""


class ZeroNotInDigits(PreconditionError):
    pass


class NonTerminating(PreconditionError):
    """The remainder walk of the vector never reaches zero."""


class SimilarityUnavailable(PreconditionError):
    """The operation needs the inverse matrix to act as a similarity."""


class EmptyIntersection(PreconditionError):
    pass


class UniquenessNotEstablished(PreconditionError):
    """Strict mode requires a verified unique difference representation."""


class InvalidWitness(PreconditionError):
    pass


class GridViolation(PreconditionError):
    pass


class DigitShapeViolation(PreconditionError):
    """The digit set does not have the two-element {0, d} shape."""


class PreconditionViolated(PreconditionError):
    pass


class EmptySet(PreconditionError):
    pass


class EmptyCloud(PreconditionError):
    pass


class CandidateBallTooLarge(BudgetError):
    pass


class SearchBudgetExceeded(BudgetError):
    """A bounded search (SEP block length, inverse powers, enumeration box) ran out."""


class CloudTooLarge(BudgetError):
    pass


class DepthTooLarge(BudgetError):
    pass
