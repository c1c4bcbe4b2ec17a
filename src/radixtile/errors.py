"""Exception hierarchy shared by every module.

Two broad classes matter to callers: precondition failures (the input does
not satisfy a documented requirement) and budget failures (the computation
was cut off before an answer could be certified).  The CLI maps the former
to exit code 2 and the latter to exit code 3.  Every budget is charged
through ``charge``, and its error names the counter that tripped, its value
and its cap; README's table of caps lists each counter once.  The JSON
readers at the end turn a value of the wrong JSON type into a precondition
failure.
"""


class RadixTileError(Exception):
    """Base class for all library errors."""


class PreconditionError(RadixTileError):
    """An input violates a documented precondition."""


class BudgetError(RadixTileError):
    """A resource cap was hit before the answer was certain: counter reached value, past cap."""

    def __init__(self, counter: str, value: int, cap: int):
        from .linalg import frac_str  # at call time, so errors imports nothing; a ball count can have 6,000 digits

        self.counter, self.value, self.cap = counter, value, cap
        super().__init__(f"{counter}: {frac_str(value)} exceeds the cap of {frac_str(cap)}")


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


class RasterTooLarge(BudgetError):
    pass


def charge(kind: type[BudgetError], counter: str, value: int, cap: int) -> None:
    """Raise kind when counter's value passes its cap: the one place a budget is compared."""
    if value > cap:
        raise kind(counter, value, cap)


def json_int(x) -> int:
    if type(x) is not int:  # bool is an int subclass, a JSON true is not a number
        raise PreconditionViolated(f"expected a JSON integer, got {x!r}")
    return x


def json_list(x, what: str, kind=list):
    """x, which must be a JSON list (a JSON object for kind=dict)."""
    if not isinstance(x, kind):
        raise PreconditionViolated(f"{what} must be a JSON {'list' if kind is list else 'object'}, got {x!r}")
    return x


def json_ints(x, what: str) -> tuple[int, ...]:
    if set(map(type, json_list(x, what))) - {int}:  # one pass over the types; name the first other entry
        json_int(next(v for v in x if type(v) is not int))
    return tuple(x)


def json_vec(x) -> tuple[int, ...]:
    """A vector written as one JSON integer or a list of them."""
    if type(x) is list and set(map(type, x)) <= {int}:  # the common case, for 10^6 digits
        return tuple(x)
    return (json_int(x),) if type(x) is not list else json_ints(x, "a vector")
