"""Matrix number systems on Z^n.

A radix system is an expanding integer matrix together with a finite digit
set.  When the digits form a complete residue system, every lattice vector
has a unique remainder walk v -> A^-1 (v - digit(v)); the walk is eventually
periodic and the pair is a number system exactly when the only cycle is {0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import NonTerminating, NotACrs, ZeroNotInDigits
from .linalg import IntMatrix, IntVec


@dataclass(frozen=True)
class RadixSystem:
    """Expanding matrix plus distinct digit vectors."""

    matrix: IntMatrix
    digits: tuple[IntVec, ...]

    def __post_init__(self):
        matrix = linalg.as_matrix(self.matrix)
        digits = tuple(sorted(linalg.as_vec(d) for d in self.digits))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "digits", digits)
        n = len(matrix)
        if any(len(row) != n for row in matrix):
            raise ValueError("matrix must be square")
        if len(set(digits)) != len(digits):
            raise ValueError("digits must be pairwise distinct")
        if any(len(d) != n for d in digits):
            raise ValueError("digit dimension must match the matrix")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def determinant(self) -> int:
        return linalg.det(self.matrix)

    def differences(self) -> tuple[IntVec, ...]:
        """Sorted distinct digit differences (always contains 0)."""
        return tuple(sorted({linalg.vec_sub(d, e) for d in self.digits for e in self.digits}))

    def difference_system(self) -> "RadixSystem":
        return RadixSystem(self.matrix, self.differences())

    def max_digit_norm(self) -> float:
        return max(linalg.norm_sq(d) for d in self.digits) ** 0.5


def system(matrix, digits) -> RadixSystem:
    return RadixSystem(linalg.as_matrix(matrix), tuple(linalg.as_vec(d) for d in digits))


@lru_cache(maxsize=None)
def _digit_lookup(matrix: IntMatrix, digits: tuple[IntVec, ...]):
    """(adjugate, det, map residue-class key -> digit); NotACrs if two digits share a class."""
    d = linalg.det(matrix)
    if d == 0:
        raise NotACrs("digit lookup needs det != 0")
    adj = linalg.adjugate(matrix)
    table: dict[IntVec, IntVec] = {}
    for digit in digits:
        key = linalg._class_key(adj, abs(d), digit)
        if key in table:
            raise NotACrs(f"digits {table[key]} and {digit} are congruent")
        table[key] = digit
    return adj, d, table


def digit_of(sys: RadixSystem, v) -> IntVec:
    """The unique digit congruent to v mod A Z^n (NotACrs when missing)."""
    v = linalg.as_vec(v)
    adj, d, table = _digit_lookup(sys.matrix, sys.digits)
    key = linalg._class_key(adj, abs(d), v)
    try:
        return table[key]
    except KeyError:
        raise NotACrs(f"no digit is congruent to {v}") from None


@dataclass(frozen=True)
class RemainderTrace:
    """One remainder walk: transient states, then the cycle it enters.

    digits_emitted holds the digit of every listed state, transient first,
    so v_k = A v_{k+1} + digits_emitted[k] holds link by link.
    """

    transient: tuple[IntVec, ...]
    cycle: tuple[IntVec, ...]
    digits_emitted: tuple[IntVec, ...]


def _step(sys: RadixSystem, v: IntVec) -> tuple[IntVec, IntVec]:
    """(A^-1 (v - d), d) for the digit d of v: adj (v - d) divided exactly by det."""
    d = digit_of(sys, v)
    adj, det, _ = _digit_lookup(sys.matrix, sys.digits)
    return tuple(x // det for x in linalg.mat_vec(adj, linalg.vec_sub(v, d))), d


def remainder_sequence(sys: RadixSystem, v, max_steps: int = 100_000) -> RemainderTrace:
    """Iterate v -> A^-1 (v - digit(v)) until the walk repeats a state."""
    v = linalg.as_vec(v)
    seen: dict[IntVec, int] = {}
    states: list[IntVec] = []
    digits: list[IntVec] = []
    current = v
    for _ in range(max_steps):
        if current in seen:
            start = seen[current]
            return RemainderTrace(
                transient=tuple(states[:start]),
                cycle=tuple(states[start:]),
                digits_emitted=tuple(digits),
            )
        seen[current] = len(states)
        states.append(current)
        nxt, d = _step(sys, current)
        digits.append(d)
        current = nxt
    raise NotACrs(f"remainder walk from {v} did not close after {max_steps} steps")


def discrete_expansion(sys: RadixSystem, v) -> tuple[IntVec, ...]:
    """Least-significant-first digits with v = sum A^j d_j, or NonTerminating."""
    v = linalg.as_vec(v)
    zero = linalg.zero_vec(sys.n)
    trace = remainder_sequence(sys, v)
    if trace.cycle != (zero,):
        raise NonTerminating(f"{v} enters the nonzero cycle {trace.cycle}")
    return trace.digits_emitted[: len(trace.transient)]


def evaluate_expansion(sys: RadixSystem, digits) -> IntVec:
    """Evaluate sum A^j d_j for a least-significant-first digit list."""
    value = linalg.zero_vec(sys.n)
    for d in reversed([linalg.as_vec(x) for x in digits]):
        value = linalg.vec_add(linalg.mat_vec(sys.matrix, value), d)
    return value


def is_number_system(sys: RadixSystem) -> tuple[bool, tuple[tuple[IntVec, ...], ...]]:
    """Decide whether every lattice vector expands, with witness cycles.

    All cycles of the remainder walk live inside the ball of radius
    max-digit-norm * tail_bound(A, 0), so enumerating that ball and
    walking from each point finds every cycle.  The pair is a number
    system iff the only cycle is {0}.
    """
    zero = linalg.zero_vec(sys.n)
    if zero not in sys.digits:
        raise ZeroNotInDigits("number systems need 0 among the digits")
    if not linalg.is_complete_residue_system(sys.matrix, sys.digits):
        raise NotACrs("digits are not a complete residue system")
    radius_sq = max(map(linalg.norm_sq, sys.digits)) * linalg.tail_bound(sys.matrix, 0) ** 2
    cycles: set[tuple[IntVec, ...]] = set()
    for point in linalg.lattice_ball(sys.n, radius_sq):
        trace = remainder_sequence(sys, point)
        if trace.cycle != (zero,):
            cycles.add(_canonical_cycle(trace.cycle))
    witnesses = tuple(sorted(cycles))
    return (not witnesses, witnesses)


def _canonical_cycle(cycle: tuple[IntVec, ...]) -> tuple[IntVec, ...]:
    """Rotate the cycle so its lexicographically smallest state comes first."""
    rotations = [cycle[i:] + cycle[:i] for i in range(len(cycle))]
    return min(rotations)


def companion_system(coeffs, digits) -> RadixSystem:
    """Radix system realizing a monic integer polynomial root as the base.

    coeffs lists the non-leading coefficients constant term first, i.e.
    [c0, c1, ..., c_{n-1}] stands for x^n + c_{n-1} x^{n-1} + ... + c0.
    Digits are integers and become multiples of the first basis vector;
    multiplication by the root is exactly the companion matrix action.
    """
    coeffs = [int(c) for c in coeffs]
    n = len(coeffs)
    matrix = tuple(
        tuple(
            (1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i]
            for j in range(n)
        )
        for i in range(n)
    )
    linalg.require_expanding(matrix)
    digit_vecs = tuple((int(d),) + (0,) * (n - 1) for d in digits)
    return RadixSystem(matrix, digit_vecs)
