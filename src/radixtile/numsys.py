"""Matrix number systems on Z^n.

A radix system is an expanding integer matrix together with a finite digit
set.  When the digits form a complete residue system, every lattice vector
has a unique remainder walk v -> A^-1 (v - digit(v)); the walk is eventually
periodic and the pair is a number system exactly when the only cycle is {0}.
A digit is found by its residue class, one integer from the Smith form of A
(``linalg.class_index``); a walk needs A expanding, which makes it close.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import linalg
from .errors import NonTerminating, NotACrs, PreconditionViolated, ZeroNotInDigits
from .linalg import IntMatrix, IntVec, np


@dataclass(frozen=True)
class RadixSystem:
    """Expanding matrix plus distinct digit vectors."""

    matrix: IntMatrix
    digits: tuple[IntVec, ...]

    def __post_init__(self):
        matrix = linalg.as_matrix(self.matrix)
        digits = tuple(self.digits)
        # digits that are already tuples of ints are kept as they are; rebuilding
        # 10^6 of them would take about 0.6 s
        if not set(map(type, digits)) <= {tuple} or not set(map(type, itertools.chain.from_iterable(digits))) <= {int}:
            digits = map(linalg.as_vec, digits)
        digits = tuple(sorted(digits))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "digits", digits)
        n = len(matrix)
        if n == 0:
            raise PreconditionViolated("the matrix must be at least 1x1")
        if any(len(row) != n for row in matrix):
            raise PreconditionViolated("matrix must be square")
        if any(map(operator.eq, digits, digits[1:])):
            raise PreconditionViolated("digits must be pairwise distinct")
        if set(map(len, digits)) - {n}:
            raise PreconditionViolated("digit dimension must match the matrix")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def determinant(self) -> int:
        return linalg.det(self.matrix)

    def differences(self) -> tuple[IntVec, ...]:
        """Sorted distinct digit differences (always contains 0)."""
        return self.difference_system().digits

    def difference_system(self) -> "RadixSystem":
        """(A, D - D), built on the first call and kept on the instance; equality and hashing ignore it."""
        return self._difference_system

    @cached_property
    def _difference_system(self) -> "RadixSystem":
        return RadixSystem(self.matrix, linalg.differences(self.n, self.digits)[0])

    def max_digit_norm(self) -> float:
        return max(linalg.norm_sq(d) for d in self.digits) ** 0.5


@lru_cache(maxsize=None)
def _digit_lookup(matrix: IntMatrix, digits: tuple[IntVec, ...]):
    """(matrix, adjugate, det, the digits' sorted class indices then |det|, the digits in that order), or NotACrs."""
    d = linalg.det(matrix)
    if d == 0:
        raise NotACrs("digit lookup needs det != 0")
    arr = linalg.int_array(digits, len(matrix))
    keys, first, inverse = np.unique(linalg.class_index(matrix, arr), return_index=True, return_inverse=True)
    if len(keys) < len(arr):
        # name the pair a scan in digit order meets first: the earliest repeat and its class's first digit
        at = np.flatnonzero(first[inverse] != np.arange(len(arr)))[0]
        raise NotACrs(f"digits {digits[first[inverse[at]]]} and {digits[at]} are congruent")
    # |det| lies above every class index, so searchsorted on the keys always lands on an entry
    return matrix, linalg.adjugate(matrix), d, np.append(keys, abs(d)), arr[first]


def digit_of(sys: RadixSystem, v) -> IntVec:
    """The unique digit congruent to v mod A Z^n (NotACrs when missing), read off one step as v - A A^-1 (v - d)."""
    v = linalg.as_vec(v)
    step = _walk_step(_digit_lookup(sys.matrix, sys.digits), linalg.int_array([v], sys.n))
    return linalg.vec_sub(v, linalg.mat_vec(sys.matrix, step[0].tolist()))


@dataclass(frozen=True)
class RemainderTrace:
    """One remainder walk: transient states, then the cycle it enters.

    digits_emitted holds the digit of every listed state, transient first,
    so v_k = A v_{k+1} + digits_emitted[k] holds link by link.
    """

    transient: tuple[IntVec, ...]
    cycle: tuple[IntVec, ...]
    digits_emitted: tuple[IntVec, ...]


def remainder_sequence(sys: RadixSystem, v) -> RemainderTrace:
    """Iterate v -> A^-1 (v - digit(v)) until a state repeats, as it must for an expanding A (else NotExpanding)."""
    linalg.require_expanding(sys.matrix)
    lookup, seen = _digit_lookup(sys.matrix, sys.digits), {}
    current = linalg.int_array([linalg.as_vec(v)], sys.n)
    while (state := tuple(current[0].tolist())) not in seen:
        seen[state] = len(seen)
        current = _walk_step(lookup, current)
    states, start = tuple(seen), seen[state]
    digits = tuple(linalg.vec_sub(a, linalg.mat_vec(sys.matrix, b)) for a, b in zip(states, states[1:] + (state,)))
    return RemainderTrace(transient=states[:start], cycle=states[start:], digits_emitted=digits)


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

    All cycles of the remainder walk lie in -T(A, D): a cycle point v is
    A^-1 (u - d) for the point u before it and u's digit d, and unrolled
    around the cycle, v = -sum_{j>=1} A^-j d_j over the digits the cycle
    emits, read backwards.  The walks start from the candidates of -T(A, D)
    (``linalg._tile_candidates``: the ball of radius max-digit-norm *
    tail_bound(A, 0), cut to the tile's exact coordinate box), which hold
    every cycle point, so they find every cycle.  The pair is a number
    system iff the only cycle is {0}.
    """
    if linalg.zero_vec(sys.n) not in sys.digits:
        raise ZeroNotInDigits("number systems need 0 among the digits")
    digits = linalg.int_array(sys.digits, sys.n)
    if not linalg.is_complete_residue_system(sys.matrix, digits):
        raise NotACrs("digits are not a complete residue system")
    ball, inside = linalg._tile_candidates(sys.matrix, -digits)  # the candidates of -T(A, D)
    states, succ = _remainder_graph(sys, ball[inside])
    # every state meets its cycle within len(states) steps, so succ^(2^k) maps
    # each state onto a cycle once 2^k >= len(states), and onto every cycle state
    onto = succ
    for _ in range(len(states).bit_length()):
        onto = onto[onto]
    witnesses, done = [], set()
    # states run in lexicographic order, so each cycle is met first at its smallest state
    for start in sorted(set(onto.tolist())):
        if start not in done:
            cycle = [start]
            while succ[cycle[-1]] != start:
                cycle.append(int(succ[cycle[-1]]))
            done.update(cycle)
            if states[start].any():
                witnesses.append(tuple(tuple(states[i].tolist()) for i in cycle))
    return (not witnesses, tuple(witnesses))


def _walk_step(lookup, frontier: np.ndarray) -> np.ndarray:
    """A^-1 (v - d), adj (v - d) divided exactly by det, for each row v of frontier and its digit d (or NotACrs)."""
    matrix, adj, det, keys, digits = lookup
    index = linalg.class_index(matrix, frontier)
    at = np.searchsorted(keys, index)
    if not (hit := keys[at] == index).all():
        raise NotACrs(f"no digit is congruent to {tuple(frontier[hit.argmin()].tolist())}")
    return linalg.mat_rows(adj, frontier - digits[at]) // det


def _remainder_graph(sys: RadixSystem, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The functional graph of the remainder walks from the rows of starts.

    Returns every state the walks reach, as rows in lexicographic order
    without repeats, and the index of each state's successor.  Each round
    steps the whole frontier at once and keeps only the states not seen
    before, so each distinct state is stepped once.
    """
    lookup = _digit_lookup(sys.matrix, sys.digits)
    frontier = seen = linalg.sorted_unique(starts)
    stepped, images = [], []
    while len(frontier):
        image = _walk_step(lookup, frontier)
        stepped.append(frontier)
        images.append(image)
        fresh = linalg.sorted_unique(image)
        frontier = fresh[linalg.locate(seen, fresh) < 0]
        seen = linalg.sorted_unique(np.concatenate([seen, frontier]))
    succ = np.empty(len(seen), dtype=np.intp)
    succ[linalg.locate(seen, np.concatenate(stepped))] = linalg.locate(seen, np.concatenate(images))
    return seen, succ


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
    if n == 0:
        raise PreconditionViolated("the polynomial must have degree at least 1")
    linalg.require_expanding(matrix)
    digit_vecs = list(zip(map(int, digits), *[itertools.repeat(0)] * (n - 1)))
    return RadixSystem(matrix, digit_vecs)
