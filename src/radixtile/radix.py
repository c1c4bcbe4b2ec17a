"""Eventually periodic radix representations and their equivalence.

A representation assigns the exact rational value sum_j A^-j x_j to an
eventually periodic digit sequence.  Equivalence of two representations is
decided two independent ways: exact rational equality of the values, and
the neighbour-sequence walk zeta_{k+1} = A zeta_k + (x_k - y_k), which must
stay inside the integer neighbour set of the digit tile.  Every neighbour
walk steps through the rows of one memoised move table,
``neighbours._neighbour_steps``; the walks over (phase, row) states use an
explicit stack, so no preperiod is too long for the Python stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from . import graph, linalg
from .errors import SingularMatrix
from .linalg import IntMatrix, IntVec, RatVec, np
from .numsys import RadixSystem


# ---------------------------------------------------------------------------
# eventually periodic sequences


@dataclass(frozen=True)
class EpSeq:
    """Finite preperiod plus a nonempty repeating cycle.

    Entries may be digits, integers, or frozensets of digits depending on
    the consumer.  Always construct through EpSeq.make so two encodings of
    the same infinite sequence compare equal.
    """

    pre: tuple
    cycle: tuple

    @classmethod
    def make(cls, pre, cycle) -> "EpSeq":
        pre = tuple(pre)
        cycle = tuple(cycle)
        if not cycle:
            raise ValueError("cycle must be nonempty")
        # shrink the cycle to its primitive period
        for d in range(1, len(cycle) + 1):
            if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
                cycle = cycle[:d]
                break
        # absorb a preperiod tail that merely repeats the cycle
        pre = list(pre)
        cycle = list(cycle)
        while pre and pre[-1] == cycle[-1]:
            cycle = [cycle[-1]] + cycle[:-1]
            pre.pop()
        return cls(tuple(pre), tuple(cycle))

    def entry(self, j: int):
        """Entry at 0-based position j of the infinite sequence."""
        if j < len(self.pre):
            return self.pre[j]
        return self.cycle[(j - len(self.pre)) % len(self.cycle)]

    def prefix(self, k: int) -> tuple:
        return tuple(self.entry(j) for j in range(k))

    def shift(self) -> "EpSeq":
        """Drop the first entry."""
        if self.pre:
            return EpSeq.make(self.pre[1:], self.cycle)
        return EpSeq.make((), self.cycle[1:] + self.cycle[:1])

    def map(self, fn) -> "EpSeq":
        return EpSeq.make([fn(x) for x in self.pre], [fn(x) for x in self.cycle])

    def to_json(self) -> dict:
        """Entries as JSON lists; a set of vectors becomes a sorted list."""

        def enc(x):
            if isinstance(x, frozenset):
                return sorted(list(v) for v in x)
            if isinstance(x, tuple):
                return list(x)
            return x

        return {"pre": [enc(x) for x in self.pre], "cycle": [enc(x) for x in self.cycle]}

    @property
    def preperiod(self) -> int:
        return len(self.pre)

    @property
    def period(self) -> int:
        return len(self.cycle)


def vector_seq(pre, cycle) -> EpSeq:
    """EpSeq of integer vectors, coercing scalars to 1-vectors."""
    return EpSeq.make([linalg.as_vec(x) for x in pre], [linalg.as_vec(x) for x in cycle])


@dataclass(frozen=True)
class Representation:
    """An eventually periodic digit sequence attached to its system."""

    system: RadixSystem
    seq: EpSeq

    def __post_init__(self):
        digits = set(self.system.digits)
        for x in list(self.seq.pre) + list(self.seq.cycle):
            if x not in digits:
                raise ValueError(f"entry {x} is not a digit of the system")


def representation(sys: RadixSystem, pre, cycle) -> Representation:
    return Representation(sys, vector_seq(pre, cycle))


# ---------------------------------------------------------------------------
# exact evaluation


def eval_exact(rep: Representation) -> RatVec:
    """Exact rational value sum_j A^-j x_j of the representation.

    The cycle value w solves (A^p - I) w = sum_l A^{p-l} x_{m+l}, which is
    nonsingular because A is expanding.
    """
    return _eval_cached(rep.system.matrix, rep.seq.pre, rep.seq.cycle)


@lru_cache(maxsize=4096)
def _eval_cached(matrix: IntMatrix, pre: tuple, cycle: tuple) -> RatVec:
    def horner(xs):  # the integer vector sum_j A^{len(xs)-1-j} x_j
        return reduce(lambda total, x: linalg.vec_add(linalg.mat_vec(matrix, total), x), xs, (0,) * len(matrix))

    # w = u / d with u = adj(A^p - I) horner(cycle) and d = det(A^p - I), and with A^-m = adj(A)^m / det(A)^m
    # the value A^-m (horner(pre) + w) is adj(A)^m (d horner(pre) + u) / (det(A)^m d)
    adj, d = linalg._cycle_inverse(matrix, len(cycle))
    if d == 0:
        raise SingularMatrix("system is singular")
    if linalg._adjugate_power(matrix, 1)[1] == 0:
        raise SingularMatrix("matrix is singular")
    linalg.require_expanding(matrix)
    top = linalg.vec_add([d * v for v in horner(pre)], linalg.mat_vec(adj, horner(cycle)))
    adj_m, det_m = linalg._adjugate_power(matrix, len(pre))
    return tuple(Fraction(x, det_m * d) for x in linalg.mat_vec(adj_m, top))


def equivalent(x: Representation, y: Representation) -> bool:
    """Exact rational equality of the two values."""
    if x.system != y.system:
        raise ValueError("representations must share a system")
    return eval_exact(x) == eval_exact(y)


def integer_sequence(x: Representation, y: Representation, k: int) -> list[IntVec]:
    """zeta_0 .. zeta_k with zeta_j = A zeta_{j-1} + (x_j - y_j)."""
    if x.system != y.system:
        raise ValueError("representations must share a system")
    a = x.system.matrix
    zeta = linalg.zero_vec(len(a))
    out = [zeta]
    for j in range(k):
        diff = linalg.vec_sub(x.seq.entry(j), y.seq.entry(j))
        zeta = linalg.vec_add(linalg.mat_vec(a, zeta), diff)
        out.append(zeta)
    return out


def is_neighbour_sequence(x: Representation, y: Representation) -> bool:
    """Walk the integer sequence of (x, y) through the rows of the neighbour move table.

    The walk is run over the aligned preperiod and cycle until a
    (phase, state) pair repeats; it certifies equivalence iff it never
    leaves the neighbour set united with zero.
    """
    if x.system != y.system:
        raise ValueError("representations must share a system")
    from .neighbours import _neighbour_steps

    sys = x.system
    _, moves, column, state = _neighbour_steps(sys.matrix, sys.digits)
    index = {d: i for i, d in enumerate(sys.digits)}
    pre = max(x.seq.preperiod, y.seq.preperiod)
    cyc = math.lcm(x.seq.period, y.seq.period)
    seen = set()
    j = 0
    while (key := (j if j < pre else pre + (j - pre) % cyc, state)) not in seen:
        seen.add(key)
        state = moves[state, column[index[x.seq.entry(j)], index[y.seq.entry(j)]]]
        if state < 0:
            return False
        j += 1
    return True


def representations_unique(sys: RadixSystem) -> bool:
    """True iff no digit difference is a neighbour of the tile: from 0, only the zero shift stays in the move table."""
    from .neighbours import _neighbour_steps

    _, moves, _, zero = _neighbour_steps(sys.matrix, sys.digits)
    return int((moves[zero] >= 0).sum()) == 1


# ---------------------------------------------------------------------------
# the pair automaton


@dataclass(frozen=True, eq=False)
class LabelledGraph:
    """States, digits, and per edge the ranks of its ends among the states and its label's m indices into the digits.

    The edges come in (src, label) order, and edges is their tuple view, built when first read.  States rank in their
    tuples' order and digits are sorted, so to_dot's one sort by (src, dst, label) starts each run at its least label.
    """

    states: tuple
    digits: tuple[IntVec, ...]
    src: np.ndarray
    dst: np.ndarray
    labels: np.ndarray

    @cached_property
    def edges(self) -> tuple:
        state, digit = self.states.__getitem__, self.digits.__getitem__
        labels = (tuple(map(digit, row)) for row in self.labels.tolist())
        return tuple(zip(map(state, self.src.tolist()), labels, map(state, self.dst.tolist())))

    def _dot(self, name: str, rows: np.ndarray, node: str, digit: str, sep: str) -> str:
        """Deterministic DOT text; parallel edges merge into their least label, its digits joined by sep, and a '+'.
        State i fills the template node with rows[i], each digit the template digit; each label's text is built once."""
        ends = self.src * len(self.states) + self.dst  # (src, dst) as one code
        order = np.lexsort((*self.labels.T[::-1], ends))
        ends, first, count = np.unique(ends[order], return_index=True, return_counts=True)  # one per run
        shape = (len(self.digits),) * self.labels.shape[1] + (2,)  # a run's least label and its '+' as one code
        code = np.ravel_multi_index((*self.labels[order[first]].T, count > 1), shape)
        codes, which = np.unique(code, return_inverse=True)
        text, labels = [digit % d for d in self.digits], np.transpose(np.unravel_index(codes, shape)).tolist()
        names = np.array([sep.join(map(text.__getitem__, p)) + "+" * more for *p, more in labels], dtype=object)
        nodes = _lines(f'  n%d [label="{node}"];', np.arange(len(rows)), rows)
        arcs = _lines('  n%d -> n%d [label="%s"];', *np.divmod(ends, len(self.states)), names[which])
        return "\n".join([f"digraph {name} {{", *nodes, *arcs, "}"])


def _lines(template: str, *columns: np.ndarray):
    """The template filled with each row of the columns, one % per block of 2^16 rows: only the text grows with them."""
    for at in range(0, len(columns[0]), 2**16):
        block = np.column_stack([c[at : at + 2**16] for c in columns])
        yield "\n".join([template] * len(block)) % tuple(block.ravel().tolist())


class PairAutomaton(LabelledGraph):
    """States are neighbours plus zero; edges carry digit pairs (x, y).

    An edge v1 --(x, y)--> v2 means v2 = A v1 + (x - y): it follows two
    representations of one value.  Only states and edges that lie on an
    infinite path reachable from zero are kept, found by a search from zero.
    """

    def to_dot(self) -> str:
        vec = ",".join(["%d"] * len(self.digits[0]))
        return self._dot("pair_automaton", linalg.int_array(self.states, len(self.digits[0])), vec, vec, "/")


def pair_automaton(sys: RadixSystem) -> PairAutomaton:
    """Neighbour graph with digit-pair labels: the m = 2 case of the search for equivalent representations."""
    from .neighbours import _equivalents_graph

    return PairAutomaton(*_equivalents_graph(sys.matrix, sys.digits, 2))


# ---------------------------------------------------------------------------
# enumeration of equivalent representations


UNIQUE = "unique"
FINITELY_MANY = "finitely-many"
INFINITE_COUNTABLE = "infinite-countable"
UNCOUNTABLE = "uncountable"


def enumerate_equivalents(
    sys: RadixSystem, x: Representation, sample_limit: int = 32
) -> tuple[str, tuple[EpSeq, ...]]:
    """Classify and sample the representations equivalent to x.

    The product walk tracks (position phase of x, row of the integer state
    zeta in the neighbour move table); a digit choice d extends a walk via
    zeta' = A zeta + (x_j - d).  Walks
    that can continue forever correspond exactly to equivalent
    representations, one per walk, so the shape of the live graph decides
    cardinality:

    - only the diagonal (every state has zeta = 0) -> unique;
    - a state with two edges inside its own strongly connected component
      -> uncountable;
    - otherwise, a state on a cycle with an edge leaving its component ->
      countably infinite;
    - otherwise finitely many, which are enumerated exhaustively.
    """
    from .neighbours import _neighbour_steps

    if x.system != sys:
        raise ValueError("representation does not belong to the system")
    _, moves, column, zero = _neighbour_steps(sys.matrix, sys.digits)
    k, index = len(moves), {d: i for i, d in enumerate(sys.digits)}
    entries, m = x.seq.pre + x.seq.cycle, x.seq.preperiod

    # the product state ph * k + v stands at phase ph of x on row v of the
    # move table; reading the digit d steps v by the shift d - x_ph
    succ: dict[int, list[tuple[IntVec, int]]] = {}
    stack = [zero]
    while stack:
        ph, v = divmod(state := stack.pop(), k)
        if state not in succ:
            nxt = (ph + 1 if ph + 1 < len(entries) else m) * k
            row = moves[v, column[index[entries[ph]]]].tolist()
            succ[state] = [(d, nxt + t) for d, t in zip(sys.digits, row) if t >= 0]
            stack.extend(t for _, t in succ[state])

    # every state was reached from the start; the components come sinks first, so one pass finds the live ones
    # (on an infinite walk): two or more states, a self-loop, or an edge into a component already live
    comp_of: dict[int, int] = {}
    live: list[bool] = []
    for i, comp in enumerate(graph.components({s: [t for _, t in out] for s, out in succ.items()})):
        comp_of.update(dict.fromkeys(comp, i))
        live.append(len(comp) > 1 or any(comp_of[t] == i or live[comp_of[t]] for s in comp for _, t in succ[s]))
    walks = {s: [(d, t) for d, t in out if live[comp_of[t]]] for s, out in succ.items() if live[comp_of[s]]}

    if all(s % k == zero for s in walks):
        return UNIQUE, (x.seq,)

    # distinct edges carry distinct digits, so walks and sequences match
    inner = {s: sum(comp_of[t] == comp_of[s] for _, t in out) for s, out in walks.items()}
    if any(n >= 2 for n in inner.values()):
        cls = UNCOUNTABLE
    elif any(0 < inner[s] < len(out) for s, out in walks.items()):
        cls = INFINITE_COUNTABLE
    else:
        cls = FINITELY_MANY

    samples = _sample_walks(walks, zero, sample_limit, exhaustive=(cls == FINITELY_MANY))
    if x.seq in samples:
        samples = [x.seq] + [s for s in samples if s != x.seq]
    else:
        samples = [x.seq] + samples[: max(0, sample_limit - 1)]
    return cls, tuple(samples)


def _sample_walks(graph, start, limit, exhaustive) -> list[EpSeq]:
    """Depth-first walk enumeration; a walk closes when it revisits a state.

    In the finitely-many case every revisit has a deterministic
    continuation, so closing at the first revisit enumerates everything.
    Otherwise walks are also explored past revisits (bounded depth) so the
    samples include mixed loop orders, up to `limit` of them.  The walk
    keeps one path and an explicit stack, so its depth is not bounded by
    the Python stack.  Each sample is built once: a closure that repeats a
    sequence found at an ancestor on the path builds nothing.
    """
    found: list[EpSeq] = []
    depth_cap = 3 * (len(graph) + 1)
    digits: list = []  # the digits read along the current walk
    reads: list[list] = [[]]  # reads[j]: (preperiod, period) of each found sequence that digits[:j] is a prefix of
    first: dict = {start: 0}  # state -> number of digits read when the current walk first entered it
    stack = [(0, d, t) for d, t in reversed(graph[start])]  # (digits kept from the walk, the digit read, state)
    while stack and (exhaustive or len(found) < limit):
        kept, d, state = stack.pop()
        digits[kept:] = (d,)
        # past its preperiod q and first period p, a path reads a found sequence while each digit repeats the one p back
        del reads[kept + 1 :]
        reads.append([(q, p) for q, p in reads[kept] if d == digits[kept - p]])
        while next(reversed(first.values())) > kept:
            first.popitem()
        if state in first:
            # the closure back to f reads digits[:f] then digits[f:] forever, which is a sequence the path reads exactly
            # when f >= q and p divides len(digits) - f; an equal sequence found earlier can only sit at an ancestor
            f = first[state]
            if not any(f >= q and (len(digits) - f) % p == 0 for q, p in reads[-1]):
                found.append(seq := EpSeq.make(digits[:f], digits[f:]))
                reads[-1].append((seq.preperiod, seq.period))
            if exhaustive or len(digits) >= depth_cap:
                continue
            # keep exploring so samples mix distinct loops
        else:
            first[state] = len(digits)
        stack.extend((len(digits), d, t) for d, t in reversed(graph[state]))
    return found
