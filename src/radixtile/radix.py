"""Eventually periodic radix representations and their equivalence.

A representation assigns the exact rational value sum_j A^-j x_j to an
eventually periodic digit sequence.  Equivalence of two representations is
decided two independent ways: exact rational equality of the values, and
the neighbour-sequence walk zeta_{k+1} = A zeta_k + (x_k - y_k), which must
stay inside the integer neighbour set of the digit tile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from . import graph, linalg
from .errors import SingularMatrix
from .linalg import IntMatrix, IntVec, RatVec
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

    # w = u / d by Cramer's rule, and with A^-m = adj(A)^m / det(A)^m the value
    # A^-m (horner(pre) + w) is adj(A)^m (d horner(pre) + u) / (det(A)^m d)
    a_pow = linalg.mat_pow(matrix, len(cycle))
    u, d = linalg.cramer(linalg.mat_sub(a_pow, linalg.identity(len(matrix))), horner(cycle))
    if d == 0:
        raise SingularMatrix("system is singular")
    if (det := linalg.det(matrix)) == 0:
        raise SingularMatrix("matrix is singular")
    linalg.require_expanding(matrix)
    top = linalg.vec_add([d * v for v in horner(pre)], u)
    top = linalg.mat_vec(linalg.mat_pow(linalg.adjugate(matrix), len(pre)), top)
    return tuple(Fraction(x, det ** len(pre) * d) for x in top)


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
    """Walk the integer sequence of (x, y) inside neighbours-plus-zero.

    The walk is run over the aligned preperiod and cycle until a
    (phase, state) pair repeats; it certifies equivalence iff it never
    leaves the neighbour set united with zero.
    """
    if x.system != y.system:
        raise ValueError("representations must share a system")
    from .neighbours import integer_neighbours

    sys = x.system
    allowed = set(integer_neighbours(sys.matrix, sys.digits).vectors)
    allowed.add(linalg.zero_vec(sys.n))

    pre = max(x.seq.preperiod, y.seq.preperiod)
    cyc = math.lcm(x.seq.period, y.seq.period)
    a = sys.matrix
    zeta = linalg.zero_vec(sys.n)
    seen = set()
    j = 0
    while True:
        phase = j if j < pre else pre + (j - pre) % cyc
        key = (phase, zeta)
        if key in seen:
            return True
        seen.add(key)
        diff = linalg.vec_sub(x.seq.entry(j), y.seq.entry(j))
        zeta = linalg.vec_add(linalg.mat_vec(a, zeta), diff)
        if zeta not in allowed:
            return False
        j += 1


def representations_unique(sys: RadixSystem) -> bool:
    """True iff no digit difference is a neighbour of the digit tile."""
    from .neighbours import integer_neighbours

    neighbours = integer_neighbours(sys.matrix, sys.digits).vectors
    diffs = set(sys.differences())
    diffs.discard(linalg.zero_vec(sys.n))
    return not (neighbours & diffs)


# ---------------------------------------------------------------------------
# the pair automaton


@dataclass(frozen=True)
class PairAutomaton:
    """States are neighbours plus zero; edges carry digit pairs (x, y).

    An edge v1 --(x, y)--> v2 means v2 = A v1 + (x - y).  Only states and
    edges that lie on an infinite path reachable from zero are kept.
    """

    states: tuple[IntVec, ...]
    edges: tuple[tuple[IntVec, tuple[IntVec, IntVec], IntVec], ...]

    def to_dot(self) -> str:
        """Deterministic DOT text; parallel edges merge with a '+' mark."""
        lines = ["digraph pair_automaton {"]
        index = {v: i for i, v in enumerate(self.states)}
        for v in self.states:
            lines.append(f'  n{index[v]} [label="{_vec_label(v)}"];')
        grouped: dict[tuple[IntVec, IntVec], list[tuple[IntVec, IntVec]]] = {}
        for src, pair, dst in self.edges:
            grouped.setdefault((src, dst), []).append(pair)
        for (src, dst) in sorted(grouped):
            pairs = sorted(grouped[(src, dst)])
            label = _pair_label(pairs[0]) + ("+" if len(pairs) > 1 else "")
            lines.append(f'  n{index[src]} -> n{index[dst]} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _vec_label(v: IntVec) -> str:
    return ",".join(str(x) for x in v)


def _pair_label(pair) -> str:
    x, y = pair
    return f"{_vec_label(x)}/{_vec_label(y)}"


def pair_automaton(sys: RadixSystem) -> PairAutomaton:
    """Neighbour graph with digit-pair labels, pruned to live states."""
    from .neighbours import _neighbour_steps

    vecs, steps = _neighbour_steps(sys.matrix, sys.digits)
    src, x, y = np.nonzero(steps >= 0)  # in (src, x, y) order, the sorted edge order
    dst = steps[src, x, y]
    zero = linalg.locate(vecs, np.zeros((1, sys.n), dtype=np.int64))
    keep = graph.reach_mask(len(vecs), zero, src, dst, graph.live_mask(len(vecs), src, dst))
    rows, d = [tuple(v) for v in vecs.tolist()], sys.digits
    edges = keep[src] & keep[dst]
    return PairAutomaton(
        states=tuple(rows[s] for s in np.flatnonzero(keep).tolist()),
        edges=tuple(
            (rows[s], (d[a], d[b]), rows[t])
            for s, a, b, t in zip(*(z[edges].tolist() for z in (src, x, y, dst)))
        ),
    )


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

    The product walk tracks (position phase of x, integer state zeta); a
    digit choice d extends a walk via zeta' = A zeta + (x_j - d).  Walks
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
    from .neighbours import integer_neighbours

    if x.system != sys:
        raise ValueError("representation does not belong to the system")
    allowed = set(integer_neighbours(sys.matrix, sys.digits).vectors)
    zero = linalg.zero_vec(sys.n)
    allowed.add(zero)

    m, c = x.seq.preperiod, x.seq.period
    phases = m + c

    def next_phase(ph: int) -> int:
        return ph + 1 if ph + 1 < phases else m

    def digit_at(ph: int) -> IntVec:
        return x.seq.pre[ph] if ph < m else x.seq.cycle[ph - m]

    # build the full product graph
    states = set()
    succ: dict[tuple[int, IntVec], list[tuple[IntVec, tuple[int, IntVec]]]] = {}
    stack = [(0, zero)]
    states.add((0, zero))
    while stack:
        ph, zeta = stack.pop()
        base = linalg.mat_vec(sys.matrix, zeta)
        out = []
        for d in sys.digits:
            nxt = linalg.vec_add(base, linalg.vec_sub(digit_at(ph), d))
            if nxt in allowed:
                s = (next_phase(ph), nxt)
                out.append((d, s))
                if s not in states:
                    states.add(s)
                    stack.append(s)
        succ[(ph, zeta)] = out

    # keep the states on infinite walks from the start
    start = (0, zero)
    targets = {s: [t for _, t in out] for s, out in succ.items()}
    keep = graph.reach([start], targets, graph.live(targets))
    walks = {s: [(d, t) for d, t in succ[s] if t in keep] for s in keep}

    if all(s[1] == zero for s in walks):
        return UNIQUE, (x.seq,)

    # distinct edges carry distinct digits, so walks and sequences match
    trimmed = {s: [t for _, t in out] for s, out in walks.items()}
    comp_of = {s: i for i, comp in enumerate(graph.components(trimmed)) for s in comp}
    inner = {s: sum(comp_of[t] == comp_of[s] for t in ts) for s, ts in trimmed.items()}
    if any(n >= 2 for n in inner.values()):
        cls = UNCOUNTABLE
    elif any(0 < inner[s] < len(ts) for s, ts in trimmed.items()):
        cls = INFINITE_COUNTABLE
    else:
        cls = FINITELY_MANY

    samples = _sample_walks(walks, start, sample_limit, exhaustive=(cls == FINITELY_MANY))
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
    samples include mixed loop orders, up to `limit` of them.
    """
    out: list[EpSeq] = []
    seen_seqs = set()
    depth_cap = 3 * (len(graph) + 1)

    def emit(digits, close_at):
        seq = EpSeq.make(digits[:close_at], digits[close_at:])
        if seq not in seen_seqs:
            seen_seqs.add(seq)
            out.append(seq)

    def walk(state, path_index, digits):
        if len(out) >= limit and not exhaustive:
            return
        if state in path_index:
            emit(digits, path_index[state])
            if exhaustive or len(digits) >= depth_cap:
                return
            # keep exploring so samples mix distinct loops
        else:
            path_index = dict(path_index)
            path_index[state] = len(digits)
        for d, t in sorted(graph[state]):
            walk(t, path_index, digits + [d])
            if len(out) >= limit and not exhaustive:
                break

    walk(start, {}, [])
    return out if exhaustive else out[:limit]
