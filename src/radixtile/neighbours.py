"""Integer neighbours of digit tiles and the graphs built on them.

A nonzero vector v is a neighbour of the tile T when T and T + v meet.
The integer neighbours are exactly the nonzero lattice points of the
difference tile, and those are computed by pruning: start from every
lattice point inside a certified radius bound, keep drawing the successor
relation z -> A z - e over digit differences e, and repeatedly delete
points with no successor until the survivors stabilize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import graph, linalg
from .errors import PreconditionViolated
from .linalg import IntMatrix, IntVec
from .numsys import RadixSystem
from .radix import PairAutomaton, _vec_label, pair_automaton


@dataclass(frozen=True)
class NeighbourSet:
    """Nonzero integer neighbours, closed under negation."""

    vectors: frozenset[IntVec]
    ball_radius: float

    def sorted(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.vectors))

    def reals(self) -> tuple[int, ...]:
        """First coordinates of the neighbours lying on the first axis."""
        out = [v[0] for v in self.vectors if all(x == 0 for x in v[1:])]
        return tuple(sorted(out))


@lru_cache(maxsize=None)
def tile_integer_points(
    matrix: IntMatrix, digits: tuple[IntVec, ...], cap: int = 10**7
) -> frozenset[IntVec]:
    """All lattice points of the tile generated by (matrix, digits).

    A lattice point z lies in the tile iff the successor relation
    z -> A z - d admits an infinite walk from z inside the radius bound,
    so iterated deletion of walk-dead points computes the set exactly.
    """
    radius_sq = max(map(linalg.norm_sq, digits)) * linalg.tail_bound(matrix, 0) ** 2
    candidates = set(linalg.lattice_ball(len(matrix), radius_sq, cap))

    succ: dict[IntVec, list[IntVec]] = {}
    for z in candidates:
        base = linalg.mat_vec(matrix, z)
        succ[z] = [w for d in digits if (w := linalg.vec_sub(base, d)) in candidates]
    return frozenset(graph.live(succ))


@lru_cache(maxsize=None)
def integer_neighbours(
    matrix: IntMatrix, digits: tuple[IntVec, ...], cap: int = 10**7
) -> NeighbourSet:
    """Nonzero integer points of the difference tile of (matrix, digits)."""
    digits = tuple(sorted({linalg.as_vec(d) for d in digits}))
    diffs = tuple(sorted({linalg.vec_sub(a, b) for a in digits for b in digits}))
    max_norm = max(math.sqrt(linalg.norm_sq(e)) for e in diffs)
    points = tile_integer_points(matrix, diffs, cap)
    zero = linalg.zero_vec(len(matrix))
    return NeighbourSet(
        vectors=frozenset(p for p in points if p != zero),
        ball_radius=max_norm * float(linalg.tail_bound(matrix, 0)),
    )


def neighbour_graph(matrix: IntMatrix, digits) -> PairAutomaton:
    """Digit-pair labelled graph on neighbours plus zero, anchored at zero."""
    sys = RadixSystem(matrix, tuple(linalg.as_vec(d) for d in digits))
    return pair_automaton(sys)


# ---------------------------------------------------------------------------
# closed-form oracles for the -n+i family


def expected_gauss_neighbours(n: int) -> NeighbourSet:
    """Known neighbour set of the tile of -n+i with digits 0..n^2.

    Gaussian integers a+bi appear as vectors (a, b).
    """
    if n < 2:
        raise PreconditionViolated("closed form needs n >= 2")
    if n >= 3:
        half = [(1, 0), (n - 1, 1), (n, 1)]
    else:
        half = [(1, 0), (1, 1), (2, 1), (0, 1), (2, 2)]
    vecs = set()
    for v in half:
        vecs.add(v)
        vecs.add(linalg.vec_neg(v))
    return NeighbourSet(vectors=frozenset(vecs), ball_radius=float("nan"))


def expected_real_neighbours(n: int, symmetric_digits: bool) -> tuple[int, ...]:
    """Real neighbours of the -n+i tile for either digit family.

    symmetric_digits False means digits 0..n^2; True means the difference
    family 0, +-1, ..., +-n^2.
    """
    if n < 1:
        raise PreconditionViolated("need n >= 1")
    if not symmetric_digits:
        return (-1, 1)
    if n == 1 or n >= 5:
        return (-2, -1, 1, 2)
    return (-3, -2, -1, 1, 2, 3)


def gauss_bound_filter(n: int, s) -> bool:
    """Strict bound every neighbour of the 0..n^2 tile of -n+i satisfies.

    |Re(s) - n Im(s)| < 2 for n >= 3, sharpened to 3/2 for n >= 5.
    The comparison is exact integer arithmetic.
    """
    if n < 3:
        raise PreconditionViolated("bound requires n >= 3")
    s = linalg.as_vec(s)
    re, im = s[0], (s[1] if len(s) > 1 else 0)
    lhs = abs(re - n * im)
    if n >= 5:
        return 2 * lhs < 3
    return lhs < 2


def quad_bound_filter(a_coef: int, b_coef: int, s) -> bool:
    """Neighbour bound for bases that are roots of x^2 + A x + B.

    s is the coefficient pair (p, q) standing for p + q*rho with
    rho = (-A + i sqrt(4B - A^2)) / 2.  Embedding gives
    Re(s) = p - qA/2 and Im(s) = q sqrt(4B - A^2)/2, so the bound
    |Re(s) - (A / sqrt(4B - A^2)) Im(s)| < 5 collapses to the exact
    integer test |p - A q| < 5.
    """
    if not (1 <= a_coef and 2 <= b_coef and a_coef * a_coef < 4 * b_coef):
        raise PreconditionViolated("need 1 <= A, 2 <= B, A^2 < 4B")
    s = linalg.as_vec(s)
    p, q = s[0], (s[1] if len(s) > 1 else 0)
    rho_re = -a_coef / 2.0
    rho_im = math.sqrt(4 * b_coef - a_coef * a_coef) / 2.0
    re = p + q * rho_re
    im = q * rho_im
    return abs(re - (a_coef / math.sqrt(4 * b_coef - a_coef * a_coef)) * im) < 5


# ---------------------------------------------------------------------------
# triple-state graphs


@dataclass(frozen=True)
class TripleStateGraph:
    """States (zeta, xi) with zeta, xi and -(zeta+xi) all neighbours or zero.

    An edge labelled (p, q, r) in digits^3 moves componentwise:
    zeta' = A zeta + (p - q) and xi' = A xi + (q - r).  Only states on
    infinite paths reachable from (0, 0) are kept.
    """

    states: tuple[tuple[IntVec, IntVec], ...]
    edges: tuple[tuple[tuple[IntVec, IntVec], tuple[IntVec, IntVec, IntVec], tuple[IntVec, IntVec]], ...]

    def has_edge(self, src, dst) -> bool:
        return any(s == src and t == dst for s, _, t in self.edges)

    def to_dot(self) -> str:
        lines = ["digraph triple_state {"]
        index = {s: i for i, s in enumerate(self.states)}
        for s in self.states:
            zeta, xi = s
            third = linalg.vec_neg(linalg.vec_add(zeta, xi))
            label = f"{_fmt(zeta)}|{_fmt(xi)}|{_fmt(third)}"
            lines.append(f'  n{index[s]} [label="{label}"];')
        grouped: dict[tuple, list] = {}
        for src, lab, dst in self.edges:
            grouped.setdefault((src, dst), []).append(lab)
        for (src, dst) in sorted(grouped):
            labs = sorted(grouped[(src, dst)])
            text = ",".join(_fmt(x) for x in labs[0]) + ("+" if len(labs) > 1 else "")
            lines.append(f'  n{index[src]} -> n{index[dst]} [label="{text}"];')
        lines.append("}")
        return "\n".join(lines)


def _fmt(v: IntVec) -> str:
    return f"({_vec_label(v)})"


def triple_state_graph(matrix: IntMatrix, digits) -> TripleStateGraph:
    """Graph tracking three representations of one value simultaneously."""
    digits = tuple(sorted(linalg.as_vec(d) for d in digits))
    allowed = set(integer_neighbours(matrix, digits).vectors)
    zero = linalg.zero_vec(len(matrix))
    allowed.add(zero)

    states = [
        (zeta, xi)
        for zeta in sorted(allowed)
        for xi in sorted(allowed)
        if linalg.vec_neg(linalg.vec_add(zeta, xi)) in allowed
    ]
    state_set = set(states)

    # difference pairs e = x - y realisable by digits, with the label choices
    diff_pairs: dict[IntVec, list[tuple[IntVec, IntVec]]] = {}
    for x in digits:
        for y in digits:
            diff_pairs.setdefault(linalg.vec_sub(x, y), []).append((x, y))

    edges = []
    succ: dict[tuple, set] = {s: set() for s in states}
    for (zeta, xi) in states:
        a_zeta = linalg.mat_vec(matrix, zeta)
        a_xi = linalg.mat_vec(matrix, xi)
        for p in digits:
            for q in digits:
                zeta2 = linalg.vec_add(a_zeta, linalg.vec_sub(p, q))
                if zeta2 not in allowed:
                    continue
                for r in digits:
                    xi2 = linalg.vec_add(a_xi, linalg.vec_sub(q, r))
                    if xi2 not in allowed:
                        continue
                    if linalg.vec_neg(linalg.vec_add(zeta2, xi2)) not in allowed:
                        continue
                    dst = (zeta2, xi2)
                    if dst in state_set:
                        edges.append(((zeta, xi), (p, q, r), dst))
                        succ[(zeta, xi)].add(dst)

    keep = graph.reach([(zero, zero)], succ, graph.live(succ))
    kept_edges = tuple(sorted(e for e in edges if e[0] in keep and e[2] in keep))
    return TripleStateGraph(states=tuple(sorted(keep)), edges=kept_edges)
