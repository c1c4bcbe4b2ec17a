"""Integer neighbours of digit tiles and the graphs built on them.

A nonzero vector v is a neighbour of the tile T when T and T + v meet.
The integer neighbours are exactly the nonzero lattice points of the
difference tile, and those are computed by pruning: start from every
lattice point inside a certified radius bound that also lies in the
tile's exact coordinate box (``linalg._tile_candidates``), draw the
successor relation z -> A z - e over digit differences e for all of them
at once, and delete points with no successor until the survivors
stabilize.  A walk that goes on forever inside any bounded set keeps z in
the tile, so pruning any bounded superset of the tile's lattice points
leaves the same set; the box only drops candidates that cannot survive.
The successors left among them are the move table that every neighbour
walk, graph and uniqueness test reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from . import graph, linalg
from .errors import CandidateBallTooLarge, PreconditionViolated, charge
from .linalg import IntMatrix, IntVec, np
from .numsys import RadixSystem
from .radix import LabelledGraph, PairAutomaton, pair_automaton


@dataclass(frozen=True)
class NeighbourSet:
    """Nonzero integer neighbours, closed under negation.

    ball holds the candidate ball's radius as max |e|^2 over the digit differences e and tail_bound(A, 0), or is
    None for a closed form; ball_radius turns it into a float only when read, so huge digits overflow nothing else.
    """

    vectors: frozenset[IntVec]
    ball: tuple[int, Fraction] | None = None

    @property
    def ball_radius(self) -> float:
        if self.ball is None:
            return math.nan
        return math.sqrt(self.ball[0]) * float(self.ball[1])

    def sorted(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.vectors))

    def reals(self) -> tuple[int, ...]:
        """First coordinates of the neighbours lying on the first axis."""
        out = [v[0] for v in self.vectors if all(x == 0 for x in v[1:])]
        return tuple(sorted(out))


@lru_cache(maxsize=None)
def _tile_moves(matrix: IntMatrix, shifts: tuple[IntVec, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The lattice points of the tile of (matrix, shifts) as rows in lexicographic order, and their moves.

    A lattice point z lies in the tile iff the successor relation z -> A z - e admits an infinite walk from z
    inside some bounded set that holds the tile: the walk's points are z = sum_j A^-j e_j.  The candidates are
    the points of the radius bound's ball that lie in the tile's coordinate box (``linalg._tile_candidates``),
    and trimming the ones without a successor computes the set exactly.  The caps count the whole ball, so the
    box changes no answer.  The successors left are the int32 moves: moves[z, j] is the row of A z - shifts[j],
    or -1 where it left the tile.
    """
    n = len(matrix)
    shifts = linalg.int_array(shifts, n)
    ball, inside = linalg._tile_candidates(matrix, shifts)
    charge(CandidateBallTooLarge, "tile moves", len(ball) * len(shifts), 2**24)  # the arrays below fit in 1 GB
    ball = ball[inside]
    image = linalg.mat_rows(matrix, ball, int(np.abs(shifts).max()))
    image = image[:, None, :] - shifts.astype(image.dtype)
    target = linalg.locate(ball, image.reshape(-1, n))
    edges = np.flatnonzero(target >= 0)
    alive = graph.live_mask(len(ball), edges // len(shifts), target[edges])
    rank = np.append(np.where(alive, np.cumsum(alive) - 1, -1), -1).astype(np.int32)  # dead and out (-1) read -1
    rows, moves = ball[alive], rank[target.reshape(len(ball), -1)[alive]]
    rows.flags.writeable = moves.flags.writeable = False  # the cache hands them to every caller
    return rows, moves


def tile_integer_points(matrix: IntMatrix, digits: tuple[IntVec, ...]) -> frozenset[IntVec]:
    """All lattice points of the tile generated by (matrix, digits)."""
    return frozenset(map(tuple, _tile_moves(matrix, digits)[0].tolist()))


@lru_cache(maxsize=None)
def integer_neighbours(matrix: IntMatrix, digits: tuple[IntVec, ...]) -> NeighbourSet:
    """Nonzero integer points of the difference tile of (matrix, digits)."""
    diffs, _ = linalg.differences(len(matrix), tuple(map(linalg.as_vec, digits)))
    points = tile_integer_points(matrix, diffs)
    return NeighbourSet(
        vectors=points - {linalg.zero_vec(len(matrix))},
        ball=(max(map(linalg.norm_sq, diffs)), linalg.tail_bound(matrix, 0)),
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
    return NeighbourSet(vectors=frozenset(vecs))


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
    return abs(p - a_coef * q) < 5


# ---------------------------------------------------------------------------
# triple-state graphs


class TripleStateGraph(LabelledGraph):
    """States (zeta, xi) with zeta, xi and eta = -(zeta + xi) all neighbours or zero.

    An edge labelled (p, q, r) in digits^3 moves zeta' = A zeta + (p - q), xi' = A xi + (q - r) and so
    eta' = A eta + (r - p): it follows three representations of one value.  Only states on infinite paths
    reachable from (0, 0) are kept, found by the same search from zero as the pair automaton's.
    """

    def has_edge(self, src, dst) -> bool:
        return any(s == src and t == dst for s, _, t in self.edges)

    def to_dot(self) -> str:
        n = len(self.digits[0])
        vec, zx = "(%s)" % ",".join(["%d"] * n), linalg.int_array((z + x for z, x in self.states), 2 * n)
        eta = -(zx[:, :n] + zx[:, n:])  # in zeta's and xi's dtype, certified below 2^62
        return self._dot("triple_state", np.column_stack([zx, eta]), "|".join([vec] * 3), vec, ",")


@lru_cache(maxsize=None)
def _neighbour_steps(matrix: IntMatrix, digits: tuple[IntVec, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The neighbours plus zero as rows of vecs in lexicographic order, their moves, the digit pairs' columns, and 0's row.

    moves[v, column[x, y]] is the index in vecs of A vecs[v] + (x - y) = A vecs[v] - (y - x) for digits x and y,
    or -1: the difference tile's move by the shift y - x, one column per distinct shift.  Its trim is the one
    place a neighbour move is computed.  Nothing here spreads the moves over all |D|^2 digit pairs: a walk reads
    one entry per step, and the graph search gathers only the rows it reaches, charging them to a label cap first.
    """
    integer_neighbours(matrix, digits)  # so the trim runs, and a tracer counts its ball, under tile_integer_points
    shifts, column = linalg.differences(len(matrix), digits)  # the distinct shifts are integer_neighbours' trim key
    vecs, moves = _tile_moves(matrix, shifts)
    return vecs, moves, column, len(vecs) // 2  # the rows are closed under negation, so 0 is the middle one


def _equivalents_graph(matrix: IntMatrix, digits: tuple[IntVec, ...], m: int) -> tuple:
    """The graph of m equivalent representations of one value, searched frontier by frontier from the zero state.

    A state is m move-table rows whose vectors sum to zero, coded by its first m - 1 rows in base k.  An edge
    labelled (p_0, ..., p_{m-1}) steps row i by the move read at the digit pair (p_i, p_{i+1 mod m}); it exists iff
    every read is a row.  Of the reached states graph.live_mask keeps those on infinite paths: a state on a path
    from zero to a live state is itself live.  Three running totals are charged across frontiers: reached states
    x |D|^2 before a frontier is gathered, live labels x |D| before each gains a further digit, and kept edges
    x 320 bytes before a frontier's arrays are kept.  A search holds about 5 bytes per gathered label and 21 per
    (live label, digit); a kept edge holds at most about 205 bytes at a job's peak, DOT text included, and the
    320 also covers the 165 MB held before the first edge.  Returns a LabelledGraph's fields: the states (their
    first m - 1 row vectors, one row standing alone) in code order, the digits, and the edges' arrays in (src,
    label) order.
    """
    vecs, moves, column, zero = _neighbour_steps(matrix, digits)
    k, d = np.int64(len(vecs)), len(digits)
    code = lambda rows: reduce(lambda c, row: c * k + row, rows[: m - 1])  # int64 codes sort as states
    front = [np.array([zero])] * m  # the frontier's m rows
    reached, labels, kept, batches = code(front), 0, 0, []  # reached: the sorted codes of the states reached
    while len(front[0]):
        charge(CandidateBallTooLarge, "reached labels", len(reached) * d * d, 2**25)
        src, p = np.divmod(np.arange(len(front[0]) * d), d)  # each (state, p_0)
        label, rows = [p], []
        for i in range(m - 1):  # each label gains p_{i+1}: row i reads (p_i, p_{i+1}), the last row (p_{m-1}, p_0)
            if i:
                charge(CandidateBallTooLarge, "live label digits", (labels := labels + len(src)) * d, 2**25)
            live = (step := moves[front[i][src][:, None], column[label[-1]]]) >= 0
            if i == m - 2:
                live &= (close := moves[front[-1][src][:, None], column.T[label[0]]]) >= 0
                charge(CandidateBallTooLarge, "kept edge bytes", (kept := kept + int(live.sum())) * 320, 2**30)
            at, p = np.nonzero(live)
            src, label, rows = src[at], [q[at] for q in label] + [p], [row[at] for row in rows] + [step[at, p]]
        rows.append(close[at, p])
        batches.append((code(front)[src], *label, dst := code(rows)))
        new, at = np.unique(dst, return_index=True)  # the first edge to each state
        at = at[np.take(reached, np.searchsorted(reached, new), mode="clip") != new]  # to a state not reached before
        reached, front = np.sort(np.concatenate([reached, dst[at]])), [row[at] for row in rows]
    src, *label, dst = map(np.concatenate, zip(*batches))
    del batches, step, close, live, rows  # hold no second copy of the edges, nor the last frontier's labels
    src, dst = np.searchsorted(reached, src), np.searchsorted(reached, dst)
    keep = graph.live_mask(len(reached), src, dst)
    cells = [map(tuple, vecs[reached[keep] // k**i % k].tolist()) for i in range(m - 2, -1, -1)]  # each state's rows
    states = tuple(zip(*cells)) if m > 2 else tuple(*cells)
    edges = np.flatnonzero(keep[dst])  # an edge into a live state leaves a live one
    edges = edges[np.argsort(src[edges], kind="stable")]  # each state's edges come from one frontier, in order
    rank = np.cumsum(keep) - 1  # a kept state's place among the kept states
    return states, digits, rank[src[edges]], rank[dst[edges]], np.stack([p[edges] for p in label], axis=1)


def triple_state_graph(matrix: IntMatrix, digits) -> TripleStateGraph:
    """Graph tracking three representations of one value simultaneously: the search's m = 3 case."""
    return TripleStateGraph(*_equivalents_graph(matrix, tuple(sorted(linalg.as_vec(d) for d in digits)), 3))
