"""The integer-array decision layer against per-point reference loops.

The references below are the tuple-at-a-time loops the array passes
replaced: a lattice ball from itertools.product, the tile trim over a dict
of successors, one remainder walk per ball point (each digit found by search
over the digits with an exact divisibility test), and the triple-state and
pair graphs built label by label; both graphs are also checked against
the arrays their search replaced, the k^2 pairs of the triple-state graph
and the whole move table of the pair automaton.  Random 1-, 2- and
3-dimensional systems must give the same verdicts, witness cycles, tile
points and graphs, and entries on both sides of the 2**62 int64 bound must
give the same answers.
"""

import argparse
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, graph, linalg, neighbours, numsys
from radixtile.errors import NotACrs
from radixtile.neighbours import _neighbour_steps, _tile_moves, tile_integer_points

from conftest import gauss_system, live, reach, reach_mask, ref_pair_dot, ref_triple_dot

# ---------------------------------------------------------------------------
# per-point references


def ref_ball(n, radius_sq):
    limit = math.floor(radius_sq)
    r = math.isqrt(limit)
    return [p for p in itertools.product(range(-r, r + 1), repeat=n) if linalg.norm_sq(p) <= limit]


def ref_radius_sq(matrix, digits):
    return max(map(linalg.norm_sq, digits)) * linalg.tail_bound(matrix, 0) ** 2


def ref_tile_points(matrix, digits):
    candidates = set(ref_ball(len(matrix), ref_radius_sq(matrix, digits)))
    succ = {}
    for z in candidates:
        base = linalg.mat_vec(matrix, z)
        succ[z] = [w for d in digits if (w := linalg.vec_sub(base, d)) in candidates]
    return frozenset(live(succ))


def ref_step(sys, adj, det, v):
    """The remainder walk's next state A^-1 (v - d), in Python ints.

    The digit d is found by search: the one digit with adj(A) (v - d) divisible
    by det A, so that A^-1 (v - d) = adj(A) (v - d) / det A is exact.
    """
    images = (linalg.mat_vec(adj, linalg.vec_sub(v, d)) for d in sys.digits)
    return tuple(x // det for x in next(w for w in images if all(x % det == 0 for x in w)))


def ref_remainder_walk(sys, v):
    """The states of the remainder walk from v, as (transient, cycle)."""
    adj, det = linalg.adjugate(sys.matrix), linalg.det(sys.matrix)
    seen, v = {}, tuple(v)
    while v not in seen:
        seen[v] = len(seen)
        v = ref_step(sys, adj, det, v)
    states = tuple(seen)
    return states[: seen[v]], states[seen[v] :]


def ref_is_number_system(sys):
    """The nonzero cycles the walks from the ball points end in, each walk stepped until it meets a state seen before."""
    adj, det = linalg.adjugate(sys.matrix), linalg.det(sys.matrix)
    cycle_of = {}  # each state walked so far -> the cycle its walk ends in, rotated to its least state
    for v in ref_ball(sys.n, ref_radius_sq(sys.matrix, sys.digits)):
        path = {}
        while v not in cycle_of and v not in path:
            path[v] = len(path)
            v = ref_step(sys, adj, det, v)
        if v in path:  # a cycle no earlier walk met
            cycle = tuple(path)[path[v] :]
            cycle_of[v] = min(cycle[i:] + cycle[:i] for i in range(len(cycle)))
        cycle_of.update(dict.fromkeys(path, cycle_of[v]))
    cycles = set(cycle_of.values()) - {(linalg.zero_vec(sys.n),)}
    return (not cycles, tuple(sorted(cycles)))


def ref_allowed(matrix, digits):
    return set(rt.integer_neighbours(matrix, digits).vectors) | {linalg.zero_vec(len(matrix))}


def ref_unique(sys):
    """The set definition: no nonzero digit difference is a neighbour."""
    nonzero = set(sys.differences()) - {linalg.zero_vec(sys.n)}
    return not rt.integer_neighbours(sys.matrix, sys.digits).vectors & nonzero


def ref_pair_automaton(sys):
    allowed = ref_allowed(sys.matrix, sys.digits)
    zero = linalg.zero_vec(sys.n)
    edges, succ = [], {v: set() for v in allowed}
    for v in allowed:
        base = linalg.mat_vec(sys.matrix, v)
        for x in sys.digits:
            for y in sys.digits:
                dst = linalg.vec_add(base, linalg.vec_sub(x, y))
                if dst in allowed:
                    edges.append((v, (x, y), dst))
                    succ[v].add(dst)
    keep = reach([zero], succ, live(succ))
    return tuple(sorted(keep)), tuple(sorted(e for e in edges if e[0] in keep and e[2] in keep))


def ref_triple_state_graph(matrix, digits):
    digits = tuple(sorted(digits))
    allowed = ref_allowed(matrix, digits)
    zero = linalg.zero_vec(len(matrix))
    states = [
        (z, x) for z in sorted(allowed) for x in sorted(allowed) if linalg.vec_neg(linalg.vec_add(z, x)) in allowed
    ]
    edges, succ = [], {s: set() for s in states}
    for zeta, xi in states:
        a_zeta, a_xi = linalg.mat_vec(matrix, zeta), linalg.mat_vec(matrix, xi)
        for p, q, r in itertools.product(digits, repeat=3):
            dst = (linalg.vec_add(a_zeta, linalg.vec_sub(p, q)), linalg.vec_add(a_xi, linalg.vec_sub(q, r)))
            if dst in succ:
                edges.append(((zeta, xi), (p, q, r), dst))
                succ[(zeta, xi)].add(dst)
    keep = reach([(zero, zero)], succ, live(succ))
    return tuple(sorted(keep)), tuple(sorted(e for e in edges if e[0] in keep and e[2] in keep))


def pairs_triple_state_graph(matrix, digits):
    """The k^2-pair construction the search from (0, 0) replaced, array at a time.

    Every pair (zeta, xi) of the k neighbours and zero with -(zeta + xi) among them is a state; all labels of
    all states are gathered at once, and then the live states reachable from (0, 0) are kept.
    """
    digits = tuple(sorted(linalg.as_vec(d) for d in digits))
    vecs, moves, column, zero = _neighbour_steps(matrix, digits)
    k = len(vecs)
    pairs = np.arange(k * k)
    pairs = pairs[linalg.locate(vecs, -(vecs[pairs // k] + vecs[pairs % k])) >= 0]
    state_of = np.full(k * k, -1)
    state_of[pairs] = np.arange(len(pairs))
    # label (p, q, r) moves zeta as the pair (p, q), then xi as the pair (q, r), in the sorted edge order
    src, p, q = np.nonzero((moves >= 0)[(pairs // k)[:, None, None], column])
    xi = moves[(pairs[src] % k)[:, None], column[q]]
    zeta = moves[pairs[src] // k, column[p, q]].astype(np.int64)
    target = np.where(xi >= 0, state_of[zeta[:, None] * k + xi], -1)
    first, r = np.nonzero(target >= 0)
    src, p, q, dst = src[first], p[first], q[first], target[first, r]
    keep = reach_mask(len(pairs), [state_of[zero * (k + 1)]], src, dst, graph.live_mask(len(pairs), src, dst))
    rows = [tuple(v) for v in vecs.tolist()]
    state = {s: (rows[pairs[s] // k], rows[pairs[s] % k]) for s in np.flatnonzero(keep).tolist()}
    edges = keep[src] & keep[dst]
    return tuple(state.values()), tuple(
        (state[s], (digits[a], digits[b], digits[c]), state[t])
        for s, a, b, c, t in zip(*(x[edges].tolist() for x in (src, p, q, r, dst)))
    )


def table_pair_automaton(sys):
    """The whole-table construction the search from zero replaced, array at a time.

    Every label of every row of the move table is gathered at once, and then the live rows reachable from zero are
    kept; the edges come out in (src, x, y) order.
    """
    vecs, moves, column, zero = _neighbour_steps(sys.matrix, sys.digits)
    src, x, y = np.nonzero((moves >= 0)[:, column])
    dst = moves[src, column[x, y]]
    keep = reach_mask(len(vecs), [zero], src, dst, graph.live_mask(len(vecs), src, dst))
    rows, d = [tuple(v) for v in vecs.tolist()], sys.digits
    edges = keep[src] & keep[dst]
    return tuple(rows[s] for s in np.flatnonzero(keep).tolist()), tuple(
        (rows[s], (d[a], d[b]), rows[t]) for s, a, b, t in zip(*(z[edges].tolist() for z in (src, x, y, dst)))
    )


# ---------------------------------------------------------------------------
# random systems


def _ball_estimate(matrix, digits):
    r = math.isqrt(math.floor(ref_radius_sq(matrix, digits)))
    return (2 * r + 1) ** len(matrix)


# expanding cubics x^3 + c2 x^2 + c1 x + c0, as (c0, c1, c2), whose candidate balls stay small
CUBICS = [
    (2, 0, 0), (-2, 0, 0), (3, 0, 0), (-3, 0, 0), (-2, 1, -1),
    (2, 1, 1), (-2, -1, 1), (2, -1, -1), (-3, -1, 0), (3, -1, 0),
]


@st.composite
def expanding_matrices(draw, n):
    if n == 2 and draw(st.booleans()):
        matrix = tuple(tuple(draw(st.integers(-4, 4)) for _ in range(2)) for _ in range(2))
    else:  # companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0
        if n == 3:
            c = draw(st.sampled_from(CUBICS))
        else:
            c0 = draw(st.sampled_from([-6, -5, -4, -3, -2, 2, 3, 4, 5, 6]))
            c = (c0, *[draw(st.integers(-2, 2)) for _ in range(n - 1)])
        matrix = tuple(tuple((1 if i == j + 1 else 0) if j < n - 1 else -c[i] for j in range(n)) for i in range(n))
    assume(2 <= abs(linalg.det(matrix)) <= 7 and linalg.is_expanding(matrix))
    return matrix


@st.composite
def digit_systems(draw, n):
    """Digits 0, e1, 2 e1, ... when they are a complete residue system, or residues shifted by lattice vectors."""
    matrix = draw(expanding_matrices(n))
    digits = tuple((d,) + (0,) * (n - 1) for d in range(abs(linalg.det(matrix))))
    if not (linalg.is_complete_residue_system(matrix, digits) and draw(st.booleans())):
        shift = st.tuples(*[st.sampled_from([0, 0, 1, -1])] * n)
        residues = linalg.residue_system(matrix)
        digits = tuple(linalg.vec_add(r, linalg.mat_vec(matrix, draw(shift))) if any(r) else r for r in residues)
    limit = 7000 if n == 3 else 3000
    assume(len(set(digits)) == len(digits) and _ball_estimate(matrix, digits) <= limit)
    return rt.RadixSystem(matrix, digits)


dims = st.sampled_from([1, 2, 3])

# systems with more pairs and labels than the per-label reference can afford: A = aI on Z^2 with the digits
# step * (i, j), i, j < a; A = 2 with the digits 0..count-1; A = 2I on Z^3 with the digits 0 and step * e_i
scaled_systems = st.one_of(
    st.builds(lambda step: (((2, 0), (0, 2)), tuple((step * i, step * j) for i in range(2) for j in range(2))),
              st.integers(1, 12)),
    st.builds(lambda step: (((3, 0), (0, 3)), tuple((step * i, step * j) for i in range(3) for j in range(3))),
              st.integers(1, 8)),
    st.builds(lambda count: (((2,),), tuple((d,) for d in range(count))), st.integers(1, 12)),
    st.builds(lambda step: (((2, 0, 0), (0, 2, 0), (0, 0, 2)), ((0, 0, 0), (step, 0, 0), (0, step, 0), (0, 0, step))),
              st.integers(1, 4)),
)


class TestAgainstReferences:
    @settings(max_examples=40, deadline=None)
    @given(dims.flatmap(digit_systems))
    def test_number_system_verdicts_and_cycles(self, sys):
        assert rt.is_number_system(sys) == ref_is_number_system(sys)

    @settings(max_examples=40, deadline=None)
    @given(dims.flatmap(digit_systems))
    def test_tile_points(self, sys):
        diffs = sys.differences()
        assert tile_integer_points(sys.matrix, sys.digits) == ref_tile_points(sys.matrix, sys.digits)
        assert tile_integer_points(sys.matrix, diffs) == ref_tile_points(sys.matrix, diffs)
        # the full digit sets are never unique here, every other digit often is
        systems = (sys, sys.difference_system(), rt.RadixSystem(sys.matrix, sys.digits[::2]))
        assert [rt.representations_unique(s) for s in systems] == [ref_unique(s) for s in systems]

    @settings(max_examples=30, deadline=None)
    @given(dims.flatmap(digit_systems))
    def test_triple_state_and_pair_graphs(self, sys):
        # the reference visits every state and label: keep it to seconds
        assume(len(ref_allowed(sys.matrix, sys.digits)) ** 2 * len(sys.digits) ** 3 <= 200_000)
        triple, ref = rt.triple_state_graph(sys.matrix, sys.digits), ref_triple_state_graph(sys.matrix, sys.digits)
        assert (triple.states, triple.edges) == ref
        dot = triple.to_dot()
        assert dot == ref_triple_dot(*ref) and '+"];' in dot  # zero's loops (x, x, x) are parallel edges
        report = cli.cmd_triple_graph(argparse.Namespace(dot=False, format="json"), sys, None)
        assert len(triple.edges) == report["edge_count"]
        pair, ref = rt.pair_automaton(sys), ref_pair_automaton(sys)
        assert (pair.states, pair.edges) == ref
        assert pair.to_dot() == ref_pair_dot(*ref)

    @settings(max_examples=30, deadline=None)
    @given(scaled_systems)
    def test_triple_state_graph_against_all_pairs(self, system):
        triple, pairs = rt.triple_state_graph(*system), pairs_triple_state_graph(*system)
        assert (triple.states, triple.edges) == pairs
        assert triple.to_dot() == ref_triple_dot(*pairs)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(scaled_systems.map(lambda system: rt.RadixSystem(*system)), dims.flatmap(digit_systems)))
    def test_pair_automaton_against_the_whole_table(self, sys):
        pair, table = rt.pair_automaton(sys), table_pair_automaton(sys)
        assert (pair.states, pair.edges) == table
        assert pair.to_dot() == ref_pair_dot(*table)

    @pytest.mark.parametrize("states", [0, 1])
    def test_dot_of_graphs_with_no_edges(self, states):
        none, digits = np.zeros(0, dtype=np.int64), ((0, 0), (1, 0))
        pair = rt.PairAutomaton(((0, 0),) * states, digits, none, none, np.zeros((0, 2), dtype=np.int64))
        triple = rt.TripleStateGraph((((0, 0), (0, 0)),) * states, digits, none, none, np.zeros((0, 3), dtype=np.int64))
        assert pair.to_dot() == ref_pair_dot(pair.states, ())
        assert triple.to_dot() == ref_triple_dot(triple.states, ())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 40))
    def test_lattice_ball_order(self, n, radius_sq):
        ball = linalg.lattice_ball(n, radius_sq)
        assert list(map(tuple, ball.tolist())) == ref_ball(n, radius_sq)


@settings(max_examples=20, deadline=None)
@given(dims.flatmap(digit_systems))
def test_the_triple_search_reaches_only_states_of_three_rows(sys):
    # the search from (0, 0) charges each state it reaches: those with zeta, xi and -(zeta + xi) all neighbours
    # or zero, as in the per-label walk below.  Without its eta read it also reaches states with eta outside,
    # which no graph shows, since an infinite path keeps eta in the tile; only the count does
    allowed, digits, zero = ref_allowed(sys.matrix, sys.digits), sorted(sys.digits), linalg.zero_vec(sys.n)
    assume(len(allowed) ** 2 * len(digits) ** 3 <= 200_000)
    seen, stack = {(zero, zero)}, [(zero, zero)]
    while stack:
        zeta, xi = (linalg.mat_vec(sys.matrix, v) for v in stack.pop())
        for p, q, r in itertools.product(digits, repeat=3):
            dst = (linalg.vec_add(zeta, linalg.vec_sub(p, q)), linalg.vec_add(xi, linalg.vec_sub(q, r)))
            if {*dst, linalg.vec_neg(linalg.vec_add(*dst))} <= allowed and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    charged = []
    with mock.patch.object(neighbours, "charge", lambda kind, counter, value, cap: charged.append((counter, value))):
        rt.triple_state_graph(sys.matrix, sys.digits)
    assert max(value for counter, value in charged if counter == "reached labels") == len(seen) * len(digits) ** 2


def test_each_state_is_stepped_once(monkeypatch):
    # x^2 + 3x + 3 with digits {0, 1, 2}: of the 613 candidate ball points, the
    # walks start from the 15 in the box of -T(A, D), and each state they reach is stepped once
    stepped = []
    step = numsys._walk_step

    def counted(lookup, frontier):
        stepped.append(frontier)
        return step(lookup, frontier)

    monkeypatch.setattr(numsys, "_walk_step", counted)
    sys = rt.companion_system([3, 3], [0, 1, 2])
    assert rt.is_number_system(sys) == (True, ())
    states = np.concatenate(stepped)
    assert len(stepped[0]) == 15 and len(np.unique(states, axis=0)) == len(states)


# ---------------------------------------------------------------------------
# the int64 / object boundary

BIG = st.integers(2**61, 2**64)


def assert_classes_match_sympy(matrix, vectors):
    """class_index lies in [0, |det a|), and two vectors share it iff sympy finds a^-1 (v - w) integral."""
    index = linalg.class_index(matrix, linalg.int_array(vectors, len(matrix))).tolist()
    assert all(0 <= i < abs(linalg.det(matrix)) for i in index)
    inv = sympy.Matrix(matrix).inv()
    for (v, i), (w, j) in itertools.combinations(zip(vectors, index), 2):
        assert (i == j) == all(x.is_integer for x in inv * sympy.Matrix(linalg.vec_sub(v, w)))


@st.composite
def classes_across_the_bound(draw):
    """A nonsingular 1-3-D matrix and vectors v + a t, with v small and t's entries on both sides of 2**62.

    The vectors draw from at most three v, so that congruent pairs occur at every determinant.
    """
    n, scale = draw(st.integers(1, 3)), draw(st.sampled_from([1, 1, 2, 3]))
    # a scale c makes c divide every s_i, so that Z^n / a Z^n is not cyclic
    entries = st.integers(-6, 6).map(scale.__mul__)
    matrix = draw(st.lists(st.tuples(*[entries] * n), min_size=n, max_size=n).map(linalg.as_matrix))
    assume(linalg.det(matrix) != 0)
    small = st.tuples(*[st.integers(-4, 4)] * n)
    starts = draw(st.lists(small, min_size=1, max_size=3))
    entry = st.one_of(st.integers(-3, 3), BIG, BIG.map(lambda x: -x))
    pairs = draw(st.lists(st.tuples(st.sampled_from(starts), st.tuples(*[entry] * n)), min_size=2, max_size=8))
    return matrix, [linalg.vec_add(v, linalg.mat_vec(matrix, t)) for v, t in pairs]


class TestAcrossTheInt64Bound:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([((10,),), ((-3, -1), (1, -3)), ((0, 0, -2), (1, 0, 0), (0, 1, 0))]), st.data())
    def test_walks_from_far_starts(self, matrix, data):
        # starts on both sides of 2**62 walk down into the int64 range
        sys = rt.RadixSystem(matrix, linalg.residue_system(matrix))
        n = len(matrix)
        entry = st.one_of(st.integers(-50, 50), BIG, BIG.map(lambda x: -x))
        starts = data.draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=4))
        states, succ = numsys._remainder_graph(sys, linalg.int_array(starts, n))
        rows = list(map(tuple, states.tolist()))
        row_of = {row: i for i, row in enumerate(rows)}
        assert len(row_of) == len(rows)
        expected = set()
        for v in starts:
            transient, cycle = ref_remainder_walk(sys, v)
            walk = transient + cycle
            expected |= set(walk)
            for a, b in zip(walk, walk[1:] + cycle[:1]):
                assert rows[succ[row_of[a]]] == b
        assert set(rows) == expected and rows == sorted(rows)

    @settings(max_examples=30, deadline=None)
    @given(BIG, st.sampled_from([1, -1]), st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=1, max_size=3))
    def test_tile_points_with_huge_entries(self, b, sign, parts):
        # digits about b long keep the candidate ball small while A z - d crosses 2**62
        matrix = ((sign * b, 1), (0, sign * b))
        digits = tuple(sorted({(0, 0), *((k * b + e, f) for k, e, f in parts)}))
        assert tile_integer_points(matrix, digits) == ref_tile_points(matrix, digits)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([((10,),), ((-3, -1), (1, -3)), ((2, 0), (0, 2))]), st.data())
    def test_class_index_of_huge_digits(self, matrix, data):
        n, d = len(matrix), abs(linalg.det(matrix))
        shifts = data.draw(st.lists(st.tuples(*[st.one_of(st.integers(-5, 5), BIG)] * n), min_size=d, max_size=d))
        digits = [linalg.vec_add(r, linalg.mat_vec(matrix, t)) for r, t in zip(linalg.residue_system(matrix), shifts)]
        assert_classes_match_sympy(matrix, digits)
        assert linalg.is_complete_residue_system(matrix, digits)
        column = linalg.mat_vec(matrix, (1,) + (0,) * (n - 1))
        assert not linalg.is_complete_residue_system(matrix, digits[:-1] + [linalg.vec_add(digits[0], column)])
        sys = rt.RadixSystem(matrix, tuple(digits))
        probe = tuple(data.draw(BIG) for _ in range(n))
        digit = rt.digit_of(sys, probe)
        quotient = linalg.frac_mat_vec(linalg.mat_inv(matrix), linalg.vec_sub(probe, digit))
        assert digit in sys.digits and linalg.is_integral(quotient)

    @settings(max_examples=150, deadline=None)
    @given(classes_across_the_bound())
    @example((((2, 1), (1, 1)), [(2**62, -3), (0, 0), (-(2**63), 2**62 - 1)]))
    @example((((-1,),), [(2**62,), (2**62 - 1,)]))
    @example((((2, 0), (0, 2)), [(0, 0), (1, 0), (0, 1), (1, 1), (2**62, 3), (3, 2**63 + 2)]))
    def test_class_index_against_sympy(self, case):
        assert_classes_match_sympy(*case)

    def test_huge_matrix_with_small_points(self):
        # the matrix itself must fit the dtype even at depth 1 or when every point is 0
        assert rt.ktile_points(rt.RadixSystem(((2**63,),), ((0,), (1,))), 1).int_points == ((0,), (1,))
        flat = rt.RadixSystem(((2**40, 1), (0, 2**40)), ((0, 0),))
        assert rt.rasterize([rt.ktile_points(flat, 2)], 4, 4).width == 4

    def test_dtype_follows_the_bound(self):
        assert linalg.int_array([(2**62 - 1, 0)], 2).dtype == np.int64
        assert linalg.int_array([(0, -(2**62))], 2).dtype == object
        ball = linalg.lattice_ball(2, 8)
        assert ball.dtype == np.int64 and len(ball) == 25


# ---------------------------------------------------------------------------
# the attractor box


def ref_tile_moves(matrix, shifts):
    """The trim of the whole candidate ball, with no box: the rows and moves of the tile, array at a time."""
    n = len(matrix)
    shifts = linalg.int_array(shifts, n)
    ball = linalg.lattice_ball(n, ref_radius_sq(matrix, shifts.tolist()))
    image = linalg.mat_rows(matrix, ball, int(np.abs(shifts).max()))
    target = linalg.locate(ball, (image[:, None, :] - shifts.astype(image.dtype)).reshape(-1, n))
    edges = np.flatnonzero(target >= 0)
    alive = graph.live_mask(len(ball), edges // len(shifts), target[edges])
    rank = np.append(np.where(alive, np.cumsum(alive) - 1, -1), -1)
    return ball[alive], rank[target.reshape(len(ball), -1)[alive]]


def exact_point(matrix, pre, cycle):
    """sum_{j>=1} A^-j s_j for the digits pre, then cycle repeated, as sympy rationals."""
    inv = sympy.Matrix(matrix).inv()
    # the periodic part y solves y = A^-1 (c_1 + A^-1 (c_2 + ... A^-1 (c_p + y)))
    head = sympy.zeros(len(matrix), 1)
    for c in reversed(cycle):
        head = inv * (sympy.Matrix(c) + head)
    point = (sympy.eye(len(matrix)) - inv ** len(cycle)).LUsolve(head)
    for s in reversed(pre):
        point = inv * (sympy.Matrix(s) + point)
    return list(point)


@st.composite
def attractors(draw):
    """An expanding 1-3-D matrix with det of either sign, small or with large entries, and 1-5 vectors.

    Entries of 2**20..2**45 with vectors near 2**62 need a few terms, whose powers cross 2**62.
    """
    n = draw(dims)
    if draw(st.booleans()):
        matrix = draw(expanding_matrices(n))
        entry = st.integers(-6, 6)
    else:  # b I plus ones above the diagonal: det (+-b)^n
        b = draw(st.one_of(BIG, st.integers(2**20, 2**45))) * draw(st.sampled_from([1, -1]))
        matrix = tuple(tuple(b if i == j else int(j == i + 1) for j in range(n)) for i in range(n))
        entry = st.one_of(st.integers(-6, 6), BIG, BIG.map(lambda x: -x))
    vectors = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=5, unique=True))
    return matrix, vectors


def ref_tile_box(matrix, vectors):
    """The box of T(matrix, vectors) in Fractions: the sums of the least and largest (A^-j s)_i over the first J
    terms, padded by tail_bound(A, J) * m, with m = isqrt(max |s|^2) + 1 and J the least count >= 1 whose pad is
    below 1/2.  Returns its integer ends lo, hi."""
    m = math.isqrt(max(map(linalg.norm_sq, vectors))) + 1
    terms = next(j for j in itertools.count(1) if linalg.tail_bound(matrix, j) * m < Fraction(1, 2))
    low, high = [Fraction(0)] * len(matrix), [Fraction(0)] * len(matrix)
    for j in range(1, terms + 1):
        images = [linalg.frac_mat_vec(linalg.mat_inv_pow(matrix, j), s) for s in vectors]
        low = [x + min(column) for x, column in zip(low, zip(*images))]
        high = [x + max(column) for x, column in zip(high, zip(*images))]
    pad = linalg.tail_bound(matrix, terms) * m
    return [math.ceil(x - pad) for x in low], [math.floor(x + pad) for x in high]


def box_ends(matrix, vectors):
    """The integer ends lo, hi of the box that the candidate mask of T(matrix, vectors) tests, read off its one
    within call; the ball is stubbed empty, so that its size does not matter."""
    n = len(matrix)
    with (
        mock.patch.object(linalg, "lattice_ball", lambda n, radius_sq: np.zeros((0, n), dtype=np.int64)),
        mock.patch.object(linalg, "within", wraps=linalg.within) as within,
    ):
        linalg._tile_candidates(matrix, linalg.int_array(vectors, n))
    _, lo, hi = within.call_args.args
    return lo, hi


class TestTileBox:
    @settings(max_examples=60, deadline=None)
    @given(attractors(), st.data())
    def test_points_of_the_attractor_lie_in_the_box(self, case, data):
        matrix, vectors = case
        # the box's own term count: the least J whose tail, times a bound on max |s|, is below 1/2
        m = math.isqrt(max(map(linalg.norm_sq, vectors))) + 1
        terms = next(j for j in itertools.count() if linalg.tail_bound(matrix, j) * m < sympy.Rational(1, 2))
        digit = st.sampled_from(vectors)
        pre = data.draw(st.lists(digit, min_size=terms + 10, max_size=terms + 10))
        cycle = data.draw(st.lists(digit, min_size=1, max_size=3))
        # a point of T within 1 of the box's integer ends: every lattice point of T lies inside it
        lo, hi = box_ends(matrix, vectors)
        for x, low, high in zip(exact_point(matrix, pre, cycle), lo, hi):
            assert low - 1 < x < high + 1
        if _ball_estimate(matrix, vectors) <= 3000:
            points = ref_tile_points(matrix, tuple(vectors))
            ball, inside = linalg._tile_candidates(matrix, linalg.int_array(vectors, len(matrix)))
            assert points <= set(map(tuple, ball[inside].tolist()))

    @settings(max_examples=60, deadline=None)
    @given(attractors())
    @example((((10**400,),), [(0,), (1,)]))
    @example((((-(10**400), 1), (0, -(10**400))), [(0, 0), (1, 0), (3, 10**400)]))
    @example((((2**45, 1), (0, 2**45)), [(2**64, -(2**63)), (0, 1), (-(2**62), 2**64)]))
    def test_candidates_match_an_exact_reference(self, case):
        matrix, vectors = case
        lo, hi = ref_tile_box(matrix, vectors)
        assert box_ends(matrix, vectors) == (lo, hi)
        if _ball_estimate(matrix, vectors) <= 3000:
            ball, inside = linalg._tile_candidates(matrix, linalg.int_array(vectors, len(matrix)))
            assert list(map(tuple, ball.tolist())) == ref_ball(len(matrix), ref_radius_sq(matrix, vectors))
            assert inside.tolist() == [all(low <= x <= high for x, low, high in zip(z, lo, hi)) for z in ball.tolist()]

    @settings(max_examples=40, deadline=None)
    @given(dims.flatmap(digit_systems))
    def test_tile_moves_match_the_whole_ball(self, sys):
        for shifts in (sys.digits, sys.differences(), sys.difference_system().differences()):
            rows, moves = _tile_moves.__wrapped__(sys.matrix, shifts)
            ref_rows, ref_moves = ref_tile_moves(sys.matrix, shifts)
            assert np.array_equal(rows, ref_rows) and np.array_equal(moves, ref_moves)

    @settings(max_examples=40, deadline=None)
    @given(dims.flatmap(digit_systems))
    def test_number_systems_match_walks_from_the_whole_ball(self, sys):
        verdict = rt.is_number_system(sys)
        candidates = linalg._tile_candidates

        def whole(a, vectors):  # a box as wide as the ball: the walks start from every ball point
            ball, _ = candidates(a, vectors)
            return ball, np.ones(len(ball), dtype=bool)

        with mock.patch.object(linalg, "_tile_candidates", whole):
            assert verdict == rt.is_number_system(sys)

    @settings(max_examples=60, deadline=None)
    @given(dims.flatmap(digit_systems))
    def test_number_system_cycles_are_the_lattice_points_of_minus_the_tile(self, sys):
        # D is a complete residue system with 0: a lattice point of -T(A, D) has at most one predecessor under
        # z -> A z + d and a successor inside the tile, so these points are a union of cycles, the remainder
        # cycles; the trim of -T(A, D) and the walks from its candidates reach them by different algorithms
        verdict, witnesses = rt.is_number_system(sys)
        points = tile_integer_points(sys.matrix, tuple(map(linalg.vec_neg, sys.digits)))
        zero = linalg.zero_vec(sys.n)
        assert {v for cycle in witnesses for v in cycle} | {zero} == points
        assert verdict == (points == {zero})

    def test_entries_beyond_the_double_range(self):
        # ||A^-1|| = 10^-400 is 0.0 as a float: the term count is an exact scan of the tail bounds
        huge = 10**400
        assert box_ends(((huge,),), [(0,), (1,)]) == ([0], [0])
        matrix, digits = ((-huge, 1), (0, -huge)), ((0, 0), (1, 0), (3, huge))
        lo, hi = box_ends(matrix, digits)
        assert lo[1] <= 0 <= hi[1] and hi[0] - lo[0] <= 2 and tile_integer_points(matrix, digits) == {(0, 0)}

    def test_the_box_cuts_the_ball(self):
        # x^2 + 3x + 3 with digits 0, 1, 2: 15 of the 613 ball points of -T(A, D) lie in its box;
        # -3+i with digits 0..9: 21 of the 57 ball points of its difference tile
        quad, gauss = rt.companion_system([3, 3], [0, 1, 2]), gauss_system(3)
        cases = [(quad.matrix, list(map(linalg.vec_neg, quad.digits)), 613, 15), (gauss.matrix, gauss.differences(), 57, 21)]
        for matrix, vectors, ball_points, box_points in cases:
            ball, inside = linalg._tile_candidates(matrix, linalg.int_array(vectors, 2))
            assert (len(ball), int(inside.sum())) == (ball_points, box_points)


def test_congruent_digits_are_named_in_scan_order():
    # in digit order, 13 is the first digit whose class an earlier digit holds
    sys = rt.RadixSystem(((10,),), ((0,), (3,), (20,), (13,), (23,)))
    with pytest.raises(NotACrs, match=r"digits \(3,\) and \(13,\) are congruent"):
        rt.digit_of(sys, (5,))
