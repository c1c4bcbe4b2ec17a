import argparse
import itertools
import json
import sys
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, linalg, neighbours
from radixtile.errors import CandidateBallTooLarge, PreconditionViolated

from conftest import address_space, charged, gauss_matrix, gauss_system, run_cli_process


class TestIntegerNeighbours:
    def test_decimal(self, base10):
        ns = rt.integer_neighbours(base10.matrix, base10.digits)
        assert ns.sorted() == ((-1,), (1,))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_gauss_closed_form(self, n):
        sys = gauss_system(n)
        computed = rt.integer_neighbours(sys.matrix, sys.digits)
        assert computed.vectors == rt.expected_gauss_neighbours(n).vectors

    def test_gauss_n2(self):
        sys = gauss_system(2)
        computed = rt.integer_neighbours(sys.matrix, sys.digits)
        assert computed.vectors == rt.expected_gauss_neighbours(2).vectors
        assert len(computed.vectors) == 10  # 11 with zero

    def test_minus2i_small_digits(self):
        # digits 0..4: neighbours +-{1, 1+i, 2+i, i, 2+2i}
        computed = rt.integer_neighbours(gauss_matrix(2), tuple((d, 0) for d in range(5)))
        assert computed.vectors == rt.expected_gauss_neighbours(2).vectors

    def test_real_neighbours_difference_family(self):
        sys = rt.RadixSystem(
            gauss_matrix(5), tuple((d, 0) for d in range(-25, 26))
        )
        ns = rt.integer_neighbours(sys.matrix, sys.digits)
        assert ns.reals() == (-2, -1, 1, 2)

    def test_negation_symmetry(self):
        for builder in [
            lambda: gauss_system(3),
            lambda: rt.RadixSystem(((10,),), ((0,), (2,), (5,))),
        ]:
            sys = builder()
            ns = rt.integer_neighbours(sys.matrix, sys.digits)
            for v in ns.vectors:
                assert linalg.vec_neg(v) in ns.vectors

    def test_gauss_bound_holds_for_all_neighbours(self):
        for n in (3, 4, 5, 6):
            ns = rt.integer_neighbours(gauss_matrix(n), tuple((d, 0) for d in range(n * n + 1)))
            for v in ns.vectors:
                assert rt.gauss_bound_filter(n, v)

    def test_uniqueness_monotone_in_digits(self):
        # digit subsets whose differences avoid the full-system neighbours
        # give unique representations
        full = gauss_system(3)
        big_ns = rt.integer_neighbours(full.matrix, full.digits).vectors
        sub = rt.RadixSystem(full.matrix, ((0, 0), (2, 0), (4, 0)))
        diffs = set(sub.differences()) - {(0, 0)}
        assert not (diffs & big_ns)
        assert rt.representations_unique(sub)


class TestBoundFilters:
    def test_gauss_examples(self):
        assert rt.gauss_bound_filter(3, (3, 1))  # n+i passes
        assert not rt.gauss_bound_filter(3, (2, 0))  # 2 fails
        assert not rt.gauss_bound_filter(5, (2, 0))  # tight 3/2 bound

    def test_gauss_precondition(self):
        with pytest.raises(PreconditionViolated):
            rt.gauss_bound_filter(2, (1, 0))

    def test_quad_filter(self):
        # s = 4 (pair (4, 0)) fails |p - Aq| < 5? 4 < 5 passes; 5 fails
        assert rt.quad_bound_filter(9, 21, (4, 0))
        assert not rt.quad_bound_filter(9, 21, (5, 0))
        with pytest.raises(PreconditionViolated):
            rt.quad_bound_filter(0, 21, (1, 0))
        with pytest.raises(PreconditionViolated):
            rt.quad_bound_filter(10, 21, (1, 0))

    def test_quad_filter_is_exact_at_the_boundary(self):
        # |p - A q| = 5 exactly; evaluated in floats this came out below 5
        assert not rt.quad_bound_filter(1, 2, (999999999999995, 10**15))
        assert rt.quad_bound_filter(1, 2, (999999999999996, 10**15))

    @given(st.integers(1, 50), st.integers(2, 2000), st.integers(-(10**30), 10**30), st.integers(-(10**28), 10**28))
    def test_quad_filter_is_the_integer_test(self, a, b, p, q):
        assume(a * a < 4 * b)
        assert rt.quad_bound_filter(a, b, (p, q)) == (abs(p - a * q) < 5)
        assert rt.quad_bound_filter(a, b, (a * q + 4, q)) and not rt.quad_bound_filter(a, b, (a * q - 5, q))

    def test_quad_neighbours_satisfy_filter(self):
        sys = rt.companion_system([21, 9], [0, 10, 20])
        ns = rt.integer_neighbours(sys.matrix, sys.digits)
        for v in ns.vectors:
            assert rt.quad_bound_filter(9, 21, v)


class TestNeighbourGraph:
    def test_decimal_matches_known_figure(self, base10):
        graph = rt.neighbour_graph(base10.matrix, base10.digits)
        assert set(graph.states) == {(-1,), (0,), (1,)}
        by_pair = {}
        for src, pair, dst in graph.edges:
            by_pair.setdefault((src, dst), []).append(pair)
        # terminal loops carry exactly the difference +-9 pairs
        assert by_pair[((1,), (1,))] == [((0,), (9,))]
        assert by_pair[((-1,), (-1,))] == [((9,), (0,))]
        assert len(by_pair[((0,), (0,))]) == 10
        assert len(by_pair[((0,), (1,))]) == 9

    def test_unique_digits_collapse_to_zero(self):
        graph = rt.neighbour_graph(gauss_matrix(3), tuple((d, 0) for d in range(5)))
        assert graph.states == ((0, 0),)

    def test_zero_has_diagonal_loop(self, m3i_048):
        graph = rt.neighbour_graph(m3i_048.matrix, m3i_048.digits)
        zero = (0, 0)
        diagonal = [
            (src, pair, dst)
            for src, pair, dst in graph.edges
            if src == zero and dst == zero and pair[0] == pair[1]
        ]
        assert len(diagonal) == len(m3i_048.digits)


class TestTripleStateGraph:
    def test_base10_states(self, base10):
        g = rt.triple_state_graph(base10.matrix, base10.digits)
        expected = {
            ((0,), (0,)),
            ((0,), (1,)), ((0,), (-1,)),
            ((1,), (0,)), ((-1,), (0,)),
            ((1,), (-1,)), ((-1,), (1,)),
        }
        assert set(g.states) == expected

    def test_diagonal_self_loops(self, base10):
        g = rt.triple_state_graph(base10.matrix, base10.digits)
        zero = ((0,), (0,))
        loops = [lab for src, lab, dst in g.edges if src == zero and dst == zero]
        diagonal = [lab for lab in loops if lab[0] == lab[1] == lab[2]]
        assert len(diagonal) == 10

    def test_appendix_path_present(self):
        sys = gauss_system(3)
        g = rt.triple_state_graph(sys.matrix, sys.digits)
        p = rt.representation(sys, [(0, 0)] * 3, [(4, 0), (0, 0), (9, 0)])
        q = rt.representation(sys, [(0, 0), (0, 0), (1, 0)], [(9, 0), (4, 0), (0, 0)])
        r = rt.representation(sys, [(1, 0), (5, 0), (5, 0)], [(0, 0), (9, 0), (4, 0)])
        zetas = rt.integer_sequence(p, q, 9)
        xis = rt.integer_sequence(q, r, 9)
        walk = list(zip(zetas, xis))
        assert all(state in g.states for state in walk)
        assert all(g.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1))
        # the tail settles into a cycle of length three
        assert walk[-1] == walk[-4]

    def test_projection_to_pair_walks(self, base10):
        g = rt.triple_state_graph(base10.matrix, base10.digits)
        pair = rt.pair_automaton(base10)
        pair_edges = {(src, pair_lbl, dst) for src, pair_lbl, dst in pair.edges}
        for (zeta, xi), (p, q, r), (zeta2, xi2) in g.edges:
            assert (zeta, (p, q), zeta2) in pair_edges

    def test_dot_export(self, base10):
        text = rt.triple_state_graph(base10.matrix, base10.digits).to_dot()
        assert text.startswith("digraph")
        assert text == rt.triple_state_graph(base10.matrix, base10.digits).to_dot()

    def test_states_past_the_int32_codes_scale_with_the_digits(self):
        # A = 2 with digits 0, n: the states reached from (0, 0) are n times those of digits 0, 1, while the
        # 2n + 1 rows of the move table give state codes zeta * (2n + 1) + xi well past 2^31
        n, scale = 40000, lambda v: (n * v[0],)
        small, big = (rt.triple_state_graph(((2,),), ((0,), (d,))) for d in (1, n))
        assert big.states == tuple((scale(z), scale(x)) for z, x in small.states)
        assert big.edges == tuple(
            ((scale(s[0]), scale(s[1])), tuple(map(scale, label)), (scale(t[0]), scale(t[1])))
            for s, label, t in small.edges
        )


def test_the_cli_paths_never_build_the_edge_tuples(base10, monkeypatch):
    # the JSON report counts the edge arrays and to_dot sorts them: neither reads the tuple view
    graphs = []
    for name in ("triple_state_graph", "neighbour_graph"):
        build = getattr(neighbours, name)
        monkeypatch.setattr(neighbours, name, lambda *args, build=build: graphs.append(build(*args)) or graphs[-1])
    for command, dot in ((cli.cmd_triple_graph, False), (cli.cmd_triple_graph, True), (cli.cmd_neighbours, True)):
        command(argparse.Namespace(dot=dot, format="json"), base10, None)
    assert [type(g) for g in graphs] == [rt.TripleStateGraph, rt.TripleStateGraph, rt.PairAutomaton]
    assert not any("edges" in vars(g) for g in graphs)


class TestExpectedSets:
    def test_real_oracles(self):
        assert rt.expected_real_neighbours(3, False) == (-1, 1)
        assert rt.expected_real_neighbours(2, True) == (-3, -2, -1, 1, 2, 3)
        assert rt.expected_real_neighbours(5, True) == (-2, -1, 1, 2)
        assert rt.expected_real_neighbours(1, True) == (-2, -1, 1, 2)

    def test_closed_form_negation_closed(self):
        for n in (2, 3, 5):
            vecs = rt.expected_gauss_neighbours(n).vectors
            assert {linalg.vec_neg(v) for v in vecs} == vecs


# 3-D (matrix, digits) whose neighbour moves would ask for gigabytes without their caps
SKEW = [[1, 3, 1], [0, -3, -2], [4, -4, -3]], [[-2, -1, -4], [1, -2, 1], [2, 4, 1], [3, -1, 4], [3, -4, 3], [-3, 4, -3]]
TILT = [[-3, 2, 1], [-4, 4, 0], [-3, 4, 1]], [[-4, 4, 1], [1, 3, 0], [3, -3, -4], [-2, 0, 0], [2, -3, 3], [-3, 1, -3]]


def line(count: int):
    """A = 2 on Z with the digits 0..count-1: their moves spread over all |D|^2 digit pairs would not fit in 1 GiB."""
    return [[2]], [[d] for d in range(count)]


# the caps of the neighbour layer, as (counter, cap)
BALL, MOVES, LABELS = ("ball points", 10**7), ("tile moves", 2**24), ("reached labels", 2**25)
LABEL_DIGITS, EDGE_BYTES = ("live label digits", 2**25), ("kept edge bytes", 2**30)


@pytest.mark.parametrize(
    "argv, system, payload",
    [
        (["neighbours"], SKEW, None),  # 4,501,805 ball points x 31 shifts: 3.12 GiB of moves without the cap
        (["unique"], SKEW, None),
        (["intersect"], TILT, {"alpha": {"cycle": [[-1, -3, -4]]}}),  # 2,582,055 x 271: 15.6 GiB
        (["triple-graph"], line(100), None),  # 29,701 reached triple states x 10,000 digit pairs
        (["triple-graph"], line(40), None),  # 4,262,400 live labels x 40 digits
        (["triple-graph"], line(200), None),  # 8M edges from (0, 0): a charge per frontier ran out of memory
        (["triple-graph"], line(22), None),  # 3,692,194 kept edges, the first line past the edge cap
        (["triple-graph"], line(28), None),  # 12,452,272 kept edges, all but 21,952 from the second frontier
        (["neighbours", "--dot"], line(150), None),  # 3,363,750 kept edges of the pair automaton
        # the cap's message counts about 8 * 10^4500 ball points, past Python's 4,300-digit int-to-str limit
        (["neighbours"], ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 0, 0], [10**1500, 0, 0]]), None),
        # the perfbench job twin_bigdigit: (2 * 2001 + 1)^2 points in the cube of the candidate ball
        (["neighbours"], ([[2, 0], [0, 2]], [[0, 0], [2001, 0], [0, 1], [1, 1]]), None),
    ],
)
def test_neighbour_budgets_under_an_address_space_limit(tmp_path, argv, system, payload):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(zip(("matrix", "digits"), system))))
    extra = [] if payload is None else ["-p", json.dumps(payload)]
    start = time.perf_counter()
    done = run_cli_process([*argv, str(path), *extra], address_space(1))
    assert done.returncode == 3, done.stderr
    assert time.perf_counter() - start < 10
    [line] = done.stdout.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "CandidateBallTooLarge"
    charged(error, *NEIGHBOUR_TRIPS[" ".join(argv), len(system[1])])


# the cap each job above trips, by its command line and its number of digits
NEIGHBOUR_TRIPS = {
    ("neighbours", 6): MOVES, ("unique", 6): MOVES, ("intersect", 6): MOVES,
    ("triple-graph", 100): LABELS, ("triple-graph", 40): LABEL_DIGITS, ("triple-graph", 200): EDGE_BYTES,
    ("triple-graph", 22): EDGE_BYTES, ("triple-graph", 28): EDGE_BYTES, ("neighbours --dot", 150): EDGE_BYTES,
    ("neighbours", 2): BALL, ("neighbours", 4): BALL,
}


@pytest.mark.parametrize(
    "argv, count, states, edges",
    [
        (["triple-graph"], 20, 1141, 2_282_000),  # 2,282,000 kept edges
        (["neighbours", "--dot"], 141, 281, 39_481),  # 2,793,281 kept edges in 39,481 DOT lines
        (["triple-graph"], 21, 1261, 2_919_861),  # 2,919,861 kept edges, the last line below the cap
        (["neighbours", "--dot"], 149, 297, 44_105),  # 3,296,849 kept edges, 58,594 below the cap
    ],
)
def test_edges_just_below_the_cap_answer_under_an_address_space_limit(tmp_path, argv, count, states, edges):
    # the kept edges are charged at 320 bytes each against 2^30, 3,355,443 edges; they hold about 105 (m = 2) and
    # 130 (m = 3) bytes each at these jobs' peaks, which stay below 600 MB of address space
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(zip(("matrix", "digits"), line(count)))))
    done = run_cli_process([*argv, str(path)], address_space(1))
    assert done.returncode == 0, done.stderr
    if argv == ["triple-graph"]:
        report = json.loads(done.stdout)
        assert (len(report["states"]), report["edge_count"]) == (states, edges)
    else:
        assert (done.stdout.count("[label="), done.stdout.count(" -> ")) == (states + edges, edges)


def test_dot_with_about_a_line_per_edge_answers_under_an_address_space_limit(tmp_path):
    # A = 2 with nine digits whose differences are all distinct: 2,345,301 kept edges, below the cap, give 2,319,949
    # DOT lines, and one Python string per line with its pieces ran out of 1 GiB
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"matrix": [[2]], "digits": [[d] for d in (0, 1, 3, 7, 12, 20, 30, 44, 65)]}))
    done = run_cli_process(["triple-graph", "--dot", str(path)], address_space(1))
    assert done.returncode == 0, done.stderr
    counts = done.stdout.count("[label="), done.stdout.count(" -> "), done.stdout.count('+"];')
    assert counts == (12_871 + 2_319_949, 2_319_949, 3_169)


def grid(a: int, step: int):
    """A = aI on Z^2 with the a^2 digits step * (i, j), i, j in 0..a-1."""
    return [[a, 0], [0, a]], [[step * i, step * j] for i in range(a) for j in range(a)]


def cube(step: int):
    """A = 2I on Z^3 with the digits 0 and step * e_i."""
    return [[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 0, 0], [step, 0, 0], [0, step, 0], [0, 0, step]]


@pytest.mark.parametrize("a, step, edges", [(5, 7, 1225), (3, 13, 441), (5, 12, 1225), (3, 14, 441), (20, 1, 19600)])
def test_triple_graph_below_the_label_caps_answers_under_an_address_space_limit(tmp_path, a, step, edges):
    # each search from (0, 0) reaches 49 states.  With the labels of all pairs of neighbours and zero gathered
    # (up to 707,281 pairs), grid(5, 12) asked for 1.02 GiB and grid(3, 14) passed the live-label cap; grid(20, 1)
    # has 400 digits, so a charge of 49 states x |D|^3 labels would refuse it
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(zip(("matrix", "digits"), grid(a, step)))))
    start = time.perf_counter()
    done = run_cli_process(["triple-graph", str(path)], address_space(1))
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 10
    report = json.loads(done.stdout)
    assert (len(report["states"]), report["edge_count"]) == (49, edges)


@pytest.mark.parametrize("step", [9, 45])
def test_triple_graph_in_three_dimensions_answers_under_an_address_space_limit(tmp_path, step):
    # 2,621 and 297,329 neighbours and zero, so 6.9e6 and 8.8e10 pairs of them; the search reaches 37 states
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(zip(("matrix", "digits"), cube(step)))))
    start = time.perf_counter()
    done = run_cli_process(["triple-graph", str(path)], address_space(1))
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 10
    report = json.loads(done.stdout)
    assert (len(report["states"]), report["edge_count"]) == (37, 76)


X = {"pre": [[1]], "cycle": [[0]]}


@pytest.mark.parametrize(
    "count, argv, payload",
    [
        (400, ["unique"], None),  # 799 neighbours and zero x 160,000 digit pairs: 975 MiB spread out
        (400, ["equiv"], {"x": X, "y": {"pre": [[0], [1]], "cycle": [[0]]}}),
        (400, ["neighbours", "--dot"], None),
        (400, ["triple-graph"], None),
        (300, ["neighbours", "--dot"], None),  # 26,955,000 labels
        (300, ["unique"], None),
        (300, ["equiv"], {"x": X, "y": {"pre": [[0], [1]], "cycle": [[0]]}}),
        (300, ["enumerate-equiv"], {"x": X}),
        (5000, ["neighbours"], None),  # 25,000,000 digit differences in one array: past their 2^24 cap
        (5000, ["unique"], None),
    ],
)
def test_many_digit_move_tables_under_an_address_space_limit(tmp_path, count, argv, payload):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(dict(zip(("matrix", "digits"), line(count)))))
    extra = [] if payload is None else ["-p", json.dumps(payload)]
    start = time.perf_counter()
    done = run_cli_process([*argv, str(path), *extra], address_space(1))
    budget = MANY_DIGIT_TRIPS.get((count, " ".join(argv)))
    assert done.returncode == (0 if budget is None else 3), done.stderr
    assert time.perf_counter() - start < 10
    if budget is not None:
        [text] = done.stdout.splitlines()
        error = json.loads(text)["error"]
        assert error["type"] == "CandidateBallTooLarge"
        charged(error, *budget)
    if (count, argv) == (300, ["unique"]):
        assert json.loads(done.stdout) == {"unique": False}


# the jobs above that exit 3, by their number of digits and command line, and the cap each trips; the others answer
DIFFERENCES = ("difference entries", 2**24)
MANY_DIGIT_TRIPS = {
    (400, "neighbours --dot"): LABELS, (400, "triple-graph"): LABEL_DIGITS, (300, "neighbours --dot"): LABELS,
    (5000, "neighbours"): DIFFERENCES, (5000, "unique"): DIFFERENCES,
}


@given(
    n=st.integers(1, 2),
    digits=st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=2), min_size=1, max_size=12),
)
def test_digit_differences_from_one_array(n, digits):
    # the distinct differences and their |D| x |D| index, against the tuples the array replaced
    digits = tuple(dict.fromkeys(tuple(d[:n]) for d in digits))
    shifts, column = linalg.differences(n, digits)
    assert shifts == tuple(sorted({linalg.vec_sub(a, b) for a in digits for b in digits}))
    for (x, dx), (y, dy) in itertools.product(enumerate(digits), repeat=2):
        assert shifts[column[x, y]] == linalg.vec_sub(dy, dx)


HUGE = 10**400


def test_huge_digits_overflow_only_the_printed_radius():
    matrix, digits = ((HUGE, 1), (0, HUGE)), ((0, 0), (1, 0), (0, 1), (HUGE, 7))
    ns = rt.integer_neighbours(matrix, digits)
    assert ns.vectors == frozenset()
    with pytest.raises(OverflowError):
        ns.ball_radius


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["unique"], 0, {"unique": True}),
        (["triple-graph"], 0, {"edge_count": 4, "states": [[[0, 0], [0, 0]]]}),
        (["neighbours"], 2, {"error": {"type": "OverflowError", "message": "int too large to convert to float"}}),
    ],
)
def test_huge_digits_under_an_address_space_limit(tmp_path, argv, code, expected):
    # neither unique nor triple-graph prints a float; neighbours prints the ball radius, past the double range
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"matrix": [HUGE, 1, 0, HUGE], "digits": [[0, 0], [1, 0], [0, 1], [HUGE, 7]]}))
    start = time.perf_counter()
    done = run_cli_process([*argv, str(path)], address_space(1))
    assert time.perf_counter() - start < 10
    assert done.returncode == code, done.stderr
    assert json.loads(done.stdout) == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python prints integers of any length")
@pytest.mark.parametrize("argv", [["neighbours"], ["unique"], ["triple-graph"]])
def test_a_ball_count_past_the_digit_limit_prints_in_full(monkeypatch, tmp_path, argv):
    # A = 2I with the digit (10^3000, 0): the candidate ball's cube holds about 10^6000 points
    matrix, digits = ((2, 0), (0, 2)), ((0, 0), (10**3000, 0), (0, 1), (1, 1))
    with pytest.raises(CandidateBallTooLarge) as info:
        rt.integer_neighbours(matrix, digits)
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"matrix": matrix, "digits": digits}))
    monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "4300")
    done = run_cli_process([*argv, str(path)], address_space(1))
    assert done.returncode == 3, done.stderr
    [line] = done.stdout.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "CandidateBallTooLarge"
    assert charged(error, *BALL) == info.value.value > 10**6000
