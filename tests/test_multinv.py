import itertools
import json
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, linalg, multinv
from radixtile.errors import CloudTooLarge, DepthTooLarge, EmptySet, NonTerminating, NotACrs
from radixtile.multinv import DigitAutomaton

from conftest import address_space, charged, gauss_system, reach, run_cli_process

# ---------------------------------------------------------------------------
# automata for the tests below


def all_strings_automaton(sys: rt.RadixSystem) -> DigitAutomaton:
    return multinv.digit_restriction_automaton(sys, sys.digits)


def zero_only_automaton(sys: rt.RadixSystem) -> DigitAutomaton:
    """Accepts only the empty string, i.e. the set {0}."""
    k = len(sys.digits)
    return DigitAutomaton(
        n_digits=k,
        transitions=((1,) * k, (1,) * k),
        accepting=frozenset({0}),
    )


def last_digit_automaton(sys: rt.RadixSystem, digit) -> DigitAutomaton:
    """Strings whose most significant digit is the given one."""
    want = sys.digits.index(linalg.as_vec(digit))
    k = len(sys.digits)
    rows = [
        tuple(1 if idx == want else 2 for idx in range(k)),  # 0: start
        tuple(1 if idx == want else 2 for idx in range(k)),  # 1: last == want
        tuple(1 if idx == want else 2 for idx in range(k)),  # 2: last != want
    ]
    return DigitAutomaton(n_digits=k, transitions=tuple(rows), accepting=frozenset({1}))


def follows_rule_automaton(sys: rt.RadixSystem, trigger, follower) -> DigitAutomaton:
    """Canonical strings where the trigger digit forces the follower next."""
    trig = sys.digits.index(linalg.as_vec(trigger))
    fol = sys.digits.index(linalg.as_vec(follower))
    zero_idx = sys.digits.index(linalg.zero_vec(sys.n))
    # states: 0 start, 1 neutral last nonzero, 2 neutral last zero,
    #         3 must-see-follower (last symbol was trigger), 4 dead
    def step(state, idx):
        if state == 4:
            return 4
        if state == 3 and idx != fol:
            return 4
        if idx == trig:
            return 3
        return 2 if idx == zero_idx else 1

    k = len(sys.digits)
    rows = tuple(tuple(step(s, idx) for idx in range(k)) for s in range(5))
    trig_accept = {3} if trig != zero_idx else set()
    return DigitAutomaton(
        n_digits=k,
        transitions=rows,
        accepting=frozenset({0, 1} | trig_accept),
    )


class TestDigitDropMaps:
    def test_decimal(self, base10):
        assert rt.phi(base10, (905,)) == (90,)
        assert rt.psi(base10, (905,)) == (5,)

    def test_zero(self, base10):
        assert rt.phi(base10, (0,)) == (0,)
        assert rt.psi(base10, (0,)) == (0,)

    def test_round_trip_consistency(self):
        sys = rt.companion_system([2, 2], [0, 1])  # base -1+i
        ok, _ = rt.is_number_system(sys)
        assert ok
        import random

        rng = random.Random(9)
        for _ in range(20):
            v = (rng.randint(-6, 6), rng.randint(-6, 6))
            digits = rt.discrete_expansion(sys, v)
            phi_v = rt.phi(sys, v)
            # dividing then re-appending the dropped digit recovers v
            rebuilt = rt.evaluate_expansion(sys, (digits[0],) + rt.discrete_expansion(sys, phi_v))
            assert rebuilt == v

    def test_nonterminating(self, twin_two):
        with pytest.raises(NonTerminating):
            rt.phi(twin_two, (-1, 1))


class TestInvarianceChecks:
    def test_digit_restriction_closed(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        assert rt.check_invariance(base3_full, auto) == (True, True)

    @given(st.sets(st.integers(0, 9), min_size=1))
    @settings(max_examples=30, deadline=None)
    def test_any_restriction_closed(self, allowed):
        sys = rt.RadixSystem(((10,),), tuple((d,) for d in range(10)))
        auto = rt.digit_restriction_automaton(sys, [(d,) for d in allowed])
        assert rt.check_invariance(sys, auto) == (True, True)

    def test_follows_rule_closed(self, base3_full):
        auto = follows_rule_automaton(base3_full, (2,), (1,))
        assert rt.check_invariance(base3_full, auto) == (True, True)

    def test_fixed_last_digit_not_psi_closed(self, base3_full):
        auto = last_digit_automaton(base3_full, (2,))
        phi_ok, psi_ok = rt.check_invariance(base3_full, auto)
        assert not psi_ok

    def test_zero_only(self, base3_full):
        assert rt.check_invariance(base3_full, zero_only_automaton(base3_full)) == (True, True)

    def test_crs_required(self):
        sys = rt.RadixSystem(((3,),), ((0,), (2,)))
        with pytest.raises(NotACrs):
            rt.check_invariance(sys, zero_only_automaton(sys))

    def test_zero_digit_is_checked_before_the_residues(self, tmp_path, capsys):
        # digits 1, 2 in base 3 lack 0 and a class: the padding names the missing zero first
        path = tmp_path / "no_zero.json"
        path.write_text(json.dumps({"matrix": [3], "digits": [[1], [2]]}))
        automaton = {"n_digits": 2, "transitions": [[1, 1], [1, 1]], "accepting": [0]}
        for action in ("check", "converge"):
            payload = json.dumps({"automaton": automaton, "kmax": 2})
            assert cli.main(["multinv", action, str(path), "-p", payload]) == 2
            assert json.loads(capsys.readouterr().out)["error"]["type"] == "ZeroNotInDigits"


class TestClouds:
    def test_cantor_approximants(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        cloud = rt.xk_cloud(base3_full, auto, 3)
        expected = {
            (Fraction(a) / 3 + Fraction(b) / 9 + Fraction(c) / 27,)
            for a in (0, 2)
            for b in (0, 2)
            for c in (0, 2)
        }
        assert set(cloud.points) == expected

    def test_everything_automaton(self, base3_full):
        cloud = rt.xk_cloud(base3_full, all_strings_automaton(base3_full), 2)
        assert set(cloud.points) == {(Fraction(v, 9),) for v in range(9)}

    def test_zero_only_cloud(self, base3_full):
        assert rt.xk_cloud(base3_full, zero_only_automaton(base3_full), 4).points == ((Fraction(0),),)

    def test_cap(self, base3_full):
        with pytest.raises(CloudTooLarge) as info:
            rt.xk_cloud(base3_full, all_strings_automaton(base3_full), 9, cap=100)
        assert charged(info.value, "cloud strings", 100) == 3**9

    def test_cap_is_checked_before_any_point_is_built(self, base3_full):
        # 3^30 accepted strings: the count is over the cap before any point is built
        start = time.perf_counter()
        with pytest.raises(CloudTooLarge) as info:
            rt.xk_cloud(base3_full, all_strings_automaton(base3_full), 30)
        assert time.perf_counter() - start < 1.0
        assert charged(info.value, "cloud strings", 200_000) == 3**30


class TestDistances:
    def test_identical(self):
        assert rt.hausdorff_distance([(0.0, 0.0)], [(0.0, 0.0)]) == 0.0

    def test_half(self):
        assert rt.hausdorff_distance([(0.0,)], [(0.0,), (0.5,)]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(EmptySet):
            rt.hausdorff_distance([], [(0.0,)])

    @pytest.mark.parametrize(
        "p, q",
        [
            ([(0.0,)], [(3.0, 4.0)]),
            ([(0.0, 1.0)], [(0.0,), (1.0,)]),
            ([0.0, 1.0], [(0.0,)]),
            ([(0.0,)], [0.0, 1.0]),
            ([0.0, 1.0], [0.0, 1.0]),
            ([()], [()]),
        ],
    )
    def test_point_arrays_of_one_dimension_required(self, p, q):
        with pytest.raises(ValueError, match="one n"):
            rt.hausdorff_distance(p, q)

    def test_torus_wraparound(self):
        assert rt.torus_distance((Fraction(9, 10),), (Fraction(1, 20),)) == pytest.approx(0.15)

    @given(
        st.lists(st.fractions(0, 1), min_size=2, max_size=2),
        st.lists(st.fractions(0, 1), min_size=2, max_size=2),
        st.lists(st.fractions(0, 1), min_size=2, max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_metric_axioms(self, x, y, z):
        x = tuple(a % 1 for a in x)
        y = tuple(a % 1 for a in y)
        z = tuple(a % 1 for a in z)
        dxy = rt.torus_distance(x, y)
        assert dxy == pytest.approx(rt.torus_distance(y, x), abs=1e-12)
        if x == y:
            assert dxy == pytest.approx(0.0, abs=1e-12)
        assert rt.torus_distance(x, z) <= dxy + rt.torus_distance(y, z) + 1e-12


class TestConvergence:
    def test_cantor_rates_and_bounds(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        report = rt.convergence_report(base3_full, auto, 10)
        assert report.phi_closed
        for row in report.rows:
            assert row.measured <= row.bound
            assert row.bound <= 3.0 ** (-row.k) * 2.000001
        for row in report.rows[1:]:
            assert 0.30 <= row.ratio_to_prev <= 0.36

    def test_full_digit_decay(self, base3_full):
        report = rt.convergence_report(base3_full, all_strings_automaton(base3_full), 6)
        for row in report.rows[1:]:
            assert row.ratio_to_prev == pytest.approx(1 / 3, abs=0.05)

    def test_zero_only_all_zero(self, base3_full):
        report = rt.convergence_report(base3_full, zero_only_automaton(base3_full), 5)
        assert all(row.measured == 0.0 for row in report.rows)

    def test_bound_never_violated_for_ell_beyond_k(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        clouds = {k: rt.xk_cloud(base3_full, auto, k).float_points() for k in range(1, 9)}
        for k in range(1, 8):
            bound = base3_full.max_digit_norm() * rt.tail_bound(base3_full.matrix, k)
            for ell in range(k, 9):
                assert rt.hausdorff_distance(clouds[k], clouds[ell]) <= bound + 1e-12

    def test_kmax_must_not_be_negative(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        with pytest.raises(ValueError, match="kmax"):
            rt.convergence_report(base3_full, auto, -1)
        assert rt.convergence_report(base3_full, auto, 0).rows == ()

    def test_one_walk_per_report(self, base3_full, monkeypatch):
        pads = []

        def counted(*args):
            pads.append(args)
            return pad(*args)

        pad = multinv._pad_dfa
        monkeypatch.setattr(multinv, "_pad_dfa", counted)
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        # each call starts from an empty cache of padded automata, as a job does
        for kmax in (0, 1, 6):
            pads.clear()
            multinv.padded_automaton.cache_clear()
            rt.convergence_report(base3_full, auto, kmax)
            assert len(pads) == 1  # one for the invariance check and every cloud
        pads.clear()
        multinv.padded_automaton.cache_clear()
        assert rt.torus_invariance_check(base3_full, auto, 5)
        assert len(pads) == 1  # depths k - 1 and k come from one walk
        pads.clear()
        multinv.padded_automaton.cache_clear()
        args = SimpleNamespace(action="check", format="json")
        out = cli.cmd_multinv(args, base3_full, {"restrict": [[0], [2]], "torus_k": 5})
        assert out == {"phi_closed": True, "psi_closed": True, "torus_invariance": True}
        assert len(pads) == 1  # the closure check and the torus walk share one

    def test_long_report_on_one_point_clouds(self, base3_full):
        # 3^301 needs exact object arrays for the partial sums
        auto = rt.digit_restriction_automaton(base3_full, [(0,)])
        report = rt.convergence_report(base3_full, auto, 300)
        assert [row.k for row in report.rows] == list(range(1, 301))
        assert all(row.measured == 0.0 for row in report.rows)

    def test_csv_shape(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        text = rt.convergence_report(base3_full, auto, 3).to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "k,measured,bound,ratio_to_prev"
        assert len(lines) == 4


class TestTorusInvariance:
    def test_digit_restriction_passes(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        for k in range(2, 9):
            assert rt.torus_invariance_check(base3_full, auto, k)

    def test_zero_only(self, base3_full):
        assert rt.torus_invariance_check(base3_full, zero_only_automaton(base3_full), 3)

    def test_psi_open_set_fails(self, base3_full):
        auto = last_digit_automaton(base3_full, (2,))
        assert not rt.torus_invariance_check(base3_full, auto, 3)

    def test_gauss_system(self):
        sys = gauss_system(2)
        auto = rt.digit_restriction_automaton(sys, [(0, 0), (2, 0)])
        assert rt.check_invariance(sys, auto) == (True, True)
        assert rt.torus_invariance_check(sys, auto, 4)


class TestAutomatonJson:
    def test_round_trip(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
        again = rt.DigitAutomaton.from_json(auto.to_json())
        assert again == auto


# ---------------------------------------------------------------------------
# references: the per-word Fraction cloud, the dense distance matrix and the
# mod-1 torus check that the integer-array code replaced


def ref_xk_cloud(sys, auto, k):
    """Depth-first walk over padded-accepted words, one Fraction point per word."""
    padded = multinv._pad_dfa(auto, sys.digits.index(linalg.zero_vec(sys.n)))
    inv_k = linalg.mat_inv_pow(sys.matrix, k)
    pred = {s: [] for s in range(padded.n_states)}
    for s, row in enumerate(padded.transitions):
        for t in row:
            pred[t].append(s)
    alive = reach(padded.accepting, pred)
    points = set()
    stack = [(padded.initial, 0, ())]
    while stack:
        state, pos, word = stack.pop()
        if pos == k:
            if state in padded.accepting:
                value = rt.evaluate_expansion(sys, [sys.digits[i] for i in word])
                points.add(linalg.frac_mat_vec(inv_k, value))
            continue
        for sym in range(padded.n_digits):
            nxt = padded.transitions[state][sym]
            if nxt in alive:
                stack.append((nxt, pos + 1, word + (sym,)))
    return frozenset(points)


def ref_hausdorff(p, q):
    pa, qa = np.array(p, dtype=float), np.array(q, dtype=float)
    d = np.sqrt(((pa[:, None, :] - qa[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def neighbour_hausdorff_1d(p, q):
    """Hausdorff distance of two 1-D sets from each point's two neighbours in the other, sorted, set."""

    def directed(x, y):
        y = np.sort(y)
        i = np.clip(np.searchsorted(y, x), 1, len(y) - 1)
        return np.minimum(abs(x - y[i - 1]), abs(x - y[i])).max()

    return float(max(directed(p, q), directed(q, p)))


def swept(p, q, a):
    """The sorted sweep on axis a alone, without the all-pairs matrix for small inputs."""
    p, q = (x[np.argsort(x[:, a])] for x in (p, q))
    return float(np.sqrt(max(multinv._directed_sq(p, q, a), multinv._directed_sq(q, p, a))))


def ref_torus(sys, auto, k):
    def mod1(v):
        return tuple(x - math.floor(x) for x in v)

    previous = {mod1(p) for p in ref_xk_cloud(sys, auto, k - 1)}
    return all(mod1(linalg.frac_mat_vec(sys.matrix, x)) in previous for x in ref_xk_cloud(sys, auto, k))


# each digit set is a complete residue system, so digit strings of one
# length and cloud points correspond one to one
REF_SYSTEMS = [
    rt.RadixSystem(((3,),), ((0,), (1,), (2,))),
    rt.RadixSystem(((4,),), ((0,), (1,), (2,), (3,))),
    gauss_system(2),
]


@st.composite
def automata(draw, sys):
    n_digits = len(sys.digits)
    if draw(st.booleans()):
        allowed = draw(st.lists(st.sampled_from(sys.digits), min_size=1, unique=True))
        return rt.digit_restriction_automaton(sys, allowed)
    n_states = draw(st.integers(1, 4))
    targets = st.integers(0, n_states - 1)
    row = st.lists(targets, min_size=n_digits, max_size=n_digits).map(tuple)
    return DigitAutomaton(
        n_digits=n_digits,
        transitions=tuple(draw(st.lists(row, min_size=n_states, max_size=n_states))),
        accepting=draw(st.frozensets(targets)),
        initial=draw(targets),
    )


class TestAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_cloud(self, data):
        sys = data.draw(st.sampled_from(REF_SYSTEMS))
        auto = data.draw(automata(sys))
        k = data.draw(st.integers(0, 4 if sys.n == 1 else 3))
        expected = ref_xk_cloud(sys, auto, k)
        cloud = rt.xk_cloud(sys, auto, k, cap=len(expected))
        assert set(cloud.points) == expected
        assert len(cloud) == len(expected)
        assert cloud.float_points().tolist() == [[float(x) for x in p] for p in cloud.points]
        if expected:
            with pytest.raises(CloudTooLarge) as info:
                rt.xk_cloud(sys, auto, k, cap=len(expected) - 1)
            assert charged(info.value, "cloud strings", len(expected) - 1) == len(expected)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_walk_gives_every_cloud(self, data):
        sys = data.draw(st.sampled_from(REF_SYSTEMS))
        auto = data.draw(automata(sys))
        kmax = data.draw(st.integers(0, 4 if sys.n == 1 else 3))
        levels = list(multinv._accepted_rows(sys, multinv.padded_automaton(sys, auto), kmax))
        assert len(levels) == kmax + 1
        for k, rows in enumerate(levels):
            cloud = rt.PointCloud(sys, k, rows=rows)
            assert cloud.int_points == rt.xk_cloud(sys, auto, k).int_points
            assert set(cloud.points) == ref_xk_cloud(sys, auto, k)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_torus(self, data):
        sys = data.draw(st.sampled_from(REF_SYSTEMS))
        auto = data.draw(automata(sys))
        k = data.draw(st.integers(2, 4 if sys.n == 1 else 3))
        assert rt.torus_invariance_check(sys, auto, k) == ref_torus(sys, auto, k)

    # sizes from one point to several 64-point sweep blocks, on both sides of the 2^15 pairs
    # up to which one matrix is used; spread 2 gives grids with many duplicates and ties, spread
    # 40 mostly distinct points.  The sweep alone is checked on every axis and at every size.
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        sizes=st.tuples(*[st.integers(1, 700)] * 2),
        spread=st.sampled_from([2, 5, 40]),
        order=st.sampled_from(["random", "ascending", "descending"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, sizes=(513, 256), spread=40, order="random", seed=1)
    @example(n=1, sizes=(256, 512), spread=40, order="ascending", seed=2)
    @example(n=3, sizes=(1, 700), spread=2, order="descending", seed=3)
    @example(n=1, sizes=(1, 1), spread=2, order="random", seed=4)
    @example(n=2, sizes=(700, 1), spread=5, order="descending", seed=5)
    @example(n=1, sizes=(700, 700), spread=2, order="ascending", seed=6)
    @example(n=3, sizes=(65, 64), spread=40, order="descending", seed=7)
    @example(n=2, sizes=(128, 256), spread=40, order="random", seed=8)
    @example(n=2, sizes=(129, 256), spread=40, order="random", seed=8)
    def test_hausdorff(self, n, sizes, spread, order, seed):
        rng = np.random.default_rng(seed)
        p, q = (rng.integers(-spread, spread, size=(m, n)) / rng.integers(1, 30) for m in sizes)
        if order != "random":
            step = 1 if order == "ascending" else -1
            p, q = (x[np.lexsort(x.T[::-1])[::step]] for x in (p, q))
        expected = ref_hausdorff(p, q)
        assert rt.hausdorff_distance(p, q) == expected
        assert rt.hausdorff_distance(q, p) == expected
        assert rt.hausdorff_distance(p.tolist(), q.tolist()) == expected
        for a in range(n):
            assert swept(p, q, a) == expected

    def test_hausdorff_on_clouds(self):
        # X_k against X_l on both sides of the matrix cutoff, with the float points the
        # converge tables use: base 3 {0,2}, and 2I with {(0,0),(0,1)}, whose first
        # coordinates are all 0
        twin = rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1)))
        cases = [(REF_SYSTEMS[0], [(0,), (2,)]), (twin, [(0, 0), (0, 1)]), (twin, [(0, 0), (1, 1)])]
        for sys, allowed in cases:
            auto = rt.digit_restriction_automaton(sys, allowed)
            clouds = [rt.xk_cloud(sys, auto, k).float_points() for k in range(6, 10)]
            for p, q in itertools.combinations(clouds, 2):
                assert rt.hausdorff_distance(p, q) == ref_hausdorff(p, q)

    @pytest.mark.parametrize("tiny", [1e-200, 5e-324])
    def test_hausdorff_squares_that_underflow(self, tiny):
        # (p0 - q0)^2 rounds to 0 here, so a window of width sqrt(bound) alone would be empty
        for p, q in (([(0.0,)], [(tiny,)]), ([(0.0, 1.0), (tiny, 2.0)], [(-tiny, 1.0), (1.0, 3.0)])):
            assert swept(np.array(p), np.array(q), 0) == ref_hausdorff(p, q)

    def test_sweep_in_several_batches(self):
        # 40,000 points meet at least 40,000 (point, candidate) pairs in each direction, more than
        # one batch holds; the largest least distance, 0.5, sits near the end of the sweep
        q = np.arange(40_000.0)
        p = q + 0.25
        p[35_000] += 0.25
        assert len(p) > 2**14  # the pairs in one batch
        rng = np.random.default_rng(0)
        for x, y in ((p, q), (q, p)):
            pts, qts = (rng.permutation(z)[:, None] for z in (x, y))
            assert rt.hausdorff_distance(pts, qts) == neighbour_hausdorff_1d(x, y) == 0.5
            plane = [np.hstack((z, np.full_like(z, 3.0))) for z in (pts, qts)]
            assert rt.hausdorff_distance(*plane) == 0.5

    def test_sweep_window_larger_than_a_batch(self):
        # q holds 17,500 copies each of four values, so the window of a point of p next to one of
        # them alone holds more than the 2^14 pairs of a batch
        p = np.array([0.0, 1.0, 2.0, 3.0])
        q = np.random.default_rng(1).permutation(np.repeat([0.75, 1.0, 2.0, 3.125], 17_500))
        for x, y in ((p, q), (q, p)):
            assert rt.hausdorff_distance(x[:, None], y[:, None]) == neighbour_hausdorff_1d(x, y) == 0.75


# ---------------------------------------------------------------------------
# the carried walk against the construction it replaced: one PointCloud per level
# through float_points, Fraction tail bounds, and the cloud's Fraction points sorted


def ref_report_rows(sys, auto, kmax):
    clouds = [rt.xk_cloud(sys, auto, k).float_points() for k in range(kmax + 2)]
    rows, prev = [], None
    for k in range(1, kmax + 1):
        measured = rt.hausdorff_distance(clouds[k], clouds[k + 1])
        bound = sys.max_digit_norm() * float(rt.tail_bound(sys.matrix, k))
        ratio = (measured / prev) if prev not in (None, 0.0) else None
        rows.append(multinv.ConvergenceRow(k=k, measured=measured, bound=bound, ratio_to_prev=ratio))
        prev = measured
    return rows


def ref_cloud_report(sys, auto, k):
    points = sorted(rt.xk_cloud(sys, auto, k).points)
    return {"points": [{"exact": [linalg.frac_str(x) for x in p], "float": [float(x) for x in p]} for p in points]}


# det A < 0 as well: B = sign(det A) adj(A), and the cloud's order must not flip with the sign
CARRY_SYSTEMS = REF_SYSTEMS + [
    rt.RadixSystem(((-3,),), ((0,), (1,), (2,))),
    rt.RadixSystem(((0, 2), (1, 0)), ((0, 0), (1, 0))),
]


def bits(rows):
    """The rows with every float as its repr, so that == compares them bit for bit."""
    return [(r.k, repr(r.measured), repr(r.bound), repr(r.ratio_to_prev)) for r in rows]


class TestCarriedWalk:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_report_rows_equal_the_per_level_clouds(self, data):
        sys = data.draw(st.sampled_from(CARRY_SYSTEMS))
        auto = data.draw(automata(sys))
        kmax = data.draw(st.integers(0, 4 if sys.n == 1 else 3))
        try:
            expected = bits(ref_report_rows(sys, auto, kmax))
        except EmptySet:
            with pytest.raises(EmptySet):
                rt.convergence_report(sys, auto, kmax)
            return
        assert bits(rt.convergence_report(sys, auto, kmax).rows) == expected

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_cloud_output_equals_the_sorted_fraction_points(self, data):
        # 0 and 3 are congruent mod 3, so two digit strings can give one point
        sys = data.draw(st.sampled_from(CARRY_SYSTEMS + [rt.RadixSystem(((3,),), ((0,), (1,), (3,)))]))
        auto = data.draw(automata(sys))
        k = data.draw(st.integers(0, 4 if sys.n == 1 else 3))
        args = SimpleNamespace(action="cloud", format="json")
        out = cli.cmd_multinv(args, sys, {"automaton": auto.to_json(), "k": k})
        assert json.dumps(out) == json.dumps(ref_cloud_report(sys, auto, k))

    def test_deep_report_equals_the_per_level_clouds(self, base3_full):
        # 3^60 needs exact object coordinates and a division of integers past 2^53
        for allowed in ([(0,)], [(0,), (2,)]):
            auto = rt.digit_restriction_automaton(base3_full, allowed)
            kmax = 60 if len(allowed) == 1 else 9
            assert bits(rt.convergence_report(base3_full, auto, kmax).rows) == bits(ref_report_rows(base3_full, auto, kmax))

    def test_unreduced_tail_bounds(self):
        for a in (((3,),), ((-2, -1), (1, -2)), ((2, 0), (0, 2)), ((1, 1, 0), (0, 1, 1), (2, 0, 1))):
            pairs = itertools.islice(linalg.tail_bounds(a, 1), 60)
            for m, (num, den) in enumerate(pairs, start=1):
                exact = linalg.tail_bound(a, m)
                assert Fraction(num, den) == exact
                assert num / den == float(exact)


def one_nonzero_automaton(sys):
    """Canonical strings with exactly one nonzero digit, plus the empty string: 2k + 1 rows at depth k in base 3."""
    zero = sys.digits.index((0,))
    rows = [tuple(3 if i == zero else 1 for i in range(len(sys.digits))), (2,) * 3, (2,) * 3]
    rows.append(rows[0])
    return DigitAutomaton(n_digits=len(sys.digits), transitions=tuple(rows), accepting=frozenset({0, 1}))


class TestDepthBudget:
    def test_rows_per_level_are_charged(self, base3_full):
        auto = one_nonzero_automaton(base3_full)
        assert len(rt.xk_cloud(base3_full, auto, 100)) == 201
        # 1,001 levels x 1 row pass the first charge; 2,001 rows per level do not
        start = time.perf_counter()
        with pytest.raises(DepthTooLarge) as info:
            rt.xk_cloud(base3_full, auto, 1000)
        assert time.perf_counter() - start < 2.0
        # 2,002 bits per coordinate: 1,000 levels x the 2 bits of 3, plus the 2 bits of the digit 2
        assert charged(info.value, "depth bits", 2**28) == 1001 * 2001 * 2002

    def test_charged_before_the_counts(self, base3_full):
        # the first charge needs no count of accepted strings: the 10^6-level ways table alone takes seconds
        auto = rt.digit_restriction_automaton(base3_full, [(0,)])
        start = time.perf_counter()
        with pytest.raises(DepthTooLarge) as info:
            rt.xk_cloud(base3_full, auto, 10**6)
        assert time.perf_counter() - start < 0.2
        assert charged(info.value, "depth bits", 2**28) == 1_000_001 * 1 * 2_000_002

    def test_one_point_per_level_within_the_cap(self, base3_full):
        auto = rt.digit_restriction_automaton(base3_full, [(0,)])
        assert len(rt.xk_cloud(base3_full, auto, 11_000)) == 1
        with pytest.raises(DepthTooLarge) as info:
            rt.xk_cloud(base3_full, auto, 12_000)
        assert charged(info.value, "depth bits", 2**28) == 12_001 * 1 * 24_002

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (["multinv", "cloud"], {"restrict": [[0]], "k": 10**6}),
            (["--format", "csv", "multinv", "converge"], {"restrict": [[0]], "kmax": 10**5}),
            (["multinv", "converge"], {"restrict": [[0]], "kmax": 10**5}),
            (["multinv", "check"], {"restrict": [[0]], "torus_k": 10**6}),
        ],
    )
    def test_deep_jobs_exit_3_under_an_address_space_limit(self, tmp_path, argv, payload):
        path = tmp_path / "base3.json"
        path.write_text(json.dumps({"matrix": [3], "digits": [0, 1, 2]}))
        start = time.perf_counter()
        done = run_cli_process([*argv, str(path), "-p", json.dumps(payload)], address_space(1))
        assert time.perf_counter() - start < 10
        assert done.returncode == 3, done.stderr
        [line] = done.stdout.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "DepthTooLarge"
        charged(error, "depth bits", 2**28)
