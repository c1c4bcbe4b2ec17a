"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing defers to calibration.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import radixtile as rt
from radixtile import linalg
from radixtile.errors import SearchBudgetExceeded
from radixtile.intersect import ExactDim
from radixtile.radix import EpSeq, vector_seq

from conftest import alternating_block_counts, gauss_matrix, gauss_system


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def fs(*scalars):
    return frozenset((int(x), 0) for x in scalars)


def test_criterion_01_neighbour_oracles():
    for n in (2, 3, 4, 5, 6):
        start = time.time()
        sys = gauss_system(n)
        computed = rt.integer_neighbours(sys.matrix, sys.digits)
        assert computed.vectors == rt.expected_gauss_neighbours(n).vectors
        assert computed.reals() == rt.expected_real_neighbours(n, symmetric_digits=False)
        sym = rt.RadixSystem(gauss_matrix(n), tuple((d, 0) for d in range(-n * n, n * n + 1)))
        sym_ns = rt.integer_neighbours(sym.matrix, sym.digits)
        assert sym_ns.reals() == rt.expected_real_neighbours(n, symmetric_digits=True)
        elapsed = time.time() - start
        assert elapsed < 60.0
    report(1, "Gaussian neighbour sets and real-neighbour families match for n = 2..6")


def test_criterion_02_decimal_neighbour_graph():
    sys = rt.RadixSystem(((10,),), tuple((d,) for d in range(10)))
    graph = rt.neighbour_graph(sys.matrix, sys.digits)
    assert set(graph.states) == {(-1,), (0,), (1,)}
    loops = {}
    for src, pair, dst in graph.edges:
        if src == dst:
            loops.setdefault(src, []).append(pair)
    assert loops[(1,)] == [((0,), (9,))]
    assert loops[(-1,)] == [((9,), (0,))]
    assert all(x == y for x, y in loops[(0,)])
    # the terminal vertices have no other outgoing edges
    for src, pair, dst in graph.edges:
        if src in {(1,), (-1,)}:
            assert dst == src
            assert pair[0][0] - pair[1][0] in (-9, 9)
    report(2, "decimal neighbour graph has vertices {0,+-1} with +-9 terminal loops")


def test_criterion_03_equivalence_fixtures():
    sys = gauss_system(7, digits=range(50))
    p = rt.representation(sys, [(1, 0), (13, 0)], [(36, 0), (0, 0), (49, 0)])
    q = rt.representation(sys, [(1, 0), (14, 0)], [(49, 0), (36, 0), (0, 0)])
    r = rt.representation(sys, [(0, 0), (0, 0)], [(0, 0), (49, 0), (36, 0)])
    for x, y in [(p, q), (q, r), (p, r)]:
        assert rt.equivalent(x, y)
        assert rt.is_neighbour_sequence(x, y)

    for n in range(2, 11):
        sysn = gauss_system(n)
        m = (n - 1) ** 2 + 1
        lhs = rt.eval_exact(rt.representation(sysn, [(2 * n - 1, 0)], [(m, 0), (0, 0)]))
        rhs = rt.eval_exact(rt.representation(sysn, [(0, 0)], [(0, 0), (m, 0)]))
        assert (lhs[0] + 1, lhs[1]) == rhs
        assert (rhs[0] - 1, rhs[1]) == lhs
        if n >= 5:
            wide = rt.RadixSystem(
                gauss_matrix(n), tuple((d, 0) for d in range(-2 * n * n, 2 * n * n + 1))
            )
            k = (n - 2) ** 2
            left = rt.eval_exact(rt.representation(wide, [(0, 0)], [(-n * n, 0), (k, 0)]))
            right = rt.eval_exact(rt.representation(wide, [(4 * n - 2, 0)], [(k, 0), (-n * n, 0)]))
            assert left == (right[0] + 2, right[1])
    report(3, "triple equivalence fixtures and closed-form identities hold exactly for n = 2..10")


def test_criterion_04_uniqueness():
    assert rt.representations_unique(gauss_system(3, digits=range(5)))
    d5 = rt.RadixSystem(gauss_matrix(5), ((0, 0), (3, 0), (6, 0)))
    assert rt.representations_unique(d5.difference_system())
    d3 = rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0), (8, 0)))
    assert rt.representations_unique(d3.difference_system())
    for n in (2, 3, 4, 5):
        assert not rt.representations_unique(gauss_system(n))
    report(4, "uniqueness verdicts match for the consecutive, separated, and full digit sets")


def test_criterion_05_intersection_pipeline(m3i_048):
    alpha = vector_seq([(-4, 0), (-8, 0)], [(0, 0), (8, 0)])
    t = rt.translate_spec(m3i_048, alpha)
    seq = rt.intersection_sequence(t)
    w = rt.is_sep_sets_translated(m3i_048.digits, seq)
    assert w is not None and w.block == 2
    ifs = rt.build_ifs(t, w)
    assert ifs.map_count == 4
    a = m3i_048.matrix
    e1 = (1, 0)
    a1 = linalg.frac_mat_vec(linalg.mat_inv_pow(a, 1), e1)
    a3 = linalg.frac_mat_vec(linalg.mat_inv_pow(a, 3), e1)
    a4 = linalg.frac_mat_vec(linalg.mat_inv_pow(a, 4), e1)
    expected_offsets = {
        tuple(8 * x for x in a4),
        tuple(4 * x + 8 * y for x, y in zip(a3, a4)),
        tuple(4 * x + 8 * y for x, y in zip(a1, a4)),
        tuple(4 * x + 4 * y + 8 * z for x, y, z in zip(a1, a3, a4)),
    }
    assert set(ifs.offsets) == expected_offsets
    assert not rt.check_ssc(w)
    assert rt.box_dimension_ep(m3i_048, seq).exact == ExactDim.log_ratio(3, 10)
    assert rt.similarity_dimension(m3i_048, w).exact == ExactDim.log_ratio(4, 10)

    beta = vector_seq([(-4, 0), (-8, 0)], [(-4, 0), (8, 0)])
    tb = rt.translate_spec(m3i_048, beta)
    wb = rt.is_sep_sets_translated(m3i_048.digits, rt.intersection_sequence(tb))
    assert rt.check_ssc(wb)
    assert rt.hausdorff_dimension_sep(m3i_048, wb).exact == ExactDim.log_ratio(2, 10)
    report(5, "intersection pipeline: witness P=2, 4 exact maps, SSC split, exact dimensions")


def test_criterion_06_negative_sep():
    digits = [(d,) for d in range(9)]
    seq = EpSeq.make([fs1(0), fs1(0, 6)], [fs1(0, 1), fs1(0, 3, 6)])
    result = rt.is_sep_sets_translated(digits, seq, max_block=12)
    assert result is None  # a definitive no, not a budget cut
    report(6, "blocked sumset sequence is rejected across the full block search (P <= 12)")


def fs1(*scalars):
    return frozenset((int(x),) for x in scalars)


def test_criterion_07_bedford_mcmullen():
    d1 = [(3, 0), (6, 0), (3, 6), (6, 3), (6, 6)]
    d2 = [(3, 3), (3, 6), (6, 3), (6, 6), (0, 9)]
    comp = [(7 * a + c, 10 * b + d) for (a, b) in d1 for (c, d) in d2]
    assert len(set(comp)) == 25
    dim_h, dim_b = rt.bm_dimensions(7, 10, comp, allow_refined=True)
    assert abs(dim_h - 1.536) <= 0.005
    assert abs(dim_b - 1.540) <= 0.005
    report(7, f"carpet dimensions ({dim_h:.4f}, {dim_b:.4f}) within 0.005 of (1.536, 1.540)")


def test_criterion_08_number_systems(base10, twin_two):
    ok, witnesses = rt.is_number_system(twin_two)
    assert not ok and ((-1, 0),) in witnesses
    for n in (1, 2, 3, 4):
        sys = rt.companion_system([n * n + 1, 2 * n], range(n * n + 1))
        ok, _ = rt.is_number_system(sys)
        assert ok
    ok, witnesses = rt.is_number_system(base10)
    assert not ok and ((-1,),) in witnesses
    report(8, "number-system verdicts and witness cycles match all three fixtures")


def test_criterion_09_triple_state_graph():
    sys = gauss_system(3)
    graph = rt.triple_state_graph(sys.matrix, sys.digits)
    p = rt.representation(sys, [(0, 0)] * 3, [(4, 0), (0, 0), (9, 0)])
    q = rt.representation(sys, [(0, 0), (0, 0), (1, 0)], [(9, 0), (4, 0), (0, 0)])
    r = rt.representation(sys, [(1, 0), (5, 0), (5, 0)], [(0, 0), (9, 0), (4, 0)])
    assert rt.equivalent(p, q) and rt.equivalent(q, r) and rt.equivalent(p, r)
    walk = list(zip(rt.integer_sequence(p, q, 9), rt.integer_sequence(q, r, 9)))
    assert all(state in graph.states for state in walk)
    assert all(graph.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1))
    assert walk[-1] == walk[-4]  # the closing three-cycle
    report(9, "triple-state graph contains the six-state path and the triple evaluates equal")


def test_criterion_10_level_sets(m3i_048):
    tile_dim = ExactDim.log_ratio(9, 10)  # log 3 / log sqrt(10)
    alpha = vector_seq([], [(4, 0), (-8, 0), (0, 0)])
    target = rt.TranslateSpec(m3i_048, alpha, uniqueness_checked=True).alpha_value()
    for lam in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
        for eps in (1e-2, 1e-4):
            m = rt.intersect.prefix_length_for_radius(m3i_048, eps)
            prefix = [alpha.entry(j) for j in range(m)]
            t = rt.level_set_translate(m3i_048, prefix, lam)
            value = t.alpha_value()
            dist = math.sqrt(sum(float(a - b) ** 2 for a, b in zip(value, target)))
            assert dist < eps
            got = rt.box_dimension_ep(m3i_048, rt.intersection_sequence(t)).exact
            assert got == tile_dim.scale(lam)
    report(10, "level-set translates stay within epsilon and hit lam * log3/log sqrt(10) exactly")


def test_criterion_11_nonconvergent_profile():
    sys = rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0)))
    counts = alternating_block_counts(10**4)
    prof = rt.gk_profile(sys, counts)
    gap_unit = 0.4 * math.log(2) / math.log(10)
    assert abs(prof[10**2 - 1] - prof[10**3 - 1]) > gap_unit
    assert abs(prof[10**4 - 1] - prof[10**3 - 1]) > gap_unit
    report(11, "block schedule separates even and odd checkpoints by more than 0.4 log2/log10")


def test_criterion_12_multiplicative_invariance(base3_full):
    auto = rt.digit_restriction_automaton(base3_full, [(0,), (2,)])
    rep = rt.convergence_report(base3_full, auto, 11)
    rows = {row.k: row for row in rep.rows}
    for k in range(1, 11):
        assert rows[k].measured <= rows[k].bound
        assert rows[k].bound <= base3_full.max_digit_norm() * linalg.tail_bound(base3_full.matrix, k) + 1e-15
    for k in range(2, 11):
        assert 0.30 <= rows[k].ratio_to_prev <= 0.36
    for k in range(2, 9):
        assert rt.torus_invariance_check(base3_full, auto, k)
    report(12, "cloud distances decay inside C 3^-k with ratio ~1/3 and the torus check passes")


def _tile_count_upper(sys, seq, k):
    """Tiles of the full digit system meeting the filtered image, counted by
    the neighbour-walk criterion (an upper bound that is at least G_k)."""
    neighbours = rt.integer_neighbours(sys.matrix, sys.digits)
    accept = set(neighbours.vectors)
    accept.add(linalg.zero_vec(sys.n))
    radius = neighbours.ball_radius + max(
        math.sqrt(linalg.norm_sq(v)) for v in accept
    )
    limit = radius * radius * (1 + 1e-9)

    count = 0
    for word in itertools.product(sys.digits, repeat=k):
        states = {linalg.zero_vec(sys.n)}
        for j in range(k):
            nxt = set()
            allowed = seq.entry(j)
            for zeta in states:
                base = linalg.mat_vec(sys.matrix, zeta)
                for x in allowed:
                    cand = linalg.vec_add(base, linalg.vec_sub(x, word[j]))
                    if linalg.norm_sq(cand) <= limit:
                        nxt.add(cand)
            states = nxt
            if not states:
                break
        if states & accept:
            count += 1
    return count


def test_criterion_13_property_suite(m3i_048):
    # (a) equivalence vs neighbour-walk oracle, 500 pairs per system
    systems = [
        rt.RadixSystem(((10,),), tuple((d,) for d in range(10))),
        rt.RadixSystem(((3,),), ((0,), (2,))),
        gauss_system(3),
        gauss_system(2, digits=range(5)),
        rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1))),
    ]
    for index, sys in enumerate(systems):
        rng = random.Random(1000 + index)
        digits = sys.digits
        disagreements = 0
        for trial in range(500):
            pre_x = [rng.choice(digits) for _ in range(rng.randint(0, 2))]
            cyc_x = [rng.choice(digits) for _ in range(rng.randint(1, 3))]
            x = rt.representation(sys, pre_x, cyc_x)
            if trial % 5 == 0:
                _, samples = rt.enumerate_equivalents(sys, x, sample_limit=3)
                y = rt.Representation(sys, samples[min(len(samples) - 1, 1)])
            else:
                pre_y = [rng.choice(digits) for _ in range(rng.randint(0, 2))]
                cyc_y = [rng.choice(digits) for _ in range(rng.randint(1, 3))]
                y = rt.representation(sys, pre_y, cyc_y)
            if rt.equivalent(x, y) != rt.is_neighbour_sequence(x, y):
                disagreements += 1
        assert disagreements == 0

    # (b) 200 randomized SEP witnesses round-trip
    rng = random.Random(77)
    for _ in range(100):
        block = rng.randint(1, 4)
        witness = rt.SepIntWitness(
            block=block,
            base=tuple(rng.randint(0, 5) for _ in range(block)),
            increments=tuple(rng.randint(0, 4) for _ in range(block)),
        )
        seq = witness.rebuild()
        found = rt.is_sep_int(seq)
        assert found is not None and found.rebuild() == seq
    for _ in range(100):
        block = rng.randint(1, 3)
        base = [
            frozenset((rng.randint(0, 4),) for _ in range(rng.randint(1, 3)))
            for _ in range(block)
        ]
        incs = [
            frozenset((rng.randint(0, 4),) for _ in range(rng.randint(1, 2)))
            for _ in range(block)
        ]
        witness = rt.SepSetWitness(
            block=block,
            beta_head=((0,),) * block,
            beta_cycle=((0,),) * block,
            base=tuple(base),
            increments=tuple(incs),
        )
        seq = witness.rebuild()
        found = rt.is_sep_sets(seq)
        assert found is not None and found.rebuild() == seq

    # (c) k-tile counts bracket G_k for k <= 6
    alpha = vector_seq([(-4, 0), (-8, 0)], [(0, 0), (8, 0)])
    seq = rt.intersection_sequence(rt.translate_spec(m3i_048, alpha))
    neighbours = rt.integer_neighbours(m3i_048.matrix, m3i_048.digits)
    m_bound = len(neighbours.vectors) + 1
    for k in range(1, 7):
        g_k = 1
        for j in range(k):
            g_k *= len(seq.entry(j))
        n_k = _tile_count_upper(m3i_048, seq, k)
        assert g_k <= n_k <= m_bound * g_k
    report(13, "equivalence oracle, SEP round-trips, and k-tile brackets all hold")


def test_criterion_14_quadratic_arbitration():
    sys = rt.companion_system([21, 9], [0, 10, 20])
    alpha = vector_seq([(10, 0), (0, 0)], [(10, 0), (0, 0)])
    t = rt.translate_spec(sys, alpha)
    seq = rt.intersection_sequence(t)
    exact = rt.box_dimension_ep(sys, seq).exact
    assert exact == ExactDim.log_ratio(6, 21)
    est = rt.box_count_exponent(sys, seq, 8)
    assert abs(est - math.log(6) / math.log(21)) < 0.05
    assert abs(est - math.log(4) / math.log(21)) > 0.05
    from radixtile.intersect import intersection_report

    rep = intersection_report(t, empirical_depth=8)
    assert rep["flags"]["empirical_matches_exact"] is True
    assert rep["dims"]["box"]["exact"] == "log(6)/log(21)"
    report(14, "depth-8 box count sides with log6/log21 and the report flags the check")
