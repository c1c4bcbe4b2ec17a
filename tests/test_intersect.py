import itertools
import math
import sys as _sys
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import linalg
from radixtile.errors import (
    EmptyIntersection,
    GridViolation,
    InvalidWitness,
    SimilarityUnavailable,
    UniquenessNotEstablished,
)
from radixtile.intersect import ExactDim, intersection_report
from radixtile.radix import EpSeq, Representation, eval_exact, vector_seq
from radixtile.sep import translate

from conftest import alternating_block_counts, gauss_matrix, gauss_system, int_max_str_digits, parse_exact


def fs(*scalars):
    return frozenset((int(x), 0) for x in scalars)


def noSSC_spec(m3i_048):
    alpha = vector_seq([(-4, 0), (-8, 0)], [(0, 0), (8, 0)])
    return rt.translate_spec(m3i_048, alpha)


class TestExactDim:
    def test_log_ratio_normalization(self):
        assert ExactDim.log_ratio(4, 10) == ExactDim.log_ratio(2, 10, Fraction(2))
        assert ExactDim.log_ratio(9, 100) == ExactDim.log_ratio(3, 10)
        assert ExactDim.log_ratio(8, 4) == ExactDim.rational(Fraction(3, 2))
        assert ExactDim.log_ratio(1, 7) == ExactDim.zero()

    def test_scaling(self):
        d = ExactDim.log_ratio(3, 10, Fraction(2))
        assert d.scale(Fraction(1, 2)) == ExactDim.log_ratio(3, 10)

    def test_float_value(self):
        assert ExactDim.log_ratio(3, 10).value == pytest.approx(math.log(3) / math.log(10))

    def test_str_forms(self):
        assert str(ExactDim.log_ratio(3, 10)) == "log(3)/log(10)"
        assert str(ExactDim.zero()) == "0"

    @pytest.mark.skipif(not hasattr(_sys, "set_int_max_str_digits"), reason="this Python prints integers of any length")
    def test_a_base_past_the_digit_limit_prints_in_full(self):
        # log 2 + 9,999 log 3 has the primitive base 2 * 3**9999, of 4,772 decimal digits
        d = ExactDim.from_counts([2] + [3] * 9999, 10000, 10, 1)
        assert d.value == pytest.approx((math.log(2) + 9999 * math.log(3)) / (10000 * math.log(10)))
        with int_max_str_digits(4300):
            text = str(d)
        with int_max_str_digits(0):
            assert text == f"(1/10000)*log({2 * 3**9999})/log(10)"

    @pytest.mark.skipif(not hasattr(_sys, "set_int_max_str_digits"), reason="this Python prints integers of any length")
    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.dictionaries(st.integers(1, 13), st.integers(1, 12_000), min_size=1, max_size=3),
        period=st.integers(1, 12_000),
        determinant=st.sampled_from([2, -3, 4, 10, -12, 100]),
        dim=st.integers(1, 3),
    )
    @example(counts={2: 1, 3: 9999}, period=10000, determinant=10, dim=1)  # a base of 4,772 digits
    @example(counts={6: 1, 11: 12_000}, period=1, determinant=-12, dim=3)  # 12,498 digits
    def test_the_printed_form_parses_back_to_the_value(self, counts, period, determinant, dim):
        d = ExactDim.from_counts([c for c, times in counts.items() for _ in range(times)], period, determinant, dim)
        with int_max_str_digits(4300):
            text = str(d)
        parsed = parse_exact(text)
        logs = sympy.log(sympy.Integer(d.base_num)) / sympy.log(sympy.Integer(d.base_den)) if d.base_num else 1
        assert parsed == sympy.Rational(d.coeff.numerator, d.coeff.denominator) * logs
        assert float(parsed) == pytest.approx(d.value, rel=1e-12)


# ---------------------------------------------------------------------------
# the root-search construction of ExactDim, as a reference: multiply the
# counts, then bisect an integer root for every exponent down from the top


def _reference_root(a, e):
    lo, hi = 1, 1 << (a.bit_length() // e + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**e <= a else (lo, mid - 1)
    return lo


def _reference_primitive_power(a):
    if a < 2:
        return a, 1
    for e in range(a.bit_length(), 1, -1):
        r = _reference_root(a, e)
        if r**e == a and r >= 2:
            base, inner = _reference_primitive_power(r)
            return base, inner * e
    return a, 1


def _reference_log_ratio(num, den, coeff=Fraction(1)):
    if num == 1 or coeff == 0:
        return ExactDim.zero()
    a0, s = _reference_primitive_power(num)
    b0, t = _reference_primitive_power(den)
    c = Fraction(coeff) * Fraction(s, t)
    return ExactDim.rational(c) if a0 == b0 else ExactDim(c, a0, b0)


def _same_dim(got, want):
    assert got == want
    assert str(got) == str(want)
    assert got.value == want.value


_POWERS = [4, 8, 9, 16, 25, 27, 32, 36, 49]
_counts = st.lists(st.integers(1, 60) | st.sampled_from(_POWERS), min_size=1, max_size=8)
_dets = st.integers(2, 1000) | st.sampled_from([4, 8, 9, 16, 27, 32, 64, 81, 125, 243, 256, 512, 625, 729, 1000])


@st.composite
def _same_base(draw):
    """Counts and a determinant that are all powers of one base, such as counts [3, 3] with det 9."""
    base = draw(st.integers(2, 7))
    counts = draw(st.lists(st.integers(0, 3).map(lambda e: base**e), min_size=1, max_size=6))
    return counts, base ** draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(st.tuples(_counts, _dets) | _same_base(), st.integers(1, 6), st.integers(1, 3), st.booleans())
def test_from_counts_matches_the_root_search(case, period, dim, negative):
    counts, det = case
    det = -det if negative else det
    want = _reference_log_ratio(math.prod(counts), abs(det), Fraction(dim, period))
    _same_dim(ExactDim.from_counts(counts, period, det, dim), want)


@settings(max_examples=300, deadline=None)
@given(_counts | _same_base().map(lambda case: case[0]), _dets, st.fractions(-3, 3, max_denominator=7))
def test_log_ratio_matches_the_root_search(counts, den, coeff):
    num = math.prod(counts)
    _same_dim(ExactDim.log_ratio(num, den, coeff), _reference_log_ratio(num, den, coeff))


_P61, _P31 = 2**61 - 1, 2**31 - 1  # Mersenne primes: trial division would need about 1.5e9 steps


@pytest.mark.parametrize(
    "counts, det",
    [
        ([_P61], 10),
        ([_P61 * _P31], 10),
        ([_P61 * _P31, _P31 * 4, 2, _P61**2], 6),
        ([_P61**3, _P31**6 * 8, 27**3], 10),
        ([_P61, _P61], _P61**2),
        ([_P61**2 * _P31], (_P61**2 * _P31) ** 3),
    ],
)
def test_counts_with_large_primes(counts, det):
    want = _reference_log_ratio(math.prod(counts), det, Fraction(1, 2))
    _same_dim(ExactDim.from_counts(counts, 2, det, 1), want)
    _same_dim(ExactDim.log_ratio(math.prod(counts), det, Fraction(1, 2)), want)
    _same_dim(rt.similarity_dimension_counts(counts, 2, det, 1).exact, want)


class TestIntersectionSequence:
    def test_self_affine_fixture(self, m3i_048):
        seq = rt.intersection_sequence(noSSC_spec(m3i_048))
        assert seq.pre == (fs(0, 4), fs(0))
        assert seq.cycle == (fs(0, 4, 8), fs(8))

    def test_variant_with_two_maps(self, m3i_048):
        t = rt.translate_spec(m3i_048, vector_seq([(-4, 0), (-8, 0)], [(-4, 0), (8, 0)]))
        seq = rt.intersection_sequence(t)
        assert seq.pre == (fs(0, 4), fs(0))
        assert seq.cycle == (fs(0, 4), fs(8))

    def test_zero_translate_gives_full_digits(self, m3i_048):
        t = rt.translate_spec(m3i_048, vector_seq([], [(0, 0)]))
        seq = rt.intersection_sequence(t)
        assert seq.cycle == (frozenset(m3i_048.digits),)

    def test_strict_mode_requires_uniqueness(self):
        sys = gauss_system(3)  # full digit set: differences are not unique
        with pytest.raises(UniquenessNotEstablished):
            rt.translate_spec(sys, vector_seq([], [(1, 0)]))

    def test_waiver(self):
        sys = gauss_system(3)
        t = rt.translate_spec(sys, vector_seq([], [(1, 0)]), strict=False)
        assert not t.uniqueness_checked

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_entry_reference(self, data):
        sys = IFS_SYSTEMS[data.draw(st.sampled_from(sorted(IFS_SYSTEMS)))]
        shifts = st.sampled_from(sorted({linalg.vec_sub(d, e) for d in sys.digits for e in sys.digits}))
        pre = data.draw(st.lists(shifts, max_size=12))
        cycle = data.draw(st.lists(shifts, min_size=1, max_size=6))
        t = rt.TranslateSpec(system=sys, alpha=vector_seq(pre, cycle), uniqueness_checked=False)
        # reference: D meet (D + a) built afresh for every entry a
        want = t.alpha.map(lambda a: frozenset(d for d in sys.digits if linalg.vec_sub(d, a) in set(sys.digits)))
        got = rt.intersection_sequence(t)
        assert (got.pre, got.cycle) == (want.pre, want.cycle)


class TestMultiIntersection:
    def test_base3_pair(self, base3_cantor):
        a = rt.translate_spec(base3_cantor, vector_seq([(0,)], [(0,), (2,)]), strict=False)
        b = rt.translate_spec(base3_cantor, vector_seq([(0,)], [(2,), (0,)]), strict=False)
        seq = rt.multi_intersection_sequence([a, b])
        assert seq.pre == (frozenset({(0,), (2,)}),)
        assert seq.cycle == (frozenset({(2,)}),)

    def test_single_translate_degenerates(self, m3i_048):
        t = noSSC_spec(m3i_048)
        assert rt.multi_intersection_sequence([t]) == rt.intersection_sequence(t)

    def test_empty_intersection_raised(self, base3_cantor):
        a = rt.translate_spec(base3_cantor, vector_seq([], [(2,)]), strict=False)
        b = rt.translate_spec(base3_cantor, vector_seq([], [(-2,)]), strict=False)
        with pytest.raises(EmptyIntersection):
            rt.multi_intersection_sequence([a, b])


class TestIfs:
    def test_four_maps_with_exact_offsets(self, m3i_048):
        t = noSSC_spec(m3i_048)
        seq = rt.intersection_sequence(t)
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        ifs = rt.build_ifs(t, w)
        assert ifs.map_count == 4
        a = m3i_048.matrix
        e1 = (1, 0)

        def ratvec(v):
            return tuple(Fraction(x) for x in v)

        a1 = linalg.frac_mat_vec(linalg.mat_inv_pow(a, 1), e1)
        a3 = linalg.frac_mat_vec(linalg.mat_inv_pow(a, 3), e1)
        a4 = linalg.frac_mat_vec(linalg.mat_inv_pow(a, 4), e1)
        f1 = tuple(8 * x for x in a4)
        f2 = tuple(4 * x + 8 * y for x, y in zip(a3, a4))
        f3 = tuple(4 * x + 8 * y for x, y in zip(a1, a4))
        f4 = tuple(4 * x + 4 * y + 8 * z for x, y, z in zip(a1, a3, a4))
        assert set(ifs.offsets) == {f1, f2, f3, f4}

    def test_variant_two_maps(self, m3i_048):
        t = rt.translate_spec(m3i_048, vector_seq([(-4, 0), (-8, 0)], [(-4, 0), (8, 0)]))
        seq = rt.intersection_sequence(t)
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        ifs = rt.build_ifs(t, w)
        assert ifs.map_count == 2

    def test_trivial_translate_reproduces_defining_ifs(self, m3i_048):
        t = rt.translate_spec(m3i_048, vector_seq([], [(0, 0)]))
        seq = rt.intersection_sequence(t)
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        ifs = rt.build_ifs(t, w)
        assert ifs.power == 1
        assert ifs.map_count == len(m3i_048.digits)
        expected = {
            linalg.frac_mat_vec(linalg.mat_inv_pow(m3i_048.matrix, 1), d)
            for d in m3i_048.digits
        }
        assert set(ifs.offsets) == expected

    def test_invalid_witness_rejected(self, m3i_048):
        t = noSSC_spec(m3i_048)
        bad = rt.SepSetWitness(
            block=1,
            beta_head=((0, 0),),
            beta_cycle=((0, 0),),
            base=(fs(0),),
            increments=(fs(0),),
        )
        with pytest.raises(InvalidWitness):
            rt.build_ifs(t, bad)

    def test_maps_send_samples_into_intersection_cover(self, m3i_048):
        # image points of depth-k truncations keep prefixes allowed by the
        # component sets up to depth k+p
        t = noSSC_spec(m3i_048)
        seq = rt.intersection_sequence(t)
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        ifs = rt.build_ifs(t, w)
        k = 4
        cloud = rt.ktile_points(m3i_048, k, digit_filter=seq)
        cover = rt.ktile_points(m3i_048, k + ifs.power, digit_filter=seq)
        inv_kp = linalg.mat_inv_pow(m3i_048.matrix, k + ifs.power)
        cover_pts = set(cover.points)
        diam = 2 * m3i_048.max_digit_norm() * rt.tail_bound(m3i_048.matrix, 0)
        tol = diam * abs(m3i_048.determinant) ** (-(k + ifs.power) / 2.0)
        for point in cloud.points:
            for idx in range(ifs.map_count):
                image = ifs.apply(idx, point)
                dist = min(
                    math.sqrt(sum(float(a - b) ** 2 for a, b in zip(image, q)))
                    for q in cover_pts
                )
                assert dist <= tol


def reference_ifs(t, w):
    """The per-map formula, one Fraction sum per choice of u_l and v_l:
    A^-p (sum_l (A^{p-l-1} u_l + A^{-l-1} v_l) - beta) + beta."""
    a, p, n = t.system.matrix, w.block, t.system.n
    beta = eval_exact(Representation(t.system, EpSeq.make(w.beta_head, w.beta_cycle)))
    offsets = set()
    for us in itertools.product(*[sorted(u) for u in w.base]):
        for vs in itertools.product(*[sorted(v) for v in w.increments]):
            total = [Fraction(0)] * n
            for l in range(p):
                term_u = linalg.mat_vec(linalg.mat_pow(a, p - l - 1), us[l])
                term_v = linalg.frac_mat_vec(linalg.mat_inv_pow(a, l + 1), vs[l])
                total = [x + tu + tv for x, tu, tv in zip(total, term_u, term_v)]
            shifted = tuple(x - b for x, b in zip(total, beta))
            offset = linalg.frac_mat_vec(linalg.mat_inv_pow(a, p), shifted)
            offsets.add(tuple(o + b for o, b in zip(offset, beta)))
    return rt.IfsSpec(p, linalg.mat_inv_pow(a, p), tuple(sorted(offsets)), beta)


def rebased(w, digits, draw):
    """The same decomposition with betas drawn from the digits: base and
    increments shift so the witness rebuilds the same sequence."""
    head = tuple(draw(digits) for _ in range(w.block))
    tail = tuple(draw(digits) for _ in range(w.block))
    base, incs = [], []
    for u, v, b0, b1, bh, bc in zip(w.base, w.increments, w.beta_head, w.beta_cycle, head, tail):
        base.append(translate(u, linalg.vec_sub(b0, bh)))
        incs.append(translate(v, linalg.vec_add(linalg.vec_sub(bh, bc), linalg.vec_sub(b1, b0))))
    return rt.SepSetWitness(w.block, head, tail, tuple(base), tuple(incs))


IFS_SYSTEMS = {
    "m3i_048": rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0), (8, 0))),
    "gauss2": gauss_system(2, (0, 1, 4)),
    "base3": rt.RadixSystem(((3,),), ((0,), (1,), (2,))),
    "base5": rt.RadixSystem(((5,),), ((0,), (2,), (3,), (4,))),
}


class TestIfsReference:
    @given(st.sampled_from(sorted(IFS_SYSTEMS)), st.data())
    @settings(max_examples=120, deadline=None)
    def test_minkowski_offsets_match_per_map_formula(self, name, data):
        sys = IFS_SYSTEMS[name]
        diffs = sorted(sys.differences())
        pre = data.draw(st.lists(st.sampled_from(diffs), max_size=2))
        cycle = data.draw(st.lists(st.sampled_from(diffs), min_size=1, max_size=3))
        try:
            t = rt.translate_spec(sys, vector_seq(pre, cycle), strict=False)
            w = rt.is_sep_sets_translated(sys.digits, rt.intersection_sequence(t))
        except EmptyIntersection:
            assume(False)
        assume(w is not None)
        assert rt.build_ifs(t, w) == reference_ifs(t, w)
        other = rebased(w, sys.digits, lambda d: data.draw(st.sampled_from(d)))
        assert other.rebuild() == w.rebuild()
        assert rt.build_ifs(t, other) == reference_ifs(t, other)

    def test_rebased_fixture(self, m3i_048):
        t = noSSC_spec(m3i_048)
        w = rt.is_sep_sets_translated(m3i_048.digits, rt.intersection_sequence(t))
        digits = iter([(8, 0), (4, 0), (4, 0), (0, 0)])
        other = rebased(w, m3i_048.digits, lambda d: next(digits))
        assert other.beta_head == ((8, 0), (4, 0)) and other.beta_cycle == ((4, 0), (0, 0))
        ifs = rt.build_ifs(t, other)
        assert ifs == reference_ifs(t, other)
        assert ifs.beta_value != rt.build_ifs(t, w).beta_value


class TestSscAndDims:
    def test_ssc_false_for_overlapping_sumsets(self, m3i_048):
        seq = rt.intersection_sequence(noSSC_spec(m3i_048))
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        assert not rt.check_ssc(w)

    def test_ssc_true_for_variant(self, m3i_048):
        t = rt.translate_spec(m3i_048, vector_seq([(-4, 0), (-8, 0)], [(-4, 0), (8, 0)]))
        w = rt.is_sep_sets_translated(m3i_048.digits, rt.intersection_sequence(t))
        assert rt.check_ssc(w)

    def test_singleton_increments_always_separate(self):
        w = rt.SepSetWitness(
            block=2,
            beta_head=((0, 0),) * 2,
            beta_cycle=((0, 0),) * 2,
            base=(fs(0, 4), fs(0)),
            increments=(fs(0), fs(0)),
        )
        assert rt.check_ssc(w)

    def test_cantor_dimension(self, base3_cantor):
        # difference digits {0, +-2} allow non-unique representations, so
        # the zero translate is built with the explicit waiver
        t = rt.translate_spec(base3_cantor, vector_seq([], [(0,)]), strict=False)
        seq = rt.intersection_sequence(t)
        report = rt.box_dimension_ep(base3_cantor, seq)
        assert report.exact == ExactDim.log_ratio(2, 3)

    def test_box_dimension_fixture(self, m3i_048):
        seq = rt.intersection_sequence(noSSC_spec(m3i_048))
        report = rt.box_dimension_ep(m3i_048, seq)
        assert report.exact == ExactDim.log_ratio(3, 10)

    def test_similarity_dimension_fixture(self, m3i_048):
        seq = rt.intersection_sequence(noSSC_spec(m3i_048))
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        report = rt.similarity_dimension(m3i_048, w)
        assert report.exact == ExactDim.log_ratio(4, 10)

    def test_hausdorff_below_similarity_without_ssc(self, m3i_048):
        seq = rt.intersection_sequence(noSSC_spec(m3i_048))
        w = rt.is_sep_sets_translated(m3i_048.digits, seq)
        assert not rt.check_ssc(w)
        h = rt.hausdorff_dimension_sep(m3i_048, w)
        s = rt.similarity_dimension(m3i_048, w)
        assert h.value < s.value

    def test_hausdorff_equals_box_on_sep_tail(self, m3i_048):
        for alpha in [
            vector_seq([(-4, 0), (-8, 0)], [(0, 0), (8, 0)]),
            vector_seq([(-4, 0), (-8, 0)], [(-4, 0), (8, 0)]),
            vector_seq([(4, 0)], [(0, 0)]),
        ]:
            t = rt.translate_spec(m3i_048, alpha)
            seq = rt.intersection_sequence(t)
            w = rt.is_sep_sets_translated(m3i_048.digits, seq)
            h = rt.hausdorff_dimension_sep(m3i_048, w)
            b = rt.box_dimension_ep(m3i_048, seq)
            assert h.exact == b.exact

    def test_counts_form_cantor(self):
        report = rt.similarity_dimension_counts([2], 1, 3, 1)
        assert report.exact == ExactDim.log_ratio(2, 3)

    def test_generic_solver_matches_closed_form(self):
        s = rt.generic_similarity_dimension([1 / 3, 1 / 3])
        assert s == pytest.approx(math.log(2) / math.log(3), abs=1e-11)
        s = rt.generic_similarity_dimension([10 ** -0.5] * 4 )
        assert s == pytest.approx(2 * math.log(4) / math.log(10), abs=1e-10)

    def test_similarity_required(self):
        sys = rt.RadixSystem(((7, 0), (0, 10)), ((0, 0), (3, 3)))
        seq = EpSeq.make([], [frozenset({(0, 0)})])
        with pytest.raises(SimilarityUnavailable):
            rt.box_dimension_ep(sys, seq)


class TestQuadraticBase:
    def setup_method(self):
        self.sys = rt.companion_system([21, 9], [0, 10, 20])
        self.alpha = vector_seq([(10, 0), (0, 0)], [(10, 0), (0, 0)])

    def test_sequence(self):
        t = rt.translate_spec(self.sys, self.alpha)
        seq = rt.intersection_sequence(t)
        assert seq.pre == ()
        assert seq.cycle == (fs(10, 20), fs(0, 10, 20))

    def test_exact_dimension_is_log6(self):
        t = rt.translate_spec(self.sys, self.alpha)
        seq = rt.intersection_sequence(t)
        report = rt.box_dimension_ep(self.sys, seq)
        assert report.exact == ExactDim.log_ratio(6, 21)
        w = rt.is_sep_sets_translated(self.sys.digits, seq)
        assert rt.similarity_dimension(self.sys, w).exact == ExactDim.log_ratio(6, 21)

    def test_empirical_arbiter_prefers_log6(self):
        t = rt.translate_spec(self.sys, self.alpha)
        seq = rt.intersection_sequence(t)
        est = rt.box_count_exponent(self.sys, seq, 8)
        assert abs(est - math.log(6) / math.log(21)) < 0.05
        assert abs(est - math.log(4) / math.log(21)) > 0.05

    def test_report_flags_carry_empirical_check(self):
        t = rt.translate_spec(self.sys, self.alpha)
        report = intersection_report(t, empirical_depth=8)
        assert report["flags"]["empirical_matches_exact"]
        assert report["dims"]["box"]["exact"] == "log(6)/log(21)"


class TestGkProfile:
    def test_constant_counts(self, m3i_048):
        prof = rt.gk_profile(m3i_048, [3] * 50)
        target = 2 * math.log(3) / math.log(10)
        assert all(abs(p - target) < 1e-12 for p in prof)

    def test_ep_schedule_converges(self, m3i_048):
        seq = rt.intersection_sequence(noSSC_spec(m3i_048))
        counts = [len(seq.entry(j)) for j in range(10_000)]
        prof = rt.gk_profile(m3i_048, counts)
        assert abs(prof[-1] - math.log(3) / math.log(10)) < 1e-3

    def test_alternating_blocks_separate_liminf_limsup(self):
        sys = rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0)))
        counts = alternating_block_counts(10**4)
        prof = rt.gk_profile(sys, counts)
        gap_unit = 0.4 * math.log(2) / math.log(10)
        assert abs(prof[99] - prof[999]) > gap_unit
        assert abs(prof[9999] - prof[999]) > gap_unit


class TestBedfordMcMullen:
    def test_full_grid(self):
        digits = [(x, y) for x in range(3) for y in range(5)]
        assert rt.bm_dimensions(3, 5, digits) == (pytest.approx(2.0), pytest.approx(2.0))

    def test_single_digit(self):
        assert rt.bm_dimensions(2, 3, [(1, 2)]) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_grid_violation(self):
        with pytest.raises(GridViolation):
            rt.bm_dimensions(2, 3, [(5, 0)])
        with pytest.raises(GridViolation):
            rt.bm_dimensions(3, 3, [(0, 0)])

    def test_composite_carpet_reported_values(self):
        d1 = [(3, 0), (6, 0), (3, 6), (6, 3), (6, 6)]
        d2 = [(3, 3), (3, 6), (6, 3), (6, 6), (0, 9)]
        comp = [(7 * a + c, 10 * b + d) for (a, b) in d1 for (c, d) in d2]
        assert len(set(comp)) == 25
        dim_h, dim_b = rt.bm_dimensions(7, 10, comp, allow_refined=True)
        assert dim_h == pytest.approx(1.536, abs=0.005)
        assert dim_b == pytest.approx(1.540, abs=0.005)
        # the strict refined-grid reading gives exactly half of each value
        strict_h, strict_b = rt.bm_dimensions(49, 100, comp)
        assert strict_h == pytest.approx(dim_h / 2, abs=1e-12)
        assert strict_b == pytest.approx(dim_b / 2, abs=1e-12)


# expanding matrices whose norm bounds need one to several powers to fall below 1/2
PREFIX_MATRICES = [
    ((2,),), ((-3,),), ((10,),), gauss_matrix(1), gauss_matrix(3), ((0, -2), (1, 0)), ((1, -2), (1, 1)),
    ((0, 0, 2), (1, 0, 0), (0, 1, 0)),
]


def with_exact_ties(test):
    """Exact ties as explicit examples: on digits {0, e1}, epsilon = 2 tail_bound(A, m) equals the bound at m."""
    for matrix, m in itertools.product(PREFIX_MATRICES, (0, 1, 7, 40)):
        test = example(matrix=matrix, digits=[(0, 0, 0), (1, 0, 0)], epsilon=2 * linalg.tail_bound(matrix, m))(test)
    return test


def ref_prefix_length(sys, epsilon):
    """The first m below 10,000 that passes, by a linear scan."""
    diffs = sys.differences()
    dd_sq = max(linalg.norm_sq(linalg.vec_sub(a, b)) for a in diffs for b in diffs)
    if dd_sq == 0:
        return 0
    for m in range(10_000):
        if dd_sq * linalg.tail_bound(sys.matrix, m) ** 2 < Fraction(epsilon) ** 2:
            return m
    raise ValueError("epsilon too small to certify a prefix length")


class TestLevelSets:
    def test_extremes(self, m3i_048):
        t0 = rt.level_set_translate(m3i_048, [], Fraction(0))
        assert rt.box_dimension_ep(m3i_048, rt.intersection_sequence(t0)).exact == ExactDim.zero()
        t1 = rt.level_set_translate(m3i_048, [], Fraction(1))
        assert rt.box_dimension_ep(m3i_048, rt.intersection_sequence(t1)).exact == ExactDim.log_ratio(9, 10)

    def test_rational_levels_exact(self, m3i_048):
        tile_dim = ExactDim.log_ratio(9, 10)
        for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 5)):
            t = rt.level_set_translate(m3i_048, [], lam)
            got = rt.box_dimension_ep(m3i_048, rt.intersection_sequence(t)).exact
            assert got == tile_dim.scale(lam)

    def test_prefix_preserved_and_close(self, m3i_048):
        alpha = vector_seq([], [(4, 0), (-8, 0), (0, 0)])
        eps = 1e-3
        m = rt.intersect.prefix_length_for_radius(m3i_048, eps)
        prefix = [alpha.entry(j) for j in range(m)]
        t = rt.level_set_translate(m3i_048, prefix, Fraction(1, 2))
        assert t.alpha.prefix(m) == tuple(prefix)
        spec_alpha = rt.TranslateSpec(m3i_048, alpha, uniqueness_checked=True)
        dist = math.sqrt(
            sum(float(a - b) ** 2 for a, b in zip(t.alpha_value(), spec_alpha.alpha_value()))
        )
        assert dist < eps

    def test_prefix_length_is_exact_in_epsilon(self, m3i_048):
        # the exact epsilon from the CLI is compared without a float cast;
        # 1/10^400 is 0.0 as a float
        for eps in (Fraction(1, 10), Fraction(1, 1000)):
            assert rt.intersect.prefix_length_for_radius(m3i_048, eps) == (
                rt.intersect.prefix_length_for_radius(m3i_048, float(eps))
            )
        tiny = rt.intersect.prefix_length_for_radius(m3i_048, Fraction(1, 10**400))
        assert 750 < tiny < 850
        for eps in (0, -1, Fraction(-1, 3)):
            with pytest.raises(ValueError):
                rt.intersect.prefix_length_for_radius(m3i_048, eps)

    @settings(max_examples=240, deadline=None)
    @given(
        matrix=st.sampled_from(PREFIX_MATRICES),
        digits=st.lists(st.tuples(*[st.integers(-9, 9)] * 3), min_size=1, max_size=4, unique=True),
        epsilon=st.fractions(min_value=Fraction(1, 10**60), max_value=4, max_denominator=10**60),
    )
    @with_exact_ties
    def test_prefix_length_matches_linear_scan(self, matrix, digits, epsilon):
        assume(epsilon > 0)
        # the digits are the drawn vectors cut to the matrix's dimension
        sys = rt.RadixSystem(matrix, tuple({d[: len(matrix)] for d in digits}))
        assert rt.intersect.prefix_length_for_radius(sys, epsilon) == ref_prefix_length(sys, epsilon)

    def test_prefix_length_reads_each_difference_once(self):
        # 1,000 digits in base 1,001: no difference of two of the 1,999 digit differences is formed
        sys = rt.RadixSystem(((1001,),), tuple((d,) for d in range(1000)))
        epsilon = Fraction(1, 10**6)
        with mock.patch.object(linalg, "vec_sub", wraps=linalg.vec_sub) as vec_sub:
            m = rt.intersect.prefix_length_for_radius(sys, epsilon)
        assert vec_sub.call_count == 0
        # the largest difference of differences is 999 - (-999) = 1,998
        assert m == next(j for j in itertools.count() if 1998 * linalg.tail_bound(sys.matrix, j) < epsilon)

    # two and three norms: m = 10,000 starts a block of positions, or lies inside one
    @pytest.mark.parametrize("matrix", [((2,),), gauss_matrix(1)])
    def test_prefix_length_cap(self, matrix):
        # digits {0, e1}: the differences {-e1, 0, e1} differ by at most 2
        sys = rt.RadixSystem(matrix, (linalg.zero_vec(len(matrix)), (1,) + (0,) * (len(matrix) - 1)))
        bound = [2 * linalg.tail_bound(matrix, m) for m in (9_998, 9_999, 10_000)]
        assert bound[0] > bound[1] > bound[2]
        assert rt.intersect.prefix_length_for_radius(sys, bound[0]) == 9_999
        with pytest.raises(ValueError):  # the first passing m is 10,000
            rt.intersect.prefix_length_for_radius(sys, bound[1])

    def test_scalar_half_level(self):
        sys = rt.RadixSystem(((10,),), ((0,), (3,)))
        t = rt.level_set_translate(sys, [], Fraction(1, 2))
        got = rt.box_dimension_ep(sys, rt.intersection_sequence(t)).exact
        assert got == ExactDim.log_ratio(2, 10, Fraction(1, 2))


class TestTwoDigitSpecialCase:
    def test_zero_translate(self):
        sys = rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0)))
        t = rt.translate_spec(sys, vector_seq([], [(0, 0)]))
        gamma, bounds = rt.minimal_element(sys, t)
        assert gamma == (Fraction(0), Fraction(0))
        assert bounds == EpSeq.make([], [4])

    def test_prefix_translate(self):
        sys = rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0)))
        t = rt.translate_spec(sys, vector_seq([(4, 0)], [(0, 0)]))
        _, bounds = rt.minimal_element(sys, t)
        assert bounds == EpSeq.make([0], [4])
        w = rt.check_selfsim_sep_special(t)
        assert w == rt.SepIntWitness(block=1, base=(0,), increments=(4,))

    def test_all_shift_translate(self):
        sys = rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0)))
        t = rt.translate_spec(sys, vector_seq([], [(4, 0)]))
        _, bounds = rt.minimal_element(sys, t)
        assert bounds == EpSeq.make([], [0])
        assert rt.check_selfsim_sep_special(t) is not None


class TestUnionComponents:
    def test_uncountable_family(self):
        sys = rt.RadixSystem(gauss_matrix(3), ((0, 0), (1, 0), (6, 0), (8, 0)))
        t = rt.TranslateSpec(sys, vector_seq([], [(0, 0), (0, 0), (2, 0)]), uniqueness_checked=False)
        report = rt.union_components(t, limit=8)
        assert report.classification == "uncountable"
        dims = {str(c.dim_lower.exact) for c in report.components}
        # the pure block components realize the extremes
        top = ExactDim.log_ratio(16, 10, Fraction(2, 3))
        assert str(top) in dims
        assert "0" in dims

    def test_unique_alpha_single_component(self, m3i_048):
        t = noSSC_spec(m3i_048)
        report = rt.union_components(t, limit=8)
        assert len(report.components) == 1
        assert report.components[0].sets == rt.intersection_sequence(t)
