import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile.radix import EpSeq, vector_seq

from conftest import gauss_matrix, gauss_system, ref_enumerate_equivalents


def complex_eval_oracle(matrix, seq, terms=400):
    """Truncated complex evaluation for 2x2 complex-structure matrices.

    matrix must encode multiplication by b = matrix[1][0]*i + matrix[1][1]*...
    which for ((x, -y), (y, x)) is b = x + iy; digits (a, c) map to a + ci.
    """
    b = complex(matrix[0][0], matrix[1][0])
    total = 0j
    power = 1 / b
    for j in range(terms):
        d = seq.entry(j)
        total += power * complex(d[0], d[1] if len(d) > 1 else 0)
        power /= b
    return total


class TestEpSeq:
    def test_cycle_reduced_to_primitive(self):
        s = EpSeq.make([1], [2, 3, 2, 3])
        assert s.cycle == (2, 3)

    def test_tail_absorbed(self):
        s = EpSeq.make([1, 0], [0])
        assert s == EpSeq.make([1], [0])

    def test_rotation_merge(self):
        # 1,(2,3,2,...) with trailing pre 2 equals 1,(2)(3,2 bar)? check raw
        a = EpSeq.make([1, 3], [2, 3])
        b = EpSeq.make([1], [3, 2])
        assert a == b

    @given(
        st.lists(st.integers(0, 3), max_size=4),
        st.lists(st.integers(0, 3), min_size=1, max_size=4),
        st.integers(1, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_canonical_form_preserves_entries(self, pre, cycle, reps, rot):
        expanded = EpSeq.make(pre + cycle[:rot], cycle[rot:] + cycle[:rot])
        base = EpSeq.make(pre + cycle[:rot], (cycle[rot:] + cycle[:rot]) * reps)
        assert expanded == base
        for j in range(len(pre) + 3 * len(cycle)):
            assert expanded.entry(j) == base.entry(j)


class TestEvalExact:
    def test_one_tenth_two_ways(self, base10):
        x = rt.representation(base10, [(1,)], [(0,)])
        y = rt.representation(base10, [(0,)], [(9,)])
        assert rt.eval_exact(x) == (Fraction(1, 10),)
        assert rt.eval_exact(y) == (Fraction(1, 10),)

    def test_zero(self, base10):
        z = rt.representation(base10, [], [(0,)])
        assert rt.eval_exact(z) == (Fraction(0),)

    def test_gilbert_identity_n3(self):
        sys = gauss_system(3)
        m = (3 - 1) ** 2 + 1
        lhs = rt.eval_exact(rt.representation(sys, [(2 * 3 - 1, 0)], [(m, 0), (0, 0)]))
        rhs = rt.eval_exact(rt.representation(sys, [(0, 0)], [(0, 0), (m, 0)]))
        assert (lhs[0] + 1, lhs[1]) == rhs

    def test_matches_complex_truncation(self):
        sys = gauss_system(3)
        rng = random.Random(3)
        for _ in range(20):
            pre = [(rng.randint(0, 9), 0) for _ in range(rng.randint(0, 3))]
            cyc = [(rng.randint(0, 9), 0) for _ in range(rng.randint(1, 3))]
            rep = rt.representation(sys, pre, cyc)
            value = rt.eval_exact(rep)
            approx = complex_eval_oracle(sys.matrix, rep.seq)
            assert abs(complex(float(value[0]), float(value[1])) - approx) < 1e-10

    def test_shift_consistency(self, base10):
        rng = random.Random(5)
        a = base10.matrix
        for _ in range(40):
            pre = [(rng.randint(0, 9),) for _ in range(rng.randint(0, 3))]
            cyc = [(rng.randint(0, 9),) for _ in range(rng.randint(1, 4))]
            rep = rt.representation(base10, pre, cyc)
            value = rt.eval_exact(rep)
            shifted = rt.Representation(base10, rep.seq.shift())
            lhs = tuple(
                10 * v - x for v, x in zip(value, rep.seq.entry(0))
            )
            assert lhs == rt.eval_exact(shifted)


class TestEquivalence:
    def test_minus7i_triple(self):
        sys = gauss_system(7, digits=range(50))
        p = rt.representation(sys, [(1, 0), (13, 0)], [(36, 0), (0, 0), (49, 0)])
        q = rt.representation(sys, [(1, 0), (14, 0)], [(49, 0), (36, 0), (0, 0)])
        r = rt.representation(sys, [(0, 0), (0, 0)], [(0, 0), (49, 0), (36, 0)])
        assert rt.equivalent(p, q) and rt.equivalent(q, r) and rt.equivalent(p, r)

    def test_distinct_values(self, base10):
        x = rt.representation(base10, [(1,)], [(0,)])
        y = rt.representation(base10, [(2,)], [(0,)])
        assert not rt.equivalent(x, y)

    def test_integer_sequence_decimal(self, base10):
        x = rt.representation(base10, [(1,)], [(0,)])
        y = rt.representation(base10, [(0,)], [(9,)])
        assert rt.integer_sequence(x, y, 4) == [(0,), (1,), (1,), (1,), (1,)]
        assert rt.integer_sequence(y, x, 4) == [(0,), (-1,), (-1,), (-1,), (-1,)]

    def test_identical_reps_all_zero(self, base10):
        x = rt.representation(base10, [(3,)], [(7,)])
        assert set(rt.integer_sequence(x, x, 6)) == {(0,)}

    def test_neighbour_walk_positive(self, base10):
        x = rt.representation(base10, [(1,)], [(0,)])
        y = rt.representation(base10, [(0,)], [(9,)])
        assert rt.is_neighbour_sequence(x, y)

    def test_neighbour_walk_escapes(self, base10):
        x = rt.representation(base10, [(1,)], [(0,)])
        y = rt.representation(base10, [(0,)], [(8,)])
        assert not rt.is_neighbour_sequence(x, y)

    @pytest.mark.parametrize(
        "sys_builder",
        [
            lambda: rt.RadixSystem(((10,),), tuple((d,) for d in range(10))),
            lambda: rt.RadixSystem(((3,),), ((0,), (2,))),
            lambda: gauss_system(3),
            lambda: gauss_system(2, digits=range(5)),
            lambda: rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1))),
        ],
    )
    def test_equivalence_matches_walk_oracle(self, sys_builder):
        # random pairs plus constructed equivalent pairs; the two oracles
        # must agree exactly
        sys = sys_builder()
        rng = random.Random(hash(sys.matrix) & 0xFFFF)
        digits = sys.digits
        disagreements = 0
        for trial in range(120):
            pre_x = [rng.choice(digits) for _ in range(rng.randint(0, 2))]
            cyc_x = [rng.choice(digits) for _ in range(rng.randint(1, 3))]
            x = rt.representation(sys, pre_x, cyc_x)
            if trial % 4 == 0:
                _, samples = rt.enumerate_equivalents(sys, x, sample_limit=4)
                y = rt.Representation(sys, samples[min(len(samples) - 1, 1)])
            else:
                pre_y = [rng.choice(digits) for _ in range(rng.randint(0, 2))]
                cyc_y = [rng.choice(digits) for _ in range(rng.randint(1, 3))]
                y = rt.representation(sys, pre_y, cyc_y)
            if rt.equivalent(x, y) != rt.is_neighbour_sequence(x, y):
                disagreements += 1
        assert disagreements == 0


class TestUniqueness:
    def test_consecutive_small_digits_unique(self):
        assert rt.representations_unique(gauss_system(3, digits=range(5)))

    def test_full_digit_set_not_unique(self):
        assert not rt.representations_unique(gauss_system(3))

    def test_sparse_decimal_digits_unique(self):
        # differences exceed the unit bound max_digit/(base-1)
        sys = rt.RadixSystem(((10,),), ((0,), (2,), (5,)))
        assert rt.representations_unique(sys)


class TestEnumerateEquivalents:
    def test_decimal_pair(self, base10):
        x = rt.representation(base10, [(1,)], [(0,)])
        cls, samples = rt.enumerate_equivalents(base10, x)
        assert cls == "finitely-many"
        assert set(samples) == {
            EpSeq.make([(1,)], [(0,)]),
            EpSeq.make([(0,)], [(9,)]),
        }

    def test_unique_classification(self):
        sys = gauss_system(3, digits=range(5))
        x = rt.representation(sys, [(1, 0)], [(2, 0)])
        cls, samples = rt.enumerate_equivalents(sys, x)
        assert cls == "unique"
        assert samples == (x.seq,)

    def test_uncountable_blocks(self):
        sys = rt.RadixSystem(
            gauss_matrix(3), ((0, 0), (1, 0), (6, 0), (8, 0))
        ).difference_system()
        x = rt.representation(sys, [], [(0, 0), (0, 0), (2, 0)])
        cls, samples = rt.enumerate_equivalents(sys, x, sample_limit=10)
        assert cls == "uncountable"
        assert x.seq in samples
        assert EpSeq.make([], [(-1, 0), (-6, 0), (-8, 0)]) in samples

    def test_value_015_two_expansions(self):
        sys = rt.RadixSystem(((10,),), ((0,), (1,), (2,), (5,), (-5,)))
        x = rt.representation(sys, [(1,), (5,)], [(0,)])
        cls, samples = rt.enumerate_equivalents(sys, x)
        assert cls == "finitely-many"
        assert set(samples) == {
            EpSeq.make([(1,), (5,)], [(0,)]),
            EpSeq.make([(2,), (-5,)], [(0,)]),
        }

    def test_all_samples_evaluate_equal(self, base10):
        x = rt.representation(base10, [(3,), (1,)], [(0,)])
        _, samples = rt.enumerate_equivalents(base10, x)
        target = rt.eval_exact(x)
        for s in samples:
            assert rt.eval_exact(rt.Representation(base10, s)) == target

    def test_long_preperiod(self, base10):
        # the sampler walks 1,200 digits deep on one path and an explicit stack
        x = rt.representation(base10, [(3,)] * 1200, [(0,)])
        other = EpSeq.make([(3,)] * 1199 + [(2,)], [(9,)])
        cls, samples = rt.enumerate_equivalents(base10, x, sample_limit=4)
        assert cls == "finitely-many"
        assert samples == (x.seq, other)
        assert rt.is_neighbour_sequence(x, rt.Representation(base10, other))

    def test_unique_implies_system_consistency(self):
        sys = gauss_system(3, digits=range(5))
        assert rt.representations_unique(sys)
        rng = random.Random(2)
        for _ in range(10):
            pre = [rng.choice(sys.digits) for _ in range(rng.randint(0, 2))]
            cyc = [rng.choice(sys.digits) for _ in range(rng.randint(1, 2))]
            cls, _ = rt.enumerate_equivalents(sys, rt.representation(sys, pre, cyc))
            assert cls == "unique"


# the systems of the reference comparison: 1-D bases with sorted digit sets drawn below, -3+i on digits 0..9, and
# the difference systems of -3+i and of 2I, which union-components walks
REFERENCE_SYSTEMS = [
    gauss_system(3),
    gauss_system(3).difference_system(),
    rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1))).difference_system(),
]


@st.composite
def reference_cases(draw):
    base = draw(st.sampled_from([2, -2, 3, -3, 4, -4, 5, -5]))
    # a complete residue system 0..|b|-1 and a cycle of its least or greatest digit give the finitely-many class
    # often, as 1/10 is 1 0-bar and 0 9-bar in base 10
    digit_sets = st.one_of(st.just(range(abs(base))), st.lists(st.integers(-3, 7), min_size=2, max_size=6, unique=True))
    one_dim = digit_sets.map(lambda ds: rt.RadixSystem(((base,),), tuple((d,) for d in ds)))
    sys = draw(st.one_of(one_dim, st.sampled_from(REFERENCE_SYSTEMS)))
    # entries from a few digits, so that equivalent walks and the three non-unique classes turn up often
    pool = draw(st.lists(st.sampled_from(sys.digits), min_size=1, max_size=3, unique=True))
    pre = draw(st.lists(st.sampled_from(pool), max_size=40))
    extreme = st.sampled_from([sys.digits[0], sys.digits[-1]]).map(lambda d: [d])
    cycle = draw(st.one_of(st.lists(st.sampled_from(pool), min_size=1, max_size=6), extreme))
    return sys, rt.representation(sys, pre, cycle), draw(st.integers(1, 32))


class TestSamplesAgainstReference:
    """The one-pass walk against the two dict passes and the sampler that builds an EpSeq at every closed walk."""

    @settings(max_examples=150, deadline=None)
    @given(reference_cases())
    def test_class_and_samples_match(self, case):
        sys, x, limit = case
        assert rt.enumerate_equivalents(sys, x, limit) == ref_enumerate_equivalents(sys, x, limit)

    def test_long_difference_preperiod_matches(self):
        # the alpha of the preperiod-300 union-components job on -3+i, digits 0..9
        sys = gauss_system(3).difference_system()
        x = rt.representation(sys, [(1, 0)] * 300, [(0, 0)])
        assert rt.enumerate_equivalents(sys, x, 8) == ref_enumerate_equivalents(sys, x, 8)

    def test_each_sample_is_built_once(self):
        # a sampler that builds an EpSeq at every closed walk makes about 20,000 of them here
        sys = gauss_system(3).difference_system()
        x = rt.representation(sys, [(1, 0)] * 1200, [(0, 0)])
        with mock.patch.object(EpSeq, "make", wraps=EpSeq.make) as make:
            _, samples = rt.enumerate_equivalents(sys, x, 8)
        assert len(samples) == 8
        assert make.call_count <= 8


class TestPairAutomaton:
    def test_decimal_structure(self, base10):
        auto = rt.pair_automaton(base10)
        assert set(auto.states) == {(-1,), (0,), (1,)}
        loops_on_one = [pair for src, pair, dst in auto.edges if src == (1,) and dst == (1,)]
        assert loops_on_one == [((0,), (9,))]

    def test_dot_deterministic(self, base10):
        a = rt.pair_automaton(base10).to_dot()
        b = rt.pair_automaton(base10).to_dot()
        assert a == b
        assert "digraph" in a
