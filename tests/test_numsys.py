import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import linalg
from radixtile.errors import NonTerminating, NotACrs, NotExpanding, ZeroNotInDigits
from radixtile.neighbours import tile_integer_points

from conftest import gauss_matrix, gauss_system


class TestDigitOf:
    def test_decimal(self, base10):
        assert rt.digit_of(base10, (37,)) == (7,)

    def test_twin_two_counterexample_vector(self, twin_two):
        # (-1, 1) = 2*(-1, 0) + (1, 1)
        assert rt.digit_of(twin_two, (-1, 1)) == (1, 1)

    def test_digit_in_set(self):
        sys = gauss_system(3)
        assert rt.digit_of(sys, (1, 0)) == (1, 0)

    def test_not_a_crs(self):
        sys = rt.RadixSystem(((10,),), ((0,), (1,), (2,)))
        with pytest.raises(NotACrs):
            rt.digit_of(sys, (5,))

    def test_huge_determinant_without_a_crs(self):
        # two digits of 2**70 classes: the lookup builds no table of every class
        sys = rt.RadixSystem(((2**70,),), ((0,), (1,)))
        assert rt.digit_of(sys, (2**70 + 1,)) == (1,)
        with pytest.raises(NotACrs, match=r"no digit is congruent to \(5,\)"):
            rt.digit_of(sys, (5,))


class TestRemainderSequence:
    def test_fixed_point_minus_one(self, base10):
        trace = rt.remainder_sequence(base10, (-1,))
        # g(-1) = (-1 - 9)/10 = -1
        assert trace.transient == ()
        assert trace.cycle == ((-1,),)

    def test_twin_two_trace(self, twin_two):
        trace = rt.remainder_sequence(twin_two, (-1, 1))
        assert trace.transient == ((-1, 1),)
        assert trace.cycle == ((-1, 0),)

    def test_decimal_digits(self, base10):
        trace = rt.remainder_sequence(base10, (905,))
        assert trace.cycle == ((0,),)
        assert trace.digits_emitted[:3] == ((5,), (0,), (9,))

    def test_links_hold(self, base10):
        trace = rt.remainder_sequence(base10, (4711,))
        states = list(trace.transient) + list(trace.cycle)
        for k in range(len(states) - 1):
            v, w = states[k], states[k + 1]
            d = trace.digits_emitted[k]
            assert v == linalg.vec_add(linalg.mat_vec(base10.matrix, w), d)


class TestNumberSystems:
    def test_decimal_on_z_fails_with_minus_one(self, base10):
        ok, witnesses = rt.is_number_system(base10)
        assert not ok
        assert ((-1,),) in witnesses

    def test_twin_two_fails_with_witness(self, twin_two):
        ok, witnesses = rt.is_number_system(twin_two)
        assert not ok
        assert ((-1, 0),) in witnesses

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gauss_companion_systems(self, n):
        sys = rt.companion_system([n * n + 1, 2 * n], range(n * n + 1))
        ok, witnesses = rt.is_number_system(sys)
        assert ok and witnesses == ()

    def test_gauss_direct_matrix(self):
        ok, _ = rt.is_number_system(gauss_system(2))
        assert ok

    def test_zero_required(self):
        sys = rt.RadixSystem(((10,),), tuple((d,) for d in range(1, 11)))
        with pytest.raises(ZeroNotInDigits):
            rt.is_number_system(sys)

    def test_crs_required(self, base10):
        sys = rt.RadixSystem(((10,),), tuple((d,) for d in [0, 1, 2, 3, 4, 5, 6, 7, 8, 18]))
        with pytest.raises(NotACrs):
            rt.is_number_system(sys)

    def test_not_expanding_rejected(self):
        sys = rt.RadixSystem(((1, 1), (0, 1)), ((0, 0),))
        with pytest.raises(NotExpanding):
            rt.is_number_system(sys)

    @pytest.mark.parametrize(
        "sys_builder",
        [
            lambda: rt.RadixSystem(((10,),), tuple((d,) for d in range(10))),
            lambda: rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1))),
            lambda: gauss_system(2),
            lambda: gauss_system(3),
        ],
    )
    def test_tile_point_cross_check(self, sys_builder):
        # the pair is a number system iff the tile meets the lattice only at 0
        sys = sys_builder()
        ok, witnesses = rt.is_number_system(sys)
        points = tile_integer_points(sys.matrix, sys.digits)
        assert ok == (points == frozenset({linalg.zero_vec(sys.n)}))
        for cycle in witnesses:
            for w in cycle:
                assert linalg.vec_neg(w) in points

    def test_cycles_reproduce_themselves(self, twin_two):
        _, witnesses = rt.is_number_system(twin_two)
        for cycle in witnesses:
            trace = rt.remainder_sequence(twin_two, cycle[0])
            assert set(trace.cycle) == set(cycle)


class TestDiscreteExpansion:
    def test_decimal(self, base10):
        assert rt.discrete_expansion(base10, (905,)) == ((5,), (0,), (9,))

    def test_zero_is_empty(self, base10):
        assert rt.discrete_expansion(base10, (0,)) == ()

    def test_nonterminating(self, twin_two):
        with pytest.raises(NonTerminating):
            rt.discrete_expansion(twin_two, (-1, 1))

    def test_round_trip_on_box(self):
        sys = rt.companion_system([5, 4], range(5))  # base -2+i
        rng = random.Random(11)
        for _ in range(50):
            v = (rng.randint(-40, 40), rng.randint(-40, 40))
            digits = rt.discrete_expansion(sys, v)
            assert rt.evaluate_expansion(sys, digits) == v
            # canonical: most significant digit nonzero
            if digits:
                assert digits[-1] != (0, 0)


class TestCompanionSystems:
    def test_base_ten_scalar(self):
        sys = rt.companion_system([-10], range(10))
        assert sys.matrix == ((10,),)
        assert sys.determinant == 10

    def test_quadratic_example(self):
        sys = rt.companion_system([21, 9], [0, 10, 20])
        assert sys.matrix == ((0, -21), (1, -9))
        assert sys.determinant == 21

    def test_gauss_realization_multiplies_like_the_root(self):
        # column j of the companion matrix is the basis expansion of
        # rho * rho^j; check against complex arithmetic for rho = -3+i
        sys = rt.companion_system([10, 6], range(10))
        rho = complex(-3, 1)
        basis = [1, rho]
        for j, col in enumerate(zip(*sys.matrix)):
            value = col[0] * basis[0] + col[1] * basis[1]
            assert abs(value - rho * basis[j]) < 1e-12

    def test_not_expanding_rejected(self):
        with pytest.raises(NotExpanding):
            rt.companion_system([-1], [0])


@st.composite
def small_systems(draw):
    """A 1- or 2-D integer matrix with distinct digits of small entries; nothing else is required."""
    n = draw(st.sampled_from([1, 2]))
    entry = st.integers(-4, 4)
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    digits = draw(st.lists(st.tuples(*[entry] * n), min_size=1, max_size=6, unique=True))
    return rt.RadixSystem(matrix, digits)


class TestDifferenceSystem:
    @settings(max_examples=100, deadline=None)
    @given(small_systems())
    def test_built_once_and_invisible_to_equality(self, sys):
        fresh = rt.RadixSystem(sys.matrix, sys.digits)
        expected = rt.RadixSystem(sys.matrix, sorted({linalg.vec_sub(d, e) for d in sys.digits for e in sys.digits}))
        built = sys.difference_system()
        assert built == expected and built.digits == expected.digits == sys.differences()
        assert sys.difference_system() is built
        assert sys.differences() is built.digits
        # the kept difference system does not change equality or the hash, so sys stays a sound lru_cache key
        assert sys == fresh and hash(sys) == hash(fresh) and repr(sys) == repr(fresh)
        assert {sys: 1}[fresh] == 1
