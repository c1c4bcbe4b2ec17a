import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

import radixtile as rt
from radixtile import linalg
from radixtile.errors import CandidateBallTooLarge, SingularMatrix

from conftest import charged


def mat_eq(a, b):
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


class TestSmithNormalForm:
    def test_scaled_identity(self):
        snf = rt.smith_normal_form(((2, 0), (0, 2)))
        assert snf.diagonal == (2, 2)

    def test_minus3_plus_i_matrix(self):
        # hand row reduction: the entry 1 clears everything, |det| = 10
        snf = rt.smith_normal_form(((-3, -1), (1, -3)))
        assert snf.diagonal == (1, 10)
        assert mat_eq(linalg.mat_mul(linalg.mat_mul(snf.u, ((-3, -1), (1, -3))), snf.v), snf.s)

    def test_minus7_plus_i_product(self):
        # det by cofactor expansion: (-7)(-7) - (-1)(1) = 50
        snf = rt.smith_normal_form(((-7, -1), (1, -7)))
        s1, s2 = snf.diagonal
        assert abs(s1 * s2) == 50

    def test_transforms_are_unimodular(self):
        snf = rt.smith_normal_form(((6, 4), (2, 8)))
        assert abs(linalg.det(snf.u)) == 1
        assert abs(linalg.det(snf.v)) == 1

    def test_singular_matrix_supported(self):
        snf = rt.smith_normal_form(((2, 4), (1, 2)))
        assert mat_eq(linalg.mat_mul(linalg.mat_mul(snf.u, ((2, 4), (1, 2))), snf.v), snf.s)
        assert snf.diagonal[-1] == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_recovers_planted_diagonal(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3])
        s1 = rng.randint(1, 4)
        diag = [s1]
        for _ in range(n - 1):
            diag.append(diag[-1] * rng.randint(1, 4))
        s = tuple(tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n))
        u = _random_unimodular(rng, n)
        v = _random_unimodular(rng, n)
        a = linalg.mat_mul(linalg.mat_mul(_unimodular_inverse(u), s), _unimodular_inverse(v))
        snf = rt.smith_normal_form(a)
        assert list(snf.diagonal) == diag
        assert mat_eq(linalg.mat_mul(linalg.mat_mul(snf.u, a), snf.v), snf.s)

    @given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_divisibility_chain(self, entries):
        a = ((entries[0], entries[1]), (entries[2], entries[3]))
        snf = rt.smith_normal_form(a)
        s1, s2 = snf.diagonal
        assert s1 >= 0 and s2 >= 0
        if s1 != 0:
            assert s2 % s1 == 0
        assert abs(s1 * s2) == abs(linalg.det(a))
        assert mat_eq(linalg.mat_mul(linalg.mat_mul(snf.u, a), snf.v), snf.s)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_sympy(self, data):
        # a 1-4-D matrix as drawn, with its last row a multiple of its first (singular from 2-D on), zero, or a power A^k
        n = data.draw(st.integers(1, 4))
        a = data.draw(st.lists(st.tuples(*[st.integers(-9, 9)] * n), min_size=n, max_size=n).map(linalg.as_matrix))
        kind = data.draw(st.sampled_from(["drawn", "singular", "zero", "power"]))
        if kind == "singular":
            a = a[:-1] + (tuple(data.draw(st.integers(-2, 2)) * x for x in a[0]),)
        elif kind == "zero":
            a = linalg.mat_sub(a, a)
        elif kind == "power":
            a = linalg.mat_pow(a, data.draw(st.integers(2, 6)))
        snf = rt.smith_normal_form(a)
        diag = list(snf.diagonal)
        factors = [abs(int(x)) for x in invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)]
        assert diag == factors + [0] * (n - len(factors))
        assert mat_eq(linalg.mat_mul(linalg.mat_mul(snf.u, a), snf.v), snf.s)
        assert abs(linalg.det(snf.u)) == abs(linalg.det(snf.v)) == 1
        assert all(x == 0 for i, row in enumerate(snf.s) for j, x in enumerate(row) if i != j)
        rank = n - diag.count(0)
        assert all(x > 0 for x in diag[:rank]) and not any(diag[rank:])
        assert all(y % x == 0 for x, y in zip(diag[:rank], diag[1:rank]))


def _random_unimodular(rng, n):
    m = [list(row) for row in linalg.identity(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for t in range(n):
            m[i][t] += c * m[j][t]
    return tuple(tuple(row) for row in m)


def _unimodular_inverse(u):
    d = linalg.det(u)
    assert abs(d) == 1
    adj = linalg.adjugate(u)
    return tuple(tuple(x * d for x in row) for row in adj)


class TestResidueSystems:
    def test_twin_two_contains_standard_digits(self, twin_two):
        res = rt.residue_system(((2, 0), (0, 2)))
        assert len(res) == 4
        assert (0, 0) in res
        # unit box classes survive minimal-norm reduction up to sign choices
        assert rt.is_complete_residue_system(((2, 0), (0, 2)), res)
        assert rt.is_complete_residue_system(((2, 0), (0, 2)), twin_two.digits)

    def test_minus3i_size_and_incongruence(self):
        a = ((-3, -1), (1, -3))
        res = rt.residue_system(a)
        assert len(res) == 10
        # oracle: pairwise incongruence by exact rational solve
        inv = linalg.mat_inv_pow(a, 1)
        for i in range(len(res)):
            for j in range(i + 1, len(res)):
                diff = linalg.vec_sub(res[i], res[j])
                assert not linalg.is_integral(linalg.frac_mat_vec(inv, diff))

    def test_scalar_base_ten(self):
        # minimal-norm representatives with the lexicographic tie at +-5
        res = rt.residue_system(((10,),))
        assert res == tuple((d,) for d in range(-5, 5))

    def test_zero_is_present(self):
        assert (0, 0) in rt.residue_system(((-3, -1), (1, -3)))

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            rt.residue_system(((1, 1), (1, 1)))

    def test_crs_rejects_congruent_pair(self, twin_two):
        bad = ((0, 0), (2, 0), (0, 1), (1, 1))
        assert not rt.is_complete_residue_system(twin_two.matrix, bad)

    def test_crs_case_study_digits(self):
        a = ((-3, -1), (1, -3))
        digits = tuple((d, 0) for d in range(10))
        assert rt.is_complete_residue_system(a, digits)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_generated_system_always_passes(self, seed):
        rng = random.Random(seed)
        while True:
            a = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
            if linalg.det(a) != 0:
                break
        res = rt.residue_system(a)
        assert rt.is_complete_residue_system(a, res)

    def test_skewed_lattice_is_minimal(self):
        # det 160 on a skewed lattice, where an earlier local search
        # returned 138 non-minimal members
        a = ((-28, 8, 30), (4, 28, 22), (28, -10, -32))
        res = rt.residue_system(a)
        assert res == minimal_representatives_by_brute_force(a, res)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_three_by_three_is_minimal(self, seed):
        rng = random.Random(seed)
        while True:
            a = tuple(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(3))
            if 0 < abs(linalg.det(a)) <= 120:
                break
        res = rt.residue_system(a)
        assert res == minimal_representatives_by_brute_force(a, res)

    def test_ball_over_cap_raises(self):
        # det 10^8: a ball that meets every class holds about 10^8 points,
        # over the ball cap
        with pytest.raises(CandidateBallTooLarge) as info:
            rt.residue_system(((0, -(10**8)), (1, -1)))
        charged(info.value, "ball points", 10**7)


def minimal_representatives_by_brute_force(a, candidates):
    """Sorted least (norm, vector) member of every class, from the whole ball.

    Each class minimum is no longer than the candidate of that class, so the
    ball of the largest candidate norm holds all of them.
    """
    d = abs(linalg.det(a))
    adj = linalg.adjugate(a)
    limit = max(map(linalg.norm_sq, candidates))
    r = math.isqrt(limit)
    best = {}
    for p in itertools.product(range(-r, r + 1), repeat=len(a)):
        q = linalg.norm_sq(p)
        if q <= limit:
            key = tuple(x % d for x in linalg.mat_vec(adj, p))
            if key not in best or (q, p) < best[key]:
                best[key] = (q, p)
    assert len(best) == d
    return tuple(sorted(p for _, p in best.values()))


class TestSpectralInfo:
    def test_minus3i_similarity(self):
        a = ((-3, -1), (1, -3))
        assert rt.is_expanding(a)
        assert linalg.similarity_contraction(a) == pytest.approx(10 ** -0.5)

    def test_diag_7_10_not_similarity(self):
        a = ((7, 0), (0, 10))
        assert rt.is_expanding(a)
        assert linalg.similarity_contraction(a) is None

    def test_unipotent_not_expanding(self):
        assert not rt.is_expanding(((1, 1), (0, 1)))

    def test_ball_factor_dominates_partial_sums(self):
        a = ((-3, -1), (1, -3))
        inv = np.array(linalg.mat_inv_pow(a, 1), dtype=float)
        partial = 0.0
        power = np.eye(2)
        for _ in range(60):
            power = power @ inv
            partial += np.linalg.norm(power, 2)
        assert rt.tail_bound(a, 0) >= partial

    def test_similarity_scales_norms(self):
        a = ((-3, -1), (1, -3))
        inv = linalg.mat_inv_pow(a, 1)
        det = abs(linalg.det(a))
        rng = random.Random(7)
        for _ in range(100):
            v = (rng.randint(-50, 50), rng.randint(-50, 50))
            image = linalg.frac_mat_vec(inv, v)
            lhs = float(sum(x * x for x in image)) * det ** (2.0 / 2.0)
            assert lhs == pytest.approx(float(linalg.norm_sq(v)), rel=1e-9, abs=1e-9)

    def test_complex_pair_contraction_detected(self):
        # companion of x^2 + 9x + 21 is not an orthogonal multiple but is
        # conjugate to a complex multiplication
        comp = ((0, -21), (1, -9))
        assert linalg._similarity_scale_sq(comp) is None
        assert linalg.similarity_contraction(comp) == pytest.approx(21 ** -0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_sq_norms_match_numpy_bit_for_bit(n, rows, seed):
    # column by column below 8 columns, numpy's own reduction from 8 on: the same float bits either way
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-150, 150, (rows, n))
    assert np.array_equal(linalg.sq_norms(x).view(np.uint64), (x**2).sum(axis=-1).view(np.uint64))
    assert np.array_equal(linalg.sq_norms(x[None]).view(np.uint64), (x[None] ** 2).sum(axis=-1).view(np.uint64))
