"""The exact spectral layer against independent high-precision oracles.

``is_expanding`` is compared with eigenvalue moduli computed by mpmath at
50 digits, ``tail_bound`` with partial sums of singular values at the same
precision, and the candidate balls the callers enumerate with the counts
the float operator-norm loops gave before the layer was made exact.
"""

import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, linalg
from radixtile.errors import NotExpanding, SearchBudgetExceeded

from conftest import charged

mpmath.mp.dps = 50


def min_eigen_modulus(a) -> mpmath.mpf:
    eigenvalues = mpmath.eig(mpmath.matrix([list(row) for row in a]), left=False, right=False)
    return min(abs(x) for x in eigenvalues)


def as_mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def spectral_norm(m) -> mpmath.mpf:
    """sqrt of the largest eigenvalue of m^T m; mpmath's svd_r does not converge on some
    symmetric inputs, such as A^-5 for A = [[2, 5], [5, -2]]."""
    rows = mpmath.matrix([[as_mpf(Fraction(x)) for x in row] for row in m])
    return mpmath.sqrt(max(mpmath.eigsy(rows.T * rows, eigvals_only=True)))


def companion(*coeffs):
    """Companion matrix of x^n + c_{n-1} x^{n-1} + ... + c_0, given c_0 first."""
    n = len(coeffs)
    return tuple(
        tuple((1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i] for j in range(n))
        for i in range(n)
    )


square = st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


class TestIsExpanding:
    @settings(max_examples=150, deadline=None)
    @given(square)
    def test_matches_eigenvalue_moduli(self, rows):
        a = linalg.as_matrix(rows)
        # an eigenvalue of modulus exactly 1 (a root of unity) shows up at
        # 50 digits as 1 +- 1e-16 at worst for a defective triple root; no
        # integer matrix with entries this small has a modulus that close
        # to 1 without being equal to it
        expected = min_eigen_modulus(a) > 1 + mpmath.mpf(10) ** -12
        assert linalg.is_expanding(a) == expected

    @pytest.mark.parametrize("c", [1, 2, 3, 5, 17, 1000])
    def test_eigenvalue_minus_one_is_not_expanding(self, c):
        # x^2 + (c+1) x + c = (x + 1)(x + c)
        assert not linalg.is_expanding(companion(c, c + 1))

    def test_repeated_eigenvalue_on_the_circle(self):
        # (x + 1)^2 (x + 2) = x^3 + 4x^2 + 5x + 2
        assert not linalg.is_expanding(companion(2, 5, 4))

    def test_unipotent_and_scaled_identity(self):
        assert not linalg.is_expanding(((1, 1), (0, 1)))
        assert linalg.is_expanding(((2, 0), (0, 2)))

    def test_singular_is_not_expanding(self):
        assert not linalg.is_expanding(((2, 4), (1, 2)))

    def test_require_expanding_raises(self):
        with pytest.raises(NotExpanding):
            linalg.require_expanding(companion(3, 4))


EXPANDING = [
    ((-3, -1), (1, -3)),
    ((10,),),
    ((2, 0), (0, 2)),
    ((7, 0), (0, 10)),
    ((0, -21), (1, -9)),
    ((0, -2), (1, -2)),
    ((0, -3), (1, 3)),
    ((0, 0, -2), (1, 0, 0), (0, 1, 0)),
    ((3, 5), (0, 3)),
]


class TestTailBound:
    @pytest.mark.parametrize("a", EXPANDING)
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 11])
    def test_dominates_partial_tail_sums(self, a, m):
        partial = sum(spectral_norm(linalg.mat_inv_pow(a, j)) for j in range(m + 1, m + 61))
        assert as_mpf(linalg.tail_bound(a, m)) >= partial

    @pytest.mark.parametrize("a", EXPANDING)
    def test_norms_bound_each_power(self, a):
        norms = linalg.inverse_power_norms(a)
        assert norms[-1] < 0.5 <= min(norms[:-1], default=1)
        for j, b in enumerate(norms, start=1):
            assert as_mpf(b) >= spectral_norm(linalg.mat_inv_pow(a, j))

    @settings(max_examples=40, deadline=None)
    @given(square)
    @example([[2, 5], [5, -2]])
    def test_random_expanding_matrices(self, rows):
        a = linalg.as_matrix(rows)
        if not linalg.is_expanding(a) or min_eigen_modulus(a) < 1.2:
            return
        partial = sum(spectral_norm(linalg.mat_inv_pow(a, j)) for j in range(1, 41))
        assert as_mpf(linalg.tail_bound(a, 0)) >= partial


class TestSlowDecay:
    """x^2 - 10^6 x + 10^6 has an eigenvalue 1.000001...: sum_j ||A^-j|| is
    at least 1/(lambda_min - 1) ~ 999,998, and ||A^-j|| stays above 1/2 for
    far more than the 400 powers the layer tries."""

    matrix = companion(10**6, -(10**6))

    def test_library_raises_budget_error(self):
        assert linalg.is_expanding(self.matrix)
        with pytest.raises(SearchBudgetExceeded) as info:
            linalg.tail_bound(self.matrix, 0)
        assert charged(info.value, "inverse powers", 400) == 401
        with pytest.raises(SearchBudgetExceeded) as info:
            rt.integer_neighbours(self.matrix, ((0, 0), (1, 0)))
        assert charged(info.value, "inverse powers", 400) == 401

    def test_cli_exits_3(self, capsys, tmp_path):
        # numsys-check ends the same way, but first checks that its 10^6
        # digits form a complete residue system, which takes seconds
        path = tmp_path / "slow.json"
        path.write_text(json.dumps({"polynomial": {"coeffs": [10**6, -(10**6)], "digits": [0, 1]}}))
        code = cli.main(["neighbours", str(path)])
        data = json.loads(capsys.readouterr().out)
        assert code == 3
        assert data["error"]["type"] == "SearchBudgetExceeded"
        assert charged(data["error"], "inverse powers", 400) == 401


def _decide_systems():
    out = {}
    for c in range(2, 6):
        for b in range(-2, 3):
            out[f"quad_b{b}_c{c}"] = rt.companion_system([c, b], range(c))
    for b, c in ((3, 3), (-3, 3)):
        out[f"quad_b{b}_c{c}"] = rt.companion_system([c, b], range(c))
    for n in (2, 3, 4):
        out[f"gauss{n}"] = rt.RadixSystem(((-n, -1), (1, -n)), tuple((d, 0) for d in range(n * n + 1)))
    out["cubic_x3p2"] = rt.companion_system([2, 0, 0], [0, 1])
    out["base10"] = rt.RadixSystem(((10,),), tuple((d,) for d in range(10)))
    out["base3_full"] = rt.RadixSystem(((3,),), ((0,), (1,), (2,)))
    out["base3_cantor"] = rt.RadixSystem(((3,),), ((0,), (2,)))
    out["twin_two"] = rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1)))
    out["m3i_048"] = rt.RadixSystem(((-3, -1), (1, -3)), ((0, 0), (4, 0), (8, 0)))
    return out


# (candidate ball of the digits, candidate ball of the differences,
#  number-system verdict or the precondition error, neighbour count),
# recorded with the float operator-norm loops this layer replaced
PINNED = {
    "quad_b-2_c2": (69, 69, False, 6),
    "quad_b-1_c2": (57, 57, True, 6),
    "quad_b0_c2": (29, 29, True, 8),
    "quad_b1_c2": (57, 57, True, 6),
    "quad_b2_c2": (69, 69, True, 6),
    "quad_b-2_c3": (109, 109, False, 6),
    "quad_b-1_c3": (109, 109, True, 6),
    "quad_b0_c3": (49, 49, True, 8),
    "quad_b1_c3": (109, 109, True, 6),
    "quad_b2_c3": (109, 109, True, 6),
    "quad_b-2_c4": (121, 121, False, 6),
    "quad_b-1_c4": (137, 137, True, 6),
    "quad_b0_c4": (81, 81, True, 8),
    "quad_b1_c4": (137, 137, True, 6),
    "quad_b2_c4": (121, 121, True, 6),
    "quad_b-2_c5": (385, 385, False, 6),
    "quad_b-1_c5": (177, 177, True, 6),
    "quad_b0_c5": (113, 113, True, 8),
    "quad_b1_c5": (177, 177, True, 6),
    "quad_b2_c5": (385, 385, True, 6),
    "quad_b3_c3": (613, 613, True, 10),
    "quad_b-3_c3": (613, 613, False, 10),
    "gauss2": (37, 37, True, 10),
    "gauss3": (57, 57, True, 6),
    "gauss4": (89, 89, True, 6),
    "cubic_x3p2": (515, 515, True, 26),
    "base10": (3, 3, False, 2),
    "base3_full": (3, 3, False, 2),
    "base3_cantor": (3, 3, "NotACrs", 2),
    "twin_two": (9, 9, False, 8),
    "m3i_048": (45, 45, "NotACrs", 0),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_candidate_balls_and_verdicts_pinned(name):
    sys = _decide_systems()[name]
    factor_sq = linalg.tail_bound(sys.matrix, 0) ** 2

    def ball(vectors):
        return len(linalg.lattice_ball(sys.n, max(map(linalg.norm_sq, vectors)) * factor_sq))

    try:
        verdict = rt.is_number_system(sys)[0]
    except rt.PreconditionError as exc:
        verdict = type(exc).__name__
    neighbours = rt.integer_neighbours(sys.matrix, sys.digits)
    assert (ball(sys.digits), ball(sys.differences()), verdict, len(neighbours.vectors)) == PINNED[name]


def _ball_set(n, radius_sq):
    return set(map(tuple, linalg.lattice_ball(n, radius_sq).tolist()))


def test_lattice_ball_is_exact_at_the_boundary():
    # 25 = 3^2 + 4^2 = 5^2 + 0^2: points on the sphere are kept, and a
    # radius a hundredth short of it drops them
    ball = _ball_set(2, 25)
    assert {(3, 4), (5, 0), (-4, -3)} <= ball and (5, 1) not in ball
    assert _ball_set(2, Fraction(2599, 100)) == ball
    short = _ball_set(2, Fraction(2499, 100))
    assert (3, 4) not in short and (5, 0) not in short and (4, 2) in short
