"""Exact rationals from integer determinants against sympy's rational arithmetic.

``eval_exact`` is compared with the geometric series sum_j A^-j x_j summed
in sympy ``Rational`` matrices: the preperiod term by term and the cycle as
(I - A^-p)^-1 sum_l A^-l x_{m+l}, with inverses from sympy rather than from
Cramer's rule over Bareiss determinants.  ``mat_inv`` and ``cramer`` are
checked the same way, singular matrices included, and both ``SingularMatrix``
messages of the evaluation are pinned, in the library and through the CLI.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, linalg
from radixtile.errors import SingularMatrix


def square(n_min=1, n_max=3, lo=-4, hi=4):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n)
    ).map(linalg.as_matrix)


def as_fraction(x) -> Fraction:
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def sympy_value(matrix, pre, cycle):
    inv = sympy.Matrix(matrix).inv()
    n, p = len(matrix), len(cycle)
    head = sum((inv ** (j + 1) * sympy.Matrix(x) for j, x in enumerate(pre)), sympy.zeros(n, 1))
    cycle_sum = sum((inv ** (l + 1) * sympy.Matrix(x) for l, x in enumerate(cycle)), sympy.zeros(n, 1))
    tail = inv ** len(pre) * (sympy.eye(n) - inv**p).inv() * cycle_sum
    return tuple(as_fraction(v) for v in head + tail)


@st.composite
def representations(draw):
    matrix = draw(square())
    vec = st.lists(st.integers(-5, 5), min_size=len(matrix), max_size=len(matrix)).map(tuple)
    return matrix, draw(st.lists(vec, max_size=4)), draw(st.lists(vec, min_size=1, max_size=6))


class TestEvalExact:
    # the examples have determinants 10, -5, -2 and -2
    @settings(max_examples=120, deadline=None)
    @given(representations())
    @example((((-3, -1), (1, -3)), [(1, 0)], [(0, 0), (9, 0)]))
    @example((((2, 1), (1, -2)), [], [(1, 0), (0, 1)]))
    @example((((-2,),), [(1,), (-1,)], [(1,), (0,), (1,)]))
    @example((((0, 1, 0), (0, 0, 1), (-2, 0, 0)), [(0, 0, 1)] * 4, [(1, 0, 0), (0, 1, 0)] * 3))
    def test_matches_sympy_series(self, case):
        matrix, pre, cycle = case
        # the float screen only picks expanding matrices; the values are compared exactly
        assume(np.abs(np.linalg.eigvals(np.array(matrix, dtype=float))).min() > 1.01)
        system = rt.RadixSystem(matrix, sorted(set(pre) | set(cycle)))
        value = rt.eval_exact(rt.representation(system, pre, cycle))
        assert value == sympy_value(matrix, pre, cycle)
        assert all(type(x) is Fraction for x in value)


class TestSingularMessages:
    @pytest.mark.parametrize(
        "matrix, pre, cycle, message",
        [
            (((1,),), [], [(0,)], "system is singular"),
            (((-1,),), [(0,)], [(1,), (0,)], "system is singular"),
            # det(A - I) = 0 is found before det A = 0
            (((1, 0), (0, 0)), [], [(0, 0)], "system is singular"),
            (((0,),), [], [(0,)], "matrix is singular"),
            (((0,),), [(1,)], [(0,)], "matrix is singular"),
            (((2, 4), (1, 2)), [], [(1, 0)], "matrix is singular"),
        ],
    )
    def test_library_and_cli(self, tmp_path, capsys, matrix, pre, cycle, message):
        system = rt.RadixSystem(matrix, sorted(set(pre) | set(cycle)))
        with pytest.raises(SingularMatrix) as info:
            rt.eval_exact(rt.representation(system, pre, cycle))
        assert str(info.value) == message

        path = tmp_path / "system.json"
        path.write_text(json.dumps({"matrix": [list(row) for row in matrix], "digits": [list(d) for d in system.digits]}))
        payload = {"pre": [list(x) for x in pre], "cycle": [list(x) for x in cycle]}
        assert cli.main(["eval", str(path), "-p", json.dumps(payload)]) == 2
        assert json.loads(capsys.readouterr().out) == {"error": {"type": "SingularMatrix", "message": message}}


class TestIntegerDeterminants:
    @settings(max_examples=150, deadline=None)
    @given(square(lo=-6, hi=6))
    def test_mat_inv(self, a):
        if sympy.Matrix(a).det() == 0:
            with pytest.raises(SingularMatrix, match="matrix is singular"):
                linalg.mat_inv(a)
        else:
            inv = sympy.Matrix(a).inv()
            assert linalg.mat_inv(a) == tuple(tuple(as_fraction(inv[i, j]) for j in range(len(a))) for i in range(len(a)))

    @settings(max_examples=150, deadline=None)
    @given(square(lo=-6, hi=6).flatmap(lambda a: st.tuples(st.just(a), st.tuples(*[st.integers(-9, 9)] * len(a)))))
    def test_cramer(self, case):
        a, b = case
        x, d = linalg.cramer(a, b)
        assert d == sympy.Matrix(a).det()
        assert linalg.mat_vec(a, x) == tuple(d * y for y in b)
        if d:
            assert tuple(Fraction(v, d) for v in x) == tuple(map(as_fraction, sympy.Matrix(a).LUsolve(sympy.Matrix(b))))
