"""Exact integer and rational linear algebra.

Matrices are tuples of row tuples, vectors are plain tuples, and a batch
of vectors is one (N, n) integer array under ``dtype_for``.  Everything
that feeds a decision (residue classes, Smith form, the expanding test,
operator-norm bounds) is exact, and a rational is always integer numerators
over one fraction-free Bareiss determinant (``cramer``, ``mat_inv_pow`` =
adj^k / det^k), never a rational row reduction.  A residue class mod
a*Z^n is one integer in [0, |det a|) read off the Smith form
(``class_index``).  Floating point only
proposes a norm bound, which is then checked exactly; the one float result
is the similarity contraction coefficient.

``np`` here is numpy, loaded on its first attribute access: a job that
touches no array (``eval``, ``sep``) never pays numpy's start-up.  Every
other layer takes it as ``from .linalg import np``.  An ``import numpy``
statement would load numpy at once, because the import system reads the
module's ``__spec__``.  If numpy is not yet imported, a lazy module is
registered as ``sys.modules["numpy"]``, so numpy's own submodules, and any
later ``import numpy``, find that one module and load no second copy.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import CandidateBallTooLarge, NotExpanding, SearchBudgetExceeded, SimilarityUnavailable, SingularMatrix
from .errors import charge

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

IntVec = tuple[int, ...]
IntMatrix = tuple[IntVec, ...]
RatVec = tuple[Fraction, ...]
RatMatrix = tuple[RatVec, ...]


# ---------------------------------------------------------------------------
# vector / matrix primitives


def as_matrix(rows) -> IntMatrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def as_vec(v) -> IntVec:
    if isinstance(v, int):
        return (v,)
    return tuple(map(int, v))


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_sub(a, b):
    return tuple(
        tuple(a[i][j] - b[i][j] for j in range(len(a[0]))) for i in range(len(a))
    )


def mat_transpose(a):
    return tuple(zip(*a))


def mat_pow(a, k: int):
    """k-th power of a square matrix, k >= 0, exact."""
    if k < 0:
        raise ValueError(f"matrix power needs k >= 0, got {k}")
    n = len(a)
    result = identity(n)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(v):
    return tuple(-a for a in v)


def norm_sq(v):
    return sum(a * a for a in v)


def zero_vec(n: int) -> IntVec:
    return (0,) * n


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def cramer(a: IntMatrix, b: IntVec) -> tuple[IntVec, int]:
    """Cramer's rule: (x, det a) where x_i is det a with column i set to b, so that a x = det(a) b."""
    return tuple(det(tuple(row[:i] + (y,) + row[i + 1:] for row, y in zip(a, b))) for i in range(len(a))), det(a)


def adjugate(a: IntMatrix) -> IntMatrix:
    """Integer adjugate, so that adjugate(a) == det(a) * inverse(a): the transposed cofactors."""
    n = len(a)
    if n == 1:
        return ((1,),)
    # entry (i, j) is the cofactor of a at (j, i): the signed det without row j and column i
    return tuple(
        tuple((-1) ** (i + j) * det(tuple(row[:i] + row[i + 1:] for row in a[:j] + a[j + 1:])) for j in range(n))
        for i in range(n)
    )


def signed_adjugate(a: IntMatrix) -> tuple[IntMatrix, int]:
    """B = sign(det a) adj(a) and |det a|, so that A^-k = B^k / |det a|^k with a positive denominator."""
    d = det(a)
    return tuple(tuple(x if d > 0 else -x for x in row) for row in adjugate(a)), abs(d)


def frac_mat_vec(a: RatMatrix, v) -> RatVec:
    return tuple(sum((Fraction(a[i][j]) * v[j] for j in range(len(v))), Fraction(0))
                 for i in range(len(a)))


def mat_inv_pow(a: IntMatrix, k: int) -> RatMatrix:
    """Exact A^{-k} = adj(A)^k / det(A)^k for k >= 0 (SingularMatrix if det = 0 and k > 0)."""
    adj, d = _adjugate_power(a, k)
    if d == 0:
        raise SingularMatrix("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row) for row in adj)


@lru_cache(maxsize=256)
def _adjugate_power(a: IntMatrix, k: int) -> tuple[IntMatrix, int]:
    """(adj(A)^k, det(A)^k), so that A^-k = adj(A)^k / det(A)^k: adj(A^k) = adj(A)^k for every square A."""
    if k == 1:
        return adjugate(a), det(a)
    adj, d = _adjugate_power(a, 1)
    return mat_pow(adj, k), d**k


@lru_cache(maxsize=256)
def _cycle_inverse(a: IntMatrix, p: int) -> tuple[IntMatrix, int]:
    """(adj(A^p - I), det(A^p - I)): (A^p - I) w = b solves as w = adj b / det, Cramer's rule for every b at once."""
    m = mat_sub(mat_pow(a, p), identity(len(a)))
    return adjugate(m), det(m)


def is_integral(v: RatVec) -> bool:
    return all(x.denominator == 1 for x in v)


def frac_str(x: Fraction | int) -> str:
    """Exact "p/q" text of a rational, or "p" when it is an integer, at any length: every exact number prints here."""
    try:
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    except ValueError:  # past Python's int-to-str digit limit (sys.set_int_max_str_digits)
        import decimal  # converts an int exactly at any length, to the digits str() writes

        num = str(decimal.Decimal(x.numerator))
        return num if x.denominator == 1 else f"{num}/{decimal.Decimal(x.denominator)}"


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SnfResult:
    """Diagonal form s with unimodular transforms: u @ a @ v == s.

    The diagonal entries are nonnegative and form a divisibility chain
    s_1 | s_2 | ... | s_n, so |prod s_i| = |det a|.
    """

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> IntVec:
        return tuple(self.s[i][i] for i in range(len(self.s)))


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Smith normal form over the integers with transform tracking.

    One loop over the pivots t.  Each round moves a least nonzero |entry| of
    the trailing block s[t:, t:] to (t, t) and clears column t by row
    operations and row t by column operations, with floor quotients.  A
    remainder left in row or column t starts another round with a smaller
    pivot; so does an entry of the trailing block that the pivot does not
    divide, once its row is added into row t.  Invariant: the pivot divides
    its whole trailing block before t advances, so s_1 | s_2 | ... holds by
    construction, and a zero trailing block puts the zeros last.  Works for
    singular matrices as well; consumers that need det != 0 check it
    themselves.
    """
    n = len(a)
    s = [list(row) for row in a]
    u = [list(row) for row in identity(n)]
    v = [list(row) for row in identity(n)]
    for t in range(n):
        while block := [(abs(x), i, j) for i in range(t, n) for j, x in enumerate(s[i][t:], t) if x]:
            _, i, j = min(block)
            s[t], s[i], u[t], u[i] = s[i], s[t], u[i], u[t]
            # s + v holds the row lists themselves, so column operations change s and v in place
            for row in s + v:
                row[t], row[j] = row[j], row[t]
            p = s[t][t]
            for i in range(t + 1, n):
                if q := s[i][t] // p:
                    s[i] = [x - q * y for x, y in zip(s[i], s[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, n):
                if q := s[t][j] // p:
                    for row in s + v:
                        row[j] -= q * row[t]
            if any(s[i][t] or s[t][i] for i in range(t + 1, n)):
                continue
            i = next((i for i in range(t + 1, n) if any(x % p for x in s[i][t + 1 :])), None)
            if i is None:
                break
            s[t] = [x + y for x, y in zip(s[t], s[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
        if s[t][t] < 0:
            s[t], u[t] = [-x for x in s[t]], [-x for x in u[t]]
    return SnfResult(
        s=tuple(tuple(row) for row in s),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
    )


# ---------------------------------------------------------------------------
# residue systems


def residue_system(a: IntMatrix) -> tuple[IntVec, ...]:
    """Canonical complete residue system mod the matrix.

    The least member of each class, by Euclidean norm and then
    lexicographically, in lexicographic order: it contains 0 and has
    exactly |det a| members.  A class with a member in a ball has its
    minimum there too, so balls of doubling radius are searched until one
    meets every class, starting from one whose box holds about |det a| points.
    """
    d = abs(det(a))
    if d == 0:
        raise SingularMatrix("residue systems need det != 0")
    radius_sq = max(1, 4 ** ((d.bit_length() - 1) // len(a)) // 4)
    while True:
        ball = lattice_ball(len(a), radius_sq)
        # a stable sort by norm keeps ties in lexicographic order, so each class starts with its minimum
        ball = ball[np.argsort(sq_norms(ball), kind="stable")]
        _, first = np.unique(class_index(a, ball), return_index=True)
        if len(first) == d:
            return tuple(map(tuple, sorted_unique(ball[first]).tolist()))
        radius_sq *= 4


def is_complete_residue_system(a: IntMatrix, digits) -> bool:
    """True iff the digits hit every class of Z^n / a*Z^n exactly once."""
    d = det(a)
    if d == 0:
        return False
    digits = int_array(digits, len(a))
    if len(digits) != abs(d):
        return False
    # distinct classes imply distinct digits
    index = np.sort(class_index(a, digits))
    return bool((index[1:] != index[:-1]).all())


@lru_cache(maxsize=None)
def _class_basis(a: IntMatrix) -> tuple[IntMatrix, IntVec]:
    """The rows u_i of the Smith transform U a V = S, each reduced mod s_i, and the s_i."""
    snf = smith_normal_form(a)
    if 0 in snf.diagonal:
        raise SingularMatrix("residue classes need det != 0")
    return tuple(tuple(x % s for x in row) for row, s in zip(snf.u, snf.diagonal)), snf.diagonal


def class_index(a: IntMatrix, vectors: np.ndarray) -> np.ndarray:
    """The class of each row v of vectors mod a*Z^n, one integer in [0, |det a|) under dtype_for(|det a|).

    With U a V = S, v = w mod a*Z^n iff (U v)_i = (U w)_i mod s_i for every i,
    so the index is the mixed-radix number of the (U v)_i mod s_i.
    """
    rows, moduli = _class_basis(a)
    index = np.zeros(len(vectors), dtype=dtype_for(math.prod(moduli)))
    # the room keeps a modulus of 2**62 or more from meeting an int64 column
    for column, s in zip(mat_rows(rows, vectors, max(moduli)).T, moduli):
        index = index * s + (column % s).astype(index.dtype)
    return index


# ---------------------------------------------------------------------------
# spectral bounds


def _positive_definite(m: IntMatrix) -> bool:
    """Exact Sylvester test: every leading principal minor of the symmetric m is > 0."""
    return all(det(tuple(row[:k] for row in m[:k])) > 0 for k in range(1, len(m) + 1))


@lru_cache(maxsize=None)
def is_expanding(a: IntMatrix) -> bool:
    """Exact test that every eigenvalue of a has modulus > 1.

    By the discrete Lyapunov (Stein) theorem, a is expanding iff
    a^T P a - P = I has a unique solution P and that P is positive definite.
    """
    n = len(a)
    cells = [(i, j) for i in range(n) for j in range(n)]
    system = tuple(
        tuple(a[k][i] * a[l][j] - ((i, j) == (k, l)) for k, l in cells) for i, j in cells
    )
    # P = x / d is positive definite iff sign(d) x is; d = 0 leaves no unique P
    x, d = cramer(system, tuple(int(i == j) for i, j in cells))
    p = [v if d > 0 else -v for v in x]
    return d != 0 and _positive_definite(tuple(tuple(p[i * n:(i + 1) * n]) for i in range(n)))


def require_expanding(a: IntMatrix) -> None:
    if not is_expanding(a):
        raise NotExpanding(f"matrix {a} is not expanding")


_POWER_BUDGET = 400


@lru_cache(maxsize=None)
def inverse_power_norms(a: IntMatrix) -> tuple[Fraction, ...]:
    """Rationals b_1, ..., b_k with b_j >= ||A^-j||_2, ending at the first b_k < 1/2.

    A^-j = adj^j / det^j exactly.  A float singular value, raised by 2^-40,
    only proposes b_j; it is kept when b_j^2 det^2j I - (adj^j)^T adj^j is
    positive definite, and otherwise the Frobenius norm (the square root of
    that Gram matrix's trace, rounded up) stands in.
    """
    require_expanding(a)
    n, adj, d = len(a), adjugate(a), abs(det(a))
    power, scale, norms = identity(n), 1, []
    while not norms or norms[-1] >= Fraction(1, 2):
        charge(SearchBudgetExceeded, "inverse powers", len(norms) + 1, _POWER_BUDGET)
        power, scale = mat_mul(power, adj), scale * d
        gram = mat_mul(mat_transpose(power), power)
        s = float(np.linalg.norm([[x / scale for x in row] for row in power], 2)) * (1 + 2**-40)
        num, den = s.as_integer_ratio() if math.isfinite(s) else (0, 1)
        top = (num * scale) ** 2
        if _positive_definite(tuple(
            tuple(top * (i == j) - den * den * gram[i][j] for j in range(n)) for i in range(n)
        )):
            norms.append(Fraction(num, den))
        else:
            trace = sum(gram[i][i] for i in range(n))
            root = math.isqrt(trace)
            norms.append(Fraction(root + (root * root < trace), scale))
    return tuple(norms)


@lru_cache(maxsize=None)
def _tail_factor(a: IntMatrix) -> Fraction:
    """(b_1 + ... + b_k) / (1 - b_k) over the norms above, >= sum_{i>=1} ||A^-i||; every tail bound scales it."""
    b = inverse_power_norms(a)
    return sum(b) / (1 - b[-1])


def tail_bound(a: IntMatrix, m: int) -> Fraction:
    """Rational upper bound on sum_{j>m} ||A^-j||_2; tail_bound(a, 0) is the ball factor.

    With the norms b_1..b_k above and m = q k + r, submultiplicativity gives
    ||A^-(m+i)|| <= b_k^q b_r ||A^-i|| and sum_{i>=1} ||A^-i|| <= (b_1 + ... + b_k) / (1 - b_k).
    """
    return Fraction(*next(tail_bounds(a, m)))


def tail_bounds(a: IntMatrix, m: int = 0):
    """tail_bound(a, m), tail_bound(a, m + 1), ... as unreduced (numerator, denominator) pairs.

    b_k^q times the factor is carried over and multiplied once per k, and nothing calls gcd: num / den is already the
    correctly rounded float of the bound, and Fraction(num, den) its exact value.
    """
    b = inverse_power_norms(a)
    q, r = divmod(m, len(b))
    factor = _tail_factor(a)
    num, den = b[-1].numerator ** q * factor.numerator, b[-1].denominator ** q * factor.denominator
    while True:
        yield (num * b[r - 1].numerator, den * b[r - 1].denominator) if r else (num, den)
        r = (r + 1) % len(b)
        if not r:
            num, den = num * b[-1].numerator, den * b[-1].denominator


def _similarity_scale_sq(a: IntMatrix) -> int | None:
    """r^2 if a @ a^T == r^2 * I exactly, else None."""
    g = mat_mul(a, mat_transpose(a))
    n = len(a)
    r2 = g[0][0]
    for i in range(n):
        for j in range(n):
            if g[i][j] != (r2 if i == j else 0):
                return None
    return r2


@lru_cache(maxsize=256)
def similarity_contraction(a: IntMatrix) -> float | None:
    """Contraction coefficient of A^-1 when it scales Euclidean distance.

    Detects the orthogonal-multiple case exactly, and the 2x2 complex
    eigenvalue pair case (trace^2 < 4 det), which is linearly conjugate to
    a complex multiplication and therefore dimension-preserving.
    """
    n = len(a)
    d = det(a)
    if d == 0:
        return None
    if _similarity_scale_sq(a) is not None:
        return float(abs(d)) ** (-1.0 / n)
    if n == 2:
        trace = a[0][0] + a[1][1]
        if trace * trace < 4 * d:
            return float(abs(d)) ** (-1.0 / 2.0)
    return None


def require_similarity(a: IntMatrix) -> None:
    if similarity_contraction(a) is None:
        raise SimilarityUnavailable("dimension formulas need the inverse matrix to scale distances")


# ---------------------------------------------------------------------------
# lattice enumeration


def lattice_ball(n: int, radius_sq) -> np.ndarray:
    """Integer points p with ||p||^2 <= radius_sq (exact), as array rows in lexicographic order."""
    limit = math.floor(radius_sq)
    r = math.isqrt(limit)
    charge(CandidateBallTooLarge, "ball points", (2 * r + 1) ** n, 10**7)  # the points of the ball's cube
    squares = np.arange(-r, r + 1, dtype=dtype_for(n * r * r)) ** 2
    # nonzero lists the grid indices in C order, which is lexicographic
    return np.stack(np.nonzero(reduce(np.add.outer, [squares] * n) <= limit), axis=-1) - r


@lru_cache(maxsize=None)
def _inverse_powers(a: IntMatrix, size: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """The powers B^j, j = 1..size, of B = sign(det a) adj(a), so that A^-j = B^j / |det a|^j.

    Returns them as one (size, n, n) array, the largest row sum of B^1..B^j for each j, and |det a|^0..|det a|^size
    as exact integers.  size is a power of 2: each size doubles the stack of half its size, B^(h+i) = B^i B^h for
    i = 1..h in one stacked product, in int64 while the row sums certify it and in exact object entries after.
    """
    if size == 1:
        b, d = signed_adjugate(a)
        return np.array([b], dtype=dtype_for(inf_norm(b))), (inf_norm(b),), np.array([1, d], dtype=object)
    stack, norms, scale = _inverse_powers(a, size // 2)
    stack = stack.astype(dtype_for(norms[-1] ** 2), copy=False)  # each new row sum is at most a product of two
    new = stack @ stack[-1]
    norms += tuple(itertools.accumulate(np.abs(new).sum(axis=2).max(axis=1).tolist(), max, initial=norms[-1]))[1:]
    return np.concatenate([stack, new]), norms, np.concatenate([scale, scale[1:] * scale[-1]])


def _tile_candidates(a: IntMatrix, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate ball of T = {sum_{j>=1} A^-j s_j}, the s_j rows of vectors, and the mask of its rows in T's box.

    Every point of T has norm at most max |s| * tail_bound(a, 0), the ball's radius.  Coordinate i of T spans
    exactly sum_j [min_s (A^-j s)_i, max_s (A^-j s)_i].  The first J terms are integer numerators over |det a|^J,
    summed exactly; the rest, of norm at most tail_bound(a, J) * m with m > max |s|, pads both ends.  J is the least
    count >= 1 that brings the pad below 1/2, by an exact scan of tail_bounds: any J gives a valid box.
    """
    top = max_norm_sq(vectors)
    ball = lattice_ball(len(a), top * tail_bound(a, 0) ** 2)
    m = math.isqrt(top) + 1  # > max |s|
    terms, (num, den) = next((j, pair) for j, pair in enumerate(tail_bounds(a, 1), 1) if 2 * m * pair[0] < pair[1])
    powers, norms, scale = _inverse_powers(a, 1 << (terms - 1).bit_length())
    powers, scale = powers[:terms], scale[terms::-1]  # |det a|^J, |det a|^(J - 1), ..., 1
    dtype = dtype_for(norms[terms - 1] * max(int(np.abs(vectors).max(initial=0)), 1))  # holds the B^j and each B^j s
    values = vectors.astype(dtype, copy=False) @ powers.astype(dtype, copy=False).transpose(0, 2, 1)  # B^j s
    ends = np.stack([values.min(axis=1), values.max(axis=1)]).astype(object)
    low, high = (scale[1:] @ ends).tolist()  # numerators over |det a|^J
    pad, whole = num * m * scale[0], den * scale[0]  # an end x / |det a|^J -/+ pad is (x den -/+ pad) / whole
    return ball, within(ball, [-((pad - x * den) // whole) for x in low], [(x * den + pad) // whole for x in high])


def within(rows: np.ndarray, lo, hi) -> np.ndarray:
    """Mask of the rows v with lo[i] <= v_i <= hi[i] in every column i, tested column by column."""
    mask = np.ones(len(rows), dtype=bool)
    for column, low, high in zip(rows.T, lo, hi):
        mask &= (column >= low) & (column <= high)
    return mask


# ---------------------------------------------------------------------------
# integer arrays
#
# A batch of N integer vectors is one (N, n) array: int64 when a certified
# bound keeps every entry below 2**62 in magnitude, so that the sum of two
# entries still fits, and object (exact Python ints) otherwise.  The same
# array code serves both.

_INT64_SAFE = 2**62


def dtype_for(bound: int):
    """int64 when every entry is certified below 2**62 in magnitude."""
    return np.int64 if bound < _INT64_SAFE else object


def inf_norm(a) -> int:
    """Largest absolute row sum: |(a v)_i| <= inf_norm(a) * max_j |v_j|."""
    return max(sum(map(abs, row)) for row in a)


def int_entry_bound(matrix: IntMatrix, choices) -> int:
    """Certified bound on |entries| of the matrix and of partial sums drawing choices[j] at position j."""
    row_sum, bound = inf_norm(matrix), 0
    for digits in choices:
        bound = row_sum * bound + max((abs(x) for d in digits for x in d), default=0)
    return max(bound, row_sum)


def int_array(rows, n: int) -> np.ndarray:
    """The integer vectors as an (N, n) array under dtype_for; an array passes through unchanged."""
    if isinstance(rows, np.ndarray):
        return rows
    rows = tuple(rows)
    if set(map(len, rows)) - {n}:
        raise ValueError(f"vectors must have {n} entries")
    flat = list(itertools.chain.from_iterable(rows))
    return np.array(flat, dtype=dtype_for(max(map(abs, flat), default=0))).reshape(-1, n)


def max_norm_sq(vectors: np.ndarray) -> int:
    """Largest squared Euclidean norm among the rows."""
    wide = vectors.astype(dtype_for(vectors.shape[1] * int(np.abs(vectors).max(initial=0)) ** 2), copy=False)
    return int(sq_norms(wide).max(initial=0))


def sq_norms(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms along the last axis.

    A last axis shorter than 8 is summed column by column, x_0^2 + x_1^2 + ...: numpy adds that few terms in
    the same order (from 0, and 0 + x_0^2 is x_0^2), so float sums match (x * x).sum(axis=-1) bit for bit, and
    an (N, 2) or (N, 3) array sums about 10x faster than a reduction along its short axis.
    """
    if not 0 < x.shape[-1] < 8:
        return (x * x).sum(axis=-1)
    out = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        out += x[..., i] * x[..., i]
    return out


def lex_groups(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row order that sorts arr lexicographically (stable), and which sorted rows are new."""
    order = np.lexsort(arr.T[::-1])
    ranked = arr[order]
    fresh = np.zeros(len(arr), dtype=bool)
    fresh[:1] = True
    for column in ranked.T:
        fresh[1:] |= column[1:] != column[:-1]
    return order, fresh


@lru_cache(maxsize=None)
def differences(n: int, vectors: tuple[IntVec, ...]) -> tuple[tuple[IntVec, ...], np.ndarray]:
    """The distinct differences y - x of the vectors in lexicographic order, and the index of each y - x among them.

    The index is a |V| x |V| int32 array, read at [x, y].  All |V|^2 differences are one array grouped by lex_groups;
    only the distinct ones become tuples.  Past 2^24 entries (|V|^2 n) the arrays would not fit in 1 GiB.
    """
    charge(CandidateBallTooLarge, "difference entries", len(vectors) ** 2 * n, 2**24)
    v = int_array(vectors, n)
    shift = (v - v[:, None]).reshape(-1, n)  # y - x in row x |V| + y
    order, fresh = lex_groups(shift)
    index = np.empty((len(v), len(v)), dtype=np.int32)
    index.reshape(-1)[order] = np.cumsum(fresh, dtype=np.int32) - 1  # each difference's rank, scattered to its row
    index.flags.writeable = False  # the cache hands it to every caller
    return tuple(map(tuple, shift[order[fresh]].tolist())), index


def sorted_unique(arr: np.ndarray) -> np.ndarray:
    order, fresh = lex_groups(arr)
    return arr[order[fresh]]


def locate(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of rows in table, -1 where it is absent.

    table holds distinct rows in lexicographic order.  Rows inside the
    box the table spans get the mixed-radix codes sum (x_i - lo) base^(n-1-i),
    which order as the rows do, and are found by searchsorted.
    """
    at = np.full(len(rows), -1)
    if len(table) == 0:
        return at
    lo, hi = int(table.min()), int(table.max())
    rows = rows.astype(table.dtype) if table.dtype == object else rows
    inside = np.flatnonzero(within(rows, [lo] * table.shape[1], [hi] * table.shape[1]))
    base = hi - lo + 1
    dtype = dtype_for(base ** table.shape[1])
    keys, codes = (np.zeros(len(x), dtype=dtype) for x in (table, inside))
    for column, value in zip((table - lo).astype(dtype).T, (rows[inside] - lo).astype(dtype).T):
        keys, codes = keys * base + column, codes * base + value
    found = np.searchsorted(keys, codes).clip(max=len(keys) - 1)
    hit = keys[found] == codes
    at[inside[hit]] = found[hit]
    return at


def mat_rows(a, vectors: np.ndarray, room: int = 0) -> np.ndarray:
    """The rows a v for the rows v of vectors, in a dtype_for that holds the vectors and leaves room to add up to room."""
    dtype = dtype_for(max(inf_norm(a), 1) * max(int(np.abs(vectors).max(initial=0)), 1) + room)
    return vectors.astype(dtype, copy=False) @ np.array(a, dtype=dtype).T

