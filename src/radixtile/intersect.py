"""Intersections of a digit tile with its translates, and their dimensions.

Given a translate alpha presented by a digit-difference representation,
the intersection T and T + alpha is the coding image of the componentwise
sets D meet (D + alpha_j).  SEP witnesses for that set sequence induce an
explicit iterated function system; the dimension formulas are carried
symbolically as rational multiples of log(a)/log(b) so equalities like
log 3 / log 10 are decided without float tolerance.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, sep
from .errors import (
    DigitShapeViolation,
    EmptyIntersection,
    GridViolation,
    UniquenessNotEstablished,
)
from .linalg import RatMatrix, RatVec, np
from .numsys import RadixSystem
from .radix import EpSeq, Representation, enumerate_equivalents, eval_exact, representations_unique, vector_seq
from .sep import SepIntWitness, SepSetWitness


# ---------------------------------------------------------------------------
# exact dimension values


def _int_nth_root(a: int, e: int) -> int:
    lo, hi = 1, 1 << (a.bit_length() // e + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**e <= a:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _primitive_power(a: int) -> tuple[int, int]:
    """Write a >= 2 as base**exp with base not a perfect power: the first hit of
    the largest exponent, since a root that were a power would give a larger one."""
    for e in range(a.bit_length(), 1, -1):
        r = _int_nth_root(a, e)
        if r**e == a:
            return r, e
    return a, 1


def _primitive_factors(factors) -> dict[int, int]:
    """{r: f} with prod(factors) = prod(r**f), the r pairwise coprime and none a
    perfect power.  The distinct factors are split into a coprime base by gcds,
    so the time is polynomial in their bit lengths, whatever their primes."""
    distinct = Counter(factors)
    base: list[int] = []
    todo = [c for c in distinct if c > 1]
    while todo:  # each split replaces x, b by g, x/g, b/g: their product falls by g
        x = todo.pop()
        for i, b in enumerate(base):
            g = math.gcd(x, b)
            if g > 1:
                del base[i]
                todo += [y for y in (g, x // g, b // g) if y > 1]
                break
        else:
            base.append(x)
    out = {}
    for b in base:
        root, k = _primitive_power(b)
        for c, times in distinct.items():
            while c % b == 0:
                out[root] = out.get(root, 0) + k * times
                c //= b
    return out


@dataclass(frozen=True)
class ExactDim:
    """Canonical form coeff * log(base_num) / log(base_den).

    Zero is coeff 0; a value that simplifies to a rational (both logs over
    the same primitive base) is stored with base_num == base_den == 0 and
    the rational in coeff.  Equality of two ExactDim values decides
    equality of the dimensions they denote.
    """

    coeff: Fraction
    base_num: int
    base_den: int

    @classmethod
    def zero(cls) -> "ExactDim":
        return cls(Fraction(0), 0, 0)

    @classmethod
    def rational(cls, value: Fraction) -> "ExactDim":
        return cls(Fraction(value), 0, 0) if value != 0 else cls.zero()

    @classmethod
    def log_ratio(cls, num: int, den: int, coeff: Fraction = Fraction(1)) -> "ExactDim":
        """coeff * log(num)/log(den) for integers num >= 1, den >= 2."""
        return cls.from_counts([num], 1, den, 1).scale(coeff)

    @classmethod
    def from_counts(cls, counts, period: int, determinant: int, dim: int) -> "ExactDim":
        """dim * sum(log counts) / (period * log |det|).  The product of the
        counts, which can have thousands of digits, is only built as its
        primitive root, from the coprime primitive factors of the counts."""
        counts = [int(c) for c in counts]
        if min(counts, default=1) <= 0 or abs(determinant) <= 1:
            raise ValueError("log_ratio needs num >= 1 and den >= 2")
        exponents = _primitive_factors(counts)
        if not exponents:
            return cls.zero()
        s = math.gcd(*exponents.values())
        a0 = math.prod(r ** (f // s) for r, f in exponents.items())
        b0, t = _primitive_power(abs(determinant))
        c = Fraction(dim * s, period * t)
        return cls.rational(c) if a0 == b0 else cls(c, a0, b0)

    def scale(self, factor: Fraction) -> "ExactDim":
        factor = Fraction(factor)
        if factor == 0 or self.coeff == 0:
            return ExactDim.zero()
        return ExactDim(self.coeff * factor, self.base_num, self.base_den)

    @property
    def value(self) -> float:
        if self.base_num == 0:
            return float(self.coeff)
        return float(self.coeff) * math.log(self.base_num) / math.log(self.base_den)

    def __str__(self) -> str:
        coeff = linalg.frac_str(self.coeff)
        if self.base_num == 0:
            return coeff
        core = f"log({linalg.frac_str(self.base_num)})/log({linalg.frac_str(self.base_den)})"
        return core if self.coeff == 1 else f"({coeff})*{core}"


@dataclass(frozen=True)
class DimReport:
    """One dimension value with exact symbolic and float forms."""

    kind: str
    exact: ExactDim
    flags: dict = field(default_factory=dict, compare=False)

    @property
    def value(self) -> float:
        return self.exact.value

    def to_json(self) -> dict:
        out = {"kind": self.kind, "exact": str(self.exact), "float": self.exact.value}
        if self.flags:
            out["flags"] = dict(sorted(self.flags.items()))
        return out


# ---------------------------------------------------------------------------
# translates and intersection sequences


@dataclass(frozen=True)
class TranslateSpec:
    """A translate given by its digit-difference representation."""

    system: RadixSystem
    alpha: EpSeq
    uniqueness_checked: bool

    def __post_init__(self):
        diffs = set(self.system.differences())
        for x in list(self.alpha.pre) + list(self.alpha.cycle):
            if x not in diffs:
                raise ValueError(f"entry {x} is not a digit difference")

    def alpha_value(self) -> RatVec:
        rep = Representation(self.system.difference_system(), self.alpha)
        return eval_exact(rep)


def translate_spec(sys: RadixSystem, alpha: EpSeq, strict: bool = True) -> TranslateSpec:
    """Wrap alpha, verifying unique difference representations in strict mode."""
    alpha = vector_seq(alpha.pre, alpha.cycle)
    checked = False
    if strict:
        if not representations_unique(sys.difference_system()):
            raise UniquenessNotEstablished(
                "difference representations are not unique; pass strict=False to waive"
            )
        checked = True
    return TranslateSpec(system=sys, alpha=alpha, uniqueness_checked=checked)


def intersection_sequence(t: TranslateSpec) -> EpSeq:
    """Componentwise digit sets D meet (D + alpha_j), as an EpSeq of sets."""
    digits = t.system.digits
    dset = set(digits)
    shifts = {*t.alpha.pre, *t.alpha.cycle}  # D meet (D + a) is built once for each distinct shift a
    components = {a: frozenset(d for d in digits if linalg.vec_sub(d, a) in dset) for a in shifts}
    if not all(components.values()):
        raise EmptyIntersection("a component of the intersection is empty")
    return t.alpha.map(components.__getitem__)


def multi_intersection_sequence(specs) -> EpSeq:
    """Componentwise intersection across several translates of one system.

    Component nonemptiness certifies the expressible part of the multi
    intersection; chained membership of the translates themselves is the
    caller's responsibility.
    """
    specs = list(specs)
    if not specs:
        raise ValueError("need at least one translate")
    sys = specs[0].system
    if any(s.system != sys for s in specs):
        raise ValueError("translates must share a system")
    seqs = [intersection_sequence(s) for s in specs]
    pre = max(s.preperiod for s in seqs)
    cyc = math.lcm(*[s.period for s in seqs])
    entries = []
    for j in range(pre + cyc):
        inter = seqs[0].entry(j)
        for s in seqs[1:]:
            inter = inter & s.entry(j)
        if not inter:
            raise EmptyIntersection(f"component {j} of the multi intersection is empty")
        entries.append(inter)
    return EpSeq.make(entries[:pre], entries[pre:])


# ---------------------------------------------------------------------------
# the induced iterated function system


@dataclass(frozen=True)
class IfsSpec:
    """Affine maps x -> linear @ x + offset sharing one linear part."""

    power: int
    linear: RatMatrix
    offsets: tuple[RatVec, ...]
    beta_value: RatVec

    @property
    def map_count(self) -> int:
        return len(self.offsets)

    def apply(self, index: int, x: RatVec) -> RatVec:
        y = linalg.frac_mat_vec(self.linear, x)
        return tuple(a + b for a, b in zip(y, self.offsets[index]))


def build_ifs(t: TranslateSpec, w: SepSetWitness) -> IfsSpec:
    """IFS generating the intersection from a SEP witness.

    One map per choice of u_l in U_l and v_l in V_l:
      f(x) = A^-p (x + sum_l (A^{p-l-1} u_l + A^{-l-1} v_l) - beta) + beta
    with beta the value of the witness's translating digit representation.
    Maps with equal offsets are one map, so the offsets are the distinct ones.
    """
    from .errors import InvalidWitness

    seq = intersection_sequence(t)
    if w.rebuild() != seq:
        raise InvalidWitness("witness does not reproduce the intersection sequence")

    sys = t.system
    p = w.block
    a = sys.matrix
    beta = eval_exact(Representation(sys, EpSeq.make(w.beta_head, w.beta_cycle)))
    # A^-p sum_l (A^{p-l-1} u_l + A^{-l-1} v_l) = A^-2p z with the integer vector
    # z = sum_l (A^{2p-l-1} u_l + A^{p-l-1} v_l), so each offset is
    # A^-2p z + (beta - A^-p beta) and z runs over the Minkowski sum over l of
    # {A^{2p-l-1} u + A^{p-l-1} v}.  z -> offset is injective, so distinct z
    # give the distinct offsets.
    zs = {linalg.zero_vec(sys.n)}
    for l, (us, vs) in enumerate(zip(w.base, w.increments)):
        a_u, a_v = linalg.mat_pow(a, 2 * p - l - 1), linalg.mat_pow(a, p - l - 1)
        terms = {linalg.vec_add(linalg.mat_vec(a_u, u), linalg.mat_vec(a_v, v)) for u in us for v in vs}
        zs = {linalg.vec_add(z, x) for z in zs for x in terms}
    a_inv_p = linalg.mat_inv_pow(a, p)
    a_2p = linalg.mat_pow(a, 2 * p)
    adj, det = linalg.adjugate(a_2p), linalg.det(a_2p)  # A^-2p = adj / det
    shift = [b - x for b, x in zip(beta, linalg.frac_mat_vec(a_inv_p, beta))]
    offsets = (tuple(Fraction(y, det) + s for y, s in zip(linalg.mat_vec(adj, z), shift)) for z in zs)
    return IfsSpec(power=p, linear=a_inv_p, offsets=tuple(sorted(offsets)), beta_value=beta)


def check_ssc(w: SepSetWitness) -> bool:
    """Strong separation holds iff every sumset has full product size."""
    return all(
        len(sep.sumset(u, v)) == len(u) * len(v)
        for u, v in zip(w.base, w.increments)
    )


# ---------------------------------------------------------------------------
# dimension formulas


def similarity_dimension(sys: RadixSystem, w: SepSetWitness) -> DimReport:
    """Similarity dimension of the witness IFS (exact form)."""
    linalg.require_similarity(sys.matrix)
    counts = w.map_counts()
    exact = ExactDim.from_counts(counts, w.block, sys.determinant, sys.n)
    return DimReport(kind="similarity", exact=exact, flags={"ssc": check_ssc(w)})


def similarity_dimension_counts(counts, period: int, determinant: int, dim: int) -> DimReport:
    """Similarity dimension of a homogeneous IFS given map counts per level.

    The contraction coefficient per level is |determinant|^(-1/dim), so the
    closed form is dim * log(prod counts) / (period * log |determinant|).
    """
    exact = ExactDim.from_counts(counts, period, determinant, dim)
    return DimReport(kind="similarity", exact=exact)


def generic_similarity_dimension(ratios) -> float:
    """Solve sum r_i^s = 1 by bisection to 1e-12."""
    ratios = [float(r) for r in ratios]
    if not ratios or any(not (0.0 < r < 1.0) for r in ratios):
        raise ValueError("ratios must lie strictly between 0 and 1")

    def h(s):
        return sum(r**s for r in ratios) - 1.0

    lo, hi = 0.0, 1.0
    while h(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if h(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return (lo + hi) / 2.0


def box_dimension_ep(sys: RadixSystem, seq: EpSeq) -> DimReport:
    """Box dimension of the coding image of an ep set sequence.

    For eventually periodic component counts the limit exists and equals
    n * sum over the cycle of log |D_l| divided by (cycle length * log
    |det A|).  Needs the inverse matrix to act as a similarity.
    """
    linalg.require_similarity(sys.matrix)
    counts = [len(s) for s in seq.cycle]
    if any(c == 0 for c in counts):
        raise EmptyIntersection("empty component in the sequence")
    exact = ExactDim.from_counts(counts, seq.period, sys.determinant, sys.n)
    return DimReport(kind="box", exact=exact)


def hausdorff_dimension_sep(sys: RadixSystem, w: SepSetWitness) -> DimReport:
    """Hausdorff dimension from a SEP witness: log prod |U_l + V_l| scaled."""
    linalg.require_similarity(sys.matrix)
    counts = w.sum_counts()
    exact = ExactDim.from_counts(counts, w.block, sys.determinant, sys.n)
    return DimReport(kind="hausdorff", exact=exact, flags={"ssc": check_ssc(w)})


def gk_profile(sys: RadixSystem, counts_prefix) -> list[float]:
    """Finite-k diagnostics log G_k / (k log |det|^{1/n}) for k = 1..len."""
    linalg.require_similarity(sys.matrix)
    scale = math.log(abs(sys.determinant)) / sys.n
    out = []
    acc = 0.0
    for k, c in enumerate(counts_prefix, start=1):
        acc += math.log(int(c))
        out.append(acc / (k * scale))
    return out


def bm_dimensions(m: int, n: int, digits, allow_refined: bool = False) -> tuple[float, float]:
    """Hausdorff and box dimensions of a diag(m, n) grid carpet.

    Digits are (column, row) pairs; columns are grouped by the first
    coordinate.  With allow_refined the digits may live on a refined grid
    (m^k by n^k); the formulas are still evaluated with log m and log n,
    matching the direct-formula convention used for composite digit sets.
    """
    if not (n > m >= 2):
        raise GridViolation("need n > m >= 2")
    digits = [linalg.as_vec(d) for d in digits]
    if not digits:
        raise GridViolation("digit set must be nonempty")
    if wrong := [d for d in digits if len(d) != 2]:
        raise GridViolation(f"digit {wrong[0]} is not a (column, row) pair")
    if not allow_refined:
        for d in digits:
            if not (0 <= d[0] < m and 0 <= d[1] < n):
                raise GridViolation(f"digit {d} outside the {m}x{n} grid")
    if len(set(digits)) != len(digits):
        raise GridViolation("digits must be distinct")

    columns: dict[int, int] = {}
    for d in digits:
        columns[d[0]] = columns.get(d[0], 0) + 1
    big_m = len(columns)
    big_n = len(digits)
    gamma = math.log(m) / math.log(n)
    dim_h = math.log(sum(c**gamma for c in columns.values())) / math.log(m)
    dim_b = math.log(big_m) / math.log(m) + math.log(big_n / big_m) / math.log(n)
    return dim_h, dim_b


# ---------------------------------------------------------------------------
# level sets of the dimension map


def level_set_translate(
    sys: RadixSystem, alpha_prefix, lam: Fraction, strict: bool = True
) -> TranslateSpec:
    """Translate whose intersection has dimension lam times the tile's.

    Keeps the given prefix (for closeness to a target translate) and then
    follows the staircase h_j <= j*lam < h_j + 1: positions where the
    staircase pauses emit a maximal-norm difference (component count 1),
    positions where it steps emit 0 (full component).  Rational lam = p/q
    makes the tail periodic with period q and the box dimension exactly
    lam times the tile dimension.
    """
    lam = Fraction(lam)
    if not (0 <= lam <= 1):
        raise ValueError("lam must lie in [0, 1]")
    prefix = [linalg.as_vec(a) for a in alpha_prefix]
    diffs = sys.differences()
    v = max(diffs, key=lambda d: (linalg.norm_sq(d), d))
    zero = linalg.zero_vec(sys.n)
    m = len(prefix)

    if lam == 0:
        cycle = [v]
    elif lam == 1:
        cycle = [zero]
    else:
        q = lam.denominator

        def h(j):
            return (j * lam.numerator) // q

        cycle = [v if h(m + l) == h(m + l - 1) else zero for l in range(1, q + 1)]

    return translate_spec(sys, EpSeq.make(prefix, cycle), strict=strict)


def prefix_length_for_radius(sys: RadixSystem, epsilon: Fraction | float) -> int:
    """Positions after which any tail change moves the value less than epsilon.

    The first m below 10,000 with ||dd|| * tail_bound(A, m) < epsilon, where
    dd is the largest difference of digit differences; D - D is symmetric, so
    ||dd|| is twice the largest ||a|| over a in D - D.  m is found by one
    forward scan over tail_bounds' unreduced pairs num / den.  For
    epsilon = p / q, step m passes when dd^2 q^2 num^2 < p^2 den^2, compared
    exactly; a step whose bit lengths already show the left side is not
    smaller builds no product.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    dd_sq = 4 * max(map(linalg.norm_sq, sys.differences()))
    if dd_sq == 0:
        return 0
    eps = Fraction(epsilon)
    left, right = dd_sq * eps.denominator**2, eps.numerator**2
    # 2^(bits(x) - 1) <= x < 2^bits(x), so the left side is at least the right once this gap is reached
    gap = right.bit_length() - left.bit_length() + 3
    for m, (num, den) in zip(range(10_000), linalg.tail_bounds(sys.matrix)):
        if 2 * (num.bit_length() - den.bit_length()) < gap and left * num * num < right * den * den:
            return m
    raise ValueError("epsilon too small to certify a prefix length")


# ---------------------------------------------------------------------------
# the two-digit special case


def minimal_element(sys: RadixSystem, t: TranslateSpec) -> tuple[RatVec, EpSeq]:
    """Minimal element of the intersection and the scalar bound sequence.

    Needs digits {0, d}.  The bound at position j is m - |alpha_j| in
    units of the nonzero digit scalar m: m when alpha_j = 0, else 0.
    """
    zero = linalg.zero_vec(sys.n)
    if len(sys.digits) != 2 or zero not in sys.digits:
        raise DigitShapeViolation("needs digit set {0, d}")
    d = next(x for x in sys.digits if x != zero)
    m = max(abs(x) for x in d)

    seq = intersection_sequence(t)
    gamma_digits = seq.map(lambda s: zero if zero in s else d)
    gamma = eval_exact(Representation(sys, gamma_digits))

    def bound(a):
        return m if a == zero else 0

    bounds = t.alpha.map(bound)
    return gamma, bounds


def check_selfsim_sep_special(t: TranslateSpec) -> SepIntWitness | None:
    """SEP test of the scalar bound sequence for {0, d} digit systems."""
    _, bounds = minimal_element(t.system, t)
    return sep.is_sep_int(bounds)


# ---------------------------------------------------------------------------
# multiple representations of the translate


@dataclass(frozen=True)
class UnionComponent:
    alpha_rep: EpSeq
    sets: EpSeq
    dim_lower: DimReport


@dataclass(frozen=True)
class UnionReport:
    classification: str
    components: tuple[UnionComponent, ...]


def union_components(t: TranslateSpec, limit: int = 8) -> UnionReport:
    """Components of the intersection across all representations of alpha.

    Enumerates representations equivalent to the given one over the
    difference digits; each yields a component set sequence and its lower
    box dimension.  The classification reports when the family of
    representations is uncountable.
    """
    diff_sys = t.system.difference_system()
    rep = Representation(diff_sys, t.alpha)
    classification, samples = enumerate_equivalents(diff_sys, rep, sample_limit=limit)
    components = []
    for s in samples:
        spec = TranslateSpec(system=t.system, alpha=s, uniqueness_checked=False)
        seq = intersection_sequence(spec)
        components.append(
            UnionComponent(alpha_rep=s, sets=seq, dim_lower=box_dimension_ep(t.system, seq))
        )
    return UnionReport(classification=classification, components=tuple(components))


# ---------------------------------------------------------------------------
# empirical box-count arbiter


# an empirical box-count exponent matches an exact dimension when within this distance of it
EMPIRICAL_TOLERANCE = 0.05


def box_count_exponent(sys: RadixSystem, seq: EpSeq, depth: int) -> float:
    """Empirical box-count exponent of the depth-k point cloud.

    Counts occupied mesh boxes of side 0.5 * |det|^{-k/n} over the
    depth-k partial sums, normalized by k log |det|^{1/n}.  Serves as an
    independent estimate to arbitrate exact formula values.
    """
    from .render import ktile_points

    cloud = ktile_points(sys, depth, digit_filter=seq)
    c = abs(sys.determinant) ** (-1.0 / sys.n)
    delta = 0.5 * c**depth
    boxes = np.unique(np.floor(cloud.float_points() / delta), axis=0)
    scale = math.log(abs(sys.determinant)) / sys.n
    return math.log(len(boxes)) / (depth * scale)


# ---------------------------------------------------------------------------
# aggregate report


def intersection_report(t: TranslateSpec, sep_budget: int | None = None, empirical_depth: int | None = None) -> dict:
    """Full pipeline: sequence, witness, IFS, dimensions, flags."""
    seq = intersection_sequence(t)
    out: dict = {
        "sequence": seq.to_json(),
        "flags": {
            "uniqueness_assumed": not t.uniqueness_checked,
        },
    }
    witness = sep.is_sep_sets_translated(t.system.digits, seq, max_block=sep_budget)
    dims: dict = {}
    box = box_dimension_ep(t.system, seq)
    dims["box"] = box.to_json()
    if witness is not None:
        ssc = check_ssc(witness)
        out["witness"] = witness_json(witness)
        out["flags"]["ssc"] = ssc
        out["flags"]["osc_implied_false"] = not ssc
        ifs = build_ifs(t, witness)
        out["ifs"] = {
            "power": ifs.power,
            "map_count": ifs.map_count,
            "offsets": [[linalg.frac_str(x) for x in off] for off in ifs.offsets],
            "beta": [linalg.frac_str(x) for x in ifs.beta_value],
        }
        dims["hausdorff"] = hausdorff_dimension_sep(t.system, witness).to_json()
        dims["similarity"] = similarity_dimension(t.system, witness).to_json()
    else:
        out["witness"] = None
    if empirical_depth:
        est = box_count_exponent(t.system, seq, empirical_depth)
        dims["empirical_box_exponent"] = est
        out["flags"]["empirical_matches_exact"] = abs(est - box.value) < EMPIRICAL_TOLERANCE
    out["dims"] = dims
    return out


def witness_json(w: SepSetWitness) -> dict:
    return {
        "block": w.block,
        "beta_head": [list(b) for b in w.beta_head],
        "beta_cycle": [list(b) for b in w.beta_cycle],
        "base": [sorted(list(v) for v in u) for u in w.base],
        "increments": [sorted(list(v) for v in u) for u in w.increments],
    }
