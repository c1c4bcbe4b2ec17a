"""Discrete multiplicative invariance on Z^n.

A lattice set is described by a deterministic automaton reading digit
expansions least significant digit first.  Dropping the least significant
digit (phi) is a one-symbol left quotient of the language; dropping the
most significant digit (psi) is last-symbol deletion.  Both closures are
decided by automaton constructions, and the scaled clouds
X_k = A^-k (E meet A^k T) are enumerated exactly to drive the Hausdorff
distance convergence and torus invariance diagnostics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg, render
from .errors import CloudTooLarge, DepthTooLarge, EmptySet, NotACrs, SingularMatrix, ZeroNotInDigits, charge
from .errors import json_int, json_ints, json_list
from .linalg import IntVec, np
from .numsys import RadixSystem, discrete_expansion, evaluate_expansion


# ---------------------------------------------------------------------------
# digit automata


@dataclass(frozen=True)
class DigitAutomaton:
    """Complete DFA over digit indices, least significant digit first.

    Accepting strings are canonical: the most significant (= last) symbol
    is nonzero, and the empty string stands for 0.  transitions[state] is
    a tuple indexed by digit position in the owning system's digit tuple.
    """

    n_digits: int
    transitions: tuple[tuple[int, ...], ...]
    accepting: frozenset[int]
    initial: int = 0

    def __post_init__(self):
        for row in self.transitions:
            if len(row) != self.n_digits:
                raise ValueError("transition rows must cover every digit")
            if any(not (0 <= t < len(self.transitions)) for t in row):
                raise ValueError("transition target out of range")
        if not 0 <= self.initial < len(self.transitions):
            raise ValueError("initial state out of range")

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def accepts(self, word) -> bool:
        state = self.initial
        for sym in word:
            state = self.transitions[state][sym]
        return state in self.accepting

    def to_json(self) -> dict:
        return {
            "n_digits": self.n_digits,
            "transitions": [list(row) for row in self.transitions],
            "accepting": sorted(self.accepting),
            "initial": self.initial,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DigitAutomaton":
        data = json_list(data, "an automaton", dict)
        return cls(
            n_digits=json_int(data["n_digits"]),
            transitions=tuple(json_ints(row, "a transition") for row in json_list(data["transitions"], "transitions")),
            accepting=frozenset(json_ints(data["accepting"], "accepting")),
            initial=json_int(data.get("initial", 0)),
        )


def digit_restriction_automaton(sys: RadixSystem, allowed) -> DigitAutomaton:
    """Language of canonical strings using only the allowed digits."""
    allowed_idx = {sys.digits.index(linalg.as_vec(d)) for d in allowed}
    zero_idx = sys.digits.index(linalg.zero_vec(sys.n))
    # states: 0 start/accept (empty), 1 ok last nonzero, 2 ok last zero, 3 dead
    rows = []
    for state in range(4):
        row = []
        for idx in range(len(sys.digits)):
            if state == 3 or idx not in allowed_idx:
                row.append(3)
            elif idx == zero_idx:
                row.append(2)
            else:
                row.append(1)
        rows.append(tuple(row))
    return DigitAutomaton(
        n_digits=len(sys.digits),
        transitions=tuple(rows),
        accepting=frozenset({0, 1}),
    )


# ---------------------------------------------------------------------------
# language machinery (padding, quotients, containment)


def _subset_dfa(n_digits: int, start: frozenset, moves, accepting) -> DigitAutomaton:
    """Subset construction (Rabin-Scott) of the sets reachable from start.

    moves(state, sym) gives the successors of one state; a set accepts when
    it meets the accepting states.  The start set becomes state 0.
    """
    index = {start: 0}
    order = [start]
    rows = []
    for current in order:  # order grows while it is walked
        row = []
        for sym in range(n_digits):
            nxt = frozenset(t for s in current for t in moves(s, sym))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    acc = frozenset(i for i, states in enumerate(order) if states & accepting)
    return DigitAutomaton(n_digits=n_digits, transitions=tuple(rows), accepting=acc)


def _pad_dfa(auto: DigitAutomaton, zero_idx: int) -> DigitAutomaton:
    """Determinized automaton of L . 0* (value semantics with zero padding).

    The NFA adds a virtual accepting sink with a zero self-loop, entered by
    a zero from any accepting state.  The empty word is accepted iff initial
    accepts; including the sink in the start set then keeps acceptance
    while allowing zero padding of epsilon.
    """
    sink = auto.n_states

    def moves(state, sym):
        pad = (sink,) if sym == zero_idx and (state == sink or state in auto.accepting) else ()
        return pad if state == sink else (auto.transitions[state][sym], *pad)

    start = {auto.initial, sink} if auto.initial in auto.accepting else {auto.initial}
    return _subset_dfa(auto.n_digits, frozenset(start), moves, auto.accepting | {sink})


def _contains(outer: DigitAutomaton, inner: DigitAutomaton) -> bool:
    """True iff L(inner) is a subset of L(outer) (product emptiness)."""
    start = (inner.initial, outer.initial)
    seen = {start}
    stack = [start]
    while stack:
        si, so = stack.pop()
        if si in inner.accepting and so not in outer.accepting:
            return False
        for sym in range(inner.n_digits):
            nxt = (inner.transitions[si][sym], outer.transitions[so][sym])
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def _delete_first_dfa(auto: DigitAutomaton) -> DigitAutomaton:
    """Determinized {w : d w in L for some digit d}."""
    return _subset_dfa(
        auto.n_digits,
        frozenset(auto.transitions[auto.initial]),
        lambda state, sym: (auto.transitions[state][sym],),
        auto.accepting,
    )


def _delete_last_dfa(auto: DigitAutomaton) -> DigitAutomaton:
    """{w : w d in L for some digit d} (same states, relaxed acceptance)."""
    acc = frozenset(
        s
        for s in range(auto.n_states)
        if any(auto.transitions[s][sym] in auto.accepting for sym in range(auto.n_digits))
    )
    return DigitAutomaton(
        n_digits=auto.n_digits,
        transitions=auto.transitions,
        accepting=acc,
        initial=auto.initial,
    )


def _require_expansion_domain(sys: RadixSystem) -> None:
    """Digit strings must map bijectively to the values they expand to.

    That needs a complete residue system and an expanding matrix.  The
    described set then lives inside the expandable vectors, which is all
    of Z^n exactly when the pair is a number system.
    """
    if not linalg.is_complete_residue_system(sys.matrix, sys.digits):
        raise NotACrs("invariance needs a complete residue digit system")
    linalg.require_expanding(sys.matrix)


@lru_cache(maxsize=None)
def padded_automaton(sys: RadixSystem, auto: DigitAutomaton) -> DigitAutomaton:
    """The automaton of L . 0* that every invariance check and cloud walk reads, cached so a job builds it once."""
    zero = linalg.zero_vec(sys.n)
    if zero not in sys.digits:
        raise ZeroNotInDigits("digit strings pad with the zero digit, which the system lacks")
    return _pad_dfa(auto, sys.digits.index(zero))


def check_invariance(sys: RadixSystem, auto: DigitAutomaton) -> tuple[bool, bool]:
    """(phi closed, psi closed) for the set described by the automaton.

    Works on the zero-padded language so deletions that expose trailing
    zeros still compare by value.  The padding comes first, so a system
    without the zero digit fails that way before the residue test.
    """
    padded = padded_automaton(sys, auto)
    _require_expansion_domain(sys)
    phi_closed = _contains(padded, _delete_first_dfa(padded))
    psi_closed = _contains(padded, _delete_last_dfa(padded))
    return phi_closed, psi_closed


# ---------------------------------------------------------------------------
# the digit-drop maps


def phi(sys: RadixSystem, v) -> IntVec:
    """Drop the least significant digit of the expansion of v."""
    digits = discrete_expansion(sys, v)
    return evaluate_expansion(sys, digits[1:])


def psi(sys: RadixSystem, v) -> IntVec:
    """Drop the most significant digit of the expansion of v."""
    digits = discrete_expansion(sys, v)
    return evaluate_expansion(sys, digits[:-1])


# ---------------------------------------------------------------------------
# scaled clouds and metrics


def xk_cloud(sys: RadixSystem, auto: DigitAutomaton, k: int, cap: int = 200_000) -> render.PointCloud:
    """A^-k (E meet A^k T) as the depth-k cloud of rows sum_{j<k} A^j d_j.

    The rows come from the padded-accepted digit strings d_0 ... d_{k-1};
    for a number system those are exactly the elements of E with
    expansions of length at most k.  The cap counts those strings, which
    are distinct points whenever no two digits are congruent mod A.
    """
    levels = enumerate(_accepted_rows(sys, padded_automaton(sys, auto), k, cap))
    rows = next(rows for depth, rows in levels if depth == k)
    return render.PointCloud(sys, k, rows=rows)


DEPTH_CAP = 28  # log2 of the bits of scaled coordinates one walk may charge


def _accepted_rows(sys: RadixSystem, padded: DigitAutomaton, kmax: int, cap: int = 200_000):
    """The rows of xk_cloud at depths 0, ..., kmax, as walked, from one walk of the padded automaton.

    A padded-accepted string stays accepted when a 0 is appended, so one cap check and one pruning at kmax
    serve every level, and the rows at any level are at most the accepted strings at kmax.  The rows come
    unsorted; they are distinct whenever no two digits are congruent mod A.  The depth budget is kmax + 1
    levels x rows per level x the bits of a scaled coordinate at kmax: a coordinate at depth k has about
    k log2(row sum of A) bits past the digits' own, and every level adds to them, so a deep walk costs about
    the square of its depth in bit operations.  It is charged before the counts and bounds below, whose
    integers grow with the depth: once with one row per level, then with the accepted strings at kmax.
    """
    if kmax < 0:
        raise ValueError(f"depth must be >= 0, got {kmax}")
    bits = kmax * linalg.inf_norm(sys.matrix).bit_length() + max(abs(x) for d in sys.digits for x in d).bit_length()
    charge(DepthTooLarge, "depth bits", (kmax + 1) * bits, 2**DEPTH_CAP)
    # ways[t][s]: accepted strings of length t read from state s
    ways = [[int(s in padded.accepting) for s in range(padded.n_states)]]
    for _ in range(kmax):
        ways.append([sum(ways[-1][t] for t in row) for row in padded.transitions])
    charge(CloudTooLarge, "cloud strings", ways[kmax][padded.initial], cap)
    charge(DepthTooLarge, "depth bits", (kmax + 1) * ways[kmax][padded.initial] * bits, 2**DEPTH_CAP)

    # one array of partial sums per state; a state is kept at step j only
    # when it has an accepted completion of length kmax - j
    dtype = linalg.dtype_for(linalg.int_entry_bound(sys.matrix, [sys.digits] * kmax))
    empty = np.zeros((0, sys.n), dtype=dtype)
    level = {padded.initial: np.zeros((1, sys.n), dtype=dtype)} if ways[kmax][padded.initial] else {}
    power = linalg.identity(sys.n)
    for j in range(kmax + 1):
        yield np.concatenate([empty, *(sums for state, sums in level.items() if state in padded.accepting)])
        if j == kmax:
            return
        shifted = np.array([linalg.mat_vec(power, d) for d in sys.digits], dtype=dtype)
        parts: dict[int, list[np.ndarray]] = {}
        for state, sums in level.items():
            for sym, target in enumerate(padded.transitions[state]):
                if ways[kmax - j - 1][target]:
                    parts.setdefault(target, []).append(sums + shifted[sym])
        level = {state: np.concatenate(arrays) for state, arrays in parts.items()}
        power = linalg.mat_mul(sys.matrix, power)


def _directed_sq(p: np.ndarray, q: np.ndarray, a: int) -> float:
    """Max over p of the least squared distance to q; both sorted by coordinate a."""
    at = np.searchsorted(q[:-1, a], p[:, a])  # first q_a >= p_a, else q's last point
    near = linalg.sq_norms(p - q[[at, at - 1]]).min(axis=0)  # index -1 is q's last point: still a bound
    reach = np.sqrt(near) * (1 + 2**-40) + 2**-500
    lo = np.searchsorted(q[:, a], p[:, a] - reach, "left")
    width = np.searchsorted(q[:, a], p[:, a] + reach, "right") - lo
    edges = np.cumsum(np.append(0, width))  # point i's pairs are edges[i]:edges[i+1] of all windows laid flat
    best, s = 0.0, 0
    while s < len(p):  # one batch: points s..e-1 with at most 2^14 pairs, or s alone
        e = max(s + 1, int(np.searchsorted(edges, edges[s] + 2**14, "right")) - 1)
        w, starts = width[s:e], edges[s:e] - edges[s]
        pairs = np.arange(edges[e] - edges[s]) + np.repeat(lo[s:e] - starts, w)
        d = linalg.sq_norms(np.repeat(p[s:e], w, axis=0) - q[pairs])
        best, s = max(best, np.minimum.reduceat(d, starts).max()), e
    return best


def hausdorff_distance(p, q) -> float:
    """Max of the two directed sup-min Euclidean distances of two (N, n) point sets of one n.

    Up to 2^15 pairs one matrix serves both directions; above, both sets are swept in order of the
    widest coordinate a: each point's two a-neighbours bound its squared distance, and its window holds
    the points within sqrt(bound) * (1 + 2^-40) + 2^-500 of its a-coordinate.  Outside it fl((p_a - q_a)^2)
    > bound, also where squares underflow, and float sums of non-negative squares never drop below a term:
    each minimum is the all-pairs one.  The windows' pairs are reduced per point, at most 2^14 at a time.
    """
    if len(p) == 0 or len(q) == 0:
        raise EmptySet("Hausdorff distance needs nonempty sets")
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or p.shape[1:] != q.shape[1:] or not p.shape[1]:
        raise ValueError(f"Hausdorff distance needs (N, n) point arrays of one n >= 1, got {p.shape} and {q.shape}")
    if len(p) * len(q) <= 2**15:
        d = linalg.sq_norms(p[:, None] - q[None, :])
        return float(np.sqrt(max(d.min(axis=1).max(), d.min(axis=0).max())))
    a = int(np.ptp(np.concatenate((p, q)), axis=0).argmax())
    p, q = (x[np.argsort(x[:, a])] for x in (p, q))
    return float(np.sqrt(max(_directed_sq(p, q, a), _directed_sq(q, p, a))))


def torus_distance(x, y) -> float:
    """Quotient metric min over integer shifts of the Euclidean distance."""
    x = tuple(Fraction(a) for a in x)
    y = tuple(Fraction(a) for a in y)
    n = len(x)
    best = None
    for zeta in itertools.product((-1, 0, 1), repeat=n):
        d = sum((float(a - b + z)) ** 2 for a, b, z in zip(x, y, zeta))
        best = d if best is None else min(best, d)
    return math.sqrt(best)


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    measured: float
    bound: float
    ratio_to_prev: float | None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ConvergenceRow, ...]
    phi_closed: bool

    def to_csv(self) -> str:
        lines = ["k,measured,bound,ratio_to_prev"]
        for r in self.rows:
            ratio = "" if r.ratio_to_prev is None else repr(r.ratio_to_prev)
            lines.append(f"{r.k},{r.measured!r},{r.bound!r},{ratio}")
        return "\n".join(lines) + "\n"


def convergence_report(sys: RadixSystem, auto: DigitAutomaton, kmax: int) -> ConvergenceReport:
    """Measured d_H(X_k, X_{k+1}) against the certified decay bound.

    One padded automaton serves the closure check and one walk, which gives every level's rows w as walked:
    a Hausdorff distance reads neither their order nor repeats.  X_k is B^k w / |det A|^k with
    B = sign(det A) adj(A), and B^k and |det A|^k are carried from level to level, one product each, into
    the exact division of ``render.exact_floats``, so each point is the double that ``float_points`` gives.
    The walk charges the depth budget first (exit 3).  The bound column divides tail_bounds' unreduced
    numerator and denominator once per row.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    phi_closed, _ = check_invariance(sys, auto)
    max_digit = sys.max_digit_norm()
    b, d = linalg.signed_adjugate(sys.matrix)
    power, scale, clouds = linalg.identity(sys.n), 1, []
    for rows in _accepted_rows(sys, padded_automaton(sys, auto), kmax + 1):
        clouds.append(render.exact_floats(linalg.mat_rows(power, rows), scale))
        power, scale = linalg.mat_mul(b, power), scale * d
    rows, prev, tails = [], None, linalg.tail_bounds(sys.matrix, 1)
    for k in range(1, kmax + 1):
        measured = hausdorff_distance(clouds[k], clouds[k + 1])
        num, den = next(tails)
        bound = max_digit * (num / den)
        ratio = (measured / prev) if prev not in (None, 0.0) else None
        rows.append(ConvergenceRow(k=k, measured=measured, bound=bound, ratio_to_prev=ratio))
        prev = measured
    return ConvergenceReport(rows=tuple(rows), phi_closed=phi_closed)


def torus_invariance_check(sys: RadixSystem, auto: DigitAutomaton, k: int) -> bool:
    """Exact check that A maps the k-cloud into the (k-1)-cloud on the torus.

    A A^-k w - A^-(k-1) w' is integral iff w = w' mod A^(k-1) Z^n, so the
    residue classes of the k-cloud's rows must all occur in the (k-1)-cloud.
    """
    if k < 2:
        raise ValueError("needs k >= 2")
    if sys.determinant == 0:
        raise SingularMatrix("torus check needs det != 0")
    power = linalg.mat_pow(sys.matrix, k - 1)
    levels = itertools.islice(_accepted_rows(sys, padded_automaton(sys, auto), k), k - 1, None)
    prev, last = (linalg.class_index(power, rows) for rows in levels)
    # last adds no class to prev's; unlike np.isin, this stays O(N log N) on object indices
    classes = [len(np.unique(x, return_index=True)[0]) for x in (prev, np.concatenate([prev, last]))]
    return classes[0] == classes[1]
