"""Strong eventual periodicity for integer and set sequences.

A sequence is strongly eventually periodic (SEP) when it has the shape
(b_1 .. b_P) followed by the infinite repetition of (b_1 + c_1 .. b_P + c_P)
with nonnegative increments c (for integers) or sumset increments
B_l + C_l (for sets).  The decision here is restricted to eventually
periodic inputs, which are the only finitely encodable ones; within those
the least block length that is a multiple of the cycle length and at least
the preperiod decides, because longer aligned blocks only add positions
whose head and tail entries are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import SearchBudgetExceeded, charge
from .linalg import IntVec
from .radix import EpSeq


@dataclass(frozen=True)
class SepIntWitness:
    """Block length with base values and nonnegative increments."""

    block: int
    base: tuple[int, ...]
    increments: tuple[int, ...]

    def rebuild(self) -> EpSeq:
        tail = tuple(b + c for b, c in zip(self.base, self.increments))
        return EpSeq.make(self.base, tail)


@dataclass(frozen=True)
class SepSetWitness:
    """Block length, translating digit blocks, base sets and increment sets.

    The certified identity is: for positions l = 1..P the sequence entry
    minus beta_head[l] equals base[l], and every later entry at phase l
    minus beta_cycle[l] equals base[l] + increments[l] (elementwise sums).
    """

    block: int
    beta_head: tuple[IntVec, ...]
    beta_cycle: tuple[IntVec, ...]
    base: tuple[frozenset, ...]
    increments: tuple[frozenset, ...]

    def rebuild(self) -> EpSeq:
        head = tuple(
            translate(u, b) for u, b in zip(self.base, self.beta_head)
        )
        tail = tuple(
            translate(sumset(u, v), b)
            for u, v, b in zip(self.base, self.increments, self.beta_cycle)
        )
        return EpSeq.make(head, tail)

    def map_counts(self) -> tuple[int, ...]:
        """|U_l| * |V_l| per position, the map count of the induced IFS."""
        return tuple(len(u) * len(v) for u, v in zip(self.base, self.increments))

    def sum_counts(self) -> tuple[int, ...]:
        """|U_l + V_l| per position."""
        return tuple(len(sumset(u, v)) for u, v in zip(self.base, self.increments))


def sumset(x, y) -> frozenset:
    return frozenset(linalg.vec_add(a, b) for a in x for b in y)


def translate(x, t) -> frozenset:
    return frozenset(linalg.vec_add(a, t) for a in x)


def sumset_complement(x, y):
    """Largest S with x + S = y, or None when no such set exists.

    The intersection of the translates y - a over a in x is the unique
    maximal candidate: every valid S is contained in it, and enlarging a
    valid S inside it never leaves y.
    """
    x = frozenset(tuple(a) for a in x)
    y = frozenset(tuple(b) for b in y)
    if not x or not y:
        return None
    candidate = None
    for a in x:
        shifted = frozenset(linalg.vec_sub(b, a) for b in y)
        candidate = shifted if candidate is None else candidate & shifted
        if not candidate:
            return None
    return candidate if sumset(x, candidate) == y else None


def _first_block(seq: EpSeq) -> int:
    """The least multiple of the cycle length that is at least the preperiod and 1."""
    return seq.period * -(-max(seq.preperiod, 1) // seq.period)


def is_sep_int(seq: EpSeq) -> SepIntWitness | None:
    """Decide SEP for an eventually periodic integer sequence.

    A block length P works iff the sequence is exactly P-periodic from
    position P+1 and each increment a_{l+P} - a_l is nonnegative; for a
    canonical input only multiples of the cycle length at or beyond the
    preperiod can satisfy the first condition, and all of them agree, so
    testing the least one decides.
    """
    entries = [int(x) for x in list(seq.pre) + list(seq.cycle)]
    seq = EpSeq.make(entries[: seq.preperiod], entries[seq.preperiod:])
    block = _first_block(seq)
    incs = tuple(seq.entry(l + block) - seq.entry(l) for l in range(block))
    if any(c < 0 for c in incs):
        return None
    return SepIntWitness(block=block, base=seq.prefix(block), increments=incs)


def _normalize_set_seq(seq: EpSeq) -> EpSeq:
    def norm(s):
        return frozenset(linalg.as_vec(v) for v in s)

    return seq.map(norm)


def is_sep_sets(seq: EpSeq) -> SepSetWitness | None:
    """SEP decision for a set sequence with no translating digits."""
    seq = _normalize_set_seq(seq)
    if any(not s for s in list(seq.pre) + list(seq.cycle)):
        raise ValueError("sequence entries must be nonempty sets")
    n = len(next(iter(seq.cycle[0])))
    zero = linalg.zero_vec(n)
    return is_sep_sets_translated((zero,), seq, allow_zero_only=True)


def is_sep_sets_translated(
    digits, seq: EpSeq, max_block: int | None = None, allow_zero_only: bool = False
) -> SepSetWitness | None:
    """Search beta digit blocks making the translated sequence SEP.

    The first aligned block P (the least multiple of the cycle length no
    smaller than the preperiod) decides.  A later aligned block has the
    same (entry(l), entry(l + P)) pairs at the positions l below the
    preperiod and only adds pairs of equal entries, which always decompose,
    so it succeeds exactly when the first one does.  At each position,
    shifting the head by -a and the tail by -b only shifts the largest
    complement by a - b, so the least digit d0 serves as both betas when
    any pair of digits does.  max_block is a budget: a first aligned block
    beyond it raises SearchBudgetExceeded.
    """
    seq = _normalize_set_seq(seq)
    digits = tuple(sorted({linalg.as_vec(d) for d in digits}))
    if not allow_zero_only:
        for s in list(seq.pre) + list(seq.cycle):
            if not s or not s <= set(digits):
                raise ValueError("sequence entries must be nonempty digit subsets")

    block = _first_block(seq)
    if max_block is not None:
        charge(SearchBudgetExceeded, "block length", block, max_block)
    beta = digits[0]
    base = tuple(translate(seq.entry(l), linalg.vec_neg(beta)) for l in range(block))
    incs = []
    for l, u in enumerate(base):
        v = sumset_complement(u, translate(seq.entry(l + block), linalg.vec_neg(beta)))
        if v is None:
            return None
        incs.append(v)
    return SepSetWitness(
        block=block,
        beta_head=(beta,) * block,
        beta_cycle=(beta,) * block,
        base=base,
        increments=tuple(incs),
    )

