import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import linalg
from radixtile.errors import SearchBudgetExceeded
from radixtile.radix import EpSeq
from radixtile.linalg import vec_neg
from radixtile.sep import sumset, translate

from conftest import charged


def fs(*scalars):
    return frozenset((int(x),) for x in scalars)


class TestSumsetComplement:
    def test_three_term_progression(self):
        assert rt.sumset_complement(fs(0, 4), fs(0, 4, 8)) == fs(0, 4)

    def test_singleton(self):
        assert rt.sumset_complement(fs(0), fs(8)) == fs(8)

    def test_no_decomposition(self):
        assert rt.sumset_complement(fs(0, 6), fs(0, 3, 6)) is None

    @given(
        st.sets(st.integers(-6, 6), min_size=1, max_size=4),
        st.sets(st.integers(-6, 6), min_size=1, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_maximality(self, x_vals, s_vals):
        x = frozenset((v,) for v in x_vals)
        s0 = frozenset((v,) for v in s_vals)
        y = sumset(x, s0)
        result = rt.sumset_complement(x, y)
        assert result is not None
        assert s0 <= result
        assert sumset(x, result) == y


class TestSepInt:
    def test_cantor_style_bound_sequence(self):
        w = rt.is_sep_int(EpSeq.make([0], [2]))
        assert w == rt.SepIntWitness(block=1, base=(0,), increments=(2,))

    def test_monotonicity_violation(self):
        assert rt.is_sep_int(EpSeq.make([2], [0])) is None

    def test_constant(self):
        w = rt.is_sep_int(EpSeq.make([], [5]))
        assert w == rt.SepIntWitness(block=1, base=(5,), increments=(0,))

    def test_rebuild_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            block = rng.randint(1, 4)
            base = [rng.randint(0, 5) for _ in range(block)]
            incs = [rng.randint(0, 4) for _ in range(block)]
            witness = rt.SepIntWitness(block=block, base=tuple(base), increments=tuple(incs))
            seq = witness.rebuild()
            found = rt.is_sep_int(seq)
            assert found is not None
            assert found.rebuild() == seq

    def test_monotone_sequences_accepted(self):
        # bounded nonnegative ep with a_j <= a_{j+q} along the cycle
        rng = random.Random(23)
        for _ in range(100):
            cyc_len = rng.randint(1, 4)
            tail = [rng.randint(0, 6) for _ in range(cyc_len)]
            pre = [max(0, tail[i % cyc_len] - rng.randint(0, 3)) for i in range(rng.randint(0, 4))]
            offset = len(pre) % cyc_len
            # align the head below the matching tail phases
            pre = [
                min(pre[i], tail[(i - offset) % cyc_len])
                for i in range(len(pre))
            ]
            seq = EpSeq.make(pre, tail)
            phase0 = seq.preperiod % seq.period
            aligned = all(
                seq.entry(j) <= seq.entry(j + seq.period * 5) for j in range(seq.preperiod + seq.period)
            )
            if aligned:
                assert rt.is_sep_int(seq) is not None


class TestSepSets:
    def test_self_affine_example(self):
        digits = fs(0, 4, 8)
        seq = EpSeq.make([fs(0, 4), fs(0)], [fs(0, 4, 8), fs(8)])
        w = rt.is_sep_sets_translated(sorted(digits), seq)
        assert w is not None
        assert w.block == 2
        assert w.base == (fs(0, 4), fs(0))
        assert w.increments == (fs(0, 4), fs(8))
        assert all(b == (0,) for b in w.beta_head + w.beta_cycle)

    def test_no_witness_for_blocked_sumset(self):
        digits = [(d,) for d in range(9)]
        seq = EpSeq.make([fs(0), fs(0, 6)], [fs(0, 1), fs(0, 3, 6)])
        assert rt.is_sep_sets_translated(digits, seq, max_block=12) is None

    def test_pure_cycle_trivial_witness(self):
        digits = [(0,), (10,), (20,)]
        seq = EpSeq.make([], [fs(10, 20), fs(0, 10, 20)])
        w = rt.is_sep_sets_translated(digits, seq)
        assert w.block == 2
        assert w.base == (fs(10, 20), fs(0, 10, 20))
        assert w.increments == (fs(0), fs(0))

    def test_budget_exceeded_reported(self):
        digits = [(d,) for d in range(9)]
        seq = EpSeq.make([fs(0)] * 6, [fs(0, 1)])
        with pytest.raises(SearchBudgetExceeded) as info:
            rt.is_sep_sets_translated(digits, seq, max_block=3)
        assert charged(info.value, "block length", 3) == 6
        assert rt.is_sep_sets_translated(digits, seq, max_block=6) is not None  # a block at the cap is searched

    def test_untranslated_variant(self):
        seq = EpSeq.make([fs(0, 4), fs(0)], [fs(0, 4, 8), fs(8)])
        w = rt.is_sep_sets(seq)
        assert w is not None and w.block == 2

    def test_rebuild_round_trip(self):
        rng = random.Random(31)
        for _ in range(200):
            block = rng.randint(1, 3)
            base, incs = [], []
            for _ in range(block):
                base.append(frozenset((rng.randint(0, 4),) for _ in range(rng.randint(1, 3))))
                incs.append(frozenset((rng.randint(0, 4),) for _ in range(rng.randint(1, 2))))
            witness = rt.SepSetWitness(
                block=block,
                beta_head=((0,),) * block,
                beta_cycle=((0,),) * block,
                base=tuple(base),
                increments=tuple(incs),
            )
            seq = witness.rebuild()
            found = rt.is_sep_sets(seq)
            assert found is not None
            assert found.rebuild() == seq

    def test_cardinality_projection_is_sep(self):
        # a set-sequence witness forces the size sequence |D_j| - 1 to be SEP
        rng = random.Random(41)
        for _ in range(60):
            block = rng.randint(1, 3)
            base = [frozenset((rng.randint(0, 3),) for _ in range(rng.randint(1, 3))) for _ in range(block)]
            incs = [frozenset((rng.randint(0, 6),) for _ in range(rng.randint(1, 2))) for _ in range(block)]
            seq = rt.SepSetWitness(
                block=block,
                beta_head=((0,),) * block,
                beta_cycle=((0,),) * block,
                base=tuple(base),
                increments=tuple(incs),
            ).rebuild()
            if rt.is_sep_sets(seq) is not None:
                assert rt.is_sep_int(cardinality_projection(seq)) is not None


def cardinality_projection(seq: rt.EpSeq) -> rt.EpSeq:
    """The integer sequence |D_j| - 1 of a set sequence."""
    return seq.map(lambda s: len(frozenset(map(linalg.as_vec, s))) - 1)


def reference_sep_sets_translated(digits, seq):
    """The exhaustive search: every aligned block up to the default bound, every digit pair."""
    digits = sorted(set(digits))
    c = seq.period
    first = c * max(1, -(-max(seq.preperiod, 1) // c))
    for block in range(first, max(12, 3 * first) + 1, c):
        found = []
        for l in range(block):
            for bh, bc in itertools.product(digits, repeat=2):
                u = translate(seq.entry(l), vec_neg(bh))
                v = rt.sumset_complement(u, translate(seq.entry(l + block), vec_neg(bc)))
                if v is not None:
                    found.append((bh, bc, u, v))
                    break
            else:
                break
        else:
            return rt.SepSetWitness(block, *(tuple(part) for part in zip(*found)))
    return None


def reference_sep_int(seq):
    """Every aligned block from the first one to one cycle past it."""
    c = seq.period
    first = c * max(1, -(-max(seq.preperiod, 1) // c))
    for block in range(first, first + c + 1, c):
        incs = [seq.entry(l + block) - seq.entry(l) for l in range(block)]
        if all(x >= 0 for x in incs):
            return rt.SepIntWitness(block, seq.prefix(block), tuple(incs))
    return None


@st.composite
def digit_set_sequences(draw):
    """Digits of a 1-D or 2-D system and an ep sequence of nonempty digit subsets."""
    if draw(st.booleans()):
        grid = [(x,) for x in range(7)]
    else:
        grid = [(x, y) for x in range(3) for y in range(3)]
    digits = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=5, unique=True))
    entry = st.frozensets(st.sampled_from(digits), min_size=1)
    pre = draw(st.lists(entry, max_size=3))
    cycle = draw(st.lists(entry, min_size=1, max_size=3))
    return digits, EpSeq.make(pre, cycle)


class TestSearchReference:
    @given(digit_set_sequences())
    @settings(max_examples=200, deadline=None)
    def test_first_block_and_least_digit_decide(self, case):
        digits, seq = case
        assert rt.is_sep_sets_translated(digits, seq) == reference_sep_sets_translated(digits, seq)
        zero = (0,) * len(digits[0])
        assert rt.is_sep_sets(seq) == reference_sep_sets_translated([zero], seq)

    @given(st.lists(st.integers(0, 5), max_size=3), st.lists(st.integers(0, 5), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_int_first_block_decides(self, pre, cycle):
        seq = EpSeq.make(pre, cycle)
        assert rt.is_sep_int(seq) == reference_sep_int(seq)
