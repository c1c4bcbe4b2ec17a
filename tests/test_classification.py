"""Cardinality classes of equivalent representations.

The oracle below rebuilds the product walk graph of enumerate_equivalents
and applies the definitions of the classes directly, with no strongly
connected components: a state with two distinct out-edges that both return
to it gives uncountably many walks; otherwise a state on a cycle with an
edge that cannot return gives countably infinitely many.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import radixtile as rt
from radixtile import cli, linalg

REPRODUCERS = [
    # (base, digits, pre, cycle); prefixes of length L grow linearly in L
    (3, (0, 1, 2, 5), [5], [1, 0]),
    (4, (0, 1, 2, 4), [0, 2], [1]),
    # quadratic growth, still countable
    (-2, (0, 2, 3), [0], [3, 3]),
]


def _system(base, digits):
    return rt.RadixSystem(((base,),), tuple((d,) for d in digits))


def _walk_graph(sys, x):
    """Product states (phase, zeta) on infinite walks from (0, 0), with their targets."""
    allowed = set(rt.integer_neighbours(sys.matrix, sys.digits).vectors)
    zero = linalg.zero_vec(sys.n)
    allowed.add(zero)
    m, c = x.seq.preperiod, x.seq.period
    start = (0, zero)
    succ = {}
    todo = [start]
    while todo:
        s = todo.pop()
        if s in succ:
            continue
        ph, zeta = s
        xd = x.seq.entry(ph)
        nph = ph + 1 if ph + 1 < m + c else m
        outs = []
        for d in sys.digits:
            t = linalg.vec_add(linalg.mat_vec(sys.matrix, zeta), linalg.vec_sub(xd, d))
            if t in allowed:
                outs.append((nph, t))
        succ[s] = outs
        todo.extend(outs)
    live = set(succ)
    changed = True
    while changed:
        changed = False
        for s in list(live):
            if not any(t in live for t in succ[s]):
                live.discard(s)
                changed = True
    keep = {start} if start in live else set()
    todo = list(keep)
    while todo:
        for t in succ[todo.pop()]:
            if t in live and t not in keep:
                keep.add(t)
                todo.append(t)
    return {s: [t for t in succ[s] if t in keep] for s in keep}


def _oracle(sys, x) -> str:
    walks = _walk_graph(sys, x)
    if all(not any(zeta) for _, zeta in walks):
        return "unique"

    def returns(t, s):
        seen, todo = {t}, [t]
        while todo:
            v = todo.pop()
            if v == s:
                return True
            for w in walks[v]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        return False

    back = {s: [returns(t, s) for t in ts] for s, ts in walks.items()}
    if any(sum(flags) >= 2 for flags in back.values()):
        return "uncountable"
    if any(any(flags) and not all(flags) for flags in back.values()):
        return "infinite-countable"
    return "finitely-many"


def test_reproducers_are_countable():
    for base, digits, pre, cycle in REPRODUCERS:
        sys = _system(base, digits)
        x = rt.representation(sys, [(p,) for p in pre], [(c,) for c in cycle])
        cls, samples = rt.enumerate_equivalents(sys, x, sample_limit=6)
        assert cls == "infinite-countable" == _oracle(sys, x)
        assert samples[0] == x.seq and len(samples) == 6
        assert all(rt.eval_exact(rt.Representation(sys, s)) == rt.eval_exact(x) for s in samples)


def test_reproducers_through_the_cli(tmp_path, capsys):
    for base, digits, pre, cycle in REPRODUCERS:
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"matrix": [base], "digits": [[d] for d in digits]}))
        payload = json.dumps({"x": {"pre": [[p] for p in pre], "cycle": [[c] for c in cycle]}, "limit": 4})
        assert cli.main(["enumerate-equiv", str(path), "-p", payload]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["classification"] == "infinite-countable"
        x = rt.representation(_system(base, digits), [(p,) for p in pre], [(c,) for c in cycle])
        assert data["samples"][0] == x.seq.to_json()


@st.composite
def one_dim_cases(draw):
    base = draw(st.sampled_from([2, -2, 3, -3, 4]))
    digits = draw(st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True))
    sys = _system(base, sorted(digits))
    entry = st.sampled_from(sys.digits)
    pre = draw(st.lists(entry, max_size=2))
    cycle = draw(st.lists(entry, min_size=1, max_size=3))
    return sys, rt.representation(sys, pre, cycle)


@settings(max_examples=250, deadline=None)
@given(one_dim_cases())
def test_classification_matches_the_oracle(case):
    sys, x = case
    cls, _ = rt.enumerate_equivalents(sys, x, sample_limit=4)
    assert cls == _oracle(sys, x)
