"""Property tests of the graph passes, and of the tests' live and reach helpers, against fixpoint references."""

from hypothesis import given, settings
from hypothesis import strategies as st

from radixtile import graph

from conftest import live, reach


def _prune_live(states, succ) -> set:
    """Reference: iterated out-degree pruning, O(V^2)."""
    live = set(states)
    changed = True
    while changed:
        changed = False
        for v in list(live):
            if not (succ[v] & live):
                live.discard(v)
                changed = True
    return live


def _reachable(start, succ, live) -> set:
    """Reference: depth-first search from one start inside live."""
    if start not in live:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for w in succ.get(v, ()):
            if w in live and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


# States are 0..n-1; successors range up to n+1, so some lie outside the
# key set.  Lists keep self-loops and parallel edges.
digraphs = st.integers(0, 9).flatmap(
    lambda n: st.fixed_dictionaries(
        {v: st.lists(st.integers(0, n + 1), max_size=4) for v in range(n)}
    )
)


def _nodes(succ) -> set:
    return set(succ) | {w for ws in succ.values() for w in ws}


def _sets(succ) -> dict:
    return {v: set(ws) for v, ws in succ.items()}


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_live_matches_fixpoint(succ):
    assert live(succ) == _prune_live(succ, _sets(succ))


@settings(max_examples=200, deadline=None)
@given(digraphs, st.lists(st.integers(0, 11), max_size=3), st.booleans())
def test_reach_matches_search(succ, starts, bounded):
    within = live(succ) if bounded else None
    everything = _nodes(succ) | set(starts)
    expected = set()
    for s in starts:
        expected |= _reachable(s, _sets(succ), everything if within is None else within)
    assert reach(starts, succ, within) == expected


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_components_are_mutual_reachability(succ):
    comps = graph.components(succ)
    nodes = _nodes(succ)
    assert sorted(v for c in comps for v in c) == sorted(nodes)
    comp_of = {v: i for i, c in enumerate(comps) for v in c}
    reach_of = {v: _reachable(v, _sets(succ), nodes) for v in nodes}
    for u in nodes:
        for v in nodes:
            mutual = v in reach_of[u] and u in reach_of[v]
            assert (comp_of[u] == comp_of[v]) == mutual
    # sinks first: no edge leads to a component listed later
    for u, ws in succ.items():
        assert all(comp_of[w] <= comp_of[u] for w in ws)


def test_empty_graph():
    assert live({}) == set()
    assert reach([], {}) == set()
    assert graph.components({}) == []


def test_long_chain_needs_no_recursion():
    n = 20_000
    succ = {v: [v + 1] for v in range(n)}
    succ[n] = [0]
    assert live(succ) == set(range(n + 1))
    assert len(graph.components(succ)) == 1
    assert reach([0], succ) == set(range(n + 1))
