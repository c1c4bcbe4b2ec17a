"""Passes over finite directed graphs.

``components`` takes a dict from each state to an iterable of its
successors; a successor that is not a key is a state with no successors.
It runs in O(V + E), and since it lists the components sinks first, one
pass over its output finds the states on infinite paths.  ``live_mask``
takes states 0..count-1 with edges src[i] -> dst[i] as index arrays and
answers with a boolean mask; each round is one whole-array step, so it
costs O(rounds * E).
"""

from __future__ import annotations

from .linalg import np


def components(succ) -> list[list]:
    """Strongly connected components, each one a list (iterative Tarjan).

    Every key and every successor lies in exactly one component.
    Components come out sinks first: no edge leads from a component to one
    listed after it.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    out: list[list] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ.get(w, ()))))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def live_mask(count: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """States with an infinite forward path: drop, round by round, those left with no live successor."""
    alive = np.ones(count, dtype=bool)
    while True:
        kept = np.zeros(count, dtype=bool)
        kept[src[alive[dst]]] = True
        kept &= alive
        if kept.sum() == alive.sum():
            return alive
        alive = kept
