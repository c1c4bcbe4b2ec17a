"""Linear-time passes over finite directed graphs.

A graph is a dict from each state to an iterable of its successors.  A
successor that is not a key is a state with no successors.  Each pass
runs in O(V + E).
"""

from __future__ import annotations


def live(succ) -> set:
    """Keys with an infinite forward path (reverse out-degree worklist)."""
    pred: dict = {v: [] for v in succ}
    outdeg = dict.fromkeys(succ, 0)
    for v, outs in succ.items():
        for w in outs:
            if w in pred:
                pred[w].append(v)
                outdeg[v] += 1
    alive = set(succ)
    dead = [v for v, d in outdeg.items() if d == 0]
    while dead:
        v = dead.pop()
        alive.discard(v)
        for p in pred[v]:
            outdeg[p] -= 1
            if outdeg[p] == 0:
                dead.append(p)
    return alive


def reach(starts, succ, within=None) -> set:
    """States reachable from starts in zero or more steps.

    With ``within`` given, the walk never enters a state outside it, and
    starts outside it are dropped.
    """
    seen = {v for v in starts if within is None or v in within}
    stack = list(seen)
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen and (within is None or w in within):
                seen.add(w)
                stack.append(w)
    return seen


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
