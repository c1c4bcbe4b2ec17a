"""Shared systems used across the test modules."""

import contextlib
import functools
import os
import re
import resource
import subprocess
import sys

import pytest
import sympy

import radixtile as rt
from radixtile import graph
from radixtile.linalg import np


def gauss_matrix(n: int):
    """Matrix of multiplication by -n+i on R^2."""
    return ((-n, -1), (1, -n))


def gauss_system(n: int, digits=None) -> rt.RadixSystem:
    if digits is None:
        digits = range(n * n + 1)
    return rt.RadixSystem(gauss_matrix(n), tuple((int(d), 0) for d in digits))


def alternating_block_counts(kmax: int, low: int = 1, high: int = 2) -> list[int]:
    """Component counts with value `low` on blocks [10^k+1, 10^{k+1}] for even
    k and `high` on odd blocks (position 1 counts as high)."""
    counts = []
    for j in range(1, kmax + 1):
        if j == 1:
            counts.append(high)
            continue
        k = 0
        while 10 ** (k + 1) < j:
            k += 1
        counts.append(low if k % 2 == 0 else high)
    return counts


def run_cli_process(argv, limit=None) -> subprocess.CompletedProcess:
    """Run ``python -m radixtile.cli argv`` in a fresh process, ``limit()`` in the child before it starts."""
    src = os.path.dirname(os.path.dirname(rt.__file__))
    return subprocess.run(
        [sys.executable, "-m", "radixtile.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    )


@contextlib.contextmanager
def int_max_str_digits(limit: int):
    """Python's int-to-str digit limit (sys.set_int_max_str_digits) set to limit inside the block; 0 lifts it."""
    if not hasattr(sys, "set_int_max_str_digits"):  # this Python converts integers of any length
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def parse_exact(text: str):
    """The sympy expression of an exact text such as (3/2)*log(a)/log(b), read with the digit limit lifted."""
    with int_max_str_digits(0):
        return sympy.parse_expr(text)


def charged(error, counter: str, cap: int) -> int:
    """The value of a tripped budget, once checked to be counter's and past cap.

    error is a BudgetError, or the CLI's JSON error object of one, whose message is where a process reports the three.
    """
    if isinstance(error, dict):
        match = re.fullmatch(r"(.+): (\d+) exceeds the cap of (\d+)", error["message"])
        assert match, error
        with int_max_str_digits(0):
            fields = match[1], int(match[2]), int(match[3])
    else:
        fields = error.counter, error.value, error.cap
    assert fields[0] == counter and fields[2] == cap and fields[1] > cap, fields
    return fields[1]


def address_space(gib: int):
    """A ``limit`` for run_cli_process: the child may map at most gib GiB."""
    return lambda: resource.setrlimit(resource.RLIMIT_AS, (gib << 30, gib << 30))


def reach(starts, succ, within=None) -> set:
    """States reachable from starts in zero or more steps, in a graph given as a dict of successors.

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


def live(succ) -> set:
    """Keys with an infinite forward path (reverse out-degree worklist).  The reference for the array trims."""
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


def ref_enumerate_equivalents(sys, x, sample_limit=32):
    """The equivalence walk as two dict passes, a liveness trim and then components of the trimmed graph, with
    samples that build an EpSeq at every closed walk.  The reference for ``radix.enumerate_equivalents``."""
    from radixtile.neighbours import _neighbour_steps
    from radixtile.radix import FINITELY_MANY, INFINITE_COUNTABLE, UNCOUNTABLE, UNIQUE

    _, moves, column, zero = _neighbour_steps(sys.matrix, sys.digits)
    k, index = len(moves), {d: i for i, d in enumerate(sys.digits)}
    entries, m = x.seq.pre + x.seq.cycle, x.seq.preperiod
    succ: dict = {}
    stack = [zero]
    while stack:
        ph, v = divmod(state := stack.pop(), k)
        if state not in succ:
            nxt = (ph + 1 if ph + 1 < len(entries) else m) * k
            row = moves[v, column[index[entries[ph]]]].tolist()
            succ[state] = [(d, nxt + t) for d, t in zip(sys.digits, row) if t >= 0]
            stack.extend(t for _, t in succ[state])
    keep = live({s: [t for _, t in out] for s, out in succ.items()})
    walks = {s: [(d, t) for d, t in succ[s] if t in keep] for s in keep}
    if all(s % k == zero for s in walks):
        return UNIQUE, (x.seq,)
    trimmed = {s: [t for _, t in out] for s, out in walks.items()}
    comp_of = {s: i for i, comp in enumerate(graph.components(trimmed)) for s in comp}
    inner = {s: sum(comp_of[t] == comp_of[s] for t in ts) for s, ts in trimmed.items()}
    if any(n >= 2 for n in inner.values()):
        cls = UNCOUNTABLE
    elif any(0 < inner[s] < len(ts) for s, ts in trimmed.items()):
        cls = INFINITE_COUNTABLE
    else:
        cls = FINITELY_MANY
    samples = ref_sample_walks(walks, zero, sample_limit, exhaustive=(cls == FINITELY_MANY))
    if x.seq in samples:
        samples = [x.seq] + [s for s in samples if s != x.seq]
    else:
        samples = [x.seq] + samples[: max(0, sample_limit - 1)]
    return cls, tuple(samples)


def ref_sample_walks(succ, start, limit, exhaustive) -> list:
    """Depth-first walk enumeration that builds an EpSeq at every revisit and keeps the distinct ones in order."""
    found: dict = {}
    depth_cap = 3 * (len(succ) + 1)
    digits: list = []
    first: dict = {}
    stack = [(0, (), start)]
    while stack and (exhaustive or len(found) < limit):
        kept, read, state = stack.pop()
        digits[kept:] = read
        while first and next(reversed(first.values())) >= len(digits):
            first.popitem()
        if state in first:
            found[rt.EpSeq.make(digits[: first[state]], digits[first[state] :])] = None
            if exhaustive or len(digits) >= depth_cap:
                continue
        else:
            first[state] = len(digits)
        stack.extend((len(digits), (d,), t) for d, t in sorted(succ[state], reverse=True))
    return list(found)


def reach_mask(count: int, starts, src, dst, within):
    """States 0..count-1 reachable from starts along the edges src[i] -> dst[i] without leaving the mask within."""
    seen = np.zeros(count, dtype=bool)
    seen[starts] = True
    seen &= within
    frontier, edges = seen.copy(), within[dst]
    while frontier.any():
        step = np.zeros(count, dtype=bool)
        step[dst[edges & frontier[src]]] = True
        frontier = step & ~seen
        seen |= frontier
    return seen


def ref_dot(name: str, states, edges, state_label, edge_label) -> str:
    """DOT text of a graph given as state and (src, label, dst) edge tuples; parallel edges merge into their least
    label with a '+' mark.  The reference for the array DOT writer of the neighbour graphs."""
    index = {s: i for i, s in enumerate(states)}
    grouped: dict = {}
    for src, label, dst in edges:
        grouped.setdefault((src, dst), []).append(label)
    lines = [f"digraph {name} {{"] + [f'  n{i} [label="{state_label(s)}"];' for s, i in index.items()]
    for src, dst in sorted(grouped):
        labels = grouped[src, dst]
        text = edge_label(min(labels)) + ("+" if len(labels) > 1 else "")
        lines.append(f'  n{index[src]} -> n{index[dst]} [label="{text}"];')
    return "\n".join(lines + ["}"])


def ref_pair_dot(states, edges) -> str:
    vec = lambda v: ",".join(map(str, v))
    return ref_dot("pair_automaton", states, edges, vec, functools.cache(lambda xy: "/".join(map(vec, xy))))


def ref_triple_dot(states, edges) -> str:
    vec = lambda v: f"({','.join(map(str, v))})"
    state_label = lambda s: f"{vec(s[0])}|{vec(s[1])}|{vec(tuple(-a - b for a, b in zip(*s)))}"
    return ref_dot("triple_state", states, edges, state_label, functools.cache(lambda label: ",".join(map(vec, label))))


@pytest.fixture
def base10() -> rt.RadixSystem:
    return rt.RadixSystem(((10,),), tuple((d,) for d in range(10)))


@pytest.fixture
def base3_cantor() -> rt.RadixSystem:
    return rt.RadixSystem(((3,),), ((0,), (2,)))


@pytest.fixture
def base3_full() -> rt.RadixSystem:
    return rt.RadixSystem(((3,),), ((0,), (1,), (2,)))


@pytest.fixture
def twin_two() -> rt.RadixSystem:
    return rt.RadixSystem(((2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1), (1, 1)))


@pytest.fixture
def m3i_048() -> rt.RadixSystem:
    return rt.RadixSystem(gauss_matrix(3), ((0, 0), (4, 0), (8, 0)))
