"""Shared systems used across the test modules."""

import os
import resource
import subprocess
import sys

import pytest

import radixtile as rt
from radixtile.linalg import np


def gauss_matrix(n: int):
    """Matrix of multiplication by -n+i on R^2."""
    return ((-n, -1), (1, -n))


def gauss_system(n: int, digits=None) -> rt.RadixSystem:
    if digits is None:
        digits = range(n * n + 1)
    return rt.RadixSystem(gauss_matrix(n), tuple((int(d), 0) for d in digits))


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
    return ref_dot("pair_automaton", states, edges, vec, lambda xy: "/".join(map(vec, xy)))


def ref_triple_dot(states, edges) -> str:
    vec = lambda v: f"({','.join(map(str, v))})"
    state_label = lambda s: f"{vec(s[0])}|{vec(s[1])}|{vec(tuple(-a - b for a, b in zip(*s)))}"
    return ref_dot("triple_state", states, edges, state_label, lambda label: ",".join(map(vec, label)))


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
