"""Textbook location-domination checks, independent of the program.

S locates-dominates G when every vertex outside S has a neighbour in S
and no two vertices outside S have the same set of neighbours in S.
The brute-force numbers try every vertex subset in order of size; they
are used only to derive stored answers, never during a timed run.
"""

from __future__ import annotations

from itertools import combinations

from inputs import complement


def is_ld(adj: tuple[int, ...], s: int) -> bool:
    seen = set()
    for v in range(len(adj)):
        if s >> v & 1:
            continue
        trace = adj[v] & s
        if trace == 0 or trace in seen:
            return False
        seen.add(trace)
    return True


def _smallest(n: int, ok) -> int:
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            if ok(sum(1 << v for v in subset)):
                return k
    raise AssertionError("the whole vertex set always qualifies")


def brute_force_triple(adj: tuple[int, ...]) -> tuple[int, int, int]:
    """(lambda, lambda of the complement, global lambda) by exhaustion."""
    comp = complement(adj)
    n = len(adj)
    return (
        _smallest(n, lambda s: is_ld(adj, s)),
        _smallest(n, lambda s: is_ld(comp, s)),
        _smallest(n, lambda s: is_ld(adj, s) and is_ld(comp, s)),
    )
