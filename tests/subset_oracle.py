"""Brute-force oracle for the solver: scan k-subsets for k = 1, 2, ...

Every subset of each size is tested with the plain definitions
(`is_dominating`, `is_ld_set` on the graph and on its complement) in
increasing mask order, so the first hit at the optimum size is the
numerically smallest witness. Exponential in n; meant for n <= 10.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple

from locdom.graph import Graph, complement
from locdom.solver import is_dominating, is_ld_set


def k_subsets(universe: int, k: int) -> Iterator[int]:
    """All k-subset masks of 0..universe-1 in increasing integer order."""
    if k == 0:
        yield 0
        return
    if k > universe:
        return
    mask = (1 << k) - 1
    limit = 1 << universe
    while mask < limit:
        yield mask
        c = mask & -mask
        r = mask + c
        mask = (((r ^ mask) >> 2) // c) | r


class Scan(NamedTuple):
    """Optimum size and every optimal set, in increasing mask order."""

    value: int
    optima: list[int]

    @property
    def witness(self) -> int:
        return self.optima[0]


def scan(g: Graph, predicate: Callable[[int], bool]) -> Scan:
    for k in range(1, g.n + 1):
        hits = [m for m in k_subsets(g.n, k) if predicate(m)]
        if hits:
            return Scan(k, hits)
    raise AssertionError("the whole vertex set always qualifies")


def gamma(g: Graph) -> Scan:
    return scan(g, lambda s: is_dominating(g, s))


def lam(g: Graph) -> Scan:
    return scan(g, lambda s: is_ld_set(g, s))


def lam_global(g: Graph) -> tuple[int, int]:
    """lambda_g(g) and its witness by the solver's rule: the smallest global
    lambda-code when lambda_g = lambda, else the smallest lambda-code plus
    the outside vertex adjacent to all of it."""
    gc = complement(g)
    value = scan(g, lambda s: is_ld_set(g, s) and is_ld_set(gc, s))
    codes = lam(g)
    if value.value == codes.value:
        return value.value, value.witness
    w = codes.witness
    (u,) = [u for u in range(g.n) if not w >> u & 1 and g.adj[u] & w == w]
    return value.value, w | 1 << u
