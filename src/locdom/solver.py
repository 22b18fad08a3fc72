"""Exact search for domination and location-domination invariants.

A set S is dominating when every vertex outside S has a neighbor in S, and
locating-dominating (an LD-set) when additionally the traces N(v) & S are
pairwise distinct over the vertices v outside S. lambda(G) is the minimum
LD-set size, gamma(G) the minimum dominating-set size, and lambda_g(G) the
minimum size of a set that is an LD-set of both G and its complement.

Each invariant is a minimum hitting set of a family of vertex sets. With
N(v) the open and N[v] the closed neighborhood of v in G:

- S dominates G iff it meets every N[v];
- S separates the traces of u and v iff it meets the pair set
  {u, v} | (N(u) ^ N(v));
- S dominates the complement iff it meets every V - N(v), the closed
  neighborhood of v there.

In the complement N(u) ^ N(v) becomes N[u] ^ N[v], which differs from it
only at u and v, so the pair family is the same for G and its complement.
gamma hits the N[v]; lambda hits the N[v] and the pair sets; lambda of the
complement hits the V - N(v) and the pair sets; lambda_g hits all three
families. The complement is never built for lambda_g.

One branch-and-bound search serves every family: duplicate and superset
sets are dropped, the search branches on the smallest unhit set, and a
greedy packing of disjoint unhit sets bounds it. The optimum is found by
raising the budget from a lower bound until a hitting set exists; run at
that budget the same search enumerates all optimal sets (`ld_codes`,
`count_optima`).

Witnesses are deterministic. For gamma and lambda the witness is the
numerically smallest optimal mask. For lambda_g it is the smallest global
lambda-code when lambda_g = lambda, and otherwise the lambda witness plus
its dominating vertex. Each graph's families and optima are computed once
and kept in a small bounded cache, so the several entry points that ask for
the same invariant share one search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterator, Optional

from .graph import Graph, complement, eccentricities, iter_bits


@dataclass(frozen=True)
class SolveResult:
    """Optimum cardinality plus one witness set (numerically smallest mask)."""

    value: int
    witness: int
    all_optima_count: Optional[int] = None


@dataclass(frozen=True)
class GlobalityReport:
    """Whether an LD-set also works in the complement.

    An LD-set fails to be global exactly when some (necessarily unique)
    outside vertex is adjacent to all of it.
    """

    is_global: bool
    dominating_vertex: Optional[int]


class ComplementRelation(Enum):
    """Sign of lambda(complement) - lambda(G); always in {-1, 0, +1}."""

    MINUS_ONE = -1
    EQUAL = 0
    PLUS_ONE = 1


@dataclass(frozen=True)
class NonglobalConditions:
    """Necessary conditions observed at a non-global LD-set.

    With u the vertex dominating the set: ecc(u) <= 2, rad <= 2, diam <= 4
    and max degree >= |S| must all hold. A False flag is a falsification
    finding (data for the census), never an exception.
    """

    dominating_vertex: int
    ecc_u: int
    radius: int
    diameter: int
    max_degree: int
    set_size: int

    @property
    def ecc_le_2(self) -> bool:
        return self.ecc_u <= 2

    @property
    def rad_le_2(self) -> bool:
        return self.radius <= 2

    @property
    def diam_le_4(self) -> bool:
        return self.diameter <= 4

    @property
    def max_degree_ge_size(self) -> bool:
        return self.max_degree >= self.set_size

    @property
    def all_hold(self) -> bool:
        return (
            self.ecc_le_2
            and self.rad_le_2
            and self.diam_le_4
            and self.max_degree_ge_size
        )


def _check_subset(g: Graph, s: int) -> None:
    if s & ~g.vertex_mask:
        raise ValueError("vertex set mentions vertices outside the graph")


def is_dominating(g: Graph, s: int) -> bool:
    """True iff every vertex outside s has a neighbor in s."""
    _check_subset(g, s)
    for v in iter_bits(g.vertex_mask & ~s):
        if g.adj[v] & s == 0:
            return False
    return True


def is_ld_set(g: Graph, s: int) -> bool:
    """True iff s dominates g with pairwise-distinct outside traces."""
    _check_subset(g, s)
    return _is_ld(g, s)


def _is_ld(g: Graph, s: int) -> bool:
    seen = set()
    for v in iter_bits(g.vertex_mask & ~s):
        t = g.adj[v] & s
        if t == 0 or t in seen:
            return False
        seen.add(t)
    return True


def traces(g: Graph, s: int) -> dict[int, int]:
    """Trace mask N(v) & s for every vertex v outside s."""
    _check_subset(g, s)
    return {v: g.adj[v] & s for v in iter_bits(g.vertex_mask & ~s)}


def _dominating_vertex_unchecked(g: Graph, s: int) -> Optional[int]:
    for u in iter_bits(g.vertex_mask & ~s):
        if g.adj[u] & s == s:
            return u
    return None


def dominating_vertex(g: Graph, s: int) -> Optional[int]:
    """The unique vertex outside the LD-set s adjacent to all of it, if any."""
    if not is_ld_set(g, s):
        raise ValueError("s is not an LD-set of g")
    found = [u for u in iter_bits(g.vertex_mask & ~s) if g.adj[u] & s == s]
    if len(found) > 1:
        raise RuntimeError(
            f"internal invariant breach: {len(found)} vertices dominate an LD-set"
        )
    return found[0] if found else None


def globality(g: Graph, s: int) -> GlobalityReport:
    """Globality report for an LD-set s of g."""
    u = dominating_vertex(g, s)
    return GlobalityReport(is_global=u is None, dominating_vertex=u)


def is_global_ld_set(g: Graph, s: int) -> bool:
    """True iff s is an LD-set of g and of its complement.

    Uses the dominating-vertex shortcut: an LD-set of g works in the
    complement exactly when no outside vertex is adjacent to all of s.
    """
    _check_subset(g, s)
    return _is_ld(g, s) and _dominating_vertex_unchecked(g, s) is None


def lower_bound(g: Graph) -> int:
    """Smallest k with n <= k + 2^k - 1 (outside traces are distinct
    nonempty subsets of the chosen set); never exceeds lambda(g)."""
    n = g.n
    k = 1
    while n > k + (1 << k) - 1:
        k += 1
    return k


# ---------------------------------------------------------------------------
# hitting-set search

def _reduce(sets: list[int]) -> list[int]:
    """Drop duplicate sets and supersets of other sets; smallest first."""
    kept: list[int] = []
    for s in sorted(set(sets), key=int.bit_count):
        for t in kept:
            if t & s == t:
                break
        else:
            kept.append(s)
    return kept


def _hitting_sets(live: list[int], budget: int) -> Iterator[int]:
    """Hitting sets of `live` with at most `budget` members, each once.

    `live` holds nonempty masks sorted by size. The search branches on the
    smallest set: branch i takes its i-th member and excludes the earlier
    ones, so the branches split the hitting sets among them. A node is cut
    when a greedy packing of pairwise disjoint live sets, each needing a
    member of its own, exceeds the budget. Every hitting set within the
    budget contains a yielded one, so at the optimum budget the yielded sets
    are exactly the optimal hitting sets.
    """
    if not live:
        yield 0
        return
    used = 0
    need = 0
    for s in live:
        if not s & used:
            used |= s
            need += 1
            if need > budget:
                return
    pivot = live[0]
    excluded = 0
    while pivot:
        bit = pivot & -pivot
        pivot ^= bit
        rest = []
        for s in live:
            if not s & bit:
                s &= ~excluded
                if not s:
                    return  # s avoids every later branch vertex too
                rest.append(s)
        rest.sort(key=int.bit_count)
        for found in _hitting_sets(rest, budget - 1):
            yield found | bit
        excluded |= bit


class _Problem:
    """Minimum hitting sets of one reduced set family on vertices 0..n-1,
    solved on first use."""

    def __init__(self, sets: list[int], n: int, floor: int):
        self.sets = _reduce(sets)
        self.n = n
        self.floor = floor  # a known lower bound on the optimum

    @cached_property
    def _some_optimum(self) -> int:
        k = self.floor
        while True:
            found = next(_hitting_sets(self.sets, k), None)
            if found is not None:
                return found
            k += 1

    @property
    def value(self) -> int:
        return self._some_optimum.bit_count()

    @cached_property
    def smallest(self) -> int:
        """The numerically smallest optimal set.

        Vertices are decided from n-1 down, "exclude" before "include";
        `best` is always an optimal set that agrees with every decision.
        """
        best = self._some_optimum
        budget = best.bit_count()
        live = self.sets
        taken = 0
        for v in range(self.n - 1, -1, -1):
            if not live:
                break
            bit = 1 << v
            without = [s & ~bit for s in live]
            if best & bit:
                found = None
                if all(without):
                    without.sort(key=int.bit_count)
                    found = next(_hitting_sets(without, budget), None)
                if found is None:
                    taken |= bit
                    budget -= 1
                    live = [s for s in live if not s & bit]
                    continue
                best = taken | found
            live = without
        return best

    @cached_property
    def optima(self) -> tuple[int, ...]:
        """Every optimal set, in increasing mask order."""
        return tuple(sorted(_hitting_sets(self.sets, self.value)))


_GAMMA, _LAMBDA, _GLOBAL = "gamma", "lambda", "global"


@lru_cache(maxsize=16)
def _problem(g: Graph, kind: str) -> _Problem:
    """The hitting-set problem of one invariant of g (cached per graph)."""
    adj = g.adj
    closed = [a | 1 << v for v, a in enumerate(adj)]
    if kind == _GAMMA:
        return _Problem(closed, g.n, 1)
    sets = closed + [
        1 << u | 1 << v | (adj[u] ^ adj[v])
        for u in range(g.n) for v in range(u + 1, g.n)
    ]
    if kind == _GLOBAL:
        sets += [g.vertex_mask ^ a for a in adj]
    return _Problem(sets, g.n, lower_bound(g))


def _result(p: _Problem, count_optima: bool) -> SolveResult:
    return SolveResult(p.value, p.smallest, len(p.optima) if count_optima else None)


def domination_number(g: Graph, count_optima: bool = False) -> SolveResult:
    """Exact gamma(g) with witness."""
    return _result(_problem(g, _GAMMA), count_optima)


def location_domination_number(g: Graph, count_optima: bool = False) -> SolveResult:
    """Exact lambda(g) with witness."""
    return _result(_problem(g, _LAMBDA), count_optima)


def ld_codes(g: Graph) -> Iterator[int]:
    """All LD-sets of cardinality lambda(g), in increasing mask order."""
    yield from _problem(g, _LAMBDA).optima


def has_global_ld_code(g: Graph) -> bool:
    """True iff some minimum LD-set is global, i.e. lambda_g(g) = lambda(g)."""
    return any(_dominating_vertex_unchecked(g, s) is None for s in ld_codes(g))


def global_location_domination_number(g: Graph) -> SolveResult:
    """Exact lambda_g(g) with witness.

    The value is the minimum hitting set of all three families. When it is
    lambda(g) + 1, the witness is the lambda witness plus its dominating
    vertex; otherwise it is the smallest global set of that size.
    """
    glob = _problem(g, _GLOBAL)
    lam = _problem(g, _LAMBDA)
    if glob.value != lam.value + 1:
        return SolveResult(glob.value, glob.smallest)
    u = _dominating_vertex_unchecked(g, lam.smallest)
    return SolveResult(glob.value, lam.smallest | 1 << u)


def complement_relation(g: Graph) -> ComplementRelation:
    """Classify lambda(complement) - lambda(g) as -1, 0 or +1."""
    lam = location_domination_number(g).value
    lam_c = location_domination_number(complement(g)).value
    diff = lam_c - lam
    if abs(diff) > 1:
        raise RuntimeError(
            f"internal invariant breach: |lambda - lambda(complement)| = {abs(diff)}"
        )
    return ComplementRelation(diff)


def nonglobal_witness_conditions(g: Graph, s: int) -> NonglobalConditions:
    """Measure the necessary conditions at a non-global LD-set s.

    Requires s to be an LD-set with a dominating vertex (its existence
    forces g connected, so radius and diameter are well defined).
    """
    u = dominating_vertex(g, s)
    if u is None:
        raise ValueError("s is a global LD-set; no dominating vertex to report on")
    ecc = eccentricities(g)
    return NonglobalConditions(
        dominating_vertex=u,
        ecc_u=ecc[u],
        radius=min(ecc),
        diameter=max(ecc),
        max_degree=g.max_degree(),
        set_size=s.bit_count(),
    )
