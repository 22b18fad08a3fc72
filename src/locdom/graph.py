"""Immutable small-graph representation backed by per-vertex bitmasks.

Vertices are 0..n-1. A vertex set is a plain int whose bit v is set when
vertex v belongs to the set; adjacency is stored as one such mask per
vertex (open neighborhoods). All constructions return new graphs, so
values are safe to share across worker processes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

DEFAULT_MAX_N = 64
# Hard ceiling for the LOCDOM_MAX_N override; subset search is hopeless far
# below this anyway.
MAX_N_CEILING = 512

INFINITE = math.inf


class DisconnectedGraphError(ValueError):
    """Raised when radius/diameter/eccentricity is asked of a disconnected graph."""


def max_vertices() -> int:
    """Configured vertex cap (env LOCDOM_MAX_N overrides the default of 64)."""
    raw = os.environ.get("LOCDOM_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"LOCDOM_MAX_N must be an integer, got {raw!r}") from None
    if not 1 <= value <= MAX_N_CEILING:
        raise ValueError(f"LOCDOM_MAX_N must be in 1..{MAX_N_CEILING}, got {value}")
    return value


# ---------------------------------------------------------------------------
# vertex-set helpers (masks are plain ints)

def vset(vertices: Iterable[int]) -> int:
    """Bitmask for an iterable of vertex indices."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vset_members(mask: int) -> list[int]:
    """Sorted list of vertices in a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Adjacency is a tuple of open-neighborhood masks; graphs are treated as
    immutable values (hashable, comparable) and never mutated after
    construction.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        cap = max_vertices()
        if not 1 <= n <= cap:
            raise ValueError(f"graph order must be in 1..{cap}, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(masks))

    @classmethod
    def from_adjacency(cls, masks: Iterable[int]) -> "Graph":
        """Build from neighborhood masks, validating symmetry and irreflexivity."""
        masks = tuple(masks)
        n = len(masks)
        g = cls.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", masks)
        cap = max_vertices()
        if not 1 <= n <= cap:
            raise ValueError(f"graph order must be in 1..{cap}, got {n}")
        full = (1 << n) - 1
        for v, m in enumerate(masks):
            if m & ~full:
                raise ValueError(f"adjacency of vertex {v} mentions vertices >= {n}")
            if m >> v & 1:
                raise ValueError(f"loop at vertex {v} not allowed")
        for v in range(n):
            for u in iter_bits(masks[v]):
                if not masks[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # unpickling a slots object sets its fields through __setattr__, which
        # is blocked; rebuild through the validating constructor instead
        return (Graph.from_adjacency, (self.adj,))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(self.adj[v].bit_count() for v in range(self.n))

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(m.bit_count() for m in self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | 1 << v


# ---------------------------------------------------------------------------
# constructions

def complement(g: Graph) -> Graph:
    """Complement on the same vertices: u~v iff u != v and not u~v in g."""
    full = g.vertex_mask
    return Graph.from_adjacency(
        (full ^ g.adj[v]) & ~(1 << v) for v in range(g.n)
    )


def union(g: Graph, h: Graph) -> Graph:
    """Disjoint union; h's vertices are relabeled by offset g.n."""
    masks = list(g.adj) + [m << g.n for m in h.adj]
    return Graph.from_adjacency(masks)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge between g's and h's vertices."""
    gmask = g.vertex_mask
    hmask = h.vertex_mask << g.n
    masks = [m | hmask for m in g.adj]
    masks += [(m << g.n) | gmask for m in h.adj]
    return Graph.from_adjacency(masks)


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove v; remaining vertices are relabeled order-preservingly."""
    if g.n < 2:
        raise ValueError("cannot delete the last vertex")
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    keep = g.vertex_mask & ~(1 << v)
    return induced_subgraph(g, keep)


def induced_subgraph(g: Graph, s: int) -> Graph:
    """Subgraph induced by the vertex mask s, relabeled order-preservingly."""
    if s == 0:
        raise ValueError("induced subgraph of an empty vertex set")
    if s & ~g.vertex_mask:
        raise ValueError("vertex set mentions vertices outside the graph")
    verts = vset_members(s)
    index = {v: i for i, v in enumerate(verts)}
    masks = []
    for v in verts:
        m = 0
        for u in iter_bits(g.adj[v] & s):
            m |= 1 << index[u]
        masks.append(m)
    return Graph.from_adjacency(masks)


# ---------------------------------------------------------------------------
# distances and connectivity

def _bfs_dists(g: Graph, src: int) -> list:
    dist = [INFINITE] * g.n
    dist[src] = 0
    frontier = 1 << src
    seen = frontier
    d = 0
    while frontier:
        d += 1
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        nxt &= ~seen
        for v in iter_bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def distance_matrix(g: Graph) -> list[list]:
    """All-pairs hop distances (math.inf for unreachable pairs)."""
    return [_bfs_dists(g, v) for v in range(g.n)]


def connected_components(g: Graph, within: Optional[int] = None) -> list[int]:
    """Vertex masks of the connected components, in order of smallest member.

    With `within`, the components of the subgraph induced by that vertex
    mask, still as masks of g's vertices.
    """
    mask = g.vertex_mask if within is None else within
    remaining = mask
    comps = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= g.adj[v]
            nxt &= mask & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return connected_components(g)[0] == g.vertex_mask


def eccentricity(g: Graph, v: int) -> int:
    """Maximum distance from v; defined for connected graphs only."""
    dist = _bfs_dists(g, v)
    ecc = max(dist)
    if ecc is INFINITE:
        raise DisconnectedGraphError("eccentricity undefined: graph is disconnected")
    return ecc


@lru_cache(maxsize=16)
def eccentricities(g: Graph) -> tuple:
    """Eccentricity of every vertex, from one BFS sweep per vertex.

    Entry v is the largest hop distance from v. On a disconnected graph
    every vertex misses some other, so every entry is math.inf. Results
    are kept in a small bounded cache keyed by the immutable graph, so
    radius, diameter and every caller asking about the same graph share
    one sweep.
    """
    return tuple(max(row) for row in distance_matrix(g))


def radius(g: Graph) -> int:
    ecc = eccentricities(g)
    if INFINITE in ecc:
        raise DisconnectedGraphError("radius undefined: graph is disconnected")
    return min(ecc)


def diameter(g: Graph) -> int:
    ecc = eccentricities(g)
    if INFINITE in ecc:
        raise DisconnectedGraphError("diameter undefined: graph is disconnected")
    return max(ecc)


# ---------------------------------------------------------------------------
# block decomposition

@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (vertex masks) and cut vertices of a graph.

    Every edge lies in exactly one block; isolated vertices get their own
    edgeless singleton blocks so that each vertex belongs to at least one.
    """

    blocks: tuple[int, ...]
    cut_vertices: int


def blocks(g: Graph) -> BlockDecomposition:
    """Biconnected components by lowpoint DFS (iterative)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    out: list[int] = []
    cut = 0
    counter = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        if g.adj[root] == 0:
            disc[root] = counter
            counter += 1
            out.append(1 << root)
            continue
        disc[root] = low[root] = counter
        counter += 1
        edge_stack: list[tuple[int, int]] = []
        frames = [[root, -1, vset_members(g.adj[root]), 0]]
        root_children = 0
        while frames:
            frame = frames[-1]
            v, parent, nbrs, i = frame
            if i < len(nbrs):
                frame[3] += 1
                w = nbrs[i]
                if w == parent:
                    continue
                if disc[w] == -1:
                    edge_stack.append((v, w))
                    disc[w] = low[w] = counter
                    counter += 1
                    frames.append([w, v, vset_members(g.adj[w]), 0])
                    if v == root:
                        root_children += 1
                elif disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
                    if low[v] >= disc[p]:
                        block = 0
                        while True:
                            a, b = edge_stack.pop()
                            block |= (1 << a) | (1 << b)
                            if (a, b) == (p, v):
                                break
                        out.append(block)
                        if p != root or root_children >= 2:
                            cut |= 1 << p
    return BlockDecomposition(tuple(out), cut)


# ---------------------------------------------------------------------------
# isomorphism (small graphs; backtracking with color refinement pruning)

def _refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable 1-dimensional color refinement, with structure-ranked color ids.

    The returned ids depend only on the isomorphism type, so color multisets
    of isomorphic graphs coincide and mapped vertices must share a color.
    """
    colors = [g.degree(v) for v in range(g.n)]
    nclasses = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(g.adj[v]))))
            for v in range(g.n)
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [ranking[s] for s in sigs]
        if len(ranking) == nclasses:
            return tuple(colors)
        nclasses = len(ranking)


def find_isomorphism(g: Graph, h: Graph) -> Optional[tuple[int, ...]]:
    """An adjacency-preserving bijection g->h as a tuple, or None.

    Intended for small graphs (roughly n <= 12); backtracking over vertices
    ordered by color-class rarity with incremental adjacency checks.
    """
    if g.n != h.n or g.edge_count() != h.edge_count():
        return None
    if g.degree_sequence() != h.degree_sequence():
        return None
    cg = _refined_colors(g)
    ch = _refined_colors(h)
    if sorted(cg) != sorted(ch):
        return None
    n = g.n
    class_size = {c: cg.count(c) for c in set(cg)}
    order = sorted(range(n), key=lambda v: (class_size[cg[v]], cg[v], v))
    by_color: dict[int, list[int]] = {}
    for w in range(n):
        by_color.setdefault(ch[w], []).append(w)

    mapping = [-1] * n
    used = 0

    def extend(depth: int) -> bool:
        nonlocal used
        if depth == n:
            return True
        v = order[depth]
        for w in by_color[cg[v]]:
            if used >> w & 1:
                continue
            ok = True
            for u in order[:depth]:
                if (g.adj[v] >> u & 1) != (h.adj[w] >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used |= 1 << w
                if extend(depth + 1):
                    return True
                used &= ~(1 << w)
                mapping[v] = -1
        return False

    if extend(0):
        return tuple(mapping)
    return None


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff an adjacency-preserving bijection exists (small graphs)."""
    return find_isomorphism(g, h) is not None
