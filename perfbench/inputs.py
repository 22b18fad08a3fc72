"""Seeded inputs for the locdom benchmark.

Each workload draws a fixed population of graphs once, from
POPULATION_SEED. The run's --seed picks a fresh random vertex labelling
for every graph of every pass and the order in which the commands are
sent. The program therefore sees new graph6 strings on each seed and in
each pass, while the isomorphism classes, and so the work the exact
solver must do, stay fixed. Drawing a new population per seed made one
pass cost 10-30 % more or less from seed to seed, which would hide the
regressions the benchmark bounds have to catch.

Graphs here are tuples of adjacency bitmasks (bit u of adj[v] set when
uv is an edge). The encoder, the connectivity test and the generators
are the benchmark's own, so that a change to the program cannot change
its inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

POPULATION_SEED = 20131203

# solve-mixed: connected G(n,p), sparse to dense. The sparse end stops at
# n = 17: one sparse G(20, 0.15) draw costs 0.3-4.6 s with the k-subset
# solver on a 2-core x86 VM, so a handful would make up most of a pass.
GNP_CELLS = [(n, p) for n in (14, 15, 16, 17) for p in (0.15, 0.3, 0.45, 0.6)] + [
    (n, p) for n in (18, 19, 20) for p in (0.3, 0.45, 0.6)
]
GNP_PER_CELL = 4

# solve-mixed: the closed-form table families, as family specs at
# n = 13-18, two orders per family.
FAMILY_SPECS = (
    "P:13", "P:17", "C:14", "C:16", "W:14", "W:18", "K:13", "K:15",
    "S:13", "S:15", "Kb:6,7", "Kb:7,8", "B2:5,6", "B2:6,6",
)

# classify-cactus: random block-cacti glued from these blocks.
CACTUS_BLOCKS = (("K", 2), ("K", 3), ("K", 4), ("C", 4), ("C", 5))
# Fewer of the larger ones: one n = 17 block-cactus costs as much as
# twenty with n <= 12, and its time varies by a fifth with the vertex
# labelling. These counts put the 90th percentile among a dozen inputs of
# similar cost rather than in a gap between two of them.
CACTUS_PER_ORDER = {9: 9, 10: 9, 11: 9, 12: 8, 13: 8, 14: 6, 15: 5, 16: 5, 17: 3}

# classify-cactus: the paper's templates at n = 9-17, as
# (family, parameters); fig6e parameters are (clique sizes, corners,
# horned triangles).
TEMPLATES = (
    [("fig8a", (r,)) for r in (7, 9, 11, 13)]
    + [("fig8b", (r,)) for r in (6, 8, 10, 12)]
    + [("fig8c", (r,)) for r in (8, 10, 12, 14)]
    + [("fig8d", s) for s in (
        (4, 4), (2, 2, 2, 2), (3, 5), (3, 3, 3), (2, 2, 2, 3), (2, 3, 4),
        (2, 2, 2, 2, 3), (4, 4, 4), (6, 6), (3, 3, 3, 3, 2), (2, 2, 2, 2, 2, 2, 2, 2),
    )]
    + [("fig6e", p) for p in (
        ((3,), 1, 0), ((2, 2), 1, 0), ((4,), 1, 0), ((), 2, 0), ((), 1, 1),
        ((2, 3), 1, 0), ((6,), 1, 0), ((2, 2, 2), 1, 0), ((3, 3), 1, 0),
        ((3, 3), 0, 1), ((2,), 0, 2), ((2,), 1, 1), ((3,), 1, 1), ((4,), 2, 0),
        ((2, 2), 1, 1), ((), 2, 1), ((), 1, 2), ((5,), 1, 1), ((2, 2, 2), 1, 1),
    )]
)


@dataclass(frozen=True)
class Item:
    """One population member: a stable key, its graph and, for family
    specs, the spec string the program is given instead of a graph."""

    key: str
    adj: tuple[int, ...]
    spec: Optional[str] = None


# ---------------------------------------------------------------------------
# graphs as adjacency masks

def from_edges(n: int, edges) -> tuple[int, ...]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def complement(adj: tuple[int, ...]) -> tuple[int, ...]:
    full = (1 << len(adj)) - 1
    return tuple(full & ~m & ~(1 << v) for v, m in enumerate(adj))


def is_connected(adj: tuple[int, ...]) -> bool:
    seen = frontier = 1
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def relabel(adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The graph with vertex v renamed perm[v]."""
    out = [0] * len(adj)
    for v, m in enumerate(adj):
        for u in range(len(adj)):
            if m >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return tuple(out)


def to_graph6(adj: tuple[int, ...]) -> str:
    """Short-form graph6: upper triangle column by column, 6 bits a byte."""
    n = len(adj)
    bits = [adj[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        group = 0
        for b in bits[k:k + 6]:
            group = group << 1 | b
        out.append(chr(63 + group))
    return "".join(out)


def shape(adj: tuple[int, ...]) -> tuple:
    """An isomorphism invariant: each vertex's degree with its sorted
    neighbour degrees. Graphs with different shapes are not isomorphic."""
    deg = [m.bit_count() for m in adj]
    return tuple(sorted(
        (deg[v], tuple(sorted(deg[u] for u in range(len(adj)) if adj[v] >> u & 1)))
        for v in range(len(adj))
    ))


# ---------------------------------------------------------------------------
# generators

def gnp_connected(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    """A connected G(n, p) draw; disconnected draws are rejected."""
    while True:
        adj = from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        if is_connected(adj):
            return adj


def random_block_cactus(rng: random.Random, n: int) -> tuple[int, ...]:
    """Glue K2-K4 and C4-C5 blocks at random vertices until there are n."""
    edges: list[tuple[int, int]] = []
    size = 1
    while size < n:
        at = rng.randrange(size)
        kind, k = rng.choice([b for b in CACTUS_BLOCKS if size + b[1] - 1 <= n])
        verts = [at, *range(size, size + k - 1)]
        size += k - 1
        if kind == "K":
            edges += combinations(verts, 2)
        else:
            edges += [(verts[i], verts[(i + 1) % k]) for i in range(k)]
    return from_edges(n, edges)


def template(family: str, params: tuple) -> tuple[int, ...]:
    """The paper's templates, built from their definitions."""
    def clique(verts):
        return list(combinations(verts, 2))

    if family == "fig8a":  # apex over an isolated vertex plus a clique K_r
        (r,) = params
        n = r + 2
        return from_edges(n, clique(range(1, r + 1)) + [(v, n - 1) for v in range(n - 1)])
    if family == "fig8b":  # clique K_{r+1} with a pendant 2-path
        (r,) = params
        return from_edges(r + 3, clique(range(r + 1)) + [(0, r + 1), (r + 1, r + 2)])
    if family == "fig8c":  # complete graph K_{r+1}
        (r,) = params
        return from_edges(r + 1, clique(range(r + 1)))
    if family == "fig8d":  # apex over disjoint cliques
        n = 1 + sum(params)
        edges, base = [], 0
        for r in params:
            edges += clique(range(base, base + r))
            base += r
        return from_edges(n, edges + [(v, n - 1) for v in range(n - 1)])
    if family == "fig6e":  # apex shared by cliques, corners, horned triangles
        sizes, corners, horned = params
        n = 1 + sum(sizes) + 5 * corners + 5 * horned
        apex, edges, base = n - 1, [], 0
        for r in sizes:
            edges += clique(range(base, base + r)) + [(v, apex) for v in range(base, base + r)]
            base += r
        for _ in range(corners):
            a, b, c, pa, pc = range(base, base + 5)
            edges += [(apex, a), (a, b), (b, c), (c, apex), (a, pa), (c, pc)]
            base += 5
        for _ in range(horned):
            a, b, c, pa, pb = range(base, base + 5)
            edges += clique((apex, a, b, c)) + [(a, pa), (b, pb)]
            base += 5
        return from_edges(n, edges)
    raise ValueError(f"unknown template family {family!r}")


def template_key(family: str, params: tuple) -> str:
    return f"{family}:{params!r}".replace(" ", "")


# ---------------------------------------------------------------------------
# populations

def _distinct(items: list[Item]) -> list[Item]:
    seen = set()
    for it in items:
        s = shape(it.adj)
        if s in seen:
            raise ValueError(f"population repeats a graph shape at {it.key}")
        seen.add(s)
    return items


def _fresh(draw, shapes: set) -> tuple[int, ...]:
    """Draw until the graph's shape is not in shapes, and add it."""
    while True:
        adj = draw()
        if shape(adj) not in shapes:
            shapes.add(shape(adj))
            return adj


def solve_population(spec_adj) -> list[Item]:
    """Connected G(n,p) draws plus the family specs; spec_adj(spec) gives
    the adjacency of a spec's graph (used only to check witnesses)."""
    rng = random.Random(POPULATION_SEED)
    shapes: set = set()
    items = [Item(f"gnp:{n}:{p}:{i}", _fresh(lambda: gnp_connected(rng, n, p), shapes))
             for n, p in GNP_CELLS for i in range(GNP_PER_CELL)]
    items += [Item(f"spec:{s}", spec_adj(s), s) for s in FAMILY_SPECS]
    return _distinct(items)


def cactus_population() -> list[Item]:
    """The templates plus random block-cacti of other shapes."""
    rng = random.Random(POPULATION_SEED + 1)
    items = [Item(template_key(f, p), template(f, p)) for f, p in TEMPLATES]
    shapes = {shape(it.adj) for it in items}
    items += [Item(f"cactus:{n}:{i}", _fresh(lambda: random_block_cactus(rng, n), shapes))
              for n, count in CACTUS_PER_ORDER.items() for i in range(count)]
    return _distinct(items)


def arrange(population: list[Item], seed: int, pass_index: int) -> list[tuple[Item, str, tuple]]:
    """One pass: every member once, freshly relabelled, in a seeded order.
    Returns (member, command argument, adjacency as sent) triples; specs
    are passed unchanged."""
    rng = random.Random(f"{seed}/{pass_index}")
    out = []
    for it in population:
        if it.spec:
            out.append((it, it.spec, it.adj))
            continue
        perm = list(range(len(it.adj)))
        rng.shuffle(perm)
        adj = relabel(it.adj, perm)
        out.append((it, to_graph6(adj), adj))
    rng.shuffle(out)
    return out
