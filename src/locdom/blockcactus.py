"""Recognizers for the block-cactus hierarchy and its characterization
predicates: which block-cactus admit no global minimum LD-set, which have
a complement that costs one more, and the structural constraints that a
non-global LD-set imposes around its dominated apex."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .graph import (
    Graph,
    blocks,
    connected_components,
    induced_subgraph,
    is_connected,
    iter_bits,
    find_isomorphism,
    vset_members,
)
from .solver import (
    ComplementRelation,
    complement_relation,
    dominating_vertex,
    location_domination_number,
)
from . import families
from .families import FamilyDescriptor, build


@dataclass(frozen=True)
class HierarchyTags:
    """Membership flags for the block-cactus hierarchy.

    Triangle blocks are simultaneously cycles and complete graphs, so the
    flags are not mutually exclusive; block_shapes exposes the raw per-block
    classification in blocks() order.
    """

    is_connected: bool
    is_tree: bool
    is_unicyclic: bool
    is_cactus: bool
    is_block_graph: bool
    is_block_cactus: bool
    block_shapes: tuple[str, ...]


@dataclass(frozen=True)
class FamilyMatch:
    """Result of matching a graph against a set of family templates.

    role_map[v] is the template vertex that input vertex v plays in the
    first matching template; all_descriptors lists every template that
    matched (overlaps between templates are reported, not hidden).
    """

    matched: bool
    descriptor: Optional[FamilyDescriptor] = None
    role_map: Optional[tuple[int, ...]] = None
    all_descriptors: tuple[FamilyDescriptor, ...] = ()


@dataclass(frozen=True)
class StructureReport:
    """Checked structural facts at a non-global LD-set of a block-cactus.

    An empty violations tuple means every constraint held for (g, s, u).
    """

    dominating_vertex: int
    neighborhood_components: tuple[int, ...]
    w_components: tuple[int, ...]
    violations: tuple[str, ...]


def _is_clique(g: Graph, mask: int) -> bool:
    for v in iter_bits(mask):
        if g.adj[v] & mask != mask & ~(1 << v):
            return False
    return True


def _block_shape(g: Graph, block_mask: int) -> str:
    k = block_mask.bit_count()
    if k == 1:
        return "K1"
    if k == 2:
        return "K2"
    clique = _is_clique(g, block_mask)
    cyclic = all(
        (g.adj[v] & block_mask).bit_count() == 2 for v in iter_bits(block_mask)
    )
    if k == 3 and clique:
        return "K3"
    if clique:
        return "clique"
    if cyclic:
        return "cycle"
    return "other"


def hierarchy(g: Graph) -> HierarchyTags:
    """Classify g within the block-cactus hierarchy (tags False if disconnected)."""
    connected = is_connected(g)
    shapes = tuple(_block_shape(g, b) for b in blocks(g).blocks)
    m = g.edge_count()
    cactus_ok = all(s in ("K1", "K2", "K3", "cycle") for s in shapes)
    blockgraph_ok = all(s in ("K1", "K2", "K3", "clique") for s in shapes)
    return HierarchyTags(
        is_connected=connected,
        is_tree=connected and m == g.n - 1,
        is_unicyclic=connected and m == g.n,
        is_cactus=connected and cactus_ok,
        is_block_graph=connected and blockgraph_ok,
        is_block_cactus=connected and all(s != "other" for s in shapes),
        block_shapes=shapes,
    )


def validate_nonglobal_structure(g: Graph, s: int) -> StructureReport:
    """Check the structural constraints forced by a non-global LD-set.

    With u the vertex dominating s and W the vertices beyond N[u], the
    constraints are: the neighborhood of u induces disjoint cliques carrying
    at least max(1, r-1) members of s each; every w in W sees N(u) in one
    s-vertex or in two nonadjacent vertices; singleton anchors are private;
    doubly-anchored w's have disjoint closed neighborhoods; W induces only
    K1/K2 components, any K2 lying on a 5-cycle block through u.
    """
    if not hierarchy(g).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    u = dominating_vertex(g, s)
    if u is None:
        raise ValueError("s is a global LD-set; no dominating vertex")
    violations: list[str] = []
    nu = g.adj[u]
    w_mask = g.vertex_mask & ~(nu | 1 << u)

    nu_comps = connected_components(g, within=nu)
    for comp in nu_comps:
        if not _is_clique(g, comp):
            violations.append(f"neighborhood-component-not-clique:{vset_members(comp)}")
        r = comp.bit_count()
        # at most one vertex of each clique component escapes s (equal traces
        # otherwise), and isolated neighbors must be in s
        want = max(1, r - 1)
        got = (comp & s).bit_count()
        if got < want:
            violations.append(
                f"clique-code-count:{vset_members(comp)}:expected>={want}:got={got}"
            )

    singleton_anchor: dict[int, int] = {}
    double_anchored: list[int] = []
    for w in iter_bits(w_mask):
        anchors = g.adj[w] & nu
        k = anchors.bit_count()
        if not 1 <= k <= 2:
            violations.append(f"w-anchor-count:{w}:got={k}")
            continue
        if k == 1:
            x = anchors.bit_length() - 1
            if not s >> x & 1:
                violations.append(f"singleton-anchor-not-in-code:{w}:anchor={x}")
            if x in singleton_anchor:
                violations.append(
                    f"singleton-anchor-shared:{singleton_anchor[x]}:{w}:anchor={x}"
                )
            else:
                singleton_anchor[x] = w
        else:
            x, y = vset_members(anchors)
            if g.has_edge(x, y):
                violations.append(f"doubleton-anchor-edge:{w}:anchors={x},{y}")
            double_anchored.append(w)

    for i, w in enumerate(double_anchored):
        for w2 in double_anchored[i + 1:]:
            if g.closed_neighborhood(w) & g.closed_neighborhood(w2):
                violations.append(f"doubleton-closed-neighborhoods-intersect:{w}:{w2}")

    w_comps = connected_components(g, within=w_mask)
    block_list = blocks(g).blocks
    for comp in w_comps:
        size = comp.bit_count()
        if size > 2:
            violations.append(f"w-component-too-big:{vset_members(comp)}")
        elif size == 2:
            holder = next((b for b in block_list if b & comp == comp), 0)
            ok = (
                holder.bit_count() == 5
                and holder >> u & 1
                and _block_shape(g, holder) == "cycle"
            )
            if not ok:
                violations.append(f"w-edge-block-not-c5:{vset_members(comp)}")

    return StructureReport(
        dominating_vertex=u,
        neighborhood_components=tuple(nu_comps),
        w_components=tuple(w_comps),
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# template matching

def _partitions_min2(m: int) -> Iterator[tuple[int, ...]]:
    """Partitions of m into non-increasing parts, each part >= 2."""
    if m == 0:
        yield ()
        return

    def rec(left: int, cap: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for p in range(min(left, cap), 1, -1):
            if left - p == 0 or left - p >= 2:
                for rest in rec(left - p, p):
                    yield (p, *rest)

    yield from rec(m, m)


def _try_templates(g: Graph, candidates: list[FamilyDescriptor]) -> FamilyMatch:
    matches: list[tuple[FamilyDescriptor, tuple[int, ...]]] = []
    degseq = g.degree_sequence()
    for d in candidates:
        template = build(d)
        if template.n != g.n or template.degree_sequence() != degseq:
            continue
        iso = find_isomorphism(g, template)
        if iso is not None:
            matches.append((d, iso))
    if not matches:
        return FamilyMatch(matched=False)
    first_d, first_map = matches[0]
    return FamilyMatch(
        matched=True,
        descriptor=first_d,
        role_map=first_map,
        all_descriptors=tuple(d for d, _ in matches),
    )


def _nonglobal_candidates(n: int) -> list[FamilyDescriptor]:
    out = []
    if n - 2 >= 3:
        out.append(FamilyDescriptor("fig8a", (n - 2,)))
    if n - 3 >= 3:
        out.append(FamilyDescriptor("fig8b", (n - 3,)))
    if n - 1 >= 3:
        out.append(FamilyDescriptor("fig8c", (n - 1,)))
    if n == 8:
        out.append(FamilyDescriptor("fig6d"))
    if n == 7:
        out.append(FamilyDescriptor("k4_pendants3"))
    if n == 8:
        out.append(FamilyDescriptor("k4_pendants2_tail"))
    for gadgets in range((n - 1) // 5 + 1):
        m = n - 1 - 5 * gadgets
        if m < 0:
            break
        for t_prime in range(gadgets + 1):
            horned = gadgets - t_prime
            for sizes in _partitions_min2(m):
                if len(sizes) + gadgets >= 2:
                    out.append(
                        FamilyDescriptor(
                            "fig6e", (len(sizes), *sizes, t_prime, horned)
                        )
                    )
    return out


def match_nonglobal_families(g: Graph, lam: Optional[int] = None) -> FamilyMatch:
    """Match g against the templates whose every minimum LD-set is non-global.

    Applies to block-cactus with lambda >= 3 (computed when not supplied).
    Templates: a clique with one pendant vertex, with a pendant 2-path, or
    bare; a corner or a horned triangle with a pendant 2-path at the apex;
    K4 carrying three pendants; and any apex identification of at least two
    branches drawn from cliques, corners and horned triangles.

    The family is verified against exhaustive solves for every block-cactus
    on up to 13 vertices built from the legal branch shapes.
    """
    if not hierarchy(g).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    if lam is None:
        lam = location_domination_number(g).value
    if lam < 3:
        raise ValueError(f"matcher applies to lambda >= 3, got lambda = {lam}")
    return _try_templates(g, _nonglobal_candidates(g.n))


def _complement_candidates(n: int) -> list[FamilyDescriptor]:
    out = []
    if n - 1 >= 1:
        out.append(FamilyDescriptor("fig8c", (n - 1,)))
    if n - 2 >= 2:
        out.append(FamilyDescriptor("fig8a", (n - 2,)))
    if n - 3 >= 2:
        out.append(FamilyDescriptor("fig8b", (n - 3,)))
    for sizes in _partitions_min2(n - 1):
        if len(sizes) >= 2:
            out.append(FamilyDescriptor("fig8d", sizes))
    return out


def match_complement_families(g: Graph) -> FamilyMatch:
    """Match g against the templates whose complement costs one more.

    Applies to block-cactus of order >= 2. Templates: apex over {isolated
    vertex + clique} (r >= 2); clique with a pendant 2-path (r >= 2);
    complete graphs (order >= 2); apex over t >= 2 cliques.
    """
    if not hierarchy(g).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    if g.n < 2:
        raise ValueError("characterization applies to order >= 2")
    return _try_templates(g, _complement_candidates(g.n))


def predict_complement_plus_one(g: Graph) -> bool:
    """Predict lambda(complement) = lambda + 1 for a block-cactus, from shape alone."""
    return match_complement_families(g).matched


_LAMBDA2_PLUS_ONE = ("cycle3", "paw", "butterfly", "banner_complement")


def _lambda2_templates() -> list[Graph]:
    return [
        families.cycle(3),
        families.paw(),
        families.butterfly(),
        families.banner_complement(),
    ]


def classify_lambda2_blockcactus(g: Graph) -> ComplementRelation:
    """Complement relation of a block-cactus with lambda = 2.

    Exactly the 3-cycle, the paw, the butterfly and the banner complement
    gain one in the complement; anything else must come out Equal, and a
    contradicting exact solve is raised as a falsification.
    """
    if not hierarchy(g).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    if location_domination_number(g).value != 2:
        raise ValueError("classifier applies to lambda = 2 only")
    for template in _lambda2_templates():
        if g.n == template.n and find_isomorphism(g, template) is not None:
            return ComplementRelation.PLUS_ONE
    exact = complement_relation(g)
    if exact is not ComplementRelation.EQUAL:
        raise RuntimeError(
            f"lambda=2 block-cactus characterization falsified: exact relation {exact}"
        )
    return exact


_SMALL_NONGLOBAL_BUILDERS = (
    lambda: families.path(2),
    lambda: families.path(5),
    lambda: families.cycle(3),
    lambda: families.cycle(5),
    families.banner_complement,
    families.paw,
    families.bull,
    families.butterfly,
)


def predict_lambda_g(g: Graph) -> int:
    """Predicted global lambda of a block-cactus: lambda + 1 exactly on the
    non-global templates and the small exceptional set, lambda otherwise."""
    if not hierarchy(g).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    lam = location_domination_number(g).value
    for make in _SMALL_NONGLOBAL_BUILDERS:
        template = make()
        if g.n == template.n and find_isomorphism(g, template) is not None:
            return lam + 1
    if lam >= 3 and match_nonglobal_families(g, lam).matched:
        return lam + 1
    return lam
