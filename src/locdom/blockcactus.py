"""Recognizers for the block-cactus hierarchy and its characterization
predicates: which block-cactus admit no global minimum LD-set, which have
a complement that costs one more, and the structural constraints that a
non-global LD-set imposes around its dominated apex.

Both characterizations name templates (see `families`) that are, apart
from complete graphs, an apex vertex with branches hung on it. A template
is recognized by reading that decomposition off the graph, not by
building candidates: a complete graph is fig8c; otherwise each cut vertex
(from the lowpoint DFS of `graph.blocks`) is tried as the apex, and each
component of g - apex must be one of five branch kinds:

- a pendant vertex;
- a clique of order >= 2 joined wholly to the apex;
- a pendant 2-path (only its first vertex touches the apex);
- a corner: a 4-cycle through the apex whose two cycle neighbours of the
  apex each carry a pendant;
- a horned triangle: a triangle joined wholly to the apex with pendants
  on two of its corners.

The multiset of branch kinds names at most one template. Each kind fixes
its branch up to isomorphism, so the named template is built once, and an
isomorphism to it gives the role map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    BlockDecomposition,
    Graph,
    blocks,
    connected_components,
    is_connected,
    iter_bits,
    find_isomorphism,
    vset,
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
    return _hierarchy(g, blocks(g))


def _hierarchy(g: Graph, bd: BlockDecomposition) -> HierarchyTags:
    connected = is_connected(g)
    shapes = tuple(_block_shape(g, b) for b in bd.blocks)
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
# template matching by apex decomposition

_PENDANT, _CLIQUE, _PATH2, _CORNER, _HORNED = (
    "pendant", "clique", "2-path", "corner", "horned")


def _branch_kind(g: Graph, apex: int, comp: int) -> Optional[str]:
    """Which of the five branch kinds (see the module docstring) the
    component comp of g - apex is, if any. Every test below pins the
    branch down up to isomorphism."""
    size = comp.bit_count()
    touch = g.adj[apex] & comp
    if size == 1:
        return _PENDANT
    if touch == comp and _is_clique(g, comp):
        return _CLIQUE
    if size == 2:
        return _PATH2
    if size != 5:
        return None
    leaves = vset(v for v in iter_bits(comp) if g.adj[v].bit_count() == 1)
    anchors = 0
    for v in iter_bits(leaves):
        anchors |= g.adj[v]
    if leaves.bit_count() != 2 or anchors.bit_count() != 2 or anchors & ~touch:
        return None
    if touch.bit_count() == 3 and _is_clique(g, touch):
        return _HORNED
    if anchors == touch and not _is_clique(g, touch):
        middle = (comp & ~touch & ~leaves).bit_length() - 1
        if g.adj[middle] == touch:
            return _CORNER
    return None


# The templates other than fig8a/fig8b whose apex carries a pendant vertex
# or a pendant 2-path (non-global list only).
_PAIRS = {
    frozenset((_PATH2, _CORNER)): "fig6d",
    frozenset((_PATH2, _HORNED)): "k4_pendants2_tail",
    frozenset((_PENDANT, _HORNED)): "k4_pendants3",
}


def _read_off(kinds: list[str], sizes: list[int],
              nonglobal: bool) -> Optional[FamilyDescriptor]:
    """The template named by the branches at one apex, if any.

    kinds lists the branch kinds and sizes the clique orders in
    non-increasing order. A clique with a pendant or a pendant 2-path
    needs r >= 3 on the non-global list and r >= 2 on the complement list.
    """
    if _PENDANT in kinds or _PATH2 in kinds:
        if len(kinds) != 2:
            return None
        if len(sizes) == 1 and sizes[0] >= (3 if nonglobal else 2):
            tag = "fig8a" if _PENDANT in kinds else "fig8b"
            return FamilyDescriptor(tag, (sizes[0],))
        tag = _PAIRS.get(frozenset(kinds)) if nonglobal else None
        return FamilyDescriptor(tag) if tag else None
    corners, horned = kinds.count(_CORNER), kinds.count(_HORNED)
    if nonglobal and len(kinds) >= 2:
        return FamilyDescriptor("fig6e", (len(sizes), *sizes, corners, horned))
    if not nonglobal and len(sizes) >= 2 and not corners + horned:
        return FamilyDescriptor("fig8d", tuple(sizes))
    return None


def _block_cactus_cut_vertices(g: Graph) -> int:
    """The cut vertices of g, after checking that g is a block-cactus."""
    bd = blocks(g)
    if not _hierarchy(g, bd).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    return bd.cut_vertices


def _recognize(g: Graph, cut_vertices: int, nonglobal: bool) -> Optional[FamilyDescriptor]:
    """The one template of a list that g is, read off its structure."""
    if g.edge_count() == g.n * (g.n - 1) // 2:
        r = g.n - 1
        return FamilyDescriptor("fig8c", (r,)) if r >= (3 if nonglobal else 1) else None
    for apex in iter_bits(cut_vertices):
        kinds: list[str] = []
        sizes: list[int] = []
        for comp in connected_components(g, within=g.vertex_mask & ~(1 << apex)):
            kind = _branch_kind(g, apex, comp)
            if kind is None:
                break
            kinds.append(kind)
            if kind == _CLIQUE:
                sizes.append(comp.bit_count())
        else:
            d = _read_off(kinds, sorted(sizes, reverse=True), nonglobal)
            if d is not None:
                return d
    return None


def _match(g: Graph, cut_vertices: int, nonglobal: bool) -> FamilyMatch:
    d = _recognize(g, cut_vertices, nonglobal)
    if d is None:
        return FamilyMatch(matched=False)
    role_map = find_isomorphism(g, build(d))
    if role_map is None:
        raise RuntimeError(f"internal invariant breach: g read as {d} but not isomorphic to it")
    return FamilyMatch(matched=True, descriptor=d, role_map=role_map, all_descriptors=(d,))


def match_nonglobal_families(g: Graph, lam: Optional[int] = None) -> FamilyMatch:
    """Match g against the templates whose every minimum LD-set is non-global.

    Applies to block-cactus with lambda >= 3 (computed when not supplied).
    The templates, by the branches at their apex:
    {pendant, clique K_r} is fig8a and {pendant 2-path, K_r} is fig8b,
    both for r >= 3; {2-path, corner} is fig6d; {2-path, horned triangle}
    is K4 with two pendants and a tail; {pendant, horned triangle} is K4
    with three pendants; at least two branches drawn from cliques, corners
    and horned triangles are fig6e. K_n for n >= 4 is fig8c.

    tests/test_blockcactus_oracle.py checks this matcher against an
    enumerator that builds every template of the graph's order and tries
    isomorphism against each: on every block-cactus of the committed
    corpora (up to 8 vertices) and on random block-cacti with up to 18
    vertices.
    """
    cut_vertices = _block_cactus_cut_vertices(g)
    if lam is None:
        lam = location_domination_number(g).value
    if lam < 3:
        raise ValueError(f"matcher applies to lambda >= 3, got lambda = {lam}")
    return _match(g, cut_vertices, nonglobal=True)


def match_complement_families(g: Graph) -> FamilyMatch:
    """Match g against the templates whose complement costs one more.

    Applies to block-cactus of order >= 2. The templates, by the branches
    at their apex: {pendant, clique K_r} is fig8a and {pendant 2-path, K_r}
    is fig8b, both for r >= 2; only cliques, at least two, are fig8d.
    Complete graphs of order >= 2 are fig8c.
    """
    cut_vertices = _block_cactus_cut_vertices(g)
    if g.n < 2:
        raise ValueError("characterization applies to order >= 2")
    return _match(g, cut_vertices, nonglobal=False)


def predict_complement_plus_one(g: Graph) -> bool:
    """Predict lambda(complement) = lambda + 1 for a block-cactus, from shape alone."""
    return match_complement_families(g).matched


# The block-cacti with lambda = 2 whose complement costs one more.
_LAMBDA2_TEMPLATES = (
    families.cycle(3),
    families.paw(),
    families.butterfly(),
    families.banner_complement(),
)


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
    for template in _LAMBDA2_TEMPLATES:
        if g.n == template.n and find_isomorphism(g, template) is not None:
            return ComplementRelation.PLUS_ONE
    exact = complement_relation(g)
    if exact is not ComplementRelation.EQUAL:
        raise RuntimeError(
            f"lambda=2 block-cactus characterization falsified: exact relation {exact}"
        )
    return exact


# The small block-cacti (all with lambda <= 2) that have no global minimum
# LD-set, outside the templates of match_nonglobal_families.
_SMALL_NONGLOBAL = (
    families.path(2),
    families.path(5),
    families.cycle(3),
    families.cycle(5),
    families.banner_complement(),
    families.paw(),
    families.bull(),
    families.butterfly(),
)


def predict_lambda_g(g: Graph, nonglobal: Optional[FamilyMatch] = None) -> int:
    """Predicted global lambda of a block-cactus: lambda + 1 exactly on the
    non-global templates and the small exceptional set, lambda otherwise.

    A caller that already holds match_nonglobal_families(g) passes it as
    nonglobal, so the templates are not matched a second time.
    """
    if not hierarchy(g).is_block_cactus:
        raise ValueError("g is not a block-cactus")
    lam = location_domination_number(g).value
    for template in _SMALL_NONGLOBAL:
        if g.n == template.n and find_isomorphism(g, template) is not None:
            return lam + 1
    if lam >= 3:
        if nonglobal is None:
            nonglobal = match_nonglobal_families(g, lam)
        if nonglobal.matched:
            return lam + 1
    return lam
