"""The apex-decomposition template matchers against the enumerator in
template_oracle, which builds every template of the graph's order and
tries isomorphism against each one."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import template_oracle as oracle
from locdom import families as fam
from locdom.blockcactus import hierarchy, match_complement_families, match_nonglobal_families
from locdom.families import FamilyDescriptor, build
from locdom.graph import Graph
from locdom.solver import location_domination_number


def assert_matches_oracle(g):
    """Both matchers give the oracle's FamilyMatch on a block-cactus g."""
    if g.n >= 2:
        assert match_complement_families(g) == oracle.match_complement(g)
    lam = location_domination_number(g).value
    if lam >= 3:
        assert match_nonglobal_families(g, lam) == oracle.match_nonglobal(g)


def relabel(g, perm):
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_matchers_agree_with_oracle_on_corpora(graphs_le6, connected_le8):
    count = 0
    for g in itertools.chain(graphs_le6, connected_le8):
        if hierarchy(g).is_block_cactus:
            assert_matches_oracle(g)
            count += 1
    assert count == 434


BLOCK_KINDS = ("K2", "K3", "K4", "K5", "C4", "C5", "C6")


@st.composite
def block_cacti(draw, max_n=18):
    """Blocks K2-K5 and C4-C6 glued one by one at an existing vertex, then
    relabelled at random."""
    n = 1
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(BLOCK_KINDS))
        size = int(kind[1])
        if n + size - 1 > max_n:
            break
        at = draw(st.integers(0, n - 1))
        verts = [at, *range(n, n + size - 1)]
        n += size - 1
        if kind[0] == "K":
            edges += [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]]
        else:
            edges += [(verts[i], verts[(i + 1) % size]) for i in range(size)]
    perm = draw(st.permutations(range(n)))
    return relabel(Graph(n, edges), perm)


@settings(max_examples=150, deadline=None)
@given(block_cacti())
def test_matchers_agree_with_oracle_on_random_block_cacti(g):
    assert hierarchy(g).is_block_cactus
    assert_matches_oracle(g)


@st.composite
def templates(draw, max_n=18):
    """A descriptor of one of the characterized templates with n <= max_n."""
    tag = draw(st.sampled_from(
        ("fig8a", "fig8b", "fig8c", "fig8d", "fig6d", "k4_pendants3",
         "k4_pendants2_tail", "fig6e")))
    if tag in ("fig8a", "fig8b", "fig8c"):
        return FamilyDescriptor(tag, (draw(st.integers(1 if tag == "fig8c" else 2, 14)),))
    if tag in ("fig8d", "fig6e"):
        corners = horned = 0
        if tag == "fig6e":
            corners = draw(st.integers(0, 3))
            horned = draw(st.integers(0, 3 - corners))
        budget = max_n - 1 - 5 * (corners + horned)
        sizes = draw(st.lists(st.integers(2, 6), max_size=4))
        while sum(sizes) > budget:
            sizes.pop()
        sizes.sort(reverse=True)
        if len(sizes) + corners + horned < 2:
            sizes = [2, 2]
            corners = horned = 0
        if tag == "fig8d":
            return FamilyDescriptor(tag, tuple(sizes))
        return FamilyDescriptor(tag, (len(sizes), *sizes, corners, horned))
    return FamilyDescriptor(tag)


@settings(max_examples=100, deadline=None)
@given(templates(), st.data())
def test_matchers_agree_with_oracle_on_relabelled_templates(d, data):
    g = build(d)
    g = relabel(g, data.draw(st.permutations(range(g.n))))
    assert_matches_oracle(g)
    if d.tag.startswith("fig8"):
        m = match_complement_families(g)
    elif location_domination_number(g).value >= 3:
        m = match_nonglobal_families(g)
    else:
        return  # butterfly-sized fig6e instances have lambda = 2
    assert m.matched and m.descriptor == d


NEAR_MISS_BASES = (
    FamilyDescriptor("fig8a", (3,)),
    FamilyDescriptor("fig8b", (3,)),
    FamilyDescriptor("fig8c", (4,)),
    FamilyDescriptor("fig8d", (3, 2)),
    FamilyDescriptor("fig6d"),
    FamilyDescriptor("k4_pendants3"),
    FamilyDescriptor("k4_pendants2_tail"),
    FamilyDescriptor("fig6e", (1, 2, 1, 0)),
    FamilyDescriptor("fig6e", (1, 2, 0, 1)),
    FamilyDescriptor("fig6e", (0, 1, 1)),
)


@pytest.mark.parametrize("d", NEAR_MISS_BASES, ids=fam.describe)
def test_matchers_agree_with_oracle_on_near_misses(d):
    """The template with one more pendant vertex, or one more K2 joined
    wholly to a vertex (a triangle block), at each of its vertices."""
    g = build(d)
    n = g.n
    for v in range(n):
        pendant = Graph(n + 1, g.edges() + [(v, n)])
        k2 = Graph(n + 2, g.edges() + [(v, n), (v, n + 1), (n, n + 1)])
        for h in (pendant, k2):
            assert hierarchy(h).is_block_cactus
            assert_matches_oracle(h)
