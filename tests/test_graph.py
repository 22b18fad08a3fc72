import itertools
import math
import pickle
import random

import pytest

from locdom.graph import (
    BlockDecomposition,
    DisconnectedGraphError,
    Graph,
    blocks,
    complement,
    connected_components,
    delete_vertex,
    diameter,
    distance_matrix,
    eccentricities,
    eccentricity,
    find_isomorphism,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    join,
    radius,
    union,
    vset,
    vset_members,
)
from locdom import families as fam


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(n, edges)


# --- construction and validation ---

def test_rejects_order_zero():
    with pytest.raises(ValueError):
        Graph(0)


def test_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_from_adjacency_validates_symmetry():
    with pytest.raises(ValueError):
        Graph.from_adjacency([0b010, 0b000, 0b000])


def test_graph_is_immutable_value():
    g = fam.path(3)
    with pytest.raises(AttributeError):
        g.n = 5
    assert g == Graph(3, [(0, 1), (1, 2)])
    assert hash(g) == hash(Graph(3, [(1, 2), (0, 1)]))


# --- complement ---

def test_complement_of_complete_is_empty():
    g = complement(fam.complete(3))
    assert g.edge_count() == 0 and g.n == 3


def test_complement_p4_adjacency():
    # non-edges of 0-1-2-3 are exactly 02, 03, 13: again a path (2-0-3-1)
    c = complement(fam.path(4))
    assert sorted(c.edges()) == [(0, 2), (0, 3), (1, 3)]
    assert is_isomorphic(c, fam.path(4))


def test_complement_p5_degree_sequence():
    # oracle: count non-neighbors directly
    g = fam.path(5)
    want = tuple(
        sorted(
            sum(1 for u in range(5) if u != v and not g.has_edge(u, v))
            for v in range(5)
        )
    )
    assert want == (2, 2, 2, 3, 3)
    assert complement(g).degree_sequence() == want


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 10))
        assert complement(complement(g)) == g


# --- union / join ---

def test_union_small_cases():
    assert union(Graph(1), Graph(1)).edge_count() == 0
    g = union(Graph(1), fam.complete(2))
    assert g.n == 3 and g.edge_count() == 1
    two_paths = union(fam.path(3), fam.path(3))
    assert two_paths.edge_count() == 4
    assert len(connected_components(two_paths)) == 2


def test_join_builds_wheel_and_star():
    assert is_isomorphic(join(Graph(1), fam.cycle(4)), fam.wheel(5))
    assert is_isomorphic(join(Graph(1), Graph(3)), fam.star(4))
    f8a = join(Graph(1), union(Graph(1), fam.complete(3)))
    assert is_isomorphic(f8a, fam.fig8a(3))


def test_join_edge_count_formula():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 6))
        assert join(g, h).edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


# --- deletion / induction ---

def test_delete_vertex():
    for v in range(6):
        assert is_isomorphic(delete_vertex(fam.cycle(6), v), fam.path(5))
    assert is_isomorphic(delete_vertex(fam.complete(4), 2), fam.complete(3))
    assert is_isomorphic(delete_vertex(fam.wheel(5), 4), fam.cycle(4))  # hub is 4


def test_delete_vertex_errors():
    with pytest.raises(ValueError):
        delete_vertex(Graph(1), 0)
    with pytest.raises(ValueError):
        delete_vertex(fam.path(3), 7)


def test_induced_subgraph():
    w5 = fam.wheel(5)
    rim = induced_subgraph(w5, w5.adj[4])
    assert is_isomorphic(rim, fam.cycle(4))
    paw = fam.paw()
    assert is_isomorphic(induced_subgraph(paw, vset([0, 1, 2])), fam.complete(3))
    bull = fam.bull()
    horns = induced_subgraph(bull, vset([3, 4]))
    assert horns.n == 2 and horns.edge_count() == 0


def test_induced_subgraph_rejects_empty():
    with pytest.raises(ValueError):
        induced_subgraph(fam.path(3), 0)


# --- distances ---

def test_distance_examples():
    assert diameter(fam.path(5)) == 4
    assert radius(fam.wheel(7)) == 1
    assert eccentricity(fam.wheel(7), 6) == 1  # hub


def test_distance_tight_exemplar():
    # smallest connected graph with a non-global minimum LD-set witnessing
    # rad=2, diam=4 alongside lambda(complement) = lambda + 1
    from locdom.graph6 import parse_graph6

    g = parse_graph6("F^mI?")
    assert radius(g) == 2
    assert diameter(g) == 4


def test_distance_matrix_properties():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        dist = distance_matrix(g)
        for u in range(g.n):
            assert dist[u][u] == 0
            for v in range(g.n):
                assert dist[u][v] == dist[v][u]
                assert (dist[u][v] == 1) == g.has_edge(u, v)
        if is_connected(g):
            for u, v, w in itertools.permutations(range(g.n), 3):
                assert dist[u][w] <= dist[u][v] + dist[v][w]
        else:
            assert any(dist[u][v] is math.inf for u in range(g.n) for v in range(g.n))


def test_disconnected_distance_errors():
    g = union(fam.path(2), Graph(1))
    for fn in (radius, diameter):
        with pytest.raises(DisconnectedGraphError):
            fn(g)
    with pytest.raises(DisconnectedGraphError):
        eccentricity(g, 0)


def test_pickle_round_trip(monkeypatch):
    for g in (Graph(1), fam.path(4), fam.wheel(7), union(fam.cycle(3), Graph(2))):
        back = pickle.loads(pickle.dumps(g))
        assert type(back) is Graph and back == g and back.edges() == g.edges()
        with pytest.raises(AttributeError):
            back.n = 3
    # loading goes through the validating constructor
    data = pickle.dumps(fam.path(6))
    monkeypatch.setenv("LOCDOM_MAX_N", "5")
    with pytest.raises(ValueError, match="order"):
        pickle.loads(data)


def test_eccentricities():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        ecc = eccentricities(g)
        assert ecc == tuple(max(row) for row in distance_matrix(g))
        if is_connected(g):
            assert ecc == tuple(eccentricity(g, v) for v in range(g.n))
            assert (radius(g), diameter(g)) == (min(ecc), max(ecc))
        else:
            assert all(e is math.inf for e in ecc)
    assert eccentricities(Graph(1)) == (0,)
    g = fam.path(5)
    assert eccentricities(g) == (4, 3, 2, 3, 4)
    assert eccentricities(Graph(5, g.edges())) is eccentricities(g)  # cached by value


# --- components ---

def test_connected_components():
    g = Graph(3)
    assert connected_components(g) == [1, 2, 4]
    assert connected_components(fam.cycle(5)) == [0b11111]
    sizes = sorted(c.bit_count() for c in connected_components(union(Graph(1), fam.complete(4))))
    assert sizes == [1, 4]


def test_connected_components_within_mask():
    g = fam.path(6)  # 0-1-2-3-4-5
    assert connected_components(g, within=0b110111) == [0b000111, 0b110000]
    assert connected_components(g, within=0) == []
    assert connected_components(g, within=g.vertex_mask) == connected_components(g)
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8))
        mask = rng.randrange(1, 1 << g.n)
        verts = vset_members(mask)
        comps = connected_components(g, within=mask)
        assert sum(comps) == mask
        want = [vset(verts[i] for i in vset_members(c))
                for c in connected_components(induced_subgraph(g, mask))]
        assert comps == want


# --- blocks ---

def test_blocks_bull():
    bd = blocks(fam.bull())
    sizes = sorted(b.bit_count() for b in bd.blocks)
    assert sizes == [2, 2, 3]
    assert vset_members(bd.cut_vertices) == [0, 1]


def test_blocks_butterfly():
    bd = blocks(fam.butterfly())
    assert sorted(vset_members(b) for b in bd.blocks) == [[0, 1, 2], [0, 3, 4]]
    assert vset_members(bd.cut_vertices) == [0]


def test_blocks_cycle_single_block():
    bd = blocks(fam.cycle(6))
    assert bd == BlockDecomposition((0b111111,), 0)


def test_blocks_isolated_vertices_are_blocks():
    bd = blocks(union(Graph(2), fam.complete(3)))
    assert sorted(vset_members(b) for b in bd.blocks) == [[0], [1], [2, 3, 4]]


def test_blocks_partition_edges(connected_le7):
    rng = random.Random(3)
    sample = rng.sample(list(connected_le7), 150)
    for g in sample:
        bd = blocks(g)
        within = 0
        covered = 0
        for b in bd.blocks:
            covered |= b
            if b.bit_count() > 1:
                within += induced_subgraph(g, b).edge_count()
        assert within == g.edge_count()
        assert covered == g.vertex_mask
        for b1, b2 in itertools.combinations(bd.blocks, 2):
            assert (b1 & b2).bit_count() <= 1
            if b1 & b2:
                assert bd.cut_vertices & b1 & b2


# --- isomorphism ---

def test_isomorphism_examples():
    assert is_isomorphic(fam.path(4), complement(fam.path(4)))
    assert not is_isomorphic(fam.paw(), fam.bull())
    k3k3 = union(fam.complete(3), fam.complete(3))
    assert fam.cycle(6).edge_count() == k3k3.edge_count() == 6
    assert not is_isomorphic(fam.cycle(6), k3k3)


def test_isomorphism_under_relabeling():
    rng = random.Random(9)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 9))
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        for u, v in g.edges():
            assert h.has_edge(mapping[u], mapping[v])


def test_isomorphism_rejects_different_graphs():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, 7)
        h = random_graph(rng, 7)
        if sorted(g.edges()) == sorted(h.edges()):
            continue
        if g.edge_count() != h.edge_count():
            assert not is_isomorphic(g, h)


def test_isomorphism_distinguishes_corpus_classes(graphs_le5):
    # corpus graphs are pairwise non-isomorphic by construction
    by_order = {}
    for g in graphs_le5:
        by_order.setdefault(g.n, []).append(g)
    for n, group in by_order.items():
        if n > 4:
            continue
        for g, h in itertools.combinations(group, 2):
            assert not is_isomorphic(g, h)
