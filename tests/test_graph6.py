import random

import networkx as nx
import pytest

from locdom.graph import Graph
from locdom.graph6 import Graph6ParseError, emit_graph6, iter_graph6, parse_graph6


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0
    assert emit_graph6(Graph(1)) == "@"


def test_two_vertices_single_bit():
    with_edge = parse_graph6("A_")
    without = parse_graph6("A?")
    assert with_edge.edge_count() == 1
    assert without.edge_count() == 0
    assert emit_graph6(with_edge) == "A_"
    assert emit_graph6(without) == "A?"


def test_round_trip_random_graphs():
    rng = random.Random(830)
    for _ in range(1000):
        n = rng.randint(1, 10)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        assert parse_graph6(emit_graph6(g)) == g


def test_emit_matches_networkx_for_order_4(graphs_le5):
    """All eleven order-4 classes, byte-compared against an independent codec."""
    quads = [g for g in graphs_le5 if g.n == 4]
    assert len(quads) == 11
    for g in quads:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        ref = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert emit_graph6(g) == ref


def test_parse_matches_networkx_random():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 12)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        line = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        g = parse_graph6(line)
        assert g.n == n and sorted(g.edges()) == sorted(edges)


@pytest.mark.parametrize(
    "bad",
    [
        "",            # empty
        " ",           # character below 63
        "A",           # missing data character
        "A??",         # trailing data
        "B~",          # nonzero padding bits (n=3 uses 3 of 6 bits)
        "?",           # order 0
        "~??",         # long form
        "A\x1f",       # control character in data
    ],
)
def test_malformed_inputs(bad):
    with pytest.raises(Graph6ParseError) as err:
        parse_graph6(bad)
    assert "byte" in str(err.value)


def test_emit_rejects_large_graphs(monkeypatch):
    monkeypatch.setenv("LOCDOM_MAX_N", "100")
    g = Graph(63)
    with pytest.raises(ValueError):
        emit_graph6(g)


def test_iter_graph6_skips_header_and_blanks():
    lines = [">>graph6<<", "", "@", "A_", "  "]
    graphs = list(iter_graph6(lines))
    assert [g.n for g in graphs] == [1, 2]


def test_iter_graph6_names_the_line():
    lines = [">>graph6<<", "", "@", "A_", "B\x01"]
    with pytest.raises(Graph6ParseError, match=r"^line 5: .*\(byte 1\)"):
        list(iter_graph6(lines))


def test_corpus_lines_round_trip(graphs_le5):
    from conftest import corpus_lines

    for line, g in zip(corpus_lines("graphs_le5.g6"), graphs_le5):
        assert emit_graph6(g) == line
