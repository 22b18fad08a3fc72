import pytest

from locdom.graph import Graph, union, vset
from locdom import families as fam
from locdom.blockcactus import (
    classify_lambda2_blockcactus,
    hierarchy,
    match_complement_families,
    match_nonglobal_families,
    predict_complement_plus_one,
    predict_lambda_g,
    validate_nonglobal_structure,
)
from locdom.solver import (
    ComplementRelation,
    dominating_vertex,
    global_location_domination_number,
    has_global_ld_code,
    ld_codes,
    location_domination_number,
)


def k4_with_pendant():
    return Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])


# --- hierarchy ---

def test_hierarchy_butterfly():
    tags = hierarchy(fam.butterfly())
    # triangle blocks are cycles and cliques at once
    assert tags.is_block_cactus and tags.is_cactus and tags.is_block_graph
    assert not tags.is_tree and not tags.is_unicyclic
    assert tags.block_shapes == ("K3", "K3")


def test_hierarchy_banner():
    tags = hierarchy(fam.banner())
    assert tags.is_unicyclic and tags.is_cactus and tags.is_block_cactus
    assert not tags.is_block_graph
    assert "cycle" in tags.block_shapes


def test_hierarchy_k4_with_pendant():
    tags = hierarchy(k4_with_pendant())
    assert tags.is_block_graph and tags.is_block_cactus
    assert not tags.is_cactus and not tags.is_tree


def test_hierarchy_tree_and_disconnected():
    tags = hierarchy(fam.path(5))
    assert tags.is_tree and tags.is_cactus and tags.is_block_graph and tags.is_block_cactus
    tags = hierarchy(union(fam.path(2), fam.path(2)))
    assert not any(
        [tags.is_connected, tags.is_tree, tags.is_unicyclic, tags.is_cactus,
         tags.is_block_graph, tags.is_block_cactus]
    )


def test_hierarchy_implications(connected_le7):
    for g in connected_le7[:400]:
        t = hierarchy(g)
        if t.is_tree:
            assert t.is_cactus and t.is_block_graph
        if t.is_unicyclic:
            assert t.is_cactus
        if t.is_cactus or t.is_block_graph:
            assert t.is_block_cactus


def test_hierarchy_non_blockcactus():
    # C4 plus a chord path making a theta graph: a block that is neither
    # clique nor cycle
    theta = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    tags = hierarchy(theta)
    assert not tags.is_block_cactus
    assert "other" in tags.block_shapes


# --- structural validation ---

def test_structure_fig8a():
    g = fam.fig8a(3)
    codes = [s for s in ld_codes(g) if dominating_vertex(g, s) is not None]
    assert codes
    for s in codes:
        report = validate_nonglobal_structure(g, s)
        assert report.violations == ()


def test_structure_c5_w_components():
    c5 = fam.cycle(5)
    s = vset([0, 2])
    assert dominating_vertex(c5, s) == 1
    report = validate_nonglobal_structure(c5, s)
    assert report.violations == ()
    assert report.w_components == (vset([3, 4]),)  # one K2 inside the 5-cycle


def test_structure_rejects_global_set():
    c4 = fam.cycle(4)
    # adjacent pairs are the only minimum LD-sets of C4 and all are global
    assert [s for s in ld_codes(c4)] == [vset([0, 1]), vset([1, 2]), vset([0, 3]), vset([2, 3])]
    with pytest.raises(ValueError):
        validate_nonglobal_structure(c4, vset([0, 1]))


def test_structure_rejects_non_blockcactus():
    theta = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ValueError):
        validate_nonglobal_structure(theta, vset([0, 1]))


# --- template matching ---

def test_match_complete_graph():
    m = match_nonglobal_families(fam.complete(5))
    assert m.matched and m.descriptor == fam.FamilyDescriptor("fig8c", (4,))


def test_match_windmill():
    g = fam.fig6e((2, 3), 0)
    m = match_nonglobal_families(g)
    assert m.matched
    assert m.descriptor.tag == "fig6e"


def test_match_decorated_templates():
    m = match_nonglobal_families(fam.k4_pendants3())
    assert m.matched and m.descriptor.tag == "k4_pendants3"
    m = match_nonglobal_families(fam.k4_pendants2_tail())
    assert m.matched and m.descriptor.tag == "k4_pendants2_tail"
    m = match_nonglobal_families(fam.fig6e((2,), 0, 1))
    assert m.matched


def test_match_role_map_is_isomorphism():
    g = fam.fig8a(4)
    m = match_nonglobal_families(g)
    assert m.matched
    template = fam.build(m.descriptor)
    for u, v in g.edges():
        assert template.has_edge(m.role_map[u], m.role_map[v])


def test_match_rejects_trees():
    m = match_nonglobal_families(fam.path(7))
    assert not m.matched and m.descriptor is None


def test_match_requires_lambda_3():
    with pytest.raises(ValueError):
        match_nonglobal_families(fam.butterfly())  # lambda = 2
    with pytest.raises(ValueError):
        match_nonglobal_families(fam.path(7), lam=2)


def test_match_requires_blockcactus():
    theta = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(ValueError):
        match_nonglobal_families(theta)


# --- lambda=2 classification ---

def test_classify_lambda2_plus_one_cases():
    for g in (fam.cycle(3), fam.paw(), fam.butterfly(), fam.banner_complement()):
        assert classify_lambda2_blockcactus(g) is ComplementRelation.PLUS_ONE


def test_classify_lambda2_equal_cases():
    for g in (fam.path(4), fam.bull(), fam.cycle(4), fam.cycle(5), fam.path(5)):
        assert classify_lambda2_blockcactus(g) is ComplementRelation.EQUAL


def test_classify_lambda2_preconditions():
    with pytest.raises(ValueError):
        classify_lambda2_blockcactus(fam.path(6))  # lambda = 3
    with pytest.raises(ValueError):
        classify_lambda2_blockcactus(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


# --- complement-plus-one prediction ---

def test_predict_plus_one_examples():
    assert predict_complement_plus_one(fam.complete(2))
    assert predict_complement_plus_one(fam.butterfly())
    assert not predict_complement_plus_one(fam.fig6d())
    assert not predict_complement_plus_one(fam.banner())
    assert not predict_complement_plus_one(fam.path(6))


def test_predict_plus_one_template_report():
    m = match_complement_families(fam.butterfly())
    assert m.matched and m.descriptor == fam.FamilyDescriptor("fig8d", (2, 2))


def test_predict_plus_one_agrees_with_exact_on_families():
    from locdom.graph import complement

    for g, expected in [
        (fam.complete(6), True),
        (fam.fig8a(4), True),
        (fam.fig8b(3), True),
        (fam.fig8d((2, 3)), True),
        (fam.fig6d(), False),
        (fam.fig6e((2,), 1), False),
        (fam.k4_pendants3(), False),
        (fam.star(6), False),
    ]:
        assert predict_complement_plus_one(g) == expected
        lam = location_domination_number(g).value
        lam_c = location_domination_number(complement(g)).value
        assert (lam_c == lam + 1) == expected


# --- global lambda prediction ---

def test_predict_lambda_g_examples():
    assert predict_lambda_g(fam.path(5)) == 3
    assert predict_lambda_g(fam.cycle(5)) == 3
    assert predict_lambda_g(fam.path(7)) == location_domination_number(fam.path(7)).value
    assert predict_lambda_g(fam.fig6d()) == 4
    assert predict_lambda_g(fam.k4_pendants3()) == 4
    assert predict_lambda_g(fam.bull()) == 3


def test_predict_lambda_g_trees(connected_le7):
    p2, p5 = fam.path(2), fam.path(5)
    from locdom.graph import is_isomorphic

    for g in connected_le7:
        t = hierarchy(g)
        if not t.is_tree:
            continue
        lam = location_domination_number(g).value
        expected = lam
        if (g.n == 2 and is_isomorphic(g, p2)) or (g.n == 5 and is_isomorphic(g, p5)):
            expected = lam + 1
        assert predict_lambda_g(g) == expected == global_location_domination_number(g).value


def test_matcher_iff_nonglobal(connected_le7):
    """Template membership coincides with 'no minimum LD-set is global'."""
    for g in connected_le7:
        t = hierarchy(g)
        if not t.is_block_cactus:
            continue
        lam = location_domination_number(g).value
        if lam < 3:
            continue
        assert match_nonglobal_families(g, lam).matched == (not has_global_ld_code(g))


# --- shapes one step away from a template ---

def _clique_edges(vs):
    return [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]


NEAR_TEMPLATES = {
    # 4-cycle 0-1-2-3 through apex 0 with both pendants on the far vertex 2,
    # next to a pendant 2-path (as in fig6d) or a triangle (as in fig6e)
    "corner-pendants-far-with-2-path": Graph(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (2, 5), (0, 6), (6, 7)]),
    "corner-pendants-far-with-clique": Graph(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (2, 5)] + _clique_edges([0, 6, 7])),
    # triangle 1-2-3 joined wholly to apex 0 with one horn or with three
    "horned-triangle-one-horn-with-2-path": Graph(
        7, _clique_edges([0, 1, 2, 3]) + [(1, 4), (0, 5), (5, 6)]),
    "horned-triangle-three-horns-with-2-path": Graph(
        9, _clique_edges([0, 1, 2, 3]) + [(1, 4), (2, 7), (3, 8), (0, 5), (5, 6)]),
    "horned-triangle-one-horn-with-clique": Graph(
        7, _clique_edges([0, 1, 2, 3]) + [(1, 4)] + _clique_edges([0, 5, 6])),
    "horned-triangle-three-horns-with-clique": Graph(
        9, _clique_edges([0, 1, 2, 3]) + [(1, 4), (2, 7), (3, 8)] + _clique_edges([0, 5, 6])),
    # fig8b(4) with a pendant 3-path instead of a 2-path
    "fig8b-with-3-path": Graph(8, _clique_edges([0, 1, 2, 3, 4]) + [(0, 5), (5, 6), (6, 7)]),
    "k4-four-pendants": Graph(8, _clique_edges([0, 1, 2, 3]) + [(0, 4), (1, 5), (2, 6), (3, 7)]),
}


@pytest.mark.parametrize("name", sorted(NEAR_TEMPLATES))
def test_match_rejects_near_templates(name):
    g = NEAR_TEMPLATES[name]
    assert hierarchy(g).is_block_cactus
    lam = location_domination_number(g).value
    assert lam >= 3
    assert not match_nonglobal_families(g, lam).matched
    assert not match_complement_families(g).matched
    # outside the non-global templates some minimum LD-set is global
    assert has_global_ld_code(g)


def test_match_raises_when_reading_and_template_disagree(monkeypatch):
    # a structural reading that the built template does not confirm is a
    # recognizer fault, never "no match"
    import locdom.blockcactus as bc

    g = fam.fig8a(4)
    monkeypatch.setattr(bc, "build", lambda d: fam.path(g.n))
    with pytest.raises(RuntimeError):
        match_nonglobal_families(g)
