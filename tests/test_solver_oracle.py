"""The hitting-set solver against the k-subset scan in subset_oracle."""

from hypothesis import given, settings, strategies as st

import subset_oracle as oracle
from locdom.graph import Graph, complement
from locdom.solver import (
    SolveResult,
    domination_number,
    global_location_domination_number,
    ld_codes,
    location_domination_number,
)


def assert_matches_oracle(g):
    gam = oracle.gamma(g)
    assert domination_number(g) == SolveResult(gam.value, gam.witness)
    assert domination_number(g, count_optima=True) == SolveResult(
        gam.value, gam.witness, len(gam.optima))
    lam = oracle.lam(g)
    assert location_domination_number(g) == SolveResult(lam.value, lam.witness)
    assert location_domination_number(g, count_optima=True) == SolveResult(
        lam.value, lam.witness, len(lam.optima))
    assert list(ld_codes(g)) == lam.optima
    assert global_location_domination_number(g) == SolveResult(*oracle.lam_global(g))


def test_solver_matches_oracle_on_graphs_le6(graphs_le6):
    for g in graphs_le6:
        assert_matches_oracle(g)
        assert_matches_oracle(complement(g))


def test_solver_matches_oracle_on_connected_le7(connected_le7):
    for g in connected_le7:
        assert_matches_oracle(g)
        assert_matches_oracle(complement(g))


@st.composite
def graphs(draw, max_n=10):
    """G(n, p) draws; a nonzero cut also deletes every edge between
    vertices below it and vertices above it, so the graph is disconnected."""
    n = draw(st.integers(1, max_n))
    p = draw(st.sampled_from((0.15, 0.35, 0.6, 0.85)))
    cut = draw(st.integers(0, n - 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < cut) == (v < cut)]
    keep = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, x in zip(pairs, keep) if x < p])


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_solver_properties_on_random_graphs(g):
    assert_matches_oracle(g)
    lam = location_domination_number(g).value
    lam_g = global_location_domination_number(g).value
    assert lam <= lam_g <= lam + 1
    assert lam_g == global_location_domination_number(complement(g)).value
