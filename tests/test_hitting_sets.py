"""The hitting-set kernel against a scan of every vertex set."""

from hypothesis import given, settings, strategies as st

from locdom.solver import _Problem, _hitting_sets, _reduce

N = 8


def hitting_sets_by_scan(family, budget):
    return [m for m in range(1 << N)
            if m.bit_count() <= budget and all(m & s for s in family)]


def optimum(family):
    return min(m.bit_count() for m in hitting_sets_by_scan(family, N))


def assert_kernel_contract(family, budget):
    """The yielded sets are distinct hitting sets within the budget, every
    hitting set within it contains one, and at the optimum budget they are
    exactly the optimal sets."""
    found = list(_hitting_sets(_reduce(family), budget))
    hitting = hitting_sets_by_scan(family, budget)
    assert len(found) == len(set(found))
    assert set(found) <= set(hitting)
    for h in hitting:
        assert any(f & h == f for f in found), h
    if budget == optimum(family):
        assert sorted(found) == [m for m in hitting if m.bit_count() == budget]
    return found


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, (1 << N) - 1), max_size=12), st.integers(0, 4))
def test_kernel_matches_scan(family, budget):
    assert_kernel_contract(family, budget)
    assert_kernel_contract(family, optimum(family))


def test_empty_family():
    for budget in range(4):
        assert assert_kernel_contract([], budget) == [0]


def test_single_set_at_budget_one():
    assert assert_kernel_contract([0b1011_0000], 1) == [0b1_0000, 0b10_0000, 0b1000_0000]


def test_budget_two_pivot_bit_that_hits_every_set():
    # vertex 0 hits both sets alone; the branch on vertex 1 excludes 0 and
    # must then take 2 as well
    assert assert_kernel_contract([0b011, 0b101], 2) == [0b001, 0b110]


def test_budget_two_exclusion_shrinks_the_sets_a_branch_misses():
    # the branch on vertex 1 misses {0, 2} and {0, 3}; with 0 excluded they
    # share nothing, so it yields nothing
    found = assert_kernel_contract([0b0011, 0b0101, 0b1001], 2)
    assert found == [0b0001]


def test_witness_search_when_an_exclusion_empties_a_set():
    # excluding vertex 2 empties {2}, so the smallest optimum must take it
    p = _Problem([0b100, 0b011], 3, 1)
    assert p.value == 2
    assert p.smallest == 0b101
    assert p.optima == (0b101, 0b110)
