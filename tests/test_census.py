import json

import pytest

from locdom import families as fam
from locdom.census import (
    CHECKS,
    CensusCheck,
    evaluate_graph,
    run_census,
)
from locdom.graph6 import parse_graph6


def test_all_checks_pass_on_small_corpus(graphs_le5):
    report = run_census(graphs_le5)
    assert report.total_graphs == 52
    assert report.total_failures == 0
    assert report.aborted is None
    assert report.checks["complement-diff-le-1"].tested == 52
    assert report.checks["count-lambda-2"].tested == 19


def test_check_selection_and_unknown_id(graphs_le5):
    report = run_census(graphs_le5, checks=["gamma-le-lambda"])
    assert list(report.checks) == ["gamma-le-lambda"]
    with pytest.raises(ValueError):
        run_census(graphs_le5, checks=["no-such-check"])


def test_parallel_reports_identical(graphs_le5):
    a = run_census(graphs_le5, jobs=1)
    b = run_census(graphs_le5, jobs=2)
    assert json.dumps(a.canonical_dict()) == json.dumps(b.canonical_dict())


def test_counterexample_collection_and_cap(monkeypatch):
    # a check that fails on every graph of odd order
    def scope(inv):
        return True

    def assertion(inv):
        if inv.g.n % 2 == 1:
            return False, f"odd order {inv.g.n}"
        return True, ""

    fake = CensusCheck("fake-odd-order", "fails on odd orders", scope, assertion)
    monkeypatch.setitem(CHECKS, fake.id, fake)
    graphs = [fam.path(n) for n in (1, 2, 3, 4, 5, 7, 9)]
    report = run_census(graphs, checks=["fake-odd-order"], max_counterexamples=3)
    out = report.checks["fake-odd-order"]
    assert out.tested == 7 and out.failed == 5
    assert len(out.counterexamples) == 3
    assert out.counterexamples == sorted(out.counterexamples)
    # each counterexample reproduces its failure when re-run standalone
    for g6, _detail in out.counterexamples:
        results = evaluate_graph(parse_graph6(g6), ["fake-odd-order"])
        assert results == [("fake-odd-order", False, f"odd order {parse_graph6(g6).n}")]


def test_negative_counterexample_cap_rejected(monkeypatch, graphs_le5):
    # with a cap of -1 the truncation would silently drop one counterexample
    fake = CensusCheck("fake-odd-order", "fails on odd orders",
                       lambda inv: True, lambda inv: (inv.g.n % 2 == 0, "odd order"))
    monkeypatch.setitem(CHECKS, fake.id, fake)
    report = run_census(graphs_le5, checks=[fake.id], max_counterexamples=0)
    assert report.checks[fake.id].failed == 39
    assert report.checks[fake.id].counterexamples == []
    with pytest.raises(ValueError, match="max_counterexamples"):
        run_census(graphs_le5, checks=[fake.id], max_counterexamples=-1)


def test_aborted_on_corpus_read_error():
    def corpus():
        yield fam.path(3)
        yield fam.path(4)
        raise OSError("disk gone")

    report = run_census(corpus(), checks=["gamma-le-lambda"])
    assert report.aborted is not None and "disk gone" in report.aborted
    assert report.total_graphs == 2
    assert report.checks["gamma-le-lambda"].tested == 2


def test_every_check_has_description():
    for cid, check in CHECKS.items():
        assert check.id == cid
        assert check.description
