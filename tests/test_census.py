import io
import json
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from types import SimpleNamespace

import pytest

import locdom.census as census
import locdom.graph as graph
from locdom import families as fam
from locdom.census import (
    CHECKS,
    DEFAULT_CHECKS,
    CensusCheck,
    evaluate_graph,
    run_census,
)
from locdom.graph6 import emit_graph6, iter_graph6, parse_graph6


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


def test_parallel_reports_identical(graphs_le5, monkeypatch):
    a = run_census(graphs_le5, jobs=1)
    b = run_census(graphs_le5, jobs=2)
    assert json.dumps(a.canonical_dict()) == json.dumps(b.canonical_dict())
    # failing graphs are encoded only on failure, in this process at jobs=1
    # and in the workers otherwise; small chunks keep several in flight.
    # Forked workers see the fake check registered below, whatever the
    # platform's default start method.
    monkeypatch.setattr(census, "ProcessPoolExecutor",
                        partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    fake = CensusCheck("fake-odd-order", "fails on odd orders",
                       lambda inv: True, lambda inv: (inv.g.n % 2 == 0, f"odd order {inv.g.n}"))
    monkeypatch.setitem(CHECKS, fake.id, fake)
    monkeypatch.setattr(census, "_CHUNK", 5)
    ids = [fake.id, "gamma-le-lambda"]
    a = run_census(reversed(graphs_le5), checks=ids, jobs=1)
    b = run_census(iter(graphs_le5), checks=ids, jobs=2)
    assert json.dumps(a.canonical_dict()) == json.dumps(b.canonical_dict())
    out = b.checks[fake.id]
    assert (out.tested, out.failed) == (52, 39)
    odd = sorted(emit_graph6(g) for g in graphs_le5 if g.n % 2)
    assert [g6 for g6, _ in out.counterexamples] == odd[:10]


def test_each_invariant_computed_once_per_graph(monkeypatch):
    g = fam.cycle(5)  # five minimum LD-sets, none of them global
    assert len(census._Inv(g).nonglobal_codes) >= 2
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(graph, "distance_matrix", counting("distance", graph.distance_matrix))
    monkeypatch.setattr(census, "complement", counting("complement", census.complement))
    monkeypatch.setattr(census, "emit_graph6", counting("emit", census.emit_graph6))
    graph.eccentricities.cache_clear()
    results = evaluate_graph(g, DEFAULT_CHECKS)
    tested = {cid for cid, _ok, _detail in results}
    assert {"nonglobal-witness-conditions", "blockcactus-nonglobal-structure",
            "blockcactus-lambda2-relation"} <= tested
    assert all(ok for _cid, ok, _detail in results)
    assert calls["distance"] <= 1
    assert calls["complement"] <= 1
    assert calls["emit"] == 0


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


def test_aborted_on_malformed_line(graphs_le5):
    lines = [emit_graph6(g) for g in graphs_le5[:3]] + ["D ?", emit_graph6(graphs_le5[3])]
    for jobs in (1, 2):
        report = run_census(iter_graph6(io.StringIO("\n".join(lines))),
                            checks=["gamma-le-lambda"], jobs=jobs)
        assert report.aborted == ("corpus read failed after 3 graphs: "
                                  "line 4: character ' ' out of range 63..126 (byte 1)")
        assert report.total_graphs == 3
        assert report.checks["gamma-le-lambda"].tested == 3


def test_lambda2_relation_reports_a_gap_of_two():
    # lambda_c >= lambda + 2 would refute the paper; it is a counterexample,
    # not an error
    inv = SimpleNamespace(g=fam.cycle(4), lam=2, lam_c=4)
    assert census._chk_bc_lambda2(inv) == (False, "lambda_c=4 > lambda+1=3")


def test_every_check_has_description():
    for cid, check in CHECKS.items():
        assert check.id == cid
        assert check.description
