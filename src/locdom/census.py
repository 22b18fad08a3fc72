"""Corpus census: re-verify every claimed property on streams of graphs.

Each check has a stable id, a scope predicate selecting the graphs it
applies to, and an assertion. Failures are counterexample data (graph6
string plus the computed invariants), never exceptions; a census run is a
falsification instrument, so "found a counterexample" is a first-class,
machine-readable outcome.

Every check reads the invariants of a graph from one `_Inv` record, which
computes each of them at most once, on first use:

- the graph, its complement and whether it is connected;
- the optimum values lambda, lambda of the complement, lambda_g,
  lambda_g of the complement and gamma (values only; the census never
  needs a witness);
- the eccentricities, from which radius and diameter are read;
- the minimum LD-sets (lambda-codes), the non-global ones among them and
  whether a global one exists;
- the block-cactus hierarchy tags.

A check asks `_Inv` for these and never recomputes one itself, so a
census pass does one distance sweep, builds one complement and lists the
lambda-codes once per graph. Shape-based predictions (block-cactus
templates, iso-matching against named families) are what the checks
test, so they stay inside the checks. A check never derives the quantity
it asserts from the quantity it is checked against.

Graphs are streamed: each is parsed once, evaluated in this process or
sent in chunks to worker processes, and encoded as graph6 only when one
of its checks fails. Per-check counters merge by addition and
counterexample lists are sorted and truncated at the end, so reports are
identical at any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from .graph import Graph, complement, eccentricities, find_isomorphism, is_connected
from .solver import (
    _GAMMA,
    _GLOBAL,
    _LAMBDA,
    _dominating_vertex_unchecked,
    _problem,
    complement_relation_from,
    ld_codes,
    nonglobal_witness_conditions,
)
from .blockcactus import (
    classify_lambda2_blockcactus,
    hierarchy,
    predict_complement_plus_one,
    predict_lambda_g,
    validate_nonglobal_structure,
)
from .graph6 import Graph6ParseError, emit_graph6
from . import families


class _Inv:
    """Lazily computed invariants shared by all checks on one graph."""

    def __init__(self, g: Graph):
        self.g = g

    @cached_property
    def gc(self) -> Graph:
        """The complement of g."""
        return complement(self.g)

    @cached_property
    def lam(self) -> int:
        return _problem(self.g, _LAMBDA).value

    @cached_property
    def lam_c(self) -> int:
        return _problem(self.gc, _LAMBDA).value

    @cached_property
    def lam_g(self) -> int:
        return _problem(self.g, _GLOBAL).value

    @cached_property
    def lam_g_of_complement(self) -> int:
        return _problem(self.gc, _GLOBAL).value

    @cached_property
    def gamma(self) -> int:
        return _problem(self.g, _GAMMA).value

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.g)

    @cached_property
    def ecc(self) -> tuple:
        """Eccentricity of every vertex (math.inf throughout if disconnected)."""
        return eccentricities(self.g)

    @cached_property
    def hierarchy(self):
        return hierarchy(self.g)

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """Every minimum LD-set, in increasing mask order."""
        return tuple(ld_codes(self.g))

    @cached_property
    def nonglobal_codes(self) -> list[int]:
        """The minimum LD-sets that some outside vertex is adjacent to all of."""
        return [c for c in self.codes if _dominating_vertex_unchecked(self.g, c) is not None]

    @cached_property
    def has_global_code(self) -> bool:
        return len(self.nonglobal_codes) < len(self.codes)

    def is_one_of(self, templates: tuple[Graph, ...]) -> bool:
        """True iff g is isomorphic to one of templates."""
        return any(self.g.n == t.n and find_isomorphism(self.g, t) is not None
                   for t in templates)


@dataclass(frozen=True)
class CensusCheck:
    id: str
    description: str
    scope: Callable[[_Inv], bool]
    assertion: Callable[[_Inv], tuple[bool, str]]


def _always(inv: _Inv) -> bool:
    return True


def _ok() -> tuple[bool, str]:
    return True, ""


def _chk_complement_diff(inv: _Inv):
    if abs(inv.lam - inv.lam_c) <= 1:
        return _ok()
    return False, f"lambda={inv.lam} lambda_c={inv.lam_c}"


def _chk_bounds(inv: _Inv):
    lo = max(inv.lam, inv.lam_c)
    hi = min(inv.lam, inv.lam_c) + 1
    if lo <= inv.lam_g <= hi:
        return _ok()
    return False, f"lambda={inv.lam} lambda_c={inv.lam_c} lambda_g={inv.lam_g}"


def _chk_global_symmetric(inv: _Inv):
    if inv.lam_g == inv.lam_g_of_complement:
        return _ok()
    return False, f"lambda_g={inv.lam_g} lambda_g(complement)={inv.lam_g_of_complement}"


def _chk_plus_one_iff(inv: _Inv):
    if (inv.lam_g == inv.lam + 1) == (not inv.has_global_code):
        return _ok()
    return False, (
        f"lambda={inv.lam} lambda_g={inv.lam_g} has_global_code={inv.has_global_code}"
    )


def _scope_diam5(inv: _Inv) -> bool:
    return inv.connected and max(inv.ecc) >= 5


def _chk_diam5(inv: _Inv):
    if inv.lam_g == inv.lam:
        return _ok()
    return False, f"diam={max(inv.ecc)} lambda={inv.lam} lambda_g={inv.lam_g}"


def _scope_plus_one(inv: _Inv) -> bool:
    return inv.lam_c == inv.lam + 1


def _chk_plus_one_necessary(inv: _Inv):
    if not inv.connected:
        return False, "disconnected graph with lambda_c = lambda + 1"
    r, d = min(inv.ecc), max(inv.ecc)
    md = inv.g.max_degree()
    if r <= 2 and d <= 4 and md >= inv.lam:
        return _ok()
    return False, f"rad={r} diam={d} max_degree={md} lambda={inv.lam}"


def _chk_gamma(inv: _Inv):
    if inv.gamma <= inv.lam:
        return _ok()
    return False, f"gamma={inv.gamma} lambda={inv.lam}"


def _scope_lambda2(inv: _Inv) -> bool:
    return inv.lam == 2


def _chk_nothing(inv: _Inv):
    return _ok()


def _scope_bc2(inv: _Inv) -> bool:
    return inv.hierarchy.is_block_cactus and inv.g.n >= 2


def _chk_bc_plus_one(inv: _Inv):
    pred = predict_complement_plus_one(inv.g)
    exact = inv.lam_c == inv.lam + 1
    if pred == exact:
        return _ok()
    return False, f"predicted={pred} exact_plus_one={exact} lambda={inv.lam} lambda_c={inv.lam_c}"


def _scope_bc(inv: _Inv) -> bool:
    return inv.hierarchy.is_block_cactus


def _chk_bc_lambda_g(inv: _Inv):
    pred = predict_lambda_g(inv.g)
    if pred == inv.lam_g:
        return _ok()
    return False, f"predicted={pred} exact={inv.lam_g}"


def _scope_bc_lambda2(inv: _Inv) -> bool:
    return inv.hierarchy.is_block_cactus and inv.lam == 2


def _chk_bc_lambda2(inv: _Inv):
    if inv.lam_c < inv.lam:
        return False, f"lambda_c={inv.lam_c} < lambda={inv.lam}"
    if inv.lam_c > inv.lam + 1:
        return False, f"lambda_c={inv.lam_c} > lambda+1={inv.lam + 1}"
    try:
        cls = classify_lambda2_blockcactus(inv.g)
    except RuntimeError as exc:
        return False, str(exc)
    exact = complement_relation_from(inv.lam, inv.lam_c)
    if cls == exact:
        return _ok()
    return False, f"classified={cls.name} exact={exact.name}"


def _chk_bc_structure(inv: _Inv):
    for code in inv.nonglobal_codes:
        report = validate_nonglobal_structure(inv.g, code)
        if report.violations:
            return False, f"code={code} violations={list(report.violations)}"
    return _ok()


def _chk_nonglobal_conditions(inv: _Inv):
    for code in inv.nonglobal_codes:
        cond = nonglobal_witness_conditions(inv.g, code)
        if not cond.all_hold:
            return False, (
                f"code={code} ecc_u={cond.ecc_u} rad={cond.radius}"
                f" diam={cond.diameter} max_degree={cond.max_degree} size={cond.set_size}"
            )
    return _ok()


def _scope_tree(inv: _Inv) -> bool:
    return inv.hierarchy.is_tree


# The exceptions each tree and unicyclic check allows, built once.
_TREE_NONGLOBAL = (families.path(2), families.path(5))
_TREE_PLUS_ONE = (families.path(2),)
_UNICYCLIC_NONGLOBAL = (families.cycle(3), families.cycle(5), families.banner_complement(),
                        families.paw(), families.bull(), families.fig6d())
_UNICYCLIC_PLUS_ONE = (families.cycle(3), families.banner_complement(), families.paw())


def _chk_tree_global(inv: _Inv):
    if inv.is_one_of(_TREE_NONGLOBAL) or inv.lam_g == inv.lam:
        return _ok()
    return False, f"tree with lambda={inv.lam} lambda_g={inv.lam_g}"


def _chk_tree_complement(inv: _Inv):
    if inv.is_one_of(_TREE_PLUS_ONE) or inv.lam_c <= inv.lam:
        return _ok()
    return False, f"tree with lambda={inv.lam} lambda_c={inv.lam_c}"


def _scope_unicyclic(inv: _Inv) -> bool:
    return inv.hierarchy.is_unicyclic


def _chk_unicyclic_global(inv: _Inv):
    if inv.is_one_of(_UNICYCLIC_NONGLOBAL) or inv.lam_g == inv.lam:
        return _ok()
    return False, f"unicyclic with lambda={inv.lam} lambda_g={inv.lam_g}"


def _chk_unicyclic_complement(inv: _Inv):
    if inv.is_one_of(_UNICYCLIC_PLUS_ONE) or inv.lam_c <= inv.lam:
        return _ok()
    return False, f"unicyclic with lambda={inv.lam} lambda_c={inv.lam_c}"


CHECKS: dict[str, CensusCheck] = {
    c.id: c
    for c in [
        CensusCheck(
            "complement-diff-le-1",
            "|lambda - lambda(complement)| <= 1",
            _always, _chk_complement_diff,
        ),
        CensusCheck(
            "global-lambda-bounds",
            "max(lambda, lambda_c) <= lambda_g <= min(lambda, lambda_c) + 1",
            _always, _chk_bounds,
        ),
        CensusCheck(
            "global-lambda-complement-symmetric",
            "lambda_g(G) == lambda_g(complement)",
            _always, _chk_global_symmetric,
        ),
        CensusCheck(
            "global-plus-one-iff-no-global-code",
            "lambda_g == lambda + 1 exactly when no minimum LD-set is global",
            _always, _chk_plus_one_iff,
        ),
        CensusCheck(
            "diam-ge-5-forces-global",
            "diameter >= 5 forces lambda_g == lambda",
            _scope_diam5, _chk_diam5,
        ),
        CensusCheck(
            "plus-one-necessary-conditions",
            "lambda_c == lambda+1 forces connected, rad<=2, diam<=4, max degree >= lambda",
            _scope_plus_one, _chk_plus_one_necessary,
        ),
        CensusCheck(
            "gamma-le-lambda",
            "domination number never exceeds location-domination number",
            _always, _chk_gamma,
        ),
        CensusCheck(
            "count-lambda-2",
            "counter: graphs with lambda == 2 (reported via the tested count)",
            _scope_lambda2, _chk_nothing,
        ),
        CensusCheck(
            "nonglobal-witness-conditions",
            "every non-global minimum LD-set meets the ecc/rad/diam/degree conditions",
            _always, _chk_nonglobal_conditions,
        ),
        CensusCheck(
            "blockcactus-plus-one-prediction",
            "shape-based complement-plus-one prediction agrees with exact solve",
            _scope_bc2, _chk_bc_plus_one,
        ),
        CensusCheck(
            "blockcactus-global-lambda-prediction",
            "shape-based lambda_g prediction agrees with exact solve",
            _scope_bc, _chk_bc_lambda_g,
        ),
        CensusCheck(
            "blockcactus-lambda2-relation",
            "lambda=2 block-cactus: complement never cheaper; classifier agrees",
            _scope_bc_lambda2, _chk_bc_lambda2,
        ),
        CensusCheck(
            "blockcactus-nonglobal-structure",
            "structure around the dominated apex of every non-global minimum LD-set",
            _scope_bc, _chk_bc_structure,
        ),
        CensusCheck(
            "tree-global",
            "trees other than P2 and P5 have lambda_g == lambda",
            _scope_tree, _chk_tree_global,
        ),
        CensusCheck(
            "tree-complement",
            "trees other than P2 have lambda(complement) <= lambda",
            _scope_tree, _chk_tree_complement,
        ),
        CensusCheck(
            "unicyclic-global",
            "unicyclic exceptions to lambda_g == lambda are the five known graphs + corner-with-tail",
            _scope_unicyclic, _chk_unicyclic_global,
        ),
        CensusCheck(
            "unicyclic-complement",
            "unicyclic exceptions to lambda_c <= lambda are the three known graphs",
            _scope_unicyclic, _chk_unicyclic_complement,
        ),
    ]
}

DEFAULT_CHECKS = tuple(CHECKS)


@dataclass
class CheckOutcome:
    tested: int = 0
    passed: int = 0
    failed: int = 0
    counterexamples: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class CensusReport:
    checks: dict[str, CheckOutcome]
    total_graphs: int
    elapsed_seconds: float
    max_counterexamples: int
    aborted: Optional[str] = None

    @property
    def total_failures(self) -> int:
        return sum(c.failed for c in self.checks.values())

    def canonical_dict(self) -> dict:
        """Deterministic content (excludes timing), identical at any worker count."""
        return {
            "schema": 1,
            "total_graphs": self.total_graphs,
            "aborted": self.aborted,
            "checks": {
                cid: {
                    "tested": out.tested,
                    "passed": out.passed,
                    "failed": out.failed,
                    "counterexamples": [
                        {"graph6": g6, "detail": detail}
                        for g6, detail in out.counterexamples
                    ],
                }
                for cid, out in sorted(self.checks.items())
            },
        }


def evaluate_graph(g: Graph, check_ids: Iterable[str]) -> list[tuple[str, bool, str]]:
    """Run the selected checks on one graph: (check id, passed, fail detail)."""
    inv = _Inv(g)
    results = []
    for cid in check_ids:
        check = CHECKS[cid]
        if not check.scope(inv):
            continue
        ok, detail = check.assertion(inv)
        results.append((cid, ok, detail))
    return results


# Graphs per task sent to a worker process. On connected_le8 (12,113
# graphs) chunks of 32 to 256 ran --jobs 2 equally fast; 64 still splits
# graphs_le6 (156 graphs) among two workers and connected_le7 (853) into
# 14 tasks, which ran --jobs 2 about 15 % faster than 4 tasks of 256.
_CHUNK = 64


def _worker(args: tuple[list[Graph], tuple[str, ...]]):
    """Evaluate a chunk of graphs: (check id, None or (graph6, detail)) for
    every check in scope. A graph is encoded as graph6 only when it fails."""
    graphs, check_ids = args
    out = []
    for g in graphs:
        g6 = None
        for cid, ok, detail in evaluate_graph(g, check_ids):
            if ok:
                out.append((cid, None))
                continue
            if g6 is None:
                g6 = emit_graph6(g)
            out.append((cid, (g6, detail)))
    return out


def run_census(
    corpus: Iterable[Graph],
    checks: Optional[Iterable[str]] = None,
    jobs: int = 1,
    max_counterexamples: int = 10,
) -> CensusReport:
    """Evaluate the selected checks on every graph of the corpus.

    The corpus is read once, as a stream: at `jobs` 1 each graph is
    evaluated as it arrives, otherwise chunks of `_CHUNK` graphs go to
    `jobs` worker processes. A corpus that fails to read or parse part-way
    ends the run early: the report covers the graphs read so far and names
    the failure in `aborted`. The report is independent of
    the corpus order and of the worker count: counters add up and
    counterexamples are sorted by graph6 string before truncation to
    `max_counterexamples` per check.
    """
    if max_counterexamples < 0:
        raise ValueError(f"max_counterexamples must be >= 0, got {max_counterexamples}")
    check_ids = tuple(checks) if checks is not None else DEFAULT_CHECKS
    for cid in check_ids:
        if cid not in CHECKS:
            raise ValueError(f"unknown census check {cid!r}")
    t0 = time.time()
    read = 0
    aborted = None

    def graphs() -> Iterator[Graph]:
        nonlocal read, aborted
        try:
            for g in corpus:
                read += 1
                yield g
        except (OSError, Graph6ParseError) as exc:
            aborted = f"corpus read failed after {read} graphs: {exc}"

    outcomes = {cid: CheckOutcome() for cid in check_ids}

    def tally(results) -> None:
        for cid, failure in results:
            out = outcomes[cid]
            out.tested += 1
            if failure is None:
                out.passed += 1
            else:
                out.failed += 1
                out.counterexamples.append(failure)

    if jobs <= 1:
        for g in graphs():
            tally(_worker(([g], check_ids)))
    else:
        stream = graphs()

        def chunks():
            while chunk := list(islice(stream, _CHUNK)):
                yield chunk, check_ids

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for results in pool.map(_worker, chunks()):
                tally(results)

    for out in outcomes.values():
        out.counterexamples.sort()
        del out.counterexamples[max_counterexamples:]

    return CensusReport(
        checks=outcomes,
        total_graphs=read,
        elapsed_seconds=time.time() - t0,
        max_counterexamples=max_counterexamples,
        aborted=aborted,
    )
