"""Command-line surface: solve, classify, census, family, tables.

Exit codes: 0 success (and, for census/tables, every check passed),
1 a check failed (counterexample found or table disagreement),
2 usage or input errors. A census whose corpus fails to read or parse
part-way reports the graphs before the failure and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .blockcactus import (
    hierarchy,
    match_complement_families,
    match_nonglobal_families,
    predict_complement_plus_one,
    predict_lambda_g,
)
from .census import CHECKS, run_census
from .families import (
    FamilySpecError,
    SPEC_GRAMMAR,
    build,
    describe,
    parse_family_spec,
)
from .graph import Graph, complement, vset_members
from .graph6 import Graph6ParseError, emit_graph6, iter_graph6, parse_graph6
from .solver import (
    complement_relation,
    global_location_domination_number,
    globality,
    location_domination_number,
)
from .tables import render_rows, reproduce_tables


def _load_graph(text: str) -> tuple[Graph, str]:
    """Interpret text as a family spec when it matches the grammar, else graph6."""
    try:
        d = parse_family_spec(text)
    except FamilySpecError:
        if ":" in text:
            raise  # a colon can never appear in graph6, so report the spec error
        return parse_graph6(text), text
    return build(d), describe(d)


def _witness(mask: int) -> list[int]:
    return vset_members(mask)


def _cmd_solve(args) -> int:
    g, label = _load_graph(args.graph)
    lam = location_domination_number(g)
    lam_c = location_domination_number(complement(g))
    lam_g = global_location_domination_number(g)
    rep = globality(g, lam.witness)
    rel = complement_relation(g)
    payload = {
        "schema": 1,
        "input": label,
        "n": g.n,
        "edge_count": g.edge_count(),
        "lambda": {"value": lam.value, "witness": _witness(lam.witness)},
        "lambda_complement": {"value": lam_c.value, "witness": _witness(lam_c.witness)},
        "lambda_global": {"value": lam_g.value, "witness": _witness(lam_g.witness)},
        "witness_globality": {
            "is_global": rep.is_global,
            "dominating_vertex": rep.dominating_vertex,
        },
        "complement_relation": rel.name.lower(),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"input: {label}   n={g.n}  edges={g.edge_count()}")
        print(f"lambda            = {lam.value:<3} witness {_witness(lam.witness)}")
        print(f"lambda_complement = {lam_c.value:<3} witness {_witness(lam_c.witness)}")
        print(f"lambda_global     = {lam_g.value:<3} witness {_witness(lam_g.witness)}")
        if rep.is_global:
            print("lambda witness is global (works in the complement)")
        else:
            print(f"lambda witness is non-global (dominated by vertex {rep.dominating_vertex})")
        print(f"complement relation: {rel.name.lower()}")
    return 0


def _cmd_classify(args) -> int:
    g, label = _load_graph(args.graph)
    tags = hierarchy(g)
    lam = location_domination_number(g).value
    lam_c = location_domination_number(complement(g)).value
    lam_g = global_location_domination_number(g).value
    rel = complement_relation(g)

    payload: dict = {
        "schema": 1,
        "input": label,
        "n": g.n,
        "hierarchy": {
            "connected": tags.is_connected,
            "tree": tags.is_tree,
            "unicyclic": tags.is_unicyclic,
            "cactus": tags.is_cactus,
            "block_graph": tags.is_block_graph,
            "block_cactus": tags.is_block_cactus,
            "block_shapes": list(tags.block_shapes),
        },
        "exact": {"lambda": lam, "lambda_complement": lam_c, "lambda_global": lam_g,
                  "complement_relation": rel.name.lower()},
    }
    if tags.is_block_cactus and g.n >= 2:
        plus = match_complement_families(g)
        payload["plus_one_prediction"] = {
            "predicted": plus.matched,
            "template": describe(plus.descriptor) if plus.matched else None,
            "exact": lam_c == lam + 1,
            "agrees": plus.matched == (lam_c == lam + 1),
        }
        nonglobal_template = None
        if lam >= 3:
            m = match_nonglobal_families(g, lam)
            nonglobal_template = describe(m.descriptor) if m.matched else None
        pred_g = predict_lambda_g(g)
        payload["lambda_global_prediction"] = {
            "predicted": pred_g,
            "nonglobal_template": nonglobal_template,
            "exact": lam_g,
            "agrees": pred_g == lam_g,
        }
    else:
        payload["note"] = "not a block-cactus; characterization predicates not applicable"

    if args.format == "json":
        print(json.dumps(payload, indent=2))
        return 0
    print(f"input: {label}   n={g.n}")
    h = payload["hierarchy"]
    flags = [k for k in ("connected", "tree", "unicyclic", "cactus", "block_graph", "block_cactus") if h[k]]
    print("hierarchy:", ", ".join(flags) if flags else "none (disconnected)")
    print("block shapes:", ", ".join(h["block_shapes"]))
    print(f"exact: lambda={lam} lambda_complement={lam_c} lambda_global={lam_g} ({rel.name.lower()})")
    if "plus_one_prediction" in payload:
        p = payload["plus_one_prediction"]
        t = f" via {p['template']}" if p["template"] else ""
        print(f"plus-one prediction: {p['predicted']}{t}  exact: {p['exact']}  agrees: {p['agrees']}")
        q = payload["lambda_global_prediction"]
        t = f" via {q['nonglobal_template']}" if q["nonglobal_template"] else ""
        print(f"lambda_global prediction: {q['predicted']}{t}  exact: {q['exact']}  agrees: {q['agrees']}")
    else:
        print(payload["note"])
    return 0


def _cmd_census(args) -> int:
    if args.checks:
        ids = [c.strip() for c in args.checks.split(",") if c.strip()]
        for cid in ids:
            if cid not in CHECKS:
                print(f"error: unknown census check {cid!r}", file=sys.stderr)
                print("available:", ", ".join(sorted(CHECKS)), file=sys.stderr)
                return 2
    else:
        ids = None
    try:
        f = open(args.input)
    except OSError as exc:
        print(f"error: cannot read corpus: {exc}", file=sys.stderr)
        return 2
    with f:
        report = run_census(
            iter_graph6(f),
            checks=ids,
            jobs=args.jobs,
            max_counterexamples=args.max_counterexamples,
        )
    if args.format == "json":
        doc = report.canonical_dict()
        doc["elapsed_seconds"] = round(report.elapsed_seconds, 3)
        print(json.dumps(doc, indent=2))
    else:
        print(f"census: {report.total_graphs} graphs, {len(report.checks)} checks "
              f"({report.elapsed_seconds:.2f}s)")
        for cid, out in sorted(report.checks.items()):
            status = "ok " if out.failed == 0 else "FAIL"
            print(f"  [{status}] {cid}: tested={out.tested} passed={out.passed} failed={out.failed}")
            for g6, detail in out.counterexamples:
                print(f"         counterexample {g6}: {detail}")
        if report.aborted:
            print(f"  aborted: {report.aborted}")
    if report.aborted:
        print(f"error: {report.aborted}", file=sys.stderr)
        return 2
    return 1 if report.total_failures else 0


def _cmd_family(args) -> int:
    d = parse_family_spec(args.spec)
    g = build(d)
    if args.emit_g6:
        print(emit_graph6(g))
        return 0
    payload = {
        "schema": 1,
        "family": describe(d),
        "n": g.n,
        "edge_count": g.edge_count(),
        "edges": g.edges(),
        "graph6": emit_graph6(g),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"family: {describe(d)}   n={g.n}  edges={g.edge_count()}")
        print(f"graph6: {payload['graph6']}")
        print("edges:", " ".join(f"{u}-{v}" for u, v in g.edges()))
    return 0


def _cmd_tables(args) -> int:
    rows = reproduce_tables()
    disagreements = [r for r in rows if not r.agree]
    if args.format == "json":
        payload = {
            "schema": 1,
            "rows": [
                {
                    "family": r.label,
                    "n": r.order,
                    "formula": list(r.formula),
                    "exact": list(r.exact),
                    "exact_via_complement": list(r.exact_via_complement),
                    "agree": r.agree,
                }
                for r in rows
            ],
            "disagreements": len(disagreements),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(render_rows(rows))
    return 1 if disagreements else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locdom",
        description="Exact location-domination invariants on small graphs.",
        epilog="Family-spec grammar:\n" + SPEC_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="lambda, lambda of the complement, global lambda")
    p.add_argument("graph", help="graph6 string or family spec (e.g. 'P:5')")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("classify", help="hierarchy tags, template matches, predictions")
    p.add_argument("graph", help="graph6 string or family spec")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("census", help="run property checks over a graph6 corpus")
    p.add_argument("--input", required=True, help="graph6 file, one graph per line")
    p.add_argument("--checks", help="comma-separated check ids (default: all)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--max-counterexamples", type=int, default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("family", help="build a named family instance")
    p.add_argument("--spec", required=True, help="family spec, e.g. 'W:8' or 'F6e:t=2,r=2,2;tp=1'")
    p.add_argument("--emit-g6", action="store_true", help="print only the graph6 line")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("tables", help="reproduce the family value tables three ways")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_tables)

    return parser


def cli_main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (Graph6ParseError, FamilySpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
