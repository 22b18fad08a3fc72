"""Regenerate the stored answers in perfbench/expected/.

    python3 perfbench/make_expected.py

Runs the program once on every population member and on the census
corpora, and stores what it answered. Every lambda, lambda of the
complement and global lambda of a graph with n <= BRUTE_FORCE_MAX_N is
re-derived by exhaustive search (oracle.py) and must agree, or nothing is
written. Answers depend only on the isomorphism class, so they hold for
every seed. Run it only at a commit whose answers are trusted.
"""

import contextlib
import io
import json
import sys

import oracle
import run

BRUTE_FORCE_MAX_N = 16


def answer(locdom, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = locdom.cli.cli_main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return json.loads(out.getvalue())


def checked(key, adj, values):
    if len(adj) <= BRUTE_FORCE_MAX_N:
        exact = list(oracle.brute_force_triple(adj))
        if exact != values:
            raise SystemExit(f"{key}: program says {values}, exhaustive search {exact}")
    return {"n": len(adj), "values": values, "brute_force": len(adj) <= BRUTE_FORCE_MAX_N}


def main():
    locdom = run.load_locdom()
    out = run.EXPECTED
    for corpus, name in (("graphs_le5.g6", "census_le5.json"),
                         ("connected_le8.g6", "census_le8.json")):
        doc = answer(locdom, ["census", "--input", str(run.ROOT / "corpora" / corpus),
                              "--jobs", "2", "--format", "json"])
        doc.pop("elapsed_seconds")
        (out / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(name, doc["total_graphs"], "graphs", file=sys.stderr)

    wl = run.SolveWorkload()
    wl.populate(locdom)
    solve = {}
    for cmd in wl.commands(run.DEFAULT_SEED, 0):
        p = answer(locdom, cmd.argv)
        values = [p[k]["value"] for k in ("lambda", "lambda_complement", "lambda_global")]
        solve[cmd.item.key] = checked(cmd.item.key, cmd.adj, values)
    (out / "solve_mixed.json").write_text(json.dumps(solve, indent=1, sort_keys=True) + "\n")
    print("solve_mixed.json", len(solve), "answers", file=sys.stderr)

    wl = run.ClassifyWorkload()
    wl.populate(locdom)
    classify = {}
    for cmd in wl.commands(run.DEFAULT_SEED, 0):
        got = run.classify_answer(answer(locdom, cmd.argv))
        classify[cmd.item.key] = {**got, **checked(cmd.item.key, cmd.adj, got["values"])}
    (out / "classify_cactus.json").write_text(json.dumps(classify, indent=1, sort_keys=True) + "\n")
    print("classify_cactus.json", len(classify), "answers", file=sys.stderr)


if __name__ == "__main__":
    main()
