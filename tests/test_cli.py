import json
from pathlib import Path

import pytest

from locdom.cli import cli_main

CORPORA = Path(__file__).resolve().parent.parent / "corpora"


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_family_spec(capsys):
    code, out, _ = run(capsys, "solve", "P:5")
    assert code == 0
    assert "lambda            = 2" in out
    assert "lambda_complement = 2" in out
    assert "lambda_global     = 3" in out


def test_solve_triangle_relation(capsys):
    code, out, _ = run(capsys, "solve", "C:3")
    assert code == 0
    assert "lambda            = 2" in out
    assert "lambda_complement = 3" in out
    assert "plus_one" in out


def test_solve_json_schema(capsys):
    code, out, _ = run(capsys, "solve", "P:5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["lambda"]["value"] == 2
    assert doc["lambda_global"]["value"] == 3
    assert doc["witness_globality"]["is_global"] is False


def test_solve_graph6_input(capsys):
    code, out, _ = run(capsys, "solve", "F^mI?", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"]["value"] == 3
    assert doc["lambda_complement"]["value"] == 4
    assert doc["complement_relation"] == "plus_one"


def test_classify_butterfly(capsys):
    code, out, _ = run(capsys, "family", "--spec", "butterfly", "--emit-g6")
    assert code == 0
    g6 = out.strip()
    code, out, _ = run(capsys, "classify", g6, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["hierarchy"]["block_cactus"] is True
    assert doc["plus_one_prediction"]["predicted"] is True
    assert doc["plus_one_prediction"]["template"] == "F8d:2,2"
    assert doc["plus_one_prediction"]["agrees"] is True
    assert doc["lambda_global_prediction"]["agrees"] is True


def test_classify_non_blockcactus(capsys):
    code, out, _ = run(capsys, "classify", "C^")  # diamond: has a theta block
    assert code == 0
    assert "not applicable" in out


def test_family_build_and_json(capsys):
    code, out, _ = run(capsys, "family", "--spec", "W:8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 8
    assert doc["edge_count"] == 14


def test_family_emit_g6_round_trip(capsys):
    code, out, _ = run(capsys, "family", "--spec", "K:4", "--emit-g6")
    assert code == 0
    code, out2, _ = run(capsys, "solve", out.strip())
    assert code == 0
    assert "lambda            = 3" in out2


def test_census_ok_exit_zero(capsys):
    code, out, _ = run(
        capsys, "census", "--input", str(CORPORA / "graphs_le5.g6"),
        "--checks", "complement-diff-le-1,gamma-le-lambda",
    )
    assert code == 0
    assert "failed=0" in out


def test_census_json(capsys):
    code, out, _ = run(
        capsys, "census", "--input", str(CORPORA / "graphs_le5.g6"),
        "--checks", "count-lambda-2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["checks"]["count-lambda-2"]["tested"] == 19


def test_census_missing_file(capsys):
    code, _, err = run(capsys, "census", "--input", "no/such/file.g6")
    assert code == 2
    assert "cannot read corpus" in err


def test_census_malformed_line_names_it(capsys, tmp_path):
    lines = (CORPORA / "graphs_le5.g6").read_text().splitlines()
    lines[16] = "D ?"  # a space is below the graph6 character range
    corpus = tmp_path / "bad.g6"
    corpus.write_text("\n".join(lines) + "\n")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "census", "--input", str(corpus), "--jobs", jobs)
        assert code == 2
        assert "line 17: character ' ' out of range 63..126 (byte 1)" in err
        # the graphs before the bad line are still reported
        assert out.startswith("census: 16 graphs, ")
        assert "aborted: corpus read failed after 16 graphs: line 17: " in out


def test_census_unknown_check(capsys):
    code, _, err = run(
        capsys, "census", "--input", str(CORPORA / "graphs_le5.g6"),
        "--checks", "bogus",
    )
    assert code == 2
    assert "bogus" in err


def test_census_failure_exit_one(capsys, monkeypatch):
    from locdom.census import CHECKS, CensusCheck

    fake = CensusCheck(
        "fake-always-fails", "test check", lambda inv: True, lambda inv: (False, "nope")
    )
    monkeypatch.setitem(CHECKS, fake.id, fake)
    code, out, _ = run(
        capsys, "census", "--input", str(CORPORA / "graphs_le5.g6"),
        "--checks", "fake-always-fails", "--max-counterexamples", "2",
    )
    assert code == 1
    assert "FAIL" in out and "counterexample" in out


def test_census_rejects_negative_max_counterexamples(capsys):
    code, out, err = run(
        capsys, "census", "--input", str(CORPORA / "graphs_le5.g6"),
        "--max-counterexamples", "-1",
    )
    assert code == 2
    assert out == ""
    assert "max_counterexamples" in err and "-1" in err


def test_tables_exit_zero(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "0 disagreement(s)" in out


def test_bad_inputs_exit_two(capsys):
    code, _, err = run(capsys, "solve", "P:notanumber")
    assert code == 2
    code, _, err = run(capsys, "solve", "~~~")
    assert code == 2
    code, _, _ = run(capsys, "nope")
    assert code == 2


def test_usage_error_exit_two(capsys):
    assert run(capsys, "census")[0] == 2  # missing --input
