"""The benchmark's own smoke test: python3 -m pytest perfbench

One tiny pass of every workload, traced and untraced. It checks the
result schema against BENCHMARK.json and the correctness gate, and
nothing about timings.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_passes_schema_and_gate():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0


def test_fails_without_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").rglob("*"):
        if f.is_file() and "__pycache__" not in f.parts:
            dest = tmp_path / f.relative_to(ROOT)
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes(f.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
