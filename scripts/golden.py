#!/usr/bin/env python3
"""Write every output that must stay byte-identical across a refactor.

    python3 scripts/golden.py OUTDIR

It imports locdom from the src/ of the checkout it sits in and writes, one
file each:

  * census_<corpus>_jobs<J>.json: the census `canonical_dict()` of every
    corpus under corpora/, at --jobs 1 and --jobs 2;
  * tables.txt and tables.json: `locdom tables` in both formats;
  * solve_<spec>.json and classify_<spec>.json: `locdom solve` and
    `locdom classify --format json` for the benchmark's family specs and
    one spec per paper template;
  * exit_codes.txt: the exit status of every command above.

To check a change, run it in a checkout of the change and in a checkout of
its parent (copy this file there if the parent predates it), then compare
the two directories with `diff -r`.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from locdom.census import run_census  # noqa: E402
from locdom.cli import cli_main  # noqa: E402
from locdom.graph6 import iter_graph6  # noqa: E402

# The family specs of the benchmark's solve-mixed workload.
BENCHMARK_SPECS = (
    "P:13", "P:17", "C:14", "C:16", "W:14", "W:18", "K:13", "K:15",
    "S:13", "S:15", "Kb:6,7", "Kb:7,8", "B2:5,6", "B2:6,6",
)
# One instance of each template the paper names.
TEMPLATE_SPECS = (
    "paw", "bull", "banner", "bannerc", "butterfly", "corner", "F6d", "K4p3",
    "K4p2t", "F8a:4", "F8b:3", "F8c:5", "F8d:2,3", "F6e:t=2,r=2,3;tp=1;d=1",
)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    codes = []

    for corpus in sorted((ROOT / "corpora").glob("*.g6")):
        for jobs in (1, 2):
            with open(corpus) as f:
                doc = run_census(iter_graph6(f), jobs=jobs).canonical_dict()
            name = f"census_{corpus.stem}_jobs{jobs}.json"
            (outdir / name).write_text(json.dumps(doc, indent=2) + "\n")

    commands = {"tables.txt": ["tables"], "tables.json": ["tables", "--format", "json"]}
    for spec in BENCHMARK_SPECS + TEMPLATE_SPECS:
        stem = re.sub(r"[^A-Za-z0-9]+", "_", spec)
        for cmd in ("solve", "classify"):
            commands[f"{cmd}_{stem}.json"] = [cmd, spec, "--format", "json"]
    for name, cmd in commands.items():
        rc, out = _cli(cmd)
        (outdir / name).write_text(out)
        codes.append(f"{rc} {' '.join(cmd)}")

    (outdir / "exit_codes.txt").write_text("\n".join(codes) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
