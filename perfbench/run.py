"""locdom benchmark: end-to-end and per-layer timings of the three commands
a user runs (census, solve, classify), each answer checked for correctness.

    python3 perfbench/run.py --workload solve-mixed --seed 3 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports locdom from ./src.
Each workload is a closed loop with one client that calls
locdom.cli.cli_main(argv) in this process with its output captured, and
sends the next command when the last one has returned. A run repeats
whole passes over the workload's inputs, each freshly relabelled (see
inputs.py), until it has made three passes and spent --seconds of
command time.

--trace 0 prints the end-to-end metrics. --trace 1 runs one pass
untraced, then the same pass with every public locdom function wrapped
(see spans.py), and prints the per-layer metrics; end-to-end numbers
never come from a patched pass. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. A record of the run
(machine, inputs, sample statistics, failures) and the spans of a traced
pass go to .bench_out/ in the checkout.

--smoke runs a tiny pass of every workload in both modes and checks the
output against BENCHMARK.json; it asserts nothing about timings.

Exit status: 0 with a result line; 2 without one, when the checkout has
no program to run or the benchmark itself fails.
"""

import time

T0 = time.perf_counter()  # a setup probe's set-up time counts from here, before other imports

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED = HERE / "expected"
SETUP_PROBES = 3
MIN_PASSES = 2
DEFAULT_SEED = 1


class SetupError(Exception):
    """The checkout cannot run this benchmark."""


def load_locdom():
    """Import locdom from the checkout's src/, never from elsewhere."""
    if not (SRC / "locdom" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'locdom'}")
    sys.path.insert(0, str(SRC))
    import locdom
    import locdom.cli  # the entry point every command goes through

    if Path(locdom.__file__).resolve().parent != SRC / "locdom":
        raise SetupError(f"imported locdom from {locdom.__file__}, not from {SRC}")
    return locdom


@dataclass
class Command:
    argv: list
    ops: int
    item: object = None
    adj: tuple = ()


# ---------------------------------------------------------------------------
# workloads


class CensusWorkload:
    """census over a committed corpus; an operation is one graph checked.

    The timed passes use --jobs 1: on a 2-core VM shared with other tenants
    a --jobs 2 pass took 9.4-11.3 s where --jobs 1 took 18.0-18.9 s, and
    ten --jobs 2 runs spread by a third. The traced run times --jobs
    PARALLEL_JOBS once for census.parallel_efficiency."""

    name = "census-le8"
    PARALLEL_JOBS = 2

    def __init__(self, smoke: bool = False):
        self.smoke = smoke
        self.corpus = "corpora/graphs_le5.g6" if smoke else "corpora/connected_le8.g6"
        self.expected_file = "census_le5.json" if smoke else "census_le8.json"

    def setup(self, locdom, seed):
        path = ROOT / self.corpus
        if not path.is_file():
            raise SetupError(f"corpus {self.corpus} is missing")
        self.lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        self.expected = json.loads((EXPECTED / self.expected_file).read_text())
        if self.expected["total_graphs"] != len(self.lines):
            raise SetupError(f"{self.corpus} no longer holds the stored report's graphs")

    def commands(self, seed, pass_index, jobs=1):
        argv = ["census", "--input", str(ROOT / self.corpus), "--jobs",
                str(jobs), "--format", "json"]
        return [Command(argv, len(self.lines))]

    def check(self, cmd, rc, out):
        if rc != 0:
            return [f"exit status {rc}"]
        doc = json.loads(out)
        doc.pop("elapsed_seconds", None)
        if doc != self.expected:
            return ["canonical report differs from the stored report"]
        return []


def stored_answers(name, population):
    answers = json.loads((EXPECTED / name).read_text())
    missing = [it.key for it in population if it.key not in answers]
    if missing:
        raise SetupError(f"{name} has no stored answer for {missing[:3]}")
    return answers


def _witness_problems(adj, payload):
    comp = inputs.complement(adj)
    problems = []
    for key, graphs in (("lambda", (adj,)), ("lambda_complement", (comp,)),
                        ("lambda_global", (adj, comp))):
        value, witness = payload[key]["value"], payload[key]["witness"]
        s = sum(1 << v for v in witness)
        if (len(set(witness)) != value or not all(0 <= v < len(adj) for v in witness)
                or not all(oracle.is_ld(g, s) for g in graphs)):
            problems.append(f"{key} witness {witness} does not certify {value}")
    return problems


class SolveWorkload:
    """solve on connected G(n,p) draws and table-family specs."""

    name = "solve-mixed"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def setup(self, locdom, seed):
        self.populate(locdom)
        self.expected = stored_answers("solve_mixed.json", self.population)

    def populate(self, locdom):
        from locdom.families import build, formula, parse_family_spec

        self.population = inputs.solve_population(
            lambda spec: build(parse_family_spec(spec)).adj)
        if self.smoke:
            self.population = self.population[:2] + self.population[-1:]
        self.formula = {}
        for it in self.population:
            if it.spec:
                f = formula(parse_family_spec(it.spec))
                self.formula[it.key] = [f.lam, f.lam_complement, f.lam_global]

    def commands(self, seed, pass_index):
        return [Command(["solve", arg, "--format", "json"], 1, it, adj)
                for it, arg, adj in inputs.arrange(self.population, seed, pass_index)]

    def check(self, cmd, rc, out):
        if rc != 0:
            return [f"exit status {rc}"]
        p = json.loads(out)
        lam, lam_c, lam_g = (p[k]["value"] for k in ("lambda", "lambda_complement", "lambda_global"))
        problems = _witness_problems(cmd.adj, p)
        if p["n"] != len(cmd.adj):
            problems.append(f"n = {p['n']}")
        if abs(lam - lam_c) > 1 or lam_g < max(lam, lam_c):
            problems.append(f"values {lam}, {lam_c}, {lam_g} break the paper's bounds")
        relation = {-1: "minus_one", 0: "equal", 1: "plus_one"}.get(lam_c - lam)
        if p["complement_relation"] != relation:
            problems.append(f"complement_relation {p['complement_relation']}")
        s = sum(1 << v for v in p["lambda"]["witness"])
        if p["witness_globality"]["is_global"] != oracle.is_ld(inputs.complement(cmd.adj), s):
            problems.append("witness_globality is wrong")
        got = [lam, lam_c, lam_g]
        if cmd.item.key in self.formula and got != self.formula[cmd.item.key]:
            problems.append(f"{got} differs from formula() {self.formula[cmd.item.key]}")
        want = self.expected[cmd.item.key]["values"]
        if got != want:
            problems.append(f"{got} differs from the stored {want}")
        return problems


class ClassifyWorkload:
    """classify on random block-cacti and on the paper's templates."""

    name = "classify-cactus"

    def __init__(self, smoke: bool = False):
        self.smoke = smoke

    def setup(self, locdom, seed):
        self.populate(locdom)
        self.expected = stored_answers("classify_cactus.json", self.population)

    def populate(self, locdom):
        from locdom.blockcactus import hierarchy
        from locdom.graph6 import parse_graph6

        self.population = inputs.cactus_population()
        if self.smoke:
            self.population = self.population[:2] + self.population[-1:]
        for it in self.population:
            if not hierarchy(parse_graph6(inputs.to_graph6(it.adj))).is_block_cactus:
                raise SetupError(f"{it.key} is not a block-cactus")

    def commands(self, seed, pass_index):
        return [Command(["classify", arg, "--format", "json"], 1, it, adj)
                for it, arg, adj in inputs.arrange(self.population, seed, pass_index)]

    def check(self, cmd, rc, out):
        if rc != 0:
            return [f"exit status {rc}"]
        got = classify_answer(json.loads(out))
        problems = []
        if not got["block_cactus"]:
            problems.append("not recognised as a block-cactus")
        if not (got["plus_one_agrees"] and got["lambda_global_agrees"]):
            problems.append("a prediction disagrees with the exact values")
        want = self.expected[cmd.item.key]
        for k in want:
            if k in got and got[k] != want[k] and not k.endswith("_template"):
                problems.append(f"{k} = {got[k]}, stored {want[k]}")
        return problems


def classify_answer(p):
    """The parts of a classify answer that do not depend on vertex labels."""
    plus = p.get("plus_one_prediction", {})
    glob = p.get("lambda_global_prediction", {})
    return {
        "block_cactus": p["hierarchy"]["block_cactus"],
        "values": [p["exact"]["lambda"], p["exact"]["lambda_complement"],
                   p["exact"]["lambda_global"]],
        "complement_relation": p["exact"]["complement_relation"],
        "plus_one_predicted": plus.get("predicted"),
        "plus_one_template": plus.get("template"),
        "plus_one_agrees": plus.get("agrees"),
        "lambda_global_predicted": glob.get("predicted"),
        "nonglobal_template": glob.get("nonglobal_template"),
        "lambda_global_agrees": glob.get("agrees"),
    }


WORKLOADS = {w.name: w for w in (CensusWorkload, SolveWorkload, ClassifyWorkload)}


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    keys: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def busy(self):
        return sum(self.latencies)


def run_pass(locdom, wl, cmds, keep_outputs=False):
    """Send the commands one after another; time each and check its answer.
    A failing command is counted and recorded, never fatal."""
    res = PassResult()
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        rc, crash = None, None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = locdom.cli.cli_main(cmd.argv)
        except Exception:
            crash = traceback.format_exc()
        res.latencies.append(time.perf_counter() - t)
        res.keys.append(cmd.item.key if cmd.item else " ".join(cmd.argv))
        res.attempted += cmd.ops
        try:
            problems = [crash] if crash else wl.check(cmd, rc, out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable answer: {exc!r}"]
        if problems:
            res.failed += cmd.ops
            res.failures.append({"argv": cmd.argv, "problems": problems,
                                 "stderr": err.getvalue()[-2000:]})
        else:
            res.ops += cmd.ops
        if keep_outputs:
            res.outputs.append(out.getvalue())
    return res


def stats(samples):
    """Sample count, median and quartiles, as the acceptance rules use them."""
    s = sorted(samples)
    if not s:
        return {"n": 0}
    q = statistics.quantiles(s, n=4, method="inclusive") if len(s) > 1 else [s[0]] * 3
    return {"n": len(s), "median": statistics.median(s), "q1": q[0], "q3": q[2]}


def percentile(samples, pct):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mb():
    """Peak resident memory of this process and of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def machine():
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": os.getloadavg(), "commit": commit}


def digest(cmds):
    return hashlib.sha256("\n".join(" ".join(c.argv) for c in cmds).encode()).hexdigest()


def setup_probe(workload, seed, smoke):
    """In a fresh interpreter: import locdom and make the first pass's inputs."""
    locdom = load_locdom()
    wl = WORKLOADS[workload](smoke=smoke)
    wl.setup(locdom, seed)
    cmds = wl.commands(seed, 0)
    print(json.dumps({"setup_s": time.perf_counter() - T0, "digest": digest(cmds)}))


def measure_setup(wl, seed, want_digest):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", wl.name, "--seed", str(seed)] + ["--smoke"] * wl.smoke,
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if probe["digest"] != want_digest:
            raise SetupError("the same seed gave different inputs in a fresh interpreter")
        samples.append(probe["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# runs


def warm_up(locdom):
    """Pay one-off lazy imports before timing."""
    with contextlib.redirect_stdout(io.StringIO()):
        locdom.cli.cli_main(["classify", "P:4", "--format", "json"])


def timed_run(locdom, wl, seed, seconds, record):
    """At least MIN_PASSES whole passes and --seconds of command time.

    Other tenants of the machine slow it by up to a fifth for seconds at a
    time, so a run spans several passes: the rate and the percentiles are
    over every command of every pass, and setup_s is the median of
    SETUP_PROBES fresh interpreters before each pass."""
    want = digest(wl.commands(seed, 0))
    warm_up(locdom)
    setup, passes = [], []
    while len(passes) < MIN_PASSES or sum(p.busy for p in passes) < seconds:
        setup += measure_setup(wl, seed, want)
        cmds = wl.commands(seed, len(passes))
        record["inputs"].append([c.argv[1:-2] for c in cmds])
        passes.append(run_pass(locdom, wl, cmds))
    lat = [t for p in passes for t in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    own, child = peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": sum(p.ops for p in passes) / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_p90_ms": percentile(lat, 90) * 1000,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(own, child),
    }
    samples = {
        "setup_s": setup,
        "pass_ops_per_s": [p.ops / p.busy for p in passes],
        "latency_ms": [t * 1000 for t in lat],
        "pass_ok_frac": [(p.attempted - p.failed) / p.attempted for p in passes],
    }
    record["samples"] = {k: stats(v) for k, v in samples.items()}
    record["peak_rss_mb"] = {"harness": own, "largest_child": child}
    per_input = {}
    for p in passes:
        for key, t in zip(p.keys, p.latencies):
            per_input.setdefault(key, []).append(t * 1000)
    record["input_latency_ms"] = per_input
    record["failures"] = [f for p in passes for f in p.failures][:50]
    return metrics, attempted, failed


def traced_run(locdom, wl, seed, record):
    """One untraced pass, then the same commands traced (spans inside
    census worker processes would not be collected, so the census is
    traced at --jobs 1), then for the census one untraced --jobs 2 pass."""
    from spans import Tracer

    warm_up(locdom)
    census = isinstance(wl, CensusWorkload)
    cmds = wl.commands(seed, 0)
    record["inputs"].append([c.argv[1:-2] for c in cmds])
    untraced = run_pass(locdom, wl, cmds)
    passes = [untraced]
    tracer = Tracer()
    tracer.patch()
    try:
        traced = run_pass(locdom, wl, cmds, keep_outputs=census)
    finally:
        tracer.unpatch()
    passes.append(traced)
    graphs = len(wl.lines) if census else len(cmds)
    m = tracer.metrics(traced.busy, graphs)
    m["trace.overhead_frac"] = (traced.busy - untraced.busy) / untraced.busy
    m["census.serial_s"] = m["census.parallel_efficiency"] = 0.0
    if census:
        parallel = run_pass(locdom, wl, wl.commands(seed, 0, jobs=wl.PARALLEL_JOBS))
        passes.append(parallel)
        m["census.serial_s"] = untraced.busy
        m["census.parallel_efficiency"] = untraced.busy / (wl.PARALLEL_JOBS * parallel.busy)
        for cid, out in json.loads(traced.outputs[0])["checks"].items():
            if m[f"census.check.{cid}.tested"] != out["tested"]:
                raise SetupError(f"the tracer counted {cid} differently from the census")
    if not wl.smoke:
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}-seed{seed}.tsv.gz")
    record["spans"] = len(tracer.start)
    record["pass_seconds"] = {"untraced": untraced.busy, "traced": traced.busy}
    record["failures"] = [f for p in passes for f in p.failures][:50]
    return m, sum(p.attempted for p in passes), sum(p.failed for p in passes)


def run(workload, seed, seconds, trace, smoke=False):
    locdom = load_locdom()
    wl = WORKLOADS[workload](smoke=smoke)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine(), "inputs": []}
    wl.setup(locdom, seed)
    if trace:
        values, attempted, failed = traced_run(locdom, wl, seed, record)
    else:
        values, attempted, failed = timed_run(locdom, wl, seed, seconds, record)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    if {m["name"] for m in listed} != set(values):
        raise SetupError(f"measured metrics differ from BENCHMARK.json: "
                         f"{sorted({m['name'] for m in listed} ^ set(values))}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    if not smoke:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def smoke():
    """Tiny passes of every workload in both modes; run() checks the metric
    names against BENCHMARK.json."""
    attempted = 0
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        for trace in (0, 1):
            result = run(w["name"], DEFAULT_SEED, 0, trace, smoke=True)
            if not result["correct"] or result["attempted"] < 1:
                raise SetupError(f"{w['name']} trace {trace} failed its correctness gate")
            attempted += result["attempted"]
    return {"correct": True, "attempted": attempted, "failed": 0, "metrics": {}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.smoke and not args.workload:
        ap.error("--workload is required")
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, args.smoke)
            return 0
        result = smoke() if args.smoke else run(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, OSError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
