"""Span recorder for the traced pass.

Tracer.patch() wraps the public functions of each locdom module in every
module namespace that holds them (callers look names up in their own
module, e.g. locdom.census.ld_codes), and wraps the scope and assertion of
every census check. Each call then records a span: name, start, end and
parent span. Generators such as ld_codes are timed across their next()
calls, so consumers that stop early behave as before. Tracer.unpatch()
puts every original back and checks that every name in every locdom
module is bound to what it was before patch().

Spans stay in memory in flat arrays; per-layer metrics are derived from
them after the pass, and write() stores them.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
import time
from array import array
from collections import defaultdict

# Public functions wrapped per module. Helpers called once per candidate
# subset inside the solver loops (iter_bits, k_subsets, is_dominating, ...)
# are left alone: a span each would swamp what is measured.
WRAPPED = {
    "graph6": ("parse_graph6", "emit_graph6"),
    "graph": ("complement", "radius", "diameter", "eccentricity", "distance_matrix",
              "blocks", "find_isomorphism", "is_isomorphic"),
    "solver": ("location_domination_number", "global_location_domination_number",
               "domination_number", "ld_codes", "complement_relation",
               "has_global_ld_code", "globality", "dominating_vertex", "is_ld_set",
               "is_global_ld_set", "nonglobal_witness_conditions"),
    "families": ("build",),
    "blockcactus": ("hierarchy", "match_nonglobal_families", "match_complement_families",
                    "predict_complement_plus_one", "predict_lambda_g",
                    "validate_nonglobal_structure", "classify_lambda2_blockcactus"),
    "census": ("evaluate_graph", "run_census"),
    "cli": ("cli_main",),
}
GENERATORS = {"solver.ld_codes"}
# radius and diameter call eccentricity once per vertex; those calls stay
# inside the distance group, so only calls from other modules are wrapped.
OUTSIDE_CALLERS_ONLY = {"graph.eccentricity"}
SOLVES = {"solver.location_domination_number", "solver.global_location_domination_number",
          "solver.domination_number"}

# Spans whose names share a group are counted together; a span nested in
# another span of its own group is not counted again.
GROUPS = {
    "graph6.parse_graph6": "graph6.parse",
    "graph6.emit_graph6": "graph6.emit",
    "graph.radius": "graph.distance",
    "graph.diameter": "graph.distance",
    "graph.eccentricity": "graph.distance",
    "graph.distance_matrix": "graph.distance",
    "graph.complement": "graph.complement",
    "graph.blocks": "graph.blocks",
    "graph.find_isomorphism": "graph.iso",
    "graph.is_isomorphic": "graph.iso",
    "solver.location_domination_number": "solver.lambda",
    "solver.global_location_domination_number": "solver.lambda_g",
    "solver.domination_number": "solver.gamma",
    "blockcactus.match_nonglobal_families": "blockcactus.match",
    "blockcactus.match_complement_families": "blockcactus.match",
    "blockcactus.predict_complement_plus_one": "blockcactus.predict",
    "blockcactus.predict_lambda_g": "blockcactus.predict",
    "blockcactus.validate_nonglobal_structure": "blockcactus.validate",
    "blockcactus.classify_lambda2_blockcactus": "blockcactus.classify_lambda2",
}
COUNTED = ("graph6.parse", "graph6.emit", "graph.distance", "graph.complement",
           "graph.blocks", "graph.iso", "solver.lambda", "solver.lambda_g", "solver.gamma",
           "solver.ld_codes", "solver.complement_relation", "families.build",
           "blockcactus.hierarchy", "blockcactus.match")
TIMED_ONLY = ("blockcactus.predict", "blockcactus.validate", "blockcactus.classify_lambda2")
LAYERS = ("graph6", "graph", "solver", "families", "blockcactus", "census", "cli")


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "locdom" or name.startswith("locdom.")) and m is not None]


class Tracer:
    """Spans of one traced pass, in flat arrays indexed by span: name id,
    parent span (-1 at the top), whether it is the outermost span of its
    group, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.group_of: list[int] = []
        self.groups: list[str] = []
        self._group_ids: dict[str, int] = {}
        self._active: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.created: dict[str, int] = defaultdict(int)
        self.solve_calls = 0
        self.solve_keys: set = set()
        self.tested: dict[str, int] = defaultdict(int)
        self.iso_hits: set[int] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            group = GROUPS.get(name, name)
            if group not in self._group_ids:
                self._group_ids[group] = len(self.groups)
                self.groups.append(group)
                self._active.append(0)
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.group_of.append(self._group_ids[group])
        return self._ids[name]

    def _open(self, nid: int) -> int:
        gid = self.group_of[nid]
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._active[gid] == 0)
        self._active[gid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.group_of[nid]] -= 1

    def wrap(self, name: str, fn, on_call=None):
        nid = self._name_id(name)
        is_iso = name == "graph.find_isomorphism"

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, nid)
            if is_iso and result is not None:
                self.iso_hits.add(idx)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        nid = self._name_id(name)

        def steps(it):
            while True:
                idx = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx, nid)
                yield item

        def traced(*args, **kwargs):
            self.created[name] += 1
            return steps(fn(*args, **kwargs))

        return traced

    def _count_solve(self, name):
        def on_call(args):
            g = args[0]
            self.solve_calls += 1
            self.solve_keys.add((name, g.n, g.adj))
        return on_call

    def _count_tested(self, cid):
        def on_call(args):
            self.tested[cid] += 1
        return on_call

    # -- patching ---------------------------------------------------------

    def patch(self) -> None:
        modules = _modules()
        self._snapshot = [(m, dict(vars(m))) for m in modules]
        wrappers = {}
        for short, fnames in WRAPPED.items():
            mod = sys.modules[f"locdom.{short}"]
            for fname in fnames:
                orig = getattr(mod, fname)
                name = f"{short}.{fname}"
                if name in GENERATORS:
                    wrapped = self.wrap_generator(name, orig)
                else:
                    wrapped = self.wrap(name, orig,
                                        self._count_solve(name) if name in SOLVES else None)
                wrappers[id(orig)] = (orig, wrapped, mod if name in OUTSIDE_CALLERS_ONLY else None)
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value and hit[2] is not m:
                    setattr(m, attr, hit[1])
        checks = sys.modules["locdom.census"].CHECKS
        self._checks = dict(checks)
        for cid, check in self._checks.items():
            checks[cid] = dataclasses.replace(
                check,
                scope=self.wrap(f"census.check.{cid}", check.scope),
                assertion=self.wrap(f"census.check.{cid}", check.assertion,
                                    self._count_tested(cid)),
            )

    def unpatch(self) -> None:
        """Restore every original and check nothing else changed."""
        for m, saved in self._snapshot:
            for attr, value in saved.items():
                if vars(m).get(attr) is not value:
                    setattr(m, attr, value)
        checks = sys.modules["locdom.census"].CHECKS
        checks.clear()
        checks.update(self._checks)
        for m, saved in self._snapshot:
            if any(vars(m).get(a) is not v for a, v in saved.items()):
                raise RuntimeError(f"tracing left {m.__name__} patched")
        if any(checks[c] is not v for c, v in self._checks.items()):
            raise RuntimeError("tracing left census checks patched")

    # -- results ----------------------------------------------------------

    def metrics(self, op_seconds: float, graphs: int) -> dict[str, float]:
        """Per-layer metrics; op_seconds is the traced wall time of the
        pass's commands and graphs the number of input graphs."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        n_names = len(self.names)
        calls = [0] * n_names
        seconds = [0.0] * n_names
        own = [0.0] * n_names
        for i in range(count):
            nid = self.name[i]
            own[nid] += dur[i] - child[i]
            if self.outer[i]:
                calls[nid] += 1
                seconds[nid] += dur[i]

        by_group_calls: dict[str, int] = defaultdict(int)
        by_group_s: dict[str, float] = defaultdict(float)
        by_layer: dict[str, float] = defaultdict(float)
        for nid, name in enumerate(self.names):
            group = self.groups[self.group_of[nid]]
            by_group_calls[group] += calls[nid]
            by_group_s[group] += seconds[nid]
            by_layer[name.split(".")[0]] += own[nid]
        for name, n in self.created.items():
            by_group_calls[GROUPS.get(name, name)] = n

        out: dict[str, float] = {}
        for group in COUNTED:
            out[f"{group}_calls"] = by_group_calls[group]
            out[f"{group}_s"] = by_group_s[group]
        for group in TIMED_ONLY:
            out[f"{group}_s"] = by_group_s[group]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = by_layer[layer]
        out["solver.self_share"] = by_layer["solver"] / op_seconds if op_seconds else 0.0
        out["solver.solves_per_graph"] = self.solve_calls / graphs if graphs else 0.0
        out["solver.distinct_solve_ratio"] = (
            len(self.solve_keys) / self.solve_calls if self.solve_calls else 0.0)

        match_ids = {self._ids[n] for n in ("blockcactus.match_nonglobal_families",
                                            "blockcactus.match_complement_families")
                     if n in self._ids}
        build_id = self._ids.get("families.build")
        iso_id = self._ids.get("graph.find_isomorphism")
        built = tried = hits = 0
        for i in range(count):
            nid = self.name[i]
            if nid != build_id and nid != iso_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] not in match_ids:
                p = self.parent[p]
            if p < 0:
                continue
            if nid == build_id:
                built += 1
            else:
                tried += 1
                hits += i in self.iso_hits
        out["blockcactus.templates_built"] = built
        out["blockcactus.iso_attempts"] = tried
        out["blockcactus.match_hits"] = hits
        out["blockcactus.hit_ratio"] = hits / built if built else 0.0

        out["census.dispatch_s"] = by_group_s["census.run_census"] - by_group_s["census.evaluate_graph"]
        for cid in self._checks:
            out[f"census.check.{cid}.s"] = by_group_s[f"census.check.{cid}"]
            out[f"census.check.{cid}.tested"] = self.tested[cid]
        return out

    def write(self, path) -> None:
        """Store the spans as gzipped TSV: name, start, end, parent index."""
        names, start, end, parent = self.names, self.start, self.end, self.parent
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart\tend\tparent\n")
            for lo in range(0, len(start), 65536):
                f.write("".join(
                    f"{names[self.name[i]]}\t{start[i]:.9f}\t{end[i]:.9f}\t{parent[i]}\n"
                    for i in range(lo, min(lo + 65536, len(start)))))
