"""Span recorder that times trioverlay's public functions from outside.

``Recorder.installed()`` replaces each traced function wherever a trioverlay
module holds a reference to it (``trioverlay.cli.build`` as well as
``trioverlay.construction.build``; ``baselines.count_triangles`` as well as
``graphview.count_triangles``), records one span per call in memory and puts
the originals back on exit, so untraced rounds run the program untouched.

A span is (name, start, end, parent, round, counters).  Calls run on one
thread, so a span's children never overlap and its self time is its duration
minus the durations of its direct children.  Counters are computed from the
arguments' and results' array shapes after the span has ended.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# module -> public functions traced in it; "Class.method" names a classmethod
TRACED = {
    "params": ("derive_params", "explicit_params", "feasible_params"),
    "construction": ("sample_base_graphs", "sample_injection",
                     "apply_deletion_rule", "induce_final_graph", "build"),
    "graphview": ("SimpleGraphView.from_edge_arrays", "count_triangles"),
    "independence": ("independence_greedy", "is_independent_set",
                     "independence_exact"),
    "analysis": ("concentration_report", "classify_sets", "sample_k_sets"),
    "hypergraph": ("sample_base_3graphs", "hyper_product", "inject_hyper",
                   "s4_reduction", "verify_s4_free"),
    "baselines": ("edge_deletion_baseline", "triangle_free_process"),
    "serialize": ("graph_record", "write_instance", "read_instance"),
    "cli": ("main",),
}

GIGA = 1e9
MEGA = 1e6


def _files_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def _read_bytes(args, kwargs) -> int:
    path = args[0] if args else kwargs["path"]
    return _files_bytes([path, path + ".json"])


def _packed_bytes(args, kwargs) -> int:
    g = args[0] if args else kwargs["g"]
    return g.n * ((g.n + 63) // 64) * 8


# span name -> counters computed from (args, kwargs, result); operation
# counts take 2 N^3 per N x N x N matrix product
COUNTERS = {
    # four products: two common-neighbour, two common-upper-neighbour
    "construction.apply_deletion_rule":
        lambda a, kw, r: {"construction.deletion_gops": 8 * r.N ** 3 / GIGA},
    "construction.induce_final_graph":
        lambda a, kw, r: {"construction.placed_edges": r.graph.m},
    "graphview.count_triangles":
        lambda a, kw, r: {"graphview.packed_rows_bytes": _packed_bytes(a, kw)},
    "independence.independence_greedy":
        lambda a, kw, r: {"independence.greedy_passes": r.nodes},
    "independence.independence_exact":
        lambda a, kw, r: {"independence.exact_nodes": r.nodes},
    # twelve products: two codegree, four union-codegree, two cross,
    # four projection
    "analysis.concentration_report":
        lambda a, kw, r: {"analysis.concentration_gops":
                          24 * (a[3] if len(a) > 3 else kw["params"]).N ** 3 / GIGA},
    "hypergraph.hyper_product":
        lambda a, kw, r: {"hypergraph.product_triples": r.edge_count()},
    "baselines.triangle_free_process":
        lambda a, kw, r: {"baselines.process_edges": r.graph.m},
    "serialize.write_instance":
        lambda a, kw, r: {"serialize.bytes_written": _files_bytes(r)},
    "serialize.read_instance":
        lambda a, kw, r: {"serialize.bytes_read": _read_bytes(a, kw)},
}

# counters kept as the largest value of a round, not the sum
PEAK_COUNTERS = {"graphview.packed_rows_bytes"}


class Recorder:
    """Keeps spans in memory while installed; one instance per benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round = -1

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, round_index: int):
        """Trace every function in TRACED for the duration of the block."""
        self.round = round_index
        restore = []
        modules = [m for key, m in sys.modules.items()
                   if key == "trioverlay" or key.startswith("trioverlay.")]
        try:
            for mod_name, names in TRACED.items():
                home = sys.modules["trioverlay." + mod_name]
                for name in names:
                    span_name = f"{mod_name}.{name.split('.')[-1]}"
                    if "." in name:
                        cls_name, meth = name.split(".")
                        cls = getattr(home, cls_name)
                        raw = cls.__dict__[meth]
                        restore.append((cls, meth, raw))
                        setattr(cls, meth,
                                classmethod(self._wrap(span_name, raw.__func__)))
                        continue
                    orig = getattr(home, name)
                    wrapped = self._wrap(span_name, orig)
                    for mod in modules:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                restore.append((mod, attr, orig))
                                setattr(mod, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(restore):
                setattr(owner, attr, orig)

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, once, at the end of a run."""
        with open(path, "w") as fh:
            for name, start, end, parent, rnd, counters in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "round": rnd,
                                     "counters": counters or {}}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus its direct children's."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _round_metrics(spans, own) -> dict[str, float]:
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _, counters), t in zip(spans, own):
        self_s[name] += t
        incl_s[name] += end - start
        calls[name] += 1
        for key, val in (counters or {}).items():
            counts[key] = max(counts[key], val) if key in PEAK_COUNTERS \
                else counts[key] + val

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    out = {f"{name}.self_s": t for name, t in self_s.items()}
    out["params.self_s"] = sum(t for name, t in self_s.items()
                               if name.startswith("params."))
    out["cli.self_s"] = self_s.get("cli.main", 0.0)
    out["graphview.count_triangles.calls"] = calls["graphview.count_triangles"]
    out["analysis.classify_sets.calls"] = calls["analysis.classify_sets"]
    out.update(counts)
    out["construction.deletion_gop_per_s"] = rate(
        counts["construction.deletion_gops"],
        incl_s["construction.apply_deletion_rule"])
    out["construction.induce_edges_per_s"] = rate(
        counts["construction.placed_edges"],
        incl_s["construction.induce_final_graph"])
    out["independence.exact_nodes_per_s"] = rate(
        counts["independence.exact_nodes"],
        incl_s["independence.independence_exact"])
    out["analysis.concentration_gop_per_s"] = rate(
        counts["analysis.concentration_gops"],
        incl_s["analysis.concentration_report"])
    out["baselines.process_edges_per_s"] = rate(
        counts["baselines.process_edges"],
        incl_s["baselines.triangle_free_process"])
    out["serialize.write_mb_per_s"] = rate(
        counts["serialize.bytes_written"] / MEGA,
        incl_s["serialize.write_instance"])
    out["serialize.read_mb_per_s"] = rate(
        counts["serialize.bytes_read"] / MEGA,
        incl_s["serialize.read_instance"])
    return out


def layer_metrics(spans, names) -> dict[str, float]:
    """Median over traced rounds of each per-layer metric in ``names``.

    A metric of a layer the workload never calls reads 0.
    """
    own = self_times(spans)
    by_round: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        by_round[span[4]].append(i)
    rounds = [_round_metrics([spans[i] for i in idx], [own[i] for i in idx])
              for idx in by_round.values()] or [{}]
    return {name: statistics.median(r.get(name, 0.0) for r in rounds)
            for name in names}
