"""Traced mode: spans and counters around the program's layers.

The program is not edited.  Each measured function is replaced, for the
traced rounds only, by a wrapper that records a span (name, start, end,
parent span, operation id).  The package binds names with ``from .x import
y``, so a wrapper replaces the original in every geodetic module that holds
it (``geodetic.cli.min_geodetic_k``, ``geodetic.lang.enumerate_geodesics``,
...).  Hot methods that would cost more to span than to run (``Graph.dag``,
each group spec's ``multiply``, ``validate_path``) get counting wrappers
instead.  Spans stay in memory and are written out when the run ends.

Layers are the package modules: groups, graphs, geometry, lang, words, cli.
A span's self time is its duration minus the time covered by its children;
a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import csv
import functools
import gzip
import os
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("groups", "graphs", "geometry", "lang", "words", "cli")

SPANNED = {
    "groups": ("parse_group_file", "cayley_ball"),
    "graphs": ("parse_graph", "build_graph", "bfs_dag", "min_geodetic_k", "is_k_geodetic",
               "enumerate_geodesics"),
    "geometry": ("pair_stats", "find_ladders", "enumerate_bigons", "enumerate_triangles"),
    "lang": ("minimal_forbidden_factors", "build_factor_automaton", "check_locally_excluding",
             "power_language", "centraliser_in_ball"),
    "words": ("format_word", "parse_word"),
    "cli": ("main",),
}

# Metric name -> (kind, span name); kinds: incl (inclusive seconds), self
# (self seconds), calls (span count).  Counter metrics are filled directly.
SPAN_METRICS = {
    "groups.cayley_ball_s": ("incl", "groups.cayley_ball"),
    "groups.parse_group_file_s": ("incl", "groups.parse_group_file"),
    "graphs.bfs_runs": ("calls", "graphs.bfs_dag"),
    "graphs.bfs_s": ("incl", "graphs.bfs_dag"),
    "graphs.min_geodetic_k_s": ("self", "graphs.min_geodetic_k"),
    "graphs.is_k_geodetic_s": ("incl", "graphs.is_k_geodetic"),
    "graphs.enumerate_geodesics_calls": ("calls", "graphs.enumerate_geodesics"),
    "graphs.enumerate_geodesics_s": ("incl", "graphs.enumerate_geodesics"),
    "graphs.parse_graph_s": ("incl", "graphs.parse_graph"),
    "graphs.build_graph_s": ("incl", "graphs.build_graph"),
    "geometry.pair_stats_calls": ("calls", "geometry.pair_stats"),
    "geometry.pair_stats_s": ("incl", "geometry.pair_stats"),
    "geometry.find_ladders_s": ("incl", "geometry.find_ladders"),
    "geometry.enumerate_bigons_s": ("incl", "geometry.enumerate_bigons"),
    "geometry.enumerate_triangles_s": ("incl", "geometry.enumerate_triangles"),
    "lang.minimal_forbidden_factors_s": ("incl", "lang.minimal_forbidden_factors"),
    "lang.build_factor_automaton_s": ("incl", "lang.build_factor_automaton"),
    "lang.check_locally_excluding_s": ("incl", "lang.check_locally_excluding"),
    "lang.power_language_s": ("incl", "lang.power_language"),
}

COUNTERS = ("groups.ball_vertices", "groups.multiply_calls", "graphs.dag_requests",
            "graphs.dag_hits", "graphs.geodesics_enumerated", "geometry.validate_path_calls",
            "geometry.disjoint_results", "geometry.geodesic_pairs_scanned", "lang.power_words",
            "lang.automaton_states", "words.format_word_calls", "cli.output_bytes")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Installs the wrappers on the loaded geodetic modules and keeps the spans."""

    def __init__(self, modules):
        self.modules = modules            # every loaded geodetic module, package included
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.op = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._patches = []

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        by_name = {m.__name__: m for m in self.modules}
        hooks = {
            "groups.cayley_ball": lambda r: self._add("groups.ball_vertices", r.vertex_count),
            "graphs.enumerate_geodesics": lambda r: self._add("graphs.geodesics_enumerated", len(r[0])),
            "geometry.pair_stats": lambda r: self._add("geometry.disjoint_results",
                                                       r.asynchronously_disjoint),
            "geometry.find_ladders": lambda r: self._add("geometry.geodesic_pairs_scanned",
                                                         r.geodesic_pairs_scanned),
            "lang.power_language": lambda r: self._add("lang.power_words", sum(r.counts)),
            "lang.build_factor_automaton": lambda r: self._add("lang.automaton_states", r.state_count),
            "words.format_word": lambda r: self._add("words.format_word_calls", 1),
        }
        for layer, funcs in SPANNED.items():
            mod = by_name[f"geodetic.{layer}"]
            for func in funcs:
                name = f"{layer}.{func}"
                original = getattr(mod, func)
                self._rebind(original, self._span(name, original, hooks.get(name)))
        geometry = by_name["geodetic.geometry"]
        self._rebind(geometry.validate_path,
                     self._counting("geometry.validate_path_calls", geometry.validate_path))
        groups = by_name["geodetic.groups"]
        for cls in _subclasses(groups.GroupSpec):
            if "multiply" in cls.__dict__:
                self._patch_attr(cls, "multiply",
                                 self._counting("groups.multiply_calls", cls.__dict__["multiply"]))
        graph_cls = by_name["geodetic.graphs"].Graph
        self._patch_attr(graph_cls, "dag", self._dag_wrapper(graph_cls.__dict__["dag"]))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------

    def _add(self, key, n) -> None:
        self.counts[key] += n

    def _span(self, name, fn, hook):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        tracer = self
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            sid = len(names)
            names.append(nid)
            parents.append(parent)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                starts[sid] = t0
                tracer.current = parent
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _dag_wrapper(self, fn):
        counts = self.counts
        bfs = self.names.index("graphs.bfs_dag")
        names = self.span_name

        @functools.wraps(fn)
        def dag(graph, source, count_cap=None):
            counts["graphs.dag_requests"] += 1
            before = len(names)
            result = fn(graph, source, count_cap)
            if not any(names[i] == bfs for i in range(before, len(names))):
                counts["graphs.dag_hits"] += 1
            return result

        return dag

    # -- results ----------------------------------------------------------

    def reset_counts(self) -> None:
        for key in self.counts:
            self.counts[key] = 0

    def round_metrics(self, first_span: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since first_span, plus the counters."""
        n = len(self.span_name)
        child = defaultdict(float)
        for i in range(first_span, n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        incl = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i in range(first_span, n):
            name = self.names[self.span_name[i]]
            dur = self.span_end[i] - self.span_start[i]
            own = dur - child.get(i, 0.0)
            incl[name] += dur
            self_time[name] += own
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
        out = {}
        for metric, (kind, name) in SPAN_METRICS.items():
            out[metric] = {"incl": incl, "self": self_time, "calls": calls}[kind][name]
        c = self.counts
        for key in COUNTERS:
            if key not in ("graphs.dag_hits", "geometry.disjoint_results"):
                out[key] = c[key]
        requests, pairs = c["graphs.dag_requests"], calls["geometry.pair_stats"]
        out["graphs.dag_hit_ratio"] = c["graphs.dag_hits"] / requests if requests else 0.0
        out["geometry.disjoint_ratio"] = c["geometry.disjoint_results"] / pairs if pairs else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        out["trace.spans"] = n - first_span
        out["trace.wall_s"] = wall_s
        return out

    def write(self, directory: str, workload: str, op_labels: list) -> None:
        """Spans as gzipped CSV (times in microseconds from the first span), ops beside them."""
        os.makedirs(directory, exist_ok=True)
        t0 = self.span_start[0] if len(self.span_start) else 0.0
        with open(os.path.join(directory, f"ops-{workload}.csv"), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("op", "label"))
            writer.writerows(enumerate(op_labels))
        with gzip.open(os.path.join(directory, f"spans-{workload}.csv.gz"), "wt", compresslevel=1,
                       encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_us,end_us\n")
            names = self.names
            for i in range(len(self.span_name)):
                fh.write(f"{i},{self.span_parent[i]},{self.span_op[i]},{names[self.span_name[i]]},"
                         f"{(self.span_start[i] - t0) * 1e6:.1f},{(self.span_end[i] - t0) * 1e6:.1f}\n")
