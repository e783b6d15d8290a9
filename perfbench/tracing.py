"""Spans and counts around the solver's layers, taken from outside the program.

Each layer function is replaced, for the length of a traced pass, by a
wrapper installed under the name its caller looks it up by (solver.py calls
`distance_labels` through its own module globals, so the wrapper goes on
`ntsp.solver.distance_labels`).  A span is (name, start, end, parent); the
spans of one query share the root span their parent chain ends at.  Spans
live in flat arrays until the run ends, and a layer's self time is its
span's duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import tracemalloc
from array import array
from collections import Counter
from time import perf_counter_ns


def _core_vertices(counts: Counter, spdag) -> None:
    counts["spdag.core_vertices"] += sum(spdag.in_core)


def _clusters(counts: Counter, partition) -> None:
    counts["zerostruct.clusters"] += partition.count


def _pinned(counts: Counter, cands) -> None:
    counts["zigzag.candidates_pinned"] += len(cands)


def _flow(counts: Counter, outcome) -> None:
    counts["zigzag.flow_solves"] += 1
    counts["zigzag.flow_rounds"] += outcome.rounds
    counts["zigzag.flow_confirmed"] += outcome.ok


def _detour_candidates(counts: Counter, cands) -> None:
    counts["detour.candidates"] += len(cands)


# (module, attribute its caller looks up, span name, counter of the result)
LAYERS = (
    ("ntsp.cli", "main", "cli.main", None),
    ("ntsp.cli", "parse_graph", "graph.parse_graph", None),
    ("ntsp", "next_to_shortest", "solver.next_to_shortest", None),
    ("ntsp.cli", "next_to_shortest", "solver.next_to_shortest", None),
    ("ntsp.solver", "distance_labels", "sssp.distance_labels", None),
    ("ntsp.solver", "shortest_path_tree", "sssp.shortest_path_tree", None),
    ("ntsp.solver", "build_core", "spdag.build_core", _core_vertices),
    ("ntsp.solver", "core_dominator_trees", "dominators.core_dominator_trees", None),
    ("ntsp.solver", "zero_clusters", "zerostruct.zero_clusters", _clusters),
    ("ntsp.solver", "build_cluster_dag", "zerostruct.build_cluster_dag", None),
    ("ntsp.zigzag", "build_cluster_dag", "zerostruct.build_cluster_dag", None),
    ("ntsp.solver", "zigzag_shortest", "zigzag.zigzag_shortest", None),
    ("ntsp.zigzag", "best_backward_pair", "zigzag.best_backward_pair", None),
    ("ntsp.zigzag", "best_open_pair", "zigzag.best_open_pair", None),
    ("ntsp.zigzag", "pinned_candidate_pairs", "zigzag.pinned_candidate_pairs", _pinned),
    ("ntsp.zigzag", "build_candidate_network", "zigzag.build_candidate_network", None),
    ("ntsp.zigzag", "max_flow_at_least", "zigzag.max_flow_at_least", _flow),
    ("ntsp.solver", "anchor_array", "detour.anchor_array", None),
    ("ntsp.solver", "shortest_detour", "detour.shortest_detour", None),
    ("ntsp.detour", "detour_candidates", "detour.detour_candidates", _detour_candidates),
)

# Call sites of the layer whose peak allocation is measured in its own pass.
PEAK_SITES = (("ntsp.solver", "build_cluster_dag"), ("ntsp.zigzag", "build_cluster_dag"))


class _Patches:
    """Replace module attributes for the life of a with-block."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        self._saved.append((mod, attr, original))
        setattr(mod, attr, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


class Tracer(_Patches):
    """Records a span around every call of each layer in LAYERS."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._open = [-1]

    def __enter__(self):
        for module, attr, span, count in LAYERS:
            self.patch(module, attr, functools.partial(self._wrap, span=span, count=count))
        return self

    def _wrap(self, fn, span: str, count):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        name, parent, start, end, opened, counts = (
            self.name, self.parent, self.start, self.end, self._open, self.counts,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(opened[-1])
            end.append(0)
            opened.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                opened.pop()
            if count is not None:
                count(counts, result)
            return result

        return traced

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, inclusive nanoseconds, self nanoseconds."""
        calls: Counter = Counter()
        incl: Counter = Counter()
        own: Counter = Counter()
        names, name, parent = self.names, self.name, self.parent
        for i, dur in enumerate(e - s for s, e in zip(self.start, self.end)):
            n = names[name[i]]
            calls[n] += 1
            incl[n] += dur
            own[n] += dur
            if parent[i] >= 0:
                own[names[name[parent[i]]]] -= dur
        return calls, incl, own

    def write(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
        }
        doc["counts"] = dict(self.counts)
        with gzip.open(path, "wt", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))


class PeakMemory(_Patches):
    """Records the tracemalloc peak of every call at the PEAK_SITES."""

    def __init__(self):
        super().__init__()
        self.peaks: list[int] = []

    def __enter__(self):
        for module, attr in PEAK_SITES:
            self.patch(module, attr, self._wrap)
        return self

    def _wrap(self, fn):
        peaks = self.peaks

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured
