"""The benchmark's tracer wraps solver functions by name; keep those names.

perfbench/tracing.py replaces module attributes from outside the package,
so a rename inside ntsp would only show when a traced benchmark run fails.
"""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import ntsp
from graphcases import named_graph
from ntsp.detour import anchor_array, detour_candidates
from ntsp.solver import build_core_context, distance_stage
from ntsp.sssp import distance_labels
from ntsp.zigzag import FlowOutcome, pinned_candidate_pairs

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    tracing = load_tracing()
    sites = [(module, attr) for module, attr, _, _ in tracing.LAYERS]
    sites += list(tracing.PEAK_SITES)
    for module, attr in sites:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_counted_results_keep_their_shape():
    g, s, t = named_graph("tII")
    ctx = build_core_context(g, distance_labels(g, s, t))
    assert isinstance(pinned_candidate_pairs(ctx), list)
    # perfbench counts the detour scan by len(); a None or tuple breaks --trace 1
    labels, parent = distance_stage(g, s, t)
    anchor = anchor_array(g, ctx.spdag, parent)
    cands = detour_candidates(g, labels, ctx.spdag, anchor)
    assert isinstance(cands, list)
    fields = {f.name for f in dataclasses.fields(FlowOutcome)}
    assert {"ok", "rounds"} <= fields


def test_traced_query_records_layer_spans():
    # a --trace 1 run goes through these wrappers; a renamed or re-signed
    # layer would raise or leave its span empty
    tracing = load_tracing()
    g, s, t = named_graph("tIII")
    with tracing.Tracer() as tracer:
        res = ntsp.next_to_shortest(g, s, t)
    assert (res.kind, res.length) == ("zigzag", 5)
    calls = tracer.totals()[0]
    for span in ("spdag.build_core", "zerostruct.build_cluster_dag", "zigzag.best_backward_pair"):
        assert calls[span] == 1, span
    # the lazy candidate walk still builds pinned pairs through the wrapped name
    assert calls["zigzag.pinned_candidate_pairs"] >= 1
