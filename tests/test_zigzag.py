"""Backward-pair scan and zigzag realization."""
from __future__ import annotations

import random

from graphcases import named_graph
from ntsp.graph import random_graph
from ntsp.oracle import oracle_backward_pairs, oracle_next_to_shortest
from ntsp.solver import build_core_context
from ntsp.sssp import distance_labels
from ntsp.zerostruct import backward_feasible
from ntsp.zigzag import (
    best_backward_pair,
    best_open_pair,
    verify_zigzag,
    zigzag_shortest,
)


def context_for(name):
    g, s, t = named_graph(name)
    return build_core_context(g, distance_labels(g, s, t))


def test_pent_open_pair():
    ctx = context_for("pent")
    cand = best_open_pair(ctx)
    assert cand is not None
    assert cand.kind == "open" and cand.delta == 1
    # clusters are singletons here, so components name the vertices directly
    assert ctx.partition.members[cand.comp_x] == (2,)
    assert ctx.partition.members[cand.comp_y] == (1,)


def test_pent_realization():
    ctx = context_for("pent")
    got = zigzag_shortest(ctx)
    assert got is not None
    length, path = got
    assert length == 5
    assert path == [0, 2, 1, 3]


def test_tII_is_doubly_pinned():
    ctx = context_for("tII")
    cand, path = best_backward_pair(ctx)
    assert (cand.kind, cand.delta) == ("pinned_both", 1)
    assert verify_zigzag(ctx.spdag, path, 1)
    assert zigzag_shortest(ctx) == (5, path)


def test_tIII_is_source_pinned():
    ctx = context_for("tIII")
    cand, path = best_backward_pair(ctx)
    assert (cand.kind, cand.delta) == ("pinned_s", 1)
    assert verify_zigzag(ctx.spdag, path, 1)
    assert zigzag_shortest(ctx) == (5, path)


def test_no_pair_on_flat_graphs():
    for name in ("quad0", "chain"):
        ctx = context_for(name)
        assert best_backward_pair(ctx) is None
        assert zigzag_shortest(ctx) is None


def test_verify_zigzag_rejects_bad_walks():
    ctx = context_for("pent")
    spdag = ctx.spdag
    assert verify_zigzag(spdag, [0, 2, 1, 3], 1)
    assert not verify_zigzag(spdag, [0, 2, 1, 3], 2)  # wrong surplus
    assert not verify_zigzag(spdag, [0, 1, 2, 3], 1)  # monotone, no descent
    assert not verify_zigzag(spdag, [0, 2, 1], 1)  # wrong endpoint
    assert not verify_zigzag(spdag, [0, 2, 0, 2, 1, 3], 1)  # revisits
    tri = context_for("tri").spdag
    assert not verify_zigzag(tri, [0, 1, 2], 1)  # steps off the core


def test_kind_winners_on_frozen_instances():
    # seeds picked so that each scan kind decides a random instance
    cases = [
        ((7, 8, 0.6, 905630), "open"),
        ((7, 11, 0.6, 908197), "pinned_s"),
        ((7, 9, 0.3, 909663), "pinned_t"),
    ]
    for (n, m, zp, seed), kind in cases:
        g = random_graph(n, m, 3, zp, seed)
        s, t = 0, n - 1
        ctx = build_core_context(g, distance_labels(g, s, t))
        cand, path = best_backward_pair(ctx)
        assert cand.kind == kind
        assert verify_zigzag(ctx.spdag, path, cand.delta)
        got = zigzag_shortest(ctx)
        assert got == (ctx.labels.shortest + 2 * cand.delta, path)
        want = oracle_next_to_shortest(g, s, t)
        assert got[0] == want


def test_realized_length_is_shortest_plus_twice_delta():
    rng = random.Random(13)
    for _ in range(150):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        ctx = build_core_context(g, distance_labels(g, s, t))
        found = best_backward_pair(ctx)
        got = zigzag_shortest(ctx)
        if found is None:
            assert got is None
            continue
        cand, path = found
        assert got == (ctx.labels.shortest + 2 * cand.delta, path)
        assert verify_zigzag(ctx.spdag, path, cand.delta)


def test_backward_pair_delta_matches_exhaustive_minimum():
    # the scanned minimum equals the cheapest oracle-valid pair, or both none
    rng = random.Random(14)
    for _ in range(150):
        n = rng.randint(4, 8)
        m = rng.randint(n - 1, min(16, n * (n - 1) // 2))
        zp = rng.choice([0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        ctx = build_core_context(g, distance_labels(g, s, t))
        spdag = ctx.spdag
        deltas = [
            spdag.level[x] - spdag.level[y]
            for x, y in oracle_backward_pairs(g, spdag)
        ]
        found = best_backward_pair(ctx)
        delta = found[0].delta if found is not None else None
        assert delta == (min(deltas) if deltas else None)


def test_beta_necessity_on_oracle_pairs():
    rng = random.Random(15)
    for _ in range(150):
        n = rng.randint(4, 8)
        m = rng.randint(n - 1, min(16, n * (n - 1) // 2))
        zp = rng.choice([0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        ctx = build_core_context(g, distance_labels(g, s, t))
        for x, y in oracle_backward_pairs(g, ctx.spdag):
            # a canonical descent loses height on its first step
            assert ctx.spdag.level[x] > ctx.spdag.level[y]
            assert backward_feasible(x, y, ctx.partition, ctx.dag, ctx.ts, ctx.tt)
