"""Backward-pair scan and zigzag realization."""
from __future__ import annotations

import random

from graphcases import named_graph
from ntsp.graph import build_graph, random_graph
from ntsp.oracle import oracle_backward_pairs, oracle_next_to_shortest, oracle_open_pair
from ntsp.solver import build_core_context, next_to_shortest
from ntsp.sssp import distance_labels
from ntsp.zerostruct import backward_feasible
from ntsp.zigzag import (
    audit_flows,
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


def assert_open_pair_matches_scan(g, s, t, label):
    ctx = build_core_context(g, distance_labels(g, s, t))
    got, want = best_open_pair(ctx), oracle_open_pair(ctx)
    assert got == want, (label, got, want)
    return got is not None


def test_open_pair_matches_all_pairs_scan(criterion_corpus):
    # a failure here is a solver bug, so the seed stays fixed
    for i, (g, s, t) in enumerate(criterion_corpus):
        assert_open_pair_matches_scan(g, s, t, f"corpus #{i}")
    rng = random.Random(20261019)
    for _ in range(3000):
        n = rng.randint(10, 40)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        g = random_graph(n, m, 5, zp, seed)
        assert_open_pair_matches_scan(g, s, t, f"random_graph({n}, {m}, 5, {zp}, {seed}) s={s} t={t}")


def test_open_pair_matches_scan_on_weighted_grids():
    # sparse random graphs rarely hold an open pair; grids with weights
    # 0..2 and shuffled ids hold one about a quarter of the time.  Scaled by
    # 2**30, every delta exceeds 10**9 and the walk must still find the pair.
    for scale in (1, 1 << 30):
        found = 0
        for k in range(3, 14):
            for seed in range(20):
                rng = random.Random(seed * 100 + k)
                perm = list(range(k * k))
                rng.shuffle(perm)
                edges = []
                for r in range(k):
                    for c in range(k):
                        v = r * k + c
                        if c + 1 < k:
                            edges.append((perm[v], perm[v + 1], scale * rng.choice([0, 1, 1, 2])))
                        if r + 1 < k:
                            edges.append((perm[v], perm[v + k], scale * rng.choice([0, 1, 1, 2])))
                s, t = rng.sample(range(k * k), 2)
                found += assert_open_pair_matches_scan(
                    build_graph(k * k, edges), s, t, (k, seed, scale)
                )
        assert found >= 40, scale


def test_pinned_t_flow_solved_once():
    # the t-pinned candidate's flow test runs on the flipped network only
    g = random_graph(7, 9, 3, 0.3, 909663)
    with audit_flows() as sink:
        res = next_to_shortest(g, 0, 6)
    assert len(sink) == 3
    assert (res.status, res.kind, res.length, res.path) == ("found", "zigzag", 7, (0, 5, 2, 3, 6))
