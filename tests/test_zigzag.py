"""Backward-pair scan and zigzag realization."""
from __future__ import annotations

import math
import random
from collections import Counter

import ntsp.zigzag
from graphcases import EXPECTED, NAMED, corpus, named_graph, zgrid
from ntsp.graph import build_graph, random_graph
from ntsp.oracle import (
    oracle_backward_pairs,
    oracle_next_to_shortest,
    oracle_open_pair,
    path_length,
)
import ntsp.solver
from ntsp.solver import build_core_context, next_to_shortest
from ntsp.sssp import distance_labels
from ntsp.zerostruct import backward_feasible
from ntsp.zigzag import (
    BIG,
    KIND_RANK,
    SINK,
    SOURCE,
    CoreContext,
    _realize_open,
    _realize_pinned,
    _realize_pinned_both,
    _walk_key,
    best_backward_pair,
    best_open_pair,
    build_candidate_network,
    candidate_flow_quota,
    max_flow_at_least,
    pinned_candidate_pairs,
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
            assert backward_feasible(x, y, ctx.partition, ctx.dag, *ctx.core_trees())


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


def weighted_grids(scale):
    """220 k-by-k grids, k = 3..13, weights scale * {0, 1, 1, 2}, ids shuffled,
    each with a seeded query pair."""
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
            yield build_graph(k * k, edges), s, t, (k, seed, scale)


def test_open_pair_matches_scan_on_weighted_grids():
    # sparse random graphs rarely hold an open pair; grids with weights
    # 0..2 and shuffled ids hold one about a quarter of the time.  Scaled by
    # 2**30, every delta exceeds 10**9 and the walk must still find the pair.
    for scale in (1, 1 << 30):
        found = sum(assert_open_pair_matches_scan(*case) for case in weighted_grids(scale))
        assert found >= 40, scale


def test_pinned_t_flow_solved_once(flow_log):
    # the t-pinned candidate's flow test runs once, on its network seen from t
    g = random_graph(7, 9, 3, 0.3, 909663)
    res = next_to_shortest(g, 0, 6)
    assert len(flow_log) == 3
    assert (res.status, res.kind, res.length, res.path) == ("found", "zigzag", 7, (0, 5, 2, 3, 6))


def test_pinned_t_builds_one_cluster_dag(monkeypatch):
    # a t-pinned pair is realized in the query's own context: no second,
    # reversed cluster DAG
    builds = []
    build = ntsp.zigzag.build_cluster_dag

    def counted(spdag, partition):
        builds.append(spdag.source)
        return build(spdag, partition)

    for mod in (ntsp.solver, ntsp.zigzag):
        monkeypatch.setattr(mod, "build_cluster_dag", counted)
    g = random_graph(7, 9, 3, 0.3, 909663)
    ctx = build_core_context(g, distance_labels(g, 0, 6))
    assert best_backward_pair(ctx)[0].kind == "pinned_t"
    builds.clear()
    res = next_to_shortest(g, 0, 6)
    assert builds == [0]
    assert res.path == (0, 5, 2, 3, 6)


def test_pinned_both_links_read_no_core_tree(monkeypatch):
    # the link flows start at s and t themselves; once the candidate is
    # listed, which tests its feasibility on the trees, nothing reads them
    ctx = context_for("tII")
    [cand] = pinned_candidate_pairs(ctx)
    assert cand.kind == "pinned_both"

    def refuse(self):
        raise AssertionError("core trees read after the candidate was listed")

    monkeypatch.setattr(CoreContext, "core_trees", refuse)
    cn = build_candidate_network(ctx, cand)
    res = max_flow_at_least(cn.net, candidate_flow_quota(cand))
    path = _realize_pinned_both(ctx, cn, res)
    assert path is not None and verify_zigzag(ctx.spdag, path, cand.delta)


def scanned_h_succ(ctx, cand, cn):
    """The span's steps built the earlier way: the positive rows, then a
    scan over every core zero edge, skipping those inside one end cluster."""
    spdag, verts = ctx.spdag, set(cn.h_succ)
    rows = spdag.pred_all if cand.kind == "pinned_t" else spdag.succ_all
    h_succ = {v: [nb for nb, w in rows[v] if w > 0 and nb in verts] for v in verts}
    for u, v in spdag.zero_edges:
        if u in verts and v in verts and not ({u, v} <= cn.zy or {u, v} <= cn.zx):
            h_succ[u].append(v)
            h_succ[v].append(u)
    for lst in h_succ.values():
        lst.sort()
    return h_succ


def test_candidate_steps_match_zero_edge_scan(criterion_corpus):
    cases = [(g, s, t, f"corpus #{i}") for i, (g, s, t) in enumerate(criterion_corpus)]
    cases += list(weighted_grids(1))
    rng = random.Random(20261018)
    for _ in range(2000):
        n = rng.randint(10, 30)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.3, 0.5, 0.7, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        cases.append((random_graph(n, m, 5, zp, seed), s, t, (n, m, zp, seed, s, t)))
    kinds = Counter()
    for g, s, t, label in cases:
        ctx = build_core_context(g, distance_labels(g, s, t))
        for cand in pinned_candidate_pairs(ctx):
            cn = build_candidate_network(ctx, cand)
            assert cn.h_succ == scanned_h_succ(ctx, cand, cn), (label, cand)
            # one node per span vertex, none contracted away, capacity by role
            assert set(cn.net.labels) == set(cn.h_succ) | {SOURCE, SINK}, (label, cand)
            y_cap = 2 if cand.kind == "pinned_both" else 1
            for v, cap in zip(cn.net.labels, cn.net.caps):
                role = BIG if v < 0 else y_cap if v in cn.zy else 2 if v in cn.zx else 1
                assert cap == role, (label, cand, v)
            kinds[cand.kind] += 1
    # 1,302 pinned_t, 1,310 pinned_s and 80 pinned_both candidates
    assert min(kinds[k] for k in ("pinned_both", "pinned_s", "pinned_t")) >= 50, kinds


def eager_backward_pair(ctx):
    """best_backward_pair over one list: every pinned pair built, then
    sorted together with the best open pair."""
    cands = pinned_candidate_pairs(ctx)
    open_best = best_open_pair(ctx)
    if open_best is not None:
        cands = sorted(cands + [open_best], key=_walk_key)
    for cand in cands:
        if cand.kind == "open":
            path = _realize_open(ctx, cand)
        else:
            cn = build_candidate_network(ctx, cand)
            res = max_flow_at_least(cn.net, candidate_flow_quota(cand))
            if not res.ok:
                continue
            if cand.kind == "pinned_both":
                path = _realize_pinned_both(ctx, cn, res)
            else:
                path = _realize_pinned(ctx, cand, cn, res)
        if path is not None and verify_zigzag(ctx.spdag, path, cand.delta):
            return cand, path
    return None


def test_lazy_walk_matches_eager_sorted_walk(criterion_corpus):
    cases = [(*named_graph(name), name) for name in NAMED]
    cases += [(g, s, t, f"corpus #{i}") for i, (g, s, t) in enumerate(criterion_corpus)]
    cases += list(weighted_grids(1))
    rng = random.Random(20261022)
    for _ in range(2000):
        n = rng.randint(10, 40)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        cases.append((random_graph(n, m, 5, zp, seed), s, t, (n, m, zp, seed, s, t)))
    winners = Counter()
    for g, s, t, label in cases:
        ctx = build_core_context(g, distance_labels(g, s, t))
        got = best_backward_pair(ctx)
        assert got == eager_backward_pair(ctx), label
        winners[got[0].kind if got else None] += 1
    # 128 open, 3 pinned_s, 5 pinned_t and 1 pinned_both winners
    assert winners["open"] >= 100 and min(winners[k] for k in KIND_RANK) >= 1, winners


def test_one_construction_per_kind():
    # Every best open pair realizes by its one construction, and so does
    # every s- or t-pinned pair whose flow test passes at or below the
    # answer's delta, which holds every pair the walk can reach.  Of the
    # 1,155 pinned pairs here that pass their flow test, 155 fail the second
    # flow, all above that delta; the walk never gets that far.
    cases = list(weighted_grids(1))
    for k in range(4, 13):
        for p in (0.2, 0.4, 0.6):
            cases.append((zgrid(k, p, seed=k), 0, k * k - 1, ("zgrid", k, p)))
    rng = random.Random(20261019)
    for _ in range(1000):
        n = rng.randint(10, 60)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        zp = rng.choice([0.3, 0.5, 0.7, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        cases.append((random_graph(n, m, 3, zp, seed), s, t, (n, m, zp, seed, s, t)))
    realized = Counter()
    for g, s, t, label in cases:
        ctx = build_core_context(g, distance_labels(g, s, t))
        open_pair = best_open_pair(ctx)
        if open_pair is not None:
            assert verify_zigzag(ctx.spdag, _realize_open(ctx, open_pair), open_pair.delta), label
            realized["open"] += 1
        found = best_backward_pair(ctx)
        hi = math.inf if found is None else found[0].delta + 1
        for cand in pinned_candidate_pairs(ctx, hi):
            if cand.kind == "pinned_both":
                continue
            cn = build_candidate_network(ctx, cand)
            res = max_flow_at_least(cn.net, candidate_flow_quota(cand))
            if not res.ok:
                continue
            path = _realize_pinned(ctx, cand, cn, res)
            assert path is not None and verify_zigzag(ctx.spdag, path, cand.delta), (label, cand)
            realized[cand.kind] += 1
    # 106 open, 326 pinned_s and 310 pinned_t pairs realized
    assert realized["open"] >= 100, realized
    assert min(realized["pinned_s"], realized["pinned_t"]) >= 300, realized


def test_core_trees_built_on_demand(monkeypatch):
    # the core dominator trees are built at most once per query, and not at
    # all when nothing reads them: a core without zero edges and no pinned
    # pair to test
    builds = []
    build = ntsp.zigzag.core_dominator_trees

    def counted(spdag):
        builds.append(spdag.source)
        return build(spdag)

    for mod in (ntsp.solver, ntsp.zigzag):
        monkeypatch.setattr(mod, "core_dominator_trees", counted)

    g = zgrid(8, 0.0)  # the unit 8x8 grid
    res = next_to_shortest(g, 0, 63)
    assert (res.status, res.kind, res.length) == ("found", "zigzag", 16)
    assert res.path[0] == 0 and res.path[-1] == 63 and len(set(res.path)) == len(res.path)
    assert path_length(g, list(res.path)) == 16
    assert builds == []

    g, s, t = named_graph("quad0")
    res = next_to_shortest(g, s, t)
    assert (res.status, res.kind, res.length) == EXPECTED["quad0"]
    assert builds == [s]

    zero_cores = 0
    for g, s, t in [named_graph(name) for name in sorted(NAMED)] + corpus(1000):
        builds.clear()
        ctx = build_core_context(g, distance_labels(g, s, t))
        zigzag_shortest(ctx)
        assert len(builds) <= 1
        if ctx.spdag.zero_edges:
            zero_cores += 1
            assert len(builds) == 1
    assert zero_cores >= 500  # 562 here
