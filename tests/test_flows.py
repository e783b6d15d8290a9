"""Flow engine: round discipline, decomposition, and the network builders."""
from __future__ import annotations

import random

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from graphcases import named_graph
from ntsp.graph import random_graph
from ntsp.oracle import max_flow_value
from ntsp.solver import build_core_context, next_to_shortest
from ntsp.sssp import distance_labels
from ntsp.zigzag import (
    FlowNetwork,
    build_candidate_network,
    disjoint_st_pair,
    max_flow_at_least,
    pinned_candidate_pairs,
)


def scipy_max_flow(net: FlowNetwork) -> int:
    """Generic max flow over the same split-node network."""
    nn = 2 * len(net.labels)
    rows, cols, caps = [], [], []
    for a in range(nn):
        for aid in net.adj[a]:
            if aid % 2 == 0:  # forward arcs only; odd ids are residuals
                rows.append(a)
                cols.append(net.arc_to[aid])
                caps.append(net.arc_cap[aid])
    mat = csr_matrix(
        (np.array(caps, dtype=np.int32), (rows, cols)), shape=(nn, nn)
    )
    return int(maximum_flow(mat, 2 * net.source, 2 * net.sink + 1).flow_value)


def test_single_chain_cannot_carry_two():
    net = FlowNetwork.build([0, 1, 2], [1, 1, 1], [(0, 1, 1), (1, 2, 1)], 0, 2)
    res = max_flow_at_least(net, 2)
    assert not res.ok and res.achieved == 1


def test_no_path_means_zero():
    net = FlowNetwork.build([0, 1], [1, 1], [], 0, 1)
    res = max_flow_at_least(net, 2)
    assert not res.ok and res.achieved == 0 and res.unit_paths == []


def test_unit_decomposition_vertices():
    # diamond: two disjoint routes, decomposition returns both as id lists
    net = FlowNetwork.build(
        [0, 1, 2, 3], [2, 1, 1, 2], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 0, 3
    )
    res = max_flow_at_least(net, 2)
    assert res.ok
    assert sorted(res.unit_paths) == [[0, 1, 3], [0, 2, 3]]


def test_tII_candidate_network_carries_three():
    g, s, t = named_graph("tII")
    ctx = build_core_context(g, distance_labels(g, s, t))
    cands = pinned_candidate_pairs(ctx)
    assert [c.kind for c in cands] == ["pinned_both"]
    cn = build_candidate_network(ctx, cands[0])
    assert cn.zy == frozenset({1, 2}) and cn.zx == frozenset({3, 4})
    assert {(a, b) for a in cn.h_succ for b in cn.h_succ[a]} == {(1, 3), (1, 4), (2, 4)}
    res = max_flow_at_least(cn.net, 3)
    # unit arcs: exactly three units in three rounds, no two alike
    assert res.ok and res.rounds == res.achieved == 3
    assert len(res.unit_paths) == 3
    assert len({tuple(u) for u in res.unit_paths}) == 3
    y_uses: dict[int, int] = {}
    x_uses: dict[int, int] = {}
    for unit in res.unit_paths:
        assert unit[0] in cn.zy and unit[-1] in cn.zx
        y_uses[unit[0]] = y_uses.get(unit[0], 0) + 1
        x_uses[unit[-1]] = x_uses.get(unit[-1], 0) + 1
    assert all(c <= 2 for c in y_uses.values())
    assert all(c <= 2 for c in x_uses.values())


def test_rounds_and_generic_agreement(flow_log):
    rng = random.Random(11)
    checked = 0
    for _ in range(500):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        flow_log.clear()
        next_to_shortest(g, s, t)
        for net, k, outcome in flow_log:
            assert outcome.rounds <= k
            assert outcome.ok == (scipy_max_flow(net) >= k)
            checked += 1
    assert checked > 50


def test_max_flow_value_reference():
    net = FlowNetwork.build(
        [0, 1, 2, 3], [2, 1, 1, 2], [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 0, 3
    )
    assert max_flow_value(net) == 2
    assert scipy_max_flow(net) == 2


def test_disjoint_st_pair_on_randoms():
    rng = random.Random(12)
    produced = 0
    for _ in range(200):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        g = random_graph(n, m, 3, 0.4, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        ctx = build_core_context(g, distance_labels(g, s, t))
        spdag = ctx.spdag
        core = [v for v in spdag.core_vertices() if v not in (s, t)]
        if len(core) < 2:
            continue
        a, b = rng.sample(core, 2)
        got = disjoint_st_pair(spdag, a, b)
        if got is None:
            continue
        p1, p2, swapped = got
        assert p1[0] == s and p2[-1] == t
        assert {p1[-1], p2[0]} == {a, b}
        assert (p1[-1] == b) == swapped
        assert not set(p1) & set(p2)
        produced += 1
    assert produced > 30
