"""Distances and the deterministic shortest-path tree."""
from __future__ import annotations


import heapq
import random

from graphcases import corpus, named_graph, zero_tie_level
from ntsp import sssp
from ntsp.detour import anchor_array, detour_candidates
from ntsp.graph import random_graph
from ntsp.oracle import oracle_detour_candidates, oracle_shortest_path_tree
from ntsp.solver import distance_stage
from ntsp.spdag import build_core
from ntsp.sssp import dijkstra, distance_labels, shortest_path_tree, tree_path, uses_buckets

BOTH_FORMS = (
    (sssp._dist_by_heap, sssp._tree_by_heap),
    (sssp._dist_by_buckets, sssp._tree_by_buckets),
)


def bellman_ford(g, root):
    dist = [None] * g.n
    dist[root] = 0
    for _ in range(g.n - 1):
        changed = False
        for u, v, w in g.edges:
            for a, b in ((u, v), (v, u)):
                if dist[a] is not None and (dist[b] is None or dist[a] + w < dist[b]):
                    dist[b] = dist[a] + w
                    changed = True
        if not changed:
            break
    return dist


def test_dijkstra_known_values():
    g, s, t = named_graph("tri")
    assert dijkstra(g, s) == [0, 1, 1]
    g, s, t = named_graph("pent")
    assert dijkstra(g, s) == [0, 1, 2, 3]


def test_dijkstra_matches_bellman_ford():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(2, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_graph(n, m, 4, 0.3, seed=rng.randrange(1 << 20))
        root = rng.randrange(n)
        assert dijkstra(g, root) == bellman_ford(g, root)


def test_distance_labels_agree_both_ways():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_graph(n, m, 3, 0.3, seed=rng.randrange(1 << 20))
        s, t = 0, n - 1
        labels = distance_labels(g, s, t)
        assert labels.shortest == labels.from_s[t] == labels.to_t[s]
        assert labels.from_s[s] == 0 and labels.to_t[t] == 0


def test_tree_known_parents():
    g, s, _ = named_graph("chain")
    assert shortest_path_tree(g, s)[1] == [-1, 0, 1]
    g, s, _ = named_graph("tri")
    assert shortest_path_tree(g, s)[1] == [-1, 0, 0]
    # both tight parents are available for t; the smaller settled id wins
    g, s, _ = named_graph("quad0")
    assert shortest_path_tree(g, s)[1] == [-1, 0, 0, 1]


def test_tree_parents_are_tight_and_acyclic():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_graph(n, m, 3, 0.5, seed=rng.randrange(1 << 20))
        root = rng.randrange(n)
        dist, parent = shortest_path_tree(g, root)
        assert parent[root] == -1
        for v in range(n):
            if v == root:
                continue
            p = parent[v]
            idx = g.edge_index(p, v)
            assert idx is not None
            assert dist[p] + g.edges[idx][2] == dist[v]
            walk = tree_path(parent, root, v)
            assert walk[0] == root and walk[-1] == v
            assert len(set(walk)) == len(walk) <= n


def test_tree_is_deterministic():
    g = random_graph(8, 14, 2, 0.6, seed=9)
    assert shortest_path_tree(g, 0) == shortest_path_tree(g, 0)


def tree_instances():
    """corpus(5000) plus 20,000 seeded instances at n=2..40."""
    yield from corpus(5000)
    rng = random.Random(31)
    for _ in range(20_000):
        n = rng.randint(2, 40)
        m = rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))
        max_w = rng.choice((1, 2, 5))
        zp = rng.choice((0.0, 0.3, 0.5, 0.7, 0.9))
        g = random_graph(n, m, max_w, zp, seed=rng.randrange(1 << 30))
        s, t = rng.sample(range(n), 2)
        yield g, s, t


def test_one_pass_tree_and_scan_match_references():
    checked = ties = 0
    for g, s, t in tree_instances():
        labels, parent = distance_stage(g, s, t)
        assert parent == oracle_shortest_path_tree(g, labels.from_s, s), (g, s)
        spdag = build_core(g, labels)
        anchor = anchor_array(g, spdag, parent)
        full = oracle_detour_candidates(g, labels, spdag, parent, anchor)
        assert detour_candidates(g, labels, spdag, anchor) == full[:1], (g, s, t)
        checked += 1
        ties += len(full) > 1 and full[1][0] == full[0][0]
    assert checked == 25_000
    assert ties > 10_000  # the least of several tied crossings is picked, not just the minimum


def tree_in_bucket_list_order(g, root):
    """Parents from a bucket queue that settles each level in list order,
    the way the distance pass scans it, under the same parent rule."""
    dist = [None] * g.n
    parent = [-1] * g.n
    done = bytearray(g.n)
    dist[root] = 0
    buckets = {0: [root]}
    levels = [0]
    while levels:
        d = heapq.heappop(levels)
        for u in buckets[d]:
            if dist[u] != d:
                continue
            done[u] = 1
            for v, w, _ in g.adj[u]:
                nd = d + w
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    parent[v] = u
                    if nd not in buckets:
                        buckets[nd] = []
                        heapq.heappush(levels, nd)
                    buckets[nd].append(v)
                elif nd == dist[v] and u < parent[v] and not done[v]:
                    parent[v] = u
        del buckets[d]
    return dist, parent


def test_zero_tie_level_settles_by_distance_then_id():
    g, root = zero_tie_level()
    assert uses_buckets(g)
    dist, parent = shortest_path_tree(g, root)
    assert parent == oracle_shortest_path_tree(g, dist, root) == [-1, 6, 1, 4, 0, 2, 0, 5]
    for _, tree in BOTH_FORMS:
        assert tree(g, root)[1] == parent
    # settling the bucket in list order gives 5 the parent 4, not 2: the
    # sort at level open and the zero-arrival heap are both needed
    listed_dist, listed_parent = tree_in_bucket_list_order(g, root)
    assert listed_dist == dist
    assert listed_parent[5] == 4 and listed_parent != parent


def test_both_forms_match_references_on_large_weights():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(2, 40)
        m = rng.randint(n - 1, min(3 * n, n * (n - 1) // 2))
        max_w = rng.choice((1, 3, 1000, 4 * 10**9))
        zp = rng.choice((0.0, 0.3, 0.7))
        g = random_graph(n, m, max_w, zp, seed=rng.randrange(1 << 30))
        root = rng.randrange(n)
        want = bellman_ford(g, root)
        for dist_pass, tree in (*BOTH_FORMS, (dijkstra, shortest_path_tree)):
            assert dist_pass(g, root) == want, (g, root)
            dist, parent = tree(g, root)
            assert dist == want
            assert parent == oracle_shortest_path_tree(g, dist, root), (g, root)


def test_forms_agree_on_both_sides_of_the_switch():
    # one seed family, so each side of BUCKET_SPAN * max_weight <= n is
    # crossed by graphs of the same shape
    sides = {True: 0, False: 0}
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(16, 120)
        m = rng.randint(n - 1, min(4 * n, n * (n - 1) // 2))
        max_w = rng.randint(1, 2 * n // sssp.BUCKET_SPAN)
        zp = rng.choice((0.0, 0.2, 0.5, 0.9))
        g = random_graph(n, m, max_w, zp, seed=rng.randrange(1 << 30))
        assert g.max_weight == max(g.ew)
        root = rng.randrange(n)
        (heap_dist, heap_tree), (bucket_dist, bucket_tree) = BOTH_FORMS
        tree = heap_tree(g, root)
        assert bucket_tree(g, root) == tree == shortest_path_tree(g, root)
        assert bucket_dist(g, root) == heap_dist(g, root) == dijkstra(g, root) == tree[0]
        sides[uses_buckets(g)] += 1
    assert min(sides.values()) >= 100, sides


def test_forms_agree_where_most_bucket_entries_go_stale():
    # at n=8,192 with weights up to 8 about half the bucket entries are
    # overtaken before their level opens (8,509 of the distance pass's
    # 16,701 from root 0 of seed 1's graph), a regime the small graphs
    # above barely reach
    (_, heap_tree), (_, bucket_tree) = BOTH_FORMS
    for seed in (1, 2):
        g = random_graph(8192, 32768, 8, 0.2, seed)
        assert uses_buckets(g)
        for root in (0, 4095, 8191):
            dist, parent = bucket_tree(g, root)
            assert heap_tree(g, root) == (dist, parent), (seed, root)
            assert parent == oracle_shortest_path_tree(g, dist, root), (seed, root)
