"""Input model: parsing, validation errors, canonical form, generation."""
from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc

import pytest

from ntsp.graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    InfeasibleSpecError,
    MalformedLineError,
    NegativeWeightError,
    SelfLoopError,
    build_graph,
    parse_graph,
    random_graph,
    serialize_graph,
)


def test_parse_basic():
    g = parse_graph("3 3\n0 1 1\n0 2 1\n1 2 1\n")
    assert g.n == 3 and g.m == 3
    assert g.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))


def test_parse_comments_blank_lines_and_order():
    text = "# a triangle\n\n3 3\n1 2 1\n# middle\n2 0 5\n0 1 1\n"
    g = parse_graph(text)
    # edges come out canonical: endpoints sorted within, list sorted overall
    assert g.edges == ((0, 1, 1), (0, 2, 5), (1, 2, 1))


def test_parse_accepts_bytes():
    g = parse_graph(b"2 1\n0 1 4\n")
    assert g.edges == ((0, 1, 4),)


def test_serialize_round_trip():
    g = parse_graph("4 4\n0 1 1\n1 2 0\n2 3 2\n0 3 7\n")
    text = serialize_graph(g)
    again = parse_graph(text)
    assert again == g
    assert serialize_graph(again) == text


def test_parse_error_lines():
    with pytest.raises(MalformedLineError) as err:
        parse_graph("3\n")
    assert err.value.line == 1
    with pytest.raises(MalformedLineError) as err:
        parse_graph("2 1\n0 1\n")
    assert err.value.line == 2
    with pytest.raises(MalformedLineError) as err:
        parse_graph("2 1\n0 9 1\n")
    assert err.value.line == 2
    with pytest.raises(NegativeWeightError) as err:
        parse_graph("2 1\n0 1 -3\n")
    assert err.value.line == 2
    with pytest.raises(SelfLoopError) as err:
        parse_graph("2 1\n1 1 2\n")
    assert err.value.line == 2
    with pytest.raises(DuplicateEdgeError) as err:
        parse_graph("3 3\n0 1 1\n1 2 1\n1 0 2\n")
    assert err.value.line == 4


def test_parse_edge_count_must_match_header():
    with pytest.raises(MalformedLineError):
        parse_graph("3 2\n0 1 1\n")
    with pytest.raises(MalformedLineError):
        parse_graph("3 1\n0 1 1\n1 2 1\n")
    with pytest.raises(MalformedLineError):
        parse_graph("")


def test_parse_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        parse_graph("4 2\n0 1 1\n2 3 1\n")


def test_parse_rejects_oversized_weight():
    with pytest.raises(MalformedLineError):
        parse_graph(f"2 1\n0 1 {1 << 32}\n")


def test_adjacency_structure():
    g = build_graph(3, [(2, 0, 5), (0, 1, 1)])
    assert g.edges == ((0, 1, 1), (0, 2, 5))
    assert g.adj[0] == ((1, 1, 0), (2, 5, 1))
    assert g.edge_index(1, 0) == 0
    assert g.edge_index(0, 2) == 1
    assert g.edge_index(1, 2) is None


def test_random_graph_is_deterministic():
    a = random_graph(7, 12, 3, 0.3, seed=11)
    b = random_graph(7, 12, 3, 0.3, seed=11)
    assert a == b
    c = random_graph(7, 12, 3, 0.3, seed=12)
    assert c != a


def test_random_graph_respects_spec():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 10)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_graph(n, m, 3, 0.4, seed=rng.randrange(1 << 20))
        assert g.n == n and g.m == m
        assert all(0 <= w <= 3 for _, _, w in g.edges)
        assert len({(u, v) for u, v, _ in g.edges}) == m
        # parse_graph re-checks connectivity
        parse_graph(serialize_graph(g))


def test_random_graph_zero_prob_extremes():
    g = random_graph(6, 9, 3, 1.0, seed=4)
    assert all(w == 0 for _, _, w in g.edges)
    g = random_graph(6, 9, 3, 0.0, seed=4)
    assert all(w >= 1 for _, _, w in g.edges)


def test_random_graph_rejects_infeasible():
    with pytest.raises(InfeasibleSpecError):
        random_graph(4, 2, 3, 0.0, seed=0)  # below spanning tree
    with pytest.raises(InfeasibleSpecError):
        random_graph(4, 7, 3, 0.0, seed=0)  # above complete graph
    with pytest.raises(InfeasibleSpecError):
        random_graph(0, 0, 3, 0.0, seed=0)


def test_random_graph_rejects_bad_weight_spec():
    for max_w in (0, -1, 1 << 32):  # weights are stored as unsigned 32-bit ints
        with pytest.raises(InfeasibleSpecError):
            random_graph(4, 4, max_w, 0.5, seed=0)
    for zp in (-0.1, 1.5):
        with pytest.raises(InfeasibleSpecError):
            random_graph(4, 4, 3, zp, seed=0)


# sha256 of serialize_graph(random_graph(*spec)), recorded before the graph
# moved from tuples to arrays; any change to the draws or the canonical
# order shows here.  3280387012 is random.Random(1).randrange(1 << 32), the
# graph the benchmark's random-zp20 workload builds for seed 1.
GOLDEN = {
    (8192, 32768, 8, 0.2, 3280387012): "6ad806c491e2d76057ec75bccb6f526417f51ec0a42677c969e0d4095aeedd5f",
    (6, 5, 5, 0.0, 3): "dbb2d63115ddb9d05739e6fcf70fa2fbc4a79d47184c8b6d6216fae42eb977f6",
    (9, 14, 5, 0.5, 17): "b074327a6d6cbd04ef55e252e3c756ad3c5a6e13dacfa51c5821dce1c02f5cc8",
    (12, 24, 5, 0.9, 2024): "5c22f8cbef7d4dd7505e286b964bde6ee41223b8c721a2cc17dfc7849fd517f2",
    (10, 45, 5, 0.3, 7): "41bf59a1b05433b2c1fc705dba0cba473ac5430dec52530bd86e29fc5af10c3d",
    (2000, 8000, 1, 0.6, 5): "f5cebaf3a9593e9b99c2a196f654fb97018aa6229ddcfb4a4f26b52741b31162",
}


@pytest.mark.parametrize("spec", list(GOLDEN))
def test_random_graph_golden(spec):
    text = serialize_graph(random_graph(*spec))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[spec]


def small_graphs(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 14)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        yield random_graph(n, m, 5, rng.choice((0.0, 0.5)), seed=rng.randrange(1 << 30))


def test_build_graph_is_canonical():
    # a shuffled, endpoint-swapped edge list builds the same graph, rows included
    rng = random.Random(8)
    for g in small_graphs(300, 8):
        edges = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in g.edges]
        rng.shuffle(edges)
        h = build_graph(g.n, edges)
        assert h == g
        assert (h.off, h.nbr, h.wt, h.eid) == (g.off, g.nbr, g.wt, g.eid)


def test_rows_match_edges():
    for g in small_graphs(300, 9):
        edges = g.edges
        assert list(edges) == sorted(edges) and all(u < v for u, v, _ in edges)
        assert len(g.adj) == g.n
        for v in range(g.n):
            want = sorted(
                (b if a == v else a, w, i) for i, (a, b, w) in enumerate(edges) if v in (a, b)
            )
            assert list(g.adj[v]) == want


def test_edge_index_matches_brute_force():
    graphs = list(small_graphs(100, 10)) + [random_graph(60, 300, 3, 0.2, seed=4)]
    for g in graphs:
        where = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
        for a in range(g.n):
            for b in range(g.n):
                assert g.edge_index(a, b) == where.get((min(a, b), max(a, b))), (a, b)


def test_graph_memory_is_linear_in_edges():
    # the arrays hold about 37 bytes per edge and the build peaks near 200;
    # the tuple layout held 308 and peaked at 524
    gc.collect()
    tracemalloc.start()
    try:
        g = random_graph(20000, 80000, 8, 0.2, seed=1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / g.m <= 128, held / g.m
    assert peak / g.m <= 256, peak / g.m
