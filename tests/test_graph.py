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
    GraphError,
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


def test_parse_rejects_edgeless_header_without_allocating_by_n():
    # m < n - 1 cannot be connected; the refusal must not cost O(n) memory
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraphError, match="graph is not connected"):
            parse_graph(b"1000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


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
    # the shared-int tuple columns hold about 82 bytes per edge and the
    # build peaks near 138 with weights up to 8; up to 4*10**9 each edge's
    # weight is an int object of its own, 110 held and 166 at the peak.
    # All-array columns held 37 and peaked at 200; the per-edge tuple
    # layout held 308 and peaked at 524
    for max_w in (8, 4 * 10**9):
        gc.collect()
        tracemalloc.start()
        try:
            g = random_graph(20000, 80000, max_w, 0.2, seed=1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / g.m <= 128, (max_w, held / g.m)
        assert peak / g.m <= 256, (max_w, peak / g.m)
        del g


# (text, error class, line, message); None as the class means the text parses.
# Rows with several faults pin which check comes first.
PARSE_CASES = [
    # out of range beats the negative weight and the self-loop
    ("3 3\n3 3 -1\n", MalformedLineError, 2, "line 2: vertex id out of range"),
    ("3 3\n0 1 1\n5 1 -1\n", MalformedLineError, 3, "line 3: vertex id out of range"),
    # a negative weight beats the self-loop
    ("2 1\n1 1 -1\n", NegativeWeightError, 2, "line 2: negative weight -1"),
    # so does an oversized weight
    ("2 1\n1 1 4294967296\n", MalformedLineError, 2, "line 2: weight does not fit 32 bits"),
    ("3 2\n0 1 1\n1 0 2\n", DuplicateEdgeError, 3, "line 3: duplicate edge 0 1"),
    ("3 2\n1 2 1\n2 1 1\n", DuplicateEdgeError, 3, "line 3: duplicate edge 1 2"),
    ("3 2\n0 1 1\n0 1 1\n", DuplicateEdgeError, 3, "line 3: duplicate edge 0 1"),
    # the edge count is checked before the field count and the values
    ("3 2\n0 1 1\n1 2 1\n0 2 1\n", MalformedLineError, 4, "line 4: more than 2 edges"),
    ("3 2\n0 1 1\n1 2 1\nx\n", MalformedLineError, 4, "line 4: more than 2 edges"),
    ("3 2\n0 1 1\n1 2\n", MalformedLineError, 3, "line 3: expected 'u v w'"),
    ("3 2\n0 1 1\n1 2 1 1\n", MalformedLineError, 3, "line 3: expected 'u v w'"),
    ("3 2\n0 1 1\n1 2 x\n", MalformedLineError, 3, "line 3: non-integer edge"),
    # tabs, CRLF, a lone CR and a form feed all separate as splitlines says
    ("3 2\n0\t1\t1\r\n1 2 1\r\n", None, None, None),
    ("2 1\r0 1 1\r", None, None, None),
    ("2 1\n\x0c0 1 1\n", None, None, None),
    ("2 1\r\n\r\n0 1 1 1\r\n", MalformedLineError, 3, "line 3: expected 'u v w'"),
    # comments: '#' only counts at the start of a line's first field
    ("#x\n3 2\n#comment\n0 1 1\n  # indented\n1 2 1\n# done", None, None, None),
    ("3 2 #c\n0 1 1\n1 2 1\n", MalformedLineError, 1, "line 1: expected 'n m' header"),
    ("3 2\n0 1 1#c\n1 2 1\n", MalformedLineError, 2, "line 2: non-integer edge"),
    ("3 2\n0 1 1 #c\n1 2 1\n", MalformedLineError, 2, "line 2: expected 'u v w'"),
    ("3 2\n#0 1 1\n1 2 1\n", MalformedLineError, 4, "line 4: expected 2 edges, got 1"),
    # trailing blank and comment lines move the short-list line
    ("3 2\n0 1 1\n", MalformedLineError, 3, "line 3: expected 2 edges, got 1"),
    ("3 2\n0 1 1\n\n#tail\n\n", MalformedLineError, 6, "line 6: expected 2 edges, got 1"),
    ("3 2\n0 1 1\n# tail", MalformedLineError, 4, "line 4: expected 2 edges, got 1"),
    # the edge count is checked before connectivity
    ("4 2\n0 1 1\n", MalformedLineError, 3, "line 3: expected 2 edges, got 1"),
    ("4 2\n0 1 1\n2 3 1\n", DisconnectedGraphError, None, "graph is not connected"),
    ("4 3\n0 1 1\n2 3 1\n1 0 1\n", DuplicateEdgeError, 4, "line 4: duplicate edge 0 1"),
    ("4 3\n0 1 1\n2 3 1\n0 2 1\n", None, None, None),
    ("4 3\n0 1 1\n1 2 1\n0 2 1\n", DisconnectedGraphError, None, "graph is not connected"),
    # headers
    ("", MalformedLineError, 1, "line 1: missing header"),
    ("\n\n", MalformedLineError, 3, "line 3: missing header"),
    ("# only\n", MalformedLineError, 2, "line 2: missing header"),
    ("0 0\n", MalformedLineError, 1, "line 1: bad sizes n=0 m=0"),
    ("2 -1\n", MalformedLineError, 1, "line 1: bad sizes n=2 m=-1"),
    ("2 1 3\n", MalformedLineError, 1, "line 1: expected 'n m' header"),
    ("a b\n", MalformedLineError, 1, "line 1: non-integer header"),
    ("1 0\n", None, None, None),
    # non-ASCII: bytes decode with replacement, str is taken as it is
    (b"3 2\n0 1 1\n1 2 \xe9\n", MalformedLineError, 3, "line 3: non-integer edge"),
    (b"3 2\n0 1 \xc3\xa91\n", MalformedLineError, 2, "line 2: non-integer edge"),
    ("3 2\n0 1 1\n1 2 \xe9\n", MalformedLineError, 3, "line 3: non-integer edge"),
    (b"# caf\xc3\xa9\n2 1\n0 1 1\n", None, None, None),
    ("2 1\n0 1 1\n", None, None, None),
    ("2 1\n0 1 1 1 0 1\n", MalformedLineError, 3, "line 3: more than 1 edges"),
]


@pytest.mark.parametrize("text, cls, line, message", PARSE_CASES)
def test_parse_checks_in_order(text, cls, line, message):
    if cls is None:
        g = parse_graph(text)
        assert g == build_graph(g.n, g.edges)
        return
    with pytest.raises(GraphError) as err:
        parse_graph(text)
    assert type(err.value) is cls
    assert err.value.line == line
    assert str(err.value) == message


def test_parse_round_trip_rows():
    # the parser's rows and max_weight equal the generator's, array for array
    rng = random.Random(20261020)
    for i in range(1200):
        n = rng.randint(1, 40)
        m = rng.randint(n - 1, min(4 * n, n * (n - 1) // 2))
        max_w = rng.choice([1, 3, 1000, 4 * 10**9])
        zp = rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 0.9])
        g = random_graph(n, m, max_w, zp, seed=rng.randrange(1 << 32))
        h = parse_graph(serialize_graph(g) if i % 2 else serialize_graph(g).encode())
        assert h == g
        assert (h.off, h.nbr, h.wt, h.eid) == (g.off, g.nbr, g.wt, g.eid)
        assert h.max_weight == g.max_weight
