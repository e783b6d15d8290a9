"""Input model: parsing, validation errors, canonical form, generation."""
from __future__ import annotations

import random

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
    for max_w in (0, -1):
        with pytest.raises(InfeasibleSpecError):
            random_graph(4, 4, max_w, 0.5, seed=0)
    for zp in (-0.1, 1.5):
        with pytest.raises(InfeasibleSpecError):
            random_graph(4, 4, 3, zp, seed=0)
