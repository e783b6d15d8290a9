"""End-to-end solver behaviour on fixtures and random graphs."""
from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ntsp.solver
from graphcases import EXPECTED, NAMED, named_graph, zgrid
from ntsp.detour import anchor_array, shortest_detour
from ntsp.graph import DisconnectedGraphError, GraphError, build_graph, random_graph
from ntsp.oracle import oracle_next_to_shortest, path_length
from ntsp.solver import (
    QueryError,
    build_core_context,
    distance_stage,
    next_to_shortest,
    validate_query,
)
from ntsp.sssp import distance_labels
from ntsp.zigzag import zigzag_shortest
from test_zigzag import weighted_grids


def check_witness(g, s, t, res):
    path = list(res.path)
    assert path[0] == s and path[-1] == t
    assert len(set(path)) == len(path)
    assert path_length(g, path) == res.length
    assert res.length > res.shortest


def test_fixture_answers():
    for name in sorted(NAMED):
        g, s, t = named_graph(name)
        status, kind, length = EXPECTED[name]
        res = next_to_shortest(g, s, t)
        assert res.status == status, name
        assert res.kind == kind, name
        assert res.length == length, name
        if status == "found":
            check_witness(g, s, t, res)
        else:
            assert res.path is None


def test_deterministic():
    for name in sorted(NAMED):
        g, s, t = named_graph(name)
        first = next_to_shortest(g, s, t)
        second = next_to_shortest(g, s, t)
        assert first == second


def test_same_endpoints_rejected():
    g, s, t = named_graph("tri")
    with pytest.raises(QueryError):
        next_to_shortest(g, s, s)
    with pytest.raises(QueryError):
        validate_query(g, t, t)


def test_endpoints_out_of_range():
    g, s, t = named_graph("tri")
    for bad in (-1, g.n, g.n + 5):
        with pytest.raises(GraphError):
            next_to_shortest(g, bad, t)
        with pytest.raises(GraphError):
            next_to_shortest(g, s, bad)


def test_split_endpoints_rejected():
    # build_graph does not check connectivity; s and t in different
    # components must be refused cleanly, not fail on an index
    with pytest.raises(DisconnectedGraphError):
        next_to_shortest(build_graph(4, [(0, 1, 1), (2, 3, 1)]), 0, 3)


def test_isolated_vertex_rejected():
    # without the check, the anchor walk from the isolated last vertex follows
    # parent -1 without end, so the query runs in a child whose memory is capped
    child = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from ntsp import DisconnectedGraphError, build_graph, next_to_shortest\n"
        "g = build_graph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 5)])\n"
        "try:\n"
        "    next_to_shortest(g, 0, 1)\n"
        "except DisconnectedGraphError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout == "vertex 3 is not reachable from 0\n", out.stderr


def test_tie_prefers_detour():
    # both sides reach length 3 here; the walk-off must report detour
    g = random_graph(5, 9, 3, 0.3, seed=900272)
    res = next_to_shortest(g, 0, 4)
    assert res.shortest == 1
    assert (res.status, res.kind, res.length) == ("found", "detour", 3)


def core_cycles(spdag):
    """The core's cyclomatic number |E| - |V| + 1; the core is connected."""
    return len(spdag.arcs) + len(spdag.zero_edges) - sum(spdag.in_core) + 1


def both_scans_in_full(g, s, t):
    """The detour and the unbounded zigzag scan, each run on every query,
    ties to the detour: (kind, length, path) or None, the detour, the least
    core arc weight (inf when the core has no arc) and the core's
    cyclomatic number."""
    labels, parent = distance_stage(g, s, t)
    ctx = build_core_context(g, labels)
    zig = zigzag_shortest(ctx)
    anchor = anchor_array(g, ctx.spdag, parent)
    det = shortest_detour(g, labels, ctx.spdag, parent, anchor)
    w_min = min((w for _, _, w in ctx.spdag.arcs), default=math.inf)
    cycles = core_cycles(ctx.spdag)
    found = None if det is None else ("detour", det[0], tuple(det[1]))
    if zig is not None:
        assert zig[0] >= labels.shortest + 2 * w_min, (g.edges, s, t)
        assert cycles >= 2, (g.edges, s, t)
        if det is None or zig[0] < det[0]:
            found = ("zigzag", zig[0], tuple(zig[1]))
    return found, det, w_min, cycles


def test_zigzag_layer_only_below_the_detour(criterion_corpus, monkeypatch):
    # a zigzag is shortest + 2*delta long, where delta >= w_min, the least
    # core arc weight, and it loses a tie; it also needs a core with two
    # independent cycles.  So the zigzag layer is built exactly when the
    # detour is missing or longer than shortest + 2*w_min and |E| > |V| in
    # the core, and the answer is that of both full scans; core_context
    # builds the layer for cores with and without zero edges alike
    builds = []
    build = ntsp.solver.core_context

    def counted(labels, spdag):
        builds.append(spdag.source)
        return build(labels, spdag)

    monkeypatch.setattr(ntsp.solver, "core_context", counted)
    cases = [named_graph(name) for name in sorted(NAMED)] + list(criterion_corpus)
    cases += [case[:3] for scale in (1, 1 << 30) for case in weighted_grids(scale)]
    seen = Counter()
    for g, s, t in cases:
        want, det, w_min, cycles = both_scans_in_full(g, s, t)
        builds.clear()
        res = next_to_shortest(g, s, t)
        got = None if res.status == "none" else (res.kind, res.length, res.path)
        assert got == want, (g.edges, s, t)
        below = det is None or res.shortest + 2 * w_min < det[0]
        assert builds == ([s] if below and cycles >= 2 else []), (g.edges, s, t)
        seen[below, cycles >= 2] += 1
    # of the 5,450 queries 4,124 end at the detour's w_min gate; of the
    # 1,326 below it, 43 cores hold two independent cycles and build the
    # layer, and 1,283 hold at most one and skip it
    assert seen[True, True] >= 40 and seen[True, False] >= 1200, seen
    assert seen[False, True] + seen[False, False] >= 4000, seen


def premise_cases():
    """Random graphs n = 10..16 with m = n-1..3n, weights 0..5 and five
    zero-probs, the weighted grids at unit scale, and zgrids k <= 6 with
    seeded query pairs."""
    rng = random.Random(20261021)
    for _ in range(8000):
        n = rng.randint(10, 16)
        m = rng.randint(n - 1, 3 * n)
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        yield random_graph(n, m, 5, zp, seed), s, t
    for case in weighted_grids(1):
        yield case[:3]
    for k in range(3, 7):
        for p in (0.2, 0.5, 0.8):
            g = zgrid(k, p, seed=k)
            for _ in range(10):
                yield (g, *rng.sample(range(k * k), 2))


def test_no_zigzag_without_two_independent_cycles():
    # the solver builds the zigzag layer only for a core with |E| > |V|:
    # with at most one cycle every block of the core is a bridge or a
    # simple cycle whose two arcs are both shortest, so every simple s-t
    # path in the core is shortest.  Here the layer runs ungated.
    checked = Counter()
    for g, s, t in premise_cases():
        labels = distance_labels(g, s, t)
        ctx = build_core_context(g, labels)
        cyclic = core_cycles(ctx.spdag) >= 2
        zig = zigzag_shortest(ctx, math.inf)
        if not cyclic:
            assert zig is None, (g.edges, s, t)
        checked[cyclic, zig is not None] += 1
    # of the 8,000 random queries, 220 grids and 120 zgrid pairs, 4,429
    # cores hold at most one cycle; 180 of the others give a zigzag
    assert checked[False, False] >= 4000, checked
    assert checked[True, True] >= 150, checked


def test_none_when_every_path_is_shortest():
    g = build_graph(2, [(0, 1, 4)])
    res = next_to_shortest(g, 0, 1)
    assert res.status == "none"
    assert res.shortest == 4
    assert res.kind is None and res.length is None and res.path is None


# (n, m, zero_prob, seed, s, t) for random_graph(n, m, 5, zero_prob, seed);
# each once passed a flow test for a zigzag that does not exist and crashed
CRASHES = [
    (9, 16, 0.3, 3051908592, 2, 3),
    (9, 18, 0.5, 4158967358, 1, 2),
    (11, 19, 0.5, 723317575, 8, 5),
    (10, 16, 0.5, 3594661571, 0, 8),
    (10, 20, 0.5, 361677230, 2, 6),
    (12, 21, 0.7, 1150029578, 5, 9),
    (11, 22, 0.5, 1345931180, 6, 3),
    (12, 19, 0.5, 2298462549, 9, 5),
    (13, 19, 0.5, 1020704293, 2, 10),
]


def assert_matches_oracle(g, s, t):
    res = next_to_shortest(g, s, t)
    want = oracle_next_to_shortest(g, s, t)
    if want is None:
        assert res.status == "none"
    else:
        assert res.status == "found" and res.length == want
        check_witness(g, s, t, res)


@pytest.mark.parametrize("n,m,zp,seed,s,t", CRASHES)
def test_former_crashes_match_oracle(n, m, zp, seed, s, t):
    assert_matches_oracle(random_graph(n, m, 5, zp, seed), s, t)


def test_fuzz_beyond_corpus_sizes():
    # past the corpus's n <= 9; a failure here is a solver bug, so the seed
    # stays fixed
    rng = random.Random(20261018)
    for _ in range(3000):
        n = rng.randint(10, 13)
        m = rng.randint(n - 1, 2 * n)
        zp = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
        seed = rng.randrange(1 << 32)
        s, t = rng.sample(range(n), 2)
        g = random_graph(n, m, 5, zp, seed)
        try:
            assert_matches_oracle(g, s, t)
        except AssertionError:
            raise AssertionError(f"random_graph({n}, {m}, 5, {zp}, {seed}) s={s} t={t}") from None


def test_matches_oracle_on_random_slice():
    rng = random.Random(19)
    for _ in range(400):
        n = rng.randint(4, 9)
        m = rng.randint(n - 1, min(18, n * (n - 1) // 2))
        zp = rng.choice([0.0, 0.3, 0.6])
        g = random_graph(n, m, 3, zp, seed=rng.randrange(1 << 20))
        s = rng.randrange(n)
        t = rng.randrange(n)
        if s == t:
            continue
        res = next_to_shortest(g, s, t)
        want = oracle_next_to_shortest(g, s, t)
        if want is None:
            assert res.status == "none", (n, m, zp, s, t)
        else:
            assert res.status == "found" and res.length == want, (n, m, zp, s, t)
            check_witness(g, s, t, res)
