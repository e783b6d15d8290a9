"""Acceptance gate: one test per shipping criterion, scored in the summary.

Each test records a PASS/FAIL line through the conftest scoreboard and then
asserts, so a red run still prints the full picture at the end.
"""
from __future__ import annotations

import gc
import math
import random
import sys
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

import ntsp.cli as cli
import ntsp.zigzag
from conftest import record_criterion
from dagoracle import backward_feasible, cluster_topo_order
from graphcases import EXPECTED, NAMED, chain_fan, corpus, named_graph, zgrid
from ntsp.detour import anchor_array, detour_candidates
from ntsp.dominators import core_dominator_trees
from ntsp.graph import build_graph, parse_graph, random_graph, serialize_graph
from ntsp.oracle import (
    enumerate_simple_st_paths,
    oracle_backward_pairs,
    oracle_immediate_dominator,
    oracle_next_to_shortest,
    oracle_zero_clusters,
    path_length,
)
from ntsp.solver import (
    build_core_context,
    core_context,
    distance_stage,
    next_to_shortest,
    structure_stage,
)
from ntsp.spdag import build_core
from ntsp.sssp import distance_labels
from ntsp.zerostruct import build_cluster_dag, zero_clusters
from ntsp.zigzag import (
    build_candidate_network,
    candidate_flow_quota,
    pinned_candidate_pairs,
    zigzag_shortest,
)
from test_zigzag import every_pinned_pair


def valid_witness(g, s, t, res) -> bool:
    path = list(res.path)
    if path[0] != s or path[-1] != t or len(set(path)) != len(path):
        return False
    if any(g.edge_index(a, b) is None for a, b in zip(path, path[1:])):
        return False
    return path_length(g, path) == res.length and res.length > res.shortest


def run_equivalence(instances):
    """Solver vs exhaustive search; returns (checked, first few mismatches)."""
    problems = []
    for i, (g, s, t) in enumerate(instances):
        res = next_to_shortest(g, s, t)
        want = oracle_next_to_shortest(g, s, t)
        got = res.length if res.status == "found" else None
        if got != want:
            problems.append(f"#{i}: solver {got}, oracle {want}")
        elif res.status == "found" and not valid_witness(g, s, t, res):
            problems.append(f"#{i}: bad witness {res.path}")
        if len(problems) >= 5:
            break
    return problems


def test_criterion_1_fixtures():
    t0 = time.perf_counter()
    problems = []
    for name in sorted(NAMED):
        g, s, t = named_graph(name)
        status, kind, length = EXPECTED[name]
        res = next_to_shortest(g, s, t)
        if (res.status, res.kind, res.length) != (status, kind, length):
            problems.append(f"{name}: got {(res.status, res.kind, res.length)}")
        elif status == "found" and not valid_witness(g, s, t, res):
            problems.append(f"{name}: bad witness")
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 1.0
    record_criterion(1, ok, f"{len(NAMED)} fixtures exact, {elapsed:.3f} s")
    assert ok, (problems, elapsed)


def test_criterion_2_oracle_equivalence(criterion_corpus):
    t0 = time.perf_counter()
    problems = run_equivalence(criterion_corpus)
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 300.0
    record_criterion(
        2, ok, f"{len(criterion_corpus)} mixed-weight instances, {elapsed:.1f} s"
    )
    assert ok, (problems, elapsed)


def test_criterion_3_positive_weight_regression():
    instances = corpus(5000, zero_probs=(0.0,), seed=20260823)
    t0 = time.perf_counter()
    problems = run_equivalence(instances)
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 300.0
    record_criterion(3, ok, f"{len(instances)} positive-weight instances, {elapsed:.1f} s")
    assert ok, (problems, elapsed)


def _structural_problems(g, s, t, rng_walks) -> str | None:
    labels = distance_labels(g, s, t)
    spdag = build_core(g, labels)
    ts, tt = core_dominator_trees(spdag)
    partition = zero_clusters(spdag)
    dag = build_cluster_dag(spdag, partition)
    level = spdag.level

    # core membership against enumeration, vertices and edges
    paths, truncated = enumerate_simple_st_paths(g, s, t)
    assert not truncated
    d = labels.shortest
    tight = [p for p in paths if path_length(g, p) == d]
    core_v = set().union(*map(set, tight))
    core_e = {g.edge_index(a, b) for p in tight for a, b in zip(p, p[1:])}
    if core_v != {v for v in range(g.n) if spdag.in_core[v]}:
        return "core vertex set"
    if core_e != {i for i in range(g.m) if spdag.core_edge[i]}:
        return "core edge set"

    # dominators against the removal oracle, both directions
    succ_plain = [[b for b, _ in row] for row in spdag.succ_all]
    pred_plain = [[b for b, _ in row] for row in spdag.pred_all]
    for v in sorted(core_v):
        if v != s and ts.idom[v] != oracle_immediate_dominator(g.n, succ_plain, s, v):
            return f"idom_s({v})"
        if v != t and tt.idom[v] != oracle_immediate_dominator(g.n, pred_plain, t, v):
            return f"idom_t({v})"

    # zero clusters by definition, plus shared level and dominators
    want = oracle_zero_clusters(spdag, ts.idom, tt.idom)
    if [set(m) for m in partition.members] != want:
        return "zero clusters"
    for members in partition.members:
        if len({(level[v], ts.idom[v], tt.idom[v]) for v in members}) != 1:
            return "cluster not level-flat"

    # contracted DAG: acyclic, weights rigid, zero arcs pinned by a dominator
    topo_index = {c: i for i, c in enumerate(cluster_topo_order(dag))}
    if len(topo_index) != dag.count:
        return "cluster arcs close a cycle"
    for a in range(dag.count):
        for b in dag.succ[a]:
            if topo_index[a] >= topo_index[b]:
                return "cluster arc against topo order"
            u, v = dag.witness[a, b]
            if partition.comp[u] != a or partition.comp[v] != b or g.edge_index(u, v) is None:
                return "cluster arc witness"
            # an arc weighs its level gap, which is its witness edge's weight
            w = dag.comp_level[b] - dag.comp_level[a]
            if g.ew[g.edge_index(u, v)] != w:
                return "cluster arc weight"
            if w == 0 and not (a == dag.idom_s.idom[b] or b == dag.idom_t.idom[a]):
                return "zero arc dominator property"

    # backward feasibility is necessary for every oracle-valid pair, and
    # feasible pairs always descend in level
    for x, y in oracle_backward_pairs(g, spdag):
        if not backward_feasible(x, y, partition, dag, ts, tt):
            return f"valid pair ({x},{y}) not feasible"
    for x in sorted(core_v):
        for y in sorted(core_v):
            if x != y and backward_feasible(x, y, partition, dag, ts, tt):
                if level[y] >= level[x]:
                    return f"feasible pair ({x},{y}) does not descend"

    # directed walks in the oriented core cost exactly the level gap
    for _ in range(5):
        v = rng_walks.choice(sorted(core_v))
        start, total = v, 0
        for _ in range(6):
            nxt = spdag.succ_all[v]
            if not nxt:
                break
            v, w = rng_walks.choice(nxt)
            total += w
        if total != level[v] - level[start]:
            return "walk not rigid"
    return None


def test_criterion_4_structural_invariants(criterion_corpus):
    rng_walks = random.Random(424242)
    t0 = time.perf_counter()
    problems = []
    for i, (g, s, t) in enumerate(criterion_corpus):
        complaint = _structural_problems(g, s, t, rng_walks)
        if complaint is not None:
            problems.append(f"#{i}: {complaint}")
            if len(problems) >= 5:
                break
    elapsed = time.perf_counter() - t0
    ok = not problems
    record_criterion(
        4, ok, f"invariant suite over {len(criterion_corpus)} instances, {elapsed:.1f} s"
    )
    assert ok, problems


def scipy_max_flow(net) -> int:
    """Generic max-flow on the split network, forward arcs only."""
    order = 2 * len(net.labels)
    rows, cols, caps = [], [], []
    for aid in range(0, len(net.arc_to), 2):
        rows.append(net.arc_to[aid ^ 1])
        cols.append(net.arc_to[aid])
        caps.append(min(net.arc_cap[aid], 10**9))
    mat = csr_matrix(
        (np.array(caps, dtype=np.int32), (np.array(rows), np.array(cols))),
        shape=(order, order),
    )
    return int(maximum_flow(mat, 2 * net.source, 2 * net.sink + 1).flow_value)


def test_criterion_5_flow_discipline(criterion_corpus, flow_log):
    t0 = time.perf_counter()
    audited = 0
    problems = []
    for i, (g, s, t) in enumerate(criterion_corpus):
        flow_log.clear()
        next_to_shortest(g, s, t)
        # the solver builds no zigzag layer when the detour is within
        # shortest + 2, so the audit also walks the zigzag unbounded and
        # solves every pinned pair's network; a pair the capacity gate drops
        # must fail its test
        ctx = build_core_context(g, distance_labels(g, s, t))
        zigzag_shortest(ctx)
        listed = pinned_candidate_pairs(ctx)
        for cand in every_pinned_pair(ctx):
            cn = build_candidate_network(ctx, cand)
            res = ntsp.zigzag.max_flow_at_least(cn.net, candidate_flow_quota(cand))
            if res.ok and cand not in listed:
                problems.append(f"#{i}: gated pair {cand} carries {res.achieved} units")
        for net, k, outcome in flow_log:
            audited += 1
            if outcome.rounds > 3 or outcome.rounds > k:
                problems.append(f"#{i}: {outcome.rounds} rounds for k={k}")
            # one unit per round, and a failed round ends the search
            if outcome.rounds != outcome.achieved + (not outcome.ok) or outcome.achieved > k:
                problems.append(
                    f"#{i}: {outcome.rounds} rounds moved {outcome.achieved} units for k={k}"
                )
            if outcome.ok != (scipy_max_flow(net) >= k):
                problems.append(f"#{i}: verdict disagrees with generic max flow")
        if len(problems) >= 5:
            break
    elapsed = time.perf_counter() - t0
    # 6,325 here, 1,678 while a mutual pin was audited only when the core
    # trees' feasibility test admitted it; the solver's own flows alone were
    # 1,454 before it skipped the zigzag layer under a detour within
    # shortest + 2
    ok = not problems and audited >= 1454
    record_criterion(
        5, ok, f"{audited} flow solves, <= 3 rounds of one unit each, {elapsed:.1f} s"
    )
    assert ok, problems


def timed(run) -> float:
    """Wall time of one call of run, with the garbage collector held off."""
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    run()
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def interleaved_best(small, big, passes):
    """Best-of-3 times of two runs, interleaved, over up to three attempts.

    The box runs shared; a neighbour's burst can inflate one size of one
    attempt.  Each attempt interleaves the sizes and keeps the minimum (the
    low-interference estimator), and a fresh attempt after a pause answers
    a burst that covered a whole attempt.  An attempt whose two bests
    satisfy passes ends the loop.  Returns every attempt's (small, big)
    bests and the slowest raw run.
    """
    attempts = []
    worst = 0.0
    for attempt in range(3):
        runs: tuple[list[float], list[float]] = ([], [])
        for _ in range(3):
            for rs, run in zip(runs, (small, big)):
                rs.append(timed(run))
        best = (min(runs[0]), min(runs[1]))
        worst = max(worst, max(max(rs) for rs in runs))
        attempts.append(best)
        if passes(*best):
            break
        time.sleep(2.0)
    return attempts, worst


def run_pipeline(g, labels, parent) -> None:
    # the structure and crossing-scan layers, without realization
    spdag, _ = structure_stage(g, labels)
    detour_candidates(g, labels, spdag, anchor_array(g, spdag, parent))


def test_criterion_6_near_linear_scaling():
    sizes = (1 << 16, 1 << 17)
    runs = []
    worst = 0.0
    for n in sizes:
        g = random_graph(n, 4 * n, 8, 0.2, seed=1)
        labels, parent = distance_stage(g, 0, n - 1)  # sssp runs untimed
        runs.append(partial(run_pipeline, g, labels, parent))
        worst = max(worst, timed(runs[-1]))  # warmup
    # every raw run stays under the hard cap regardless
    attempts, slowest = interleaved_best(*runs, lambda small, big: big / small <= 2.6)
    worst = max(worst, slowest)
    small, big = attempts[-1]
    ratio = big / small
    ok = ratio <= 2.6 and worst < 10.0
    record_criterion(
        6,
        ok,
        f"best {small:.2f} s -> {big:.2f} s, ratio {ratio:.2f} "
        f"(attempt {len(attempts)} of 3), worst run {worst:.2f} s",
    )
    assert ok, (attempts, ratio, worst)


def test_criterion_7_deterministic_json(tmp_path, capsys):
    outputs = []
    for _ in range(3):
        chunks = []
        for name in sorted(NAMED):
            g, s, t = named_graph(name)
            path = tmp_path / f"{name}.txt"
            path.write_text(serialize_graph(g))
            rc = cli.main(["solve", str(path), "-s", str(s), "-t", str(t), "--json"])
            assert rc == 0
            chunks.append(capsys.readouterr().out)
        outputs.append("".join(chunks).encode())
    ok = outputs[0] == outputs[1] == outputs[2]
    record_criterion(7, ok, "3 json runs over the fixture set, byte-identical")
    assert ok


def unit_grid(k: int):
    edges = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                edges.append((v, v + 1, 1))
            if r + 1 < k:
                edges.append((v, v + k, 1))
    return build_graph(k * k, edges)


def traced_peak(run) -> int:
    """tracemalloc's peak, in bytes, over one call of run."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cluster_dag_peak_mib(g, s, t) -> float:
    # core_context builds the DAG the zigzag layer walks; on these zero-free
    # grids that is the core itself, and no contraction runs
    labels = distance_labels(g, s, t)
    spdag = build_core(g, labels)
    return traced_peak(partial(core_context, labels, spdag)) / 2**20


def test_criterion_8_wide_core_scaling():
    # unit k-by-k grid, corner to corner: every core vertex is its own
    # cluster, so any pass quadratic in the cluster count shows here
    sizes = (64, 128)
    queries = {k: (unit_grid(k), 0, k * k - 1) for k in sizes}
    runs = [partial(next_to_shortest, *queries[k]) for k in sizes]
    for run in runs:
        timed(run)  # warmup
    attempts, _ = interleaved_best(
        *runs, lambda small, big: big / small <= 8.0 and big < 3.0
    )
    small, big = attempts[-1]
    ratio = big / small
    peaks = [cluster_dag_peak_mib(*queries[k]) for k in sizes]
    growth = peaks[1] / peaks[0]
    ok = ratio <= 8.0 and big < 3.0 and growth <= 4.5
    record_criterion(
        8,
        ok,
        f"grid k=64 -> 128 best {small:.2f} s -> {big:.2f} s, ratio {ratio:.2f} "
        f"(attempt {len(attempts)} of 3); cluster dag peak {peaks[0]:.1f} -> "
        f"{peaks[1]:.1f} MiB, x{growth:.2f}",
    )
    assert ok, (attempts, ratio, peaks)


class WorkBudgetExceeded(Exception):
    """A traced query executed more lines than its budget allows."""


def executed_lines(g, s, t, budget: float = math.inf) -> int:
    """Python line events of one whole query, stopping once past budget."""
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > budget:
                raise WorkBudgetExceeded
        return on_line

    sys.settrace(lambda frame, event, arg: on_line)
    try:
        next_to_shortest(g, s, t)
    finally:
        sys.settrace(None)
    return count


@pytest.fixture(scope="module")
def work_families():
    """Criterion 9's six families, a small and a large query each; criterion
    10 reads the same queries."""
    return {
        "unit grid k=32->128": [(unit_grid(k), 0, k * k - 1) for k in (32, 128)],
        "zgrid p=0.3 k=32->128": [(zgrid(k, 0.3), 0, k * k - 1) for k in (32, 128)],
        "random zp=0.2 n=4096->16384": [
            (random_graph(n, 4 * n, 8, 0.2, seed=1), 0, n - 1) for n in (4096, 16384)
        ],
        # weights up to 4*10**9 rarely repeat a distance, so both distance
        # passes run on the heap form
        "random W=4e9 n=4096->16384": [
            (random_graph(n, 4 * n, 4 * 10**9, 0, seed=1), 0, n - 1) for n in (4096, 16384)
        ],
        # each fan vertex's two cluster predecessors lie L tree steps apart
        "chain-plus-fan L=500->2000": [chain_fan(L) for L in (500, 2000)],
        # weights in {0, 1}: distance 0 and a detour of length 1, which ends
        # the query before any zero cluster is built, so the trim's block
        # DFS over the large tight subgraph does much of the work
        "zero-heavy random zp=0.9 n=4000->16000": [
            (random_graph(n, 2 * n, 1, 0.9, seed=5), 0, n - 1) for n in (4000, 16000)
        ],
    }


def test_criterion_9_work_per_size(work_families):
    # executed lines are exact and repeatable where wall time is noisy;
    # per unit of n + m they must stay flat as each family grows
    bound = 1.10
    notes = []
    ok = True
    for name, (small, big) in work_families.items():
        small_rate = executed_lines(*small) / (small[0].n + small[0].m)
        big_size = big[0].n + big[0].m
        try:
            big_rate = executed_lines(*big, budget=bound * small_rate * big_size) / big_size
            ratio = big_rate / small_rate
            got = f"{big_rate:.1f} lines/(n+m), ratio {ratio:.2f}"
        except WorkBudgetExceeded:
            ratio = math.inf
            got = f"stopped past {bound * small_rate:.1f} lines/(n+m), ratio > {bound:.2f}"
        ok = ok and ratio <= bound
        notes.append(f"{name} {small_rate:.1f} -> {got}")
    record_criterion(9, ok, "; ".join(notes))
    assert ok, notes


# bytes per (n + m) of one whole query's peak, for either size of the
# family: a few percent above the readings, small -> large, noted after
# each (Python 3.11); lower a ceiling when a change shrinks its family
QUERY_PEAK_CEILINGS = {
    "unit grid k=32->128": 240,  # 215 -> 227
    "zgrid p=0.3 k=32->128": 315,  # 300 -> 282
    "random zp=0.2 n=4096->16384": 48,  # 45 -> 45
    "random W=4e9 n=4096->16384": 44,  # 40 -> 41
    "chain-plus-fan L=500->2000": 370,  # 333 -> 349
    "zero-heavy random zp=0.9 n=4000->16000": 125,  # 117 -> 118
}
PARSE_PEAK_CEILING = 170  # bytes per edge at m = 32,768; read 159


def test_criterion_10_memory_per_size(work_families):
    # tracemalloc counts are exact, so memory that grows faster than the
    # input, or a copy of it that comes back, shows without timing noise
    bound = 1.10
    notes = []
    ok = True
    for name, (small, big) in work_families.items():
        rates = [
            traced_peak(partial(next_to_shortest, *q)) / (q[0].n + q[0].m) for q in (small, big)
        ]
        ratio = rates[1] / rates[0]
        ceiling = QUERY_PEAK_CEILINGS[name]
        ok = ok and ratio <= bound and max(rates) <= ceiling
        notes.append(
            f"{name} {rates[0]:.0f} -> {rates[1]:.0f} B/(n+m) "
            f"(ceiling {ceiling}), ratio {ratio:.2f}"
        )
    g = random_graph(8192, 32768, 8, 0.2, seed=3)
    text = serialize_graph(g).encode()
    per_edge = traced_peak(partial(parse_graph, text)) / g.m
    ok = ok and per_edge <= PARSE_PEAK_CEILING
    notes.append(f"parse_graph m=32768 {per_edge:.0f} B/edge (ceiling {PARSE_PEAK_CEILING})")
    record_criterion(10, ok, "; ".join(notes))
    assert ok, notes
