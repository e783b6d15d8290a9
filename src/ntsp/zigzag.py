"""Backward-pair search and realization of rise-fall-rise detours in the core.

A candidate is a pair of zero clusters (x side above, y side below) that some
shortest s-t path could visit out of level order: climb to the x cluster,
descend back to the y cluster along core edges, then climb to t.  Candidates
split by how the cluster dominator trees pin them to each other; the
cheapest unpinned (open) one comes from a short walk back from each cluster,
so nothing here visits all cluster pairs.  One walk takes them cheapest
first, only below the length bound the solver passes (the detour's), and
ends at the open pair, which always realizes.  A pinned candidate must pass
a small unit-capacity flow test, which only prunes.  Any candidate
counts once its realized path passes verify_zigzag; that verified witness
is the confirmation.  Every realization is built from unit-capacity flows
and walks over the query's one CoreContext; a t-pinned pair is the
s-pinned construction run from t in that same context.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import permutations

from .spdag import SpDag
from .sssp import DistLabels, bfs_path
from .zerostruct import ClusterDag, ZeroPartition, band_walk, zero_path_within
from .zerostruct import build_cluster_dag  # noqa: F401  perfbench wraps ntsp.zigzag's name

BIG = 10**9
SOURCE, SINK = -1, -2  # labels of a flow network's virtual endpoints

KIND_RANK = {"open": 0, "pinned_both": 1, "pinned_s": 2, "pinned_t": 3}


class RealizationExhausted(RuntimeError):
    """A candidate the case analysis guarantees did not expand into a path;
    an internal bug."""


@dataclass(slots=True)
class CoreContext:
    """Everything the backward-pair machinery needs about one query; never
    written to after construction.  partition is None on a core without
    zero edges, whose dag is the core itself."""

    labels: DistLabels
    spdag: SpDag
    partition: ZeroPartition | None
    dag: ClusterDag

    def members(self, c: int) -> tuple[int, ...]:
        """The core vertices of cluster c."""
        return (c,) if self.partition is None else self.partition.members[c]


# ---------------------------------------------------------------------------
# unit-capacity max flow with vertex splitting


@dataclass
class FlowNetwork:
    """Directed flow network over split nodes; labels map back to vertices.

    Node i occupies split nodes 2i (in) and 2i+1 (out) joined by an internal
    arc of the node's capacity.  labels[i] is the caller's vertex id, or a
    negative marker for virtual endpoints.
    """

    labels: list[int]
    caps: list[int]
    source: int
    sink: int
    arc_to: list[int] = field(default_factory=list)
    arc_cap: list[int] = field(default_factory=list)
    arc_flow: list[int] = field(default_factory=list)
    adj: list[list[int]] = field(default_factory=list)

    def _add_arc(self, a: int, b: int, cap: int) -> None:
        self.adj[a].append(len(self.arc_to))
        self.arc_to.append(b)
        self.arc_cap.append(cap)
        self.arc_flow.append(0)
        self.adj[b].append(len(self.arc_to))
        self.arc_to.append(a)
        self.arc_cap.append(0)
        self.arc_flow.append(0)

    @classmethod
    def build(
        cls,
        labels: list[int],
        caps: list[int],
        edges: list[tuple[int, int, int]],
        source: int,
        sink: int,
    ) -> FlowNetwork:
        net = cls(labels=labels, caps=caps, source=source, sink=sink)
        net.adj = [[] for _ in range(2 * len(labels))]
        for i, c in enumerate(caps):
            net._add_arc(2 * i, 2 * i + 1, c)
        for a, b, cap in edges:
            net._add_arc(2 * a + 1, 2 * b, cap)
        return net

    @classmethod
    def over(cls, caps: dict[int, int], arcs: list[tuple[int, int, int]]) -> FlowNetwork:
        """Network whose nodes are caps' labels, in insertion order.

        arcs name labels; caps must hold the SOURCE and SINK markers.
        """
        ids = {v: i for i, v in enumerate(caps)}
        edges = [(ids[a], ids[b], cap) for a, b, cap in arcs]
        return cls.build(list(caps), list(caps.values()), edges, ids[SOURCE], ids[SINK])


@dataclass
class FlowOutcome:
    ok: bool
    achieved: int
    rounds: int
    unit_paths: list[list[int]]  # real vertex ids, virtual endpoints stripped


def max_flow_at_least(net: FlowNetwork, k: int) -> FlowOutcome:
    """Decide whether k units fit, with at most k augmentation rounds.

    Augments one unit per round along a breadth-first shortest residual
    path, so k rounds settle the question and a round that finds no path
    ends the search.  The networks built here could not carry more along
    one path anyway: every arc between two nodes of an endpoint_net has
    capacity 1.  The decomposition of whatever flow was found comes back
    as unit paths.
    """
    assert k in (2, 3)
    src = 2 * net.source
    dst = 2 * net.sink + 1
    total = 0
    rounds = 0
    nn = 2 * len(net.labels)
    while total < k:
        rounds += 1
        via = [-1] * nn
        via[src] = -2
        queue = [src]
        qi = 0
        while qi < len(queue) and via[dst] == -1:
            x = queue[qi]
            qi += 1
            for aid in net.adj[x]:
                y = net.arc_to[aid]
                if via[y] == -1 and net.arc_cap[aid] - net.arc_flow[aid] > 0:
                    via[y] = aid
                    queue.append(y)
        if via[dst] == -1:
            break
        x = dst
        while x != src:
            aid = via[x]
            net.arc_flow[aid] += 1
            net.arc_flow[aid ^ 1] -= 1
            x = net.arc_to[aid ^ 1]
        total += 1

    return FlowOutcome(
        ok=total >= k, achieved=total, rounds=rounds, unit_paths=_decompose_units(net, total)
    )


def _decompose_units(net: FlowNetwork, total: int) -> list[list[int]]:
    """Split the flow into unit source-sink paths, splicing out stray loops."""
    src = 2 * net.source
    dst = 2 * net.sink + 1
    out: list[list[int]] = []
    for _ in range(total):
        walk = [src]
        seen_at = {src: 0}
        x = src
        while x != dst:
            for aid in net.adj[x]:
                if aid % 2 == 0 and net.arc_flow[aid] > 0:
                    net.arc_flow[aid] -= 1
                    net.arc_flow[aid ^ 1] += 1
                    y = net.arc_to[aid]
                    break
            else:
                raise AssertionError("flow conservation violated")
            if y in seen_at:
                cut = seen_at[y]
                for z in walk[cut + 1 :]:
                    del seen_at[z]
                del walk[cut + 1 :]
            else:
                walk.append(y)
                seen_at[y] = len(walk) - 1
            x = y
        # collapse split pairs to vertices, strip virtual endpoints
        real: list[int] = []
        for node in walk:
            v = net.labels[node // 2]
            if v < 0:
                continue
            if not real or real[-1] != v:
                real.append(v)
        out.append(real)
    return out


def endpoint_net(
    nodes: list[int],
    succ: Callable[[int], Iterable[int]],
    sources: list[tuple[int, int]],
    sinks: list[tuple[int, int]],
) -> FlowNetwork:
    """Unit-capacity network over nodes along succ, between virtual endpoints.

    Every node and every node-to-node arc has capacity 1, so two units never
    share an arc.  sources/sinks are (node, capacity) pairs hung off the
    endpoints; such a node's own capacity rises to match.
    """
    caps = {SOURCE: BIG, SINK: BIG}
    for v in nodes:
        caps[v] = 1
    arcs = [(v, b, 1) for v in nodes for b in succ(v) if b in caps]
    for v, cap in sources:
        caps[v] = max(caps[v], cap)
        arcs.append((SOURCE, v, cap))
    for v, cap in sinks:
        caps[v] = max(caps[v], cap)
        arcs.append((v, SINK, cap))
    return FlowNetwork.over(caps, arcs)


def vertex_flow_net(
    spdag: SpDag,
    sources: list[tuple[int, int]],
    sinks: list[tuple[int, int]],
    banned: set[int] = frozenset(),
    descending: bool = False,
) -> FlowNetwork:
    """endpoint_net over the core vertices following the monotone arcs.

    descending walks the arcs in reverse (toward s instead of toward t).
    """
    adj = spdag.pred_all if descending else spdag.succ_all
    nodes = [v for v in range(spdag.n) if spdag.in_core[v] and v not in banned]
    return endpoint_net(nodes, lambda v: (nb for nb, _ in adj[v]), sources, sinks)


# ---------------------------------------------------------------------------
# deterministic path primitives


def climb_path(
    spdag: SpDag, start: int, goal: int, banned: set[int] = frozenset(), descending: bool = False
) -> list[int] | None:
    """Fewest-hop monotone path start to goal, smallest ids first, or None."""
    adj = spdag.pred_all if descending else spdag.succ_all
    return bfs_path(start, goal, lambda x: (nb for nb, _ in adj[x] if spdag.in_core[nb]), banned)


def cluster_route(
    dag: ClusterDag, start: int, goal: int, banned: set[int] = frozenset(), forward: bool = True
) -> list[int] | None:
    """Fewest-arc cluster walk start to goal along the arcs, or against them
    when forward is False, smallest ids first, or None."""
    arcs = dag.succ if forward else dag.pred
    return bfs_path(start, goal, arcs.__getitem__, banned)


def _arc_witness(dag: ClusterDag, a: int, b: int) -> tuple[int, int]:
    """The core edge (u in a, v in b) behind the step from cluster a to b,
    along its arc or against it; on a zero-free DAG, (a, b) itself."""
    if dag.witness is None:
        if b in dag.succ[a] or a in dag.succ[b]:
            return a, b
    elif (a, b) in dag.witness:
        return dag.witness[a, b]
    elif (b, a) in dag.witness:
        v, u = dag.witness[b, a]
        return u, v
    raise AssertionError(f"no cluster arc between {a} and {b}")


def expand_comp_walk(
    partition: ZeroPartition | None, dag: ClusterDag, comps: list[int], enter: int, exit_: int
) -> list[int]:
    """Expand a cluster walk, each step along an arc or against it, to
    vertices, stitching zero paths inside clusters."""
    cur = enter
    out: list[int] = []
    for a, b in zip(comps, comps[1:]):
        hop_from, hop_to = _arc_witness(dag, a, b)
        out.extend(zero_path_within(partition, cur, hop_from))
        cur = hop_to
    out.extend(zero_path_within(partition, cur, exit_))
    return out


def strict_join(*segments: list[int]) -> list[int] | None:
    """Concatenate, requiring global simplicity; None when vertices repeat."""
    out: list[int] = []
    seen: set[int] = set()
    for seg in segments:
        if not seg:
            return None
        start = 0
        if out:
            if out[-1] != seg[0]:
                return None
            start = 1
        for v in seg[start:]:
            if v in seen:
                return None
            out.append(v)
            seen.add(v)
    return out


def core_step_weight(spdag: SpDag, a: int, b: int) -> int | None:
    """Weight of the core edge between a and b, either direction, else None."""
    g = spdag.graph
    e = g.edge_index(a, b)
    return g.ew[e] if e is not None and spdag.core_edge[e] else None


def verify_zigzag(spdag: SpDag, path: list[int], delta: int) -> bool:
    """Simple s-t path in the core, correct length, single descending stretch."""
    if len(path) < 2 or path[0] != spdag.source or path[-1] != spdag.target:
        return False
    if len(set(path)) != len(path):
        return False
    total = 0
    pattern: list[str] = []
    for a, b in zip(path, path[1:]):
        w = core_step_weight(spdag, a, b)
        if w is None:
            return False
        total += w
        if w == 0:
            continue
        pattern.append("f" if spdag.level[b] > spdag.level[a] else "b")
    dst = spdag.level[spdag.target]
    if total != dst + 2 * delta:
        return False
    drops = [i for i, c in enumerate(pattern) if c == "b"]
    if not drops:
        return False
    lo, hi = drops[0], drops[-1]
    return all(c == "b" for c in pattern[lo : hi + 1])


# ---------------------------------------------------------------------------
# candidates


@dataclass(frozen=True)
class BackwardCandidate:
    """A cluster pair that might close an optimal backward detour."""

    kind: str  # open / pinned_both / pinned_s / pinned_t
    comp_x: int
    comp_y: int
    delta: int


@dataclass
class CandidateNetwork:
    """Flow network over the span between a candidate's two clusters.

    Every span vertex is a unit node, except that zy hangs off the source
    with capacity 2 for a pinned_both pair and 1 otherwise, and zx feeds
    the sink with capacity 2.  h_succ holds the span's steps, which the
    unit arcs follow and the direct cluster-to-cluster walks reuse; no two
    units share an arc, so the three of a pinned_both pair differ.
    """

    net: FlowNetwork
    zy: frozenset[int]
    zx: frozenset[int]
    h_succ: dict[int, list[int]]


def build_candidate_network(ctx: CoreContext, cand: BackwardCandidate) -> CandidateNetwork:
    """The candidate's flow network; a pinned_t one is built as seen from t.

    Seen from t, a t-pinned pair is an s-pinned pair with the clusters'
    roles swapped: its network runs against the arcs from the x cluster
    (zy here) to the y cluster (zx here).  That is the s-side network
    reversed, so it has the same max flow, and its units come out oriented
    the way _realize_pinned expands a t-pinned pair.
    """
    spdag, dag, members = ctx.spdag, ctx.dag, ctx.members
    cy, cx = cand.comp_y, cand.comp_x
    verts: set[int] = set(members(cy)) | set(members(cx))
    # the span cy < c < cx: what a walk back from cx and a walk on from cy
    # both meet between the two levels
    lo, hi = dag.comp_level[cy], dag.comp_level[cx]
    span = set(band_walk(dag, cx, lo, hi, False))
    span.intersection_update(band_walk(dag, cy, lo, hi, True))
    for c in span:
        verts.update(members(c))
    rows = spdag.succ_all
    if cand.kind == "pinned_t":
        cy, cx, rows = cx, cy, spdag.pred_all
    zy = frozenset(members(cy))
    zx = frozenset(members(cx))

    # the span's steps, minus the zero steps inside one end cluster; rows
    # are sorted by (nb, w), so every list comes out sorted
    h_succ: dict[int, list[int]] = {}
    for v in verts:
        own = zy if v in zy else zx if v in zx else ()
        h_succ[v] = [nb for nb, w in rows[v] if nb in verts and (w or nb not in own)]

    y_cap = 2 if cand.kind == "pinned_both" else 1
    net = endpoint_net(
        sorted(verts),
        h_succ.__getitem__,
        [(v, y_cap) for v in sorted(zy)],
        [(v, 2) for v in sorted(zx)],
    )
    return CandidateNetwork(net=net, zy=zy, zx=zx, h_succ=h_succ)


def candidate_flow_quota(cand: BackwardCandidate) -> int:
    return 3 if cand.kind == "pinned_both" else 2


def open_region(dag: ClusterDag, cx: int, max_delta: float) -> Iterable[int]:
    """Clusters c with idom_s(cx) < c < cx and L(cx) - L(c) <= max_delta.

    A backward walk from cx that never enters the gate idom_s(cx).  The gate
    dominates cx, so every cluster the walk meets sits strictly after it.
    """
    if len(dag.pred[cx]) < 2:
        return ()  # a lone predecessor is the gate itself
    top = dag.comp_level[cx]
    return band_walk(dag, cx, top - max_delta, top, False, avoid=dag.idom_s.idom[cx])


def best_open_pair(ctx: CoreContext, hi: float = math.inf) -> BackwardCandidate | None:
    """The open pair with the smallest (delta, comp_x, comp_y) and delta < hi,
    or None.

    (cx, cy) is open when cy sits strictly between idom_s(cx) and cx, below
    cx, and cx strictly before idom_t(cy).  Given cy < cx, that last test
    holds exactly when idom_t(cy) strictly t-dominates cx.  So one walk back
    from each cx (open_region) lists its partners, and a later cx only needs
    the levels that could still beat the best delta so far.
    """
    dag = ctx.dag
    level, idom_t = dag.comp_level, dag.idom_t
    best: tuple[int, int, int] | None = None
    for cx in dag.nodes:
        if dag.idom_s.idom[cx] == -1:
            continue
        bound = hi - 1 if best is None else best[0] - 1
        if bound < 1:
            break
        for cy in open_region(dag, cx, bound):
            delta = level[cx] - level[cy]
            gate_out = idom_t.idom[cy]
            if delta <= 0 or gate_out == -1 or not idom_t.strictly_dominates(gate_out, cx):
                continue
            key = (delta, cx, cy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return BackwardCandidate("open", comp_x=best[1], comp_y=best[2], delta=best[0])


def pinned_candidate_pairs(ctx: CoreContext, hi: float = math.inf) -> list[BackwardCandidate]:
    """Cluster pairs pinned through a dominator relation, with 0 < delta < hi,
    that their flow test could pass, cheapest first.

    When cy = idom_s(cx), cx t-dominates cy only as idom_t(cy): a nearer
    t-dominator of cy would lie on every cy-cx path and so s-dominate cx
    after cy.  The mirror argument covers cx = idom_t(cy), so a pair that
    is not mutually pinned is s- or t-pinned outright.

    A candidate network (build_candidate_network) hangs its source-side
    cluster off the source at capacity 1 per member, 2 for a pinned_both
    pair, and its sink-side cluster off the sink at 2 per member, so the
    flow is at most either side's capacity.  The source side is cy, or cx
    for a pinned_t pair, which is built from t.  A singleton there caps a
    2-unit test at 1, and a singleton on either side caps a pinned_both
    pair's 3-unit test at 2, so those pairs are dropped unlisted.  On a
    zero-free core every cluster is a singleton, so none is listed.
    """
    if ctx.partition is None:
        return []
    dag, members = ctx.dag, ctx.partition.members
    out: list[BackwardCandidate] = []
    for cx in range(dag.count):
        cy = dag.idom_s.idom[cx]
        if cy == -1:
            continue
        delta = dag.comp_level[cx] - dag.comp_level[cy]
        if not 0 < delta < hi:
            continue
        if dag.idom_t.idom[cy] == cx:
            if len(members[cx]) > 1 and len(members[cy]) > 1:
                out.append(BackwardCandidate("pinned_both", cx, cy, delta))
        elif len(members[cy]) > 1:
            out.append(BackwardCandidate("pinned_s", cx, cy, delta))
    for cy in range(dag.count):
        cx = dag.idom_t.idom[cy]
        if cx == -1:
            continue
        delta = dag.comp_level[cx] - dag.comp_level[cy]
        if not 0 < delta < hi:
            continue
        # mutual pins were collected above
        if dag.idom_s.idom[cx] != cy and len(members[cx]) > 1:
            out.append(BackwardCandidate("pinned_t", cx, cy, delta))
    out.sort(key=_walk_key)
    return out


def _walk_key(cand: BackwardCandidate) -> tuple[int, int, int, int]:
    return cand.delta, KIND_RANK[cand.kind], cand.comp_x, cand.comp_y


def _candidate_walk(ctx: CoreContext, hi: float) -> Iterator[BackwardCandidate]:
    """The pinned pairs below hi and below the best open pair's delta in
    _walk_key order, then that open pair, if its delta is below hi.

    The open pair always realizes, so the walk ends there and the pinned
    pairs at or above its delta are never built.
    """
    open_best = best_open_pair(ctx, hi)
    yield from pinned_candidate_pairs(ctx, hi if open_best is None else open_best.delta)
    if open_best is not None:
        yield open_best


def best_backward_pair(
    ctx: CoreContext, below: float = math.inf
) -> tuple[BackwardCandidate, list[int]] | None:
    """Cheapest candidate shorter than below with a verified witness path,
    and that path.

    The solver passes the detour's length as below, so only candidates with
    shortest + 2*delta < below are walked: a tie goes to the detour.  They
    come in (delta, kind, comp_x, comp_y) order (_candidate_walk).  A pinned
    candidate is realized only once its flow test passes, and one whose
    construction fails or whose path verify_zigzag rejects gives way to the
    next.  The open pair ends the walk: it is realized by one construction,
    and a failure there raises RealizationExhausted.
    """
    # 2*delta < below - shortest, as an exclusive integer bound on delta
    hi = below if below == math.inf else (below - ctx.labels.shortest + 1) // 2
    for cand in _candidate_walk(ctx, hi):
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
        if cand.kind == "open":
            raise RealizationExhausted(f"open pair {cand} did not realize")
    return None


# ---------------------------------------------------------------------------
# realization


def _trim_unit(cn: CandidateNetwork, unit: list[int]) -> list[int]:
    """Clip a unit path to its last y-cluster vertex and first x-cluster vertex."""
    i0 = max(i for i, v in enumerate(unit) if v in cn.zy)
    i1 = next(i for i in range(i0, len(unit)) if unit[i] in cn.zx)
    return unit[i0 : i1 + 1]


def _three_links_worker(
    ctx: CoreContext, wa: int, wb: int, wc: int, to_target: bool
) -> tuple[str, list[int], list[int]] | None:
    """Connect three same-cluster vertices to one side of the core.

    One 2-unit vertex flow from {s, wc} into {wa, wb} along the arcs.  The
    unit from s is the main path; the one from wc is the cross path, and it
    stays on the cluster's level, since no arc climbs back down to it; with
    wc equal to wa or wb it is that one vertex.  Returns ("A", main, cross)
    when the main path ends at wa, ("B", main, cross) when it ends at wb,
    or None when the flow fails.  The caller re-checks overlaps with its
    other pieces.  The descending side (to_target) flows from t against the
    arcs; paths come back in that direction (main t->wa) for the caller to
    reorient.
    """
    spdag = ctx.spdag
    root = spdag.target if to_target else spdag.source
    net = vertex_flow_net(
        spdag, [(root, 1), (wc, 1)], [(wa, 1), (wb, 1)], descending=to_target
    )
    res = max_flow_at_least(net, 2)
    if not res.ok:
        return None
    main = next(u for u in res.unit_paths if u[0] == root)
    cross = next(u for u in res.unit_paths if u[0] == wc)
    return ("A" if main[-1] == wa else "B"), main, cross


def _realize_open(ctx: CoreContext, cand: BackwardCandidate) -> list[int]:
    """Expand an open pair: reach the y cluster twice, then descend once.

    Walks a cluster route from the y side to the target, avoiding the x
    cluster; it exists because cx does not t-dominate cy.  The revisit
    cluster v is the route's last cluster at the y level inside
    open_region, which holds cy itself.  A 2-unit cluster flow from
    {source, v} to the x cluster closes the walk: it rises to x, falls back
    to v, and follows the route out.  A flow that fails raises
    RealizationExhausted.
    """
    spdag, partition, dag = ctx.spdag, ctx.partition, ctx.dag
    cx, cy = cand.comp_x, cand.comp_y
    route = cluster_route(dag, cy, dag.target_comp, banned={cx})
    region = set(open_region(dag, cx, cand.delta))
    at = max(
        i for i, c in enumerate(route) if dag.comp_level[c] == dag.comp_level[cy] and c in region
    )
    v, tail = route[at], route[at:]
    banned = set(tail[1:])
    # only clusters that reach cx can carry flow; kept sorted, they give the
    # augmenting paths of a network over every cluster
    feeders = sorted([cx, *band_walk(dag, cx, 0, dag.comp_level[cx], False)])
    net = endpoint_net(
        [c for c in feeders if c not in banned],
        dag.succ.__getitem__,
        [(dag.source_comp, 1), (v, 1)],
        [(cx, 2)],
    )
    res = max_flow_at_least(net, 2)
    if not res.ok:
        raise RealizationExhausted(f"open pair {cand}: no two ascents into the x cluster")
    s1 = next(u for u in res.unit_paths if u[0] == dag.source_comp)
    s2 = next(u for u in res.unit_paths if u[0] == v)
    comps = s1 + s2[::-1][1:] + tail[1:]
    return expand_comp_walk(partition, dag, comps, spdag.source, spdag.target)


def _realize_pinned_both(
    ctx: CoreContext, cn: CandidateNetwork, res: FlowOutcome
) -> list[int] | None:
    """Expand a doubly pinned pair: the first slot assignment of three unit
    paths that joins into a simple path, or None."""
    # three distinct units: each uses an arc, and every arc carries one
    pool = [_trim_unit(cn, u) for u in res.unit_paths]
    # The slot rules (y1 != y2, y1 != y3, x2 != x3) can still reject every
    # trio of those three, so direct walks refill the pool, capped at 8 to
    # bound the trio permutations.  Over 328,108 seeded small queries, 229
    # of 661 wins used a refill walk and 14 calls reached the cap; without
    # the refill one win was lost (that query's answer is a detour).
    interiors = {v for v in cn.h_succ if v not in cn.zy and v not in cn.zx}
    for y in sorted(cn.zy):
        for x in sorted(cn.zx):
            if len(pool) >= 8:
                break
            walk = bfs_path(
                y, x, lambda a: (b for b in cn.h_succ[a] if b == x or b in interiors)
            )
            if walk is not None and walk not in pool:
                pool.append(walk)
    # the trios share their ends, so one link flow serves many of them
    links = cache(partial(_three_links_worker, ctx))
    for trio in permutations(pool, 3):
        path = _assemble_pinned_both(links, trio)
        if path is not None:
            return path
    return None


def _assemble_pinned_both(links: Callable, trio) -> list[int] | None:
    """Try one slot assignment of three cluster-to-cluster unit paths.

    links is _three_links_worker with the query's context bound.

    Slots follow the zigzag order: P1 carries the first ascent, P2 the final
    one, P3 is traversed backward as the descent.  Both cluster crossings are
    stitched with the three-way link construction; its B shape on the y side
    is the same arrangement under another slot order, so it is skipped here.
    """
    p1, p2, p3 = trio
    y1, x1 = p1[0], p1[-1]
    y2, x2 = p2[0], p2[-1]
    y3, x3 = p3[0], p3[-1]
    if y1 == y2 or x2 == x3 or y3 == y1:
        return None
    ylinks = links(y1, y2, y3, False)
    if ylinks is None or ylinks[0] != "A":
        return None
    _, q1, q2 = ylinks
    xlinks = links(x2, x3, x1, True)
    if xlinks is None:
        return None
    shape, main_w, cross_w = xlinks
    if shape == "A":
        return strict_join(q1, p1, cross_w, p3[::-1], q2, p2, main_w[::-1])
    return strict_join(q1, p1, cross_w, p2[::-1], q2[::-1], p3, main_w[::-1])


def _realize_pinned(
    ctx: CoreContext, cand: BackwardCandidate, cn: CandidateNetwork, res: FlowOutcome
) -> list[int] | None:
    """Expand an s- or t-pinned pair: descend once into the y cluster, leave once.

    Described for an s-pinned pair.  The first flow unit names the entry
    into the y cluster and the exit from the x cluster.  The route from the
    entry to t avoids the x cluster, and so the exit; both follow from the
    non-domination side condition.  A revisit vertex v, the last of the
    route's level-Ly prefix, splits it; a 2-unit vertex flow from {s, v}
    into the exit supplies the two ascents, and the route tail finishes the
    walk.  A t-pinned pair is the same construction seen from t: the two
    clusters trade roles, the route runs against the arcs to s, the flow
    descends from t, and the walk comes back reversed.  None when that flow
    fails or the pieces repeat a vertex.
    """
    spdag, partition, dag = ctx.spdag, ctx.partition, ctx.dag
    forward = cand.kind == "pinned_s"
    cx, cy = (cand.comp_x, cand.comp_y) if forward else (cand.comp_y, cand.comp_x)
    start, end = (spdag.source, spdag.target) if forward else (spdag.target, spdag.source)
    level_y = dag.comp_level[cy]
    unit = _trim_unit(cn, res.unit_paths[0])
    goal = dag.target_comp if forward else dag.source_comp
    route = cluster_route(dag, cy, goal, banned={cx}, forward=forward)
    expanded = expand_comp_walk(partition, dag, route, unit[0], end)
    at = 0
    while at + 1 < len(expanded) and spdag.level[expanded[at + 1]] == level_y:
        at += 1
    v, tail = expanded[at], expanded[at:]
    net = vertex_flow_net(
        spdag, [(start, 1), (v, 1)], [(unit[-1], 2)],
        banned=set(tail) - {v}, descending=not forward,
    )
    r2 = max_flow_at_least(net, 2)
    if not r2.ok:
        return None
    s1 = next(u for u in r2.unit_paths if u[0] == start)
    s2 = next(u for u in r2.unit_paths if u[0] == v)
    path = strict_join(s1, s2[::-1], tail)
    return path if forward or path is None else path[::-1]


def zigzag_shortest(ctx: CoreContext, below: float = math.inf) -> tuple[int, list[int]] | None:
    """Best rise-fall-rise walk strictly shorter than below (the detour's
    length, when there is one): its length and a witness path, or None."""
    found = best_backward_pair(ctx, below)
    if found is None:
        return None
    cand, path = found
    return ctx.labels.shortest + 2 * cand.delta, path


# ---------------------------------------------------------------------------
# disjoint climb pair (shared with the detour scan)


def _mixed_lane_net(spdag: SpDag, a: int, b: int, lane: int) -> FlowNetwork:
    caps = {SOURCE: BIG, SINK: BIG}
    for v in spdag.core_vertices():
        caps[v] = 1
    arcs: list[tuple[int, int, int]] = []
    for u, v, _ in spdag.arcs:
        if spdag.level[v] <= lane:
            arcs.append((u, v, BIG))
        if spdag.level[u] >= lane:
            arcs.append((v, u, BIG))
    for u, v in spdag.zero_edges:
        arcs.append((u, v, BIG))
        arcs.append((v, u, BIG))
    arcs.append((SOURCE, spdag.source, 1))
    arcs.append((SOURCE, spdag.target, 1))
    arcs.append((a, SINK, 1))
    arcs.append((b, SINK, 1))
    return FlowNetwork.over(caps, arcs)


def disjoint_st_pair(
    spdag: SpDag, a: int, b: int
) -> tuple[list[int], list[int], bool] | None:
    """Vertex-disjoint monotone paths s->one of {a,b} and other->t.

    Greedy orientation first; when both orders jam the pair sits on one level,
    and a two-unit flow over the mixed lane network decides.  Returns the
    s-side path, the t-side path, and whether the s side ends at b.
    """
    s, t = spdag.source, spdag.target
    for first, second, swapped in ((a, b, False), (b, a, True)):
        ban1 = {second, t} - {first}
        down = climb_path(spdag, first, s, banned=ban1, descending=True)
        if down is None:
            continue
        p1 = down[::-1]
        p2 = climb_path(spdag, second, t, banned=set(p1))
        if p2 is not None:
            return p1, p2, swapped
    if spdag.level[a] != spdag.level[b]:
        return None
    net = _mixed_lane_net(spdag, a, b, spdag.level[a])
    res = max_flow_at_least(net, 2)
    if not res.ok:
        return None
    u_s = next(u for u in res.unit_paths if u[0] == s)
    u_t = next(u for u in res.unit_paths if u[0] == t)
    return u_s, u_t[::-1], u_s[-1] == b
