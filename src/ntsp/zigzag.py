"""Backward-pair search and realization of rise-fall-rise detours in the core.

A candidate is a pair of zero clusters (x side above, y side below) that some
shortest s-t path could visit out of level order: climb to the x cluster,
descend back to the y cluster along core edges, then climb to t.  Candidates
split by how the cluster dominator trees pin them to each other; the
cheapest unpinned (open) one comes from a short walk back from each cluster,
so nothing here visits all cluster pairs.  One walk
takes them cheapest first; a pinned candidate must pass a small unit-capacity
flow test, which only prunes, and any candidate counts once its realized
path passes verify_zigzag.  That verified witness is the confirmation.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import permutations

from .dominators import DomTree
from .graph import Graph
from .spdag import SpDag
from .sssp import DistLabels, bfs_path
from .zerostruct import (
    ClusterDag,
    ZeroPartition,
    backward_feasible,
    band_walk,
    build_cluster_dag,
    zero_path_within,
)

BIG = 10**9
SOURCE, SINK = -1, -2  # labels of a flow network's virtual endpoints

KIND_RANK = {"open": 0, "pinned_both": 1, "pinned_s": 2, "pinned_t": 3}


@dataclass(frozen=True)
class CoreContext:
    """Everything the backward-pair machinery needs about one query."""

    graph: Graph
    labels: DistLabels
    spdag: SpDag
    ts: DomTree
    tt: DomTree
    partition: ZeroPartition
    dag: ClusterDag


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


_audit_sink: list | None = None


@contextmanager
def audit_flows():
    """Collect (network, k, outcome) for every decision made inside the block."""
    global _audit_sink
    prev = _audit_sink
    _audit_sink = []
    try:
        yield _audit_sink
    finally:
        _audit_sink = prev


def max_flow_at_least(net: FlowNetwork, k: int) -> FlowOutcome:
    """Decide whether k units fit, with at most k augmentation rounds.

    Augments along breadth-first shortest residual paths; every round moves
    at least one unit, so k rounds settle the question.  The decomposition of
    whatever flow was found comes back as unit paths.
    """
    assert k in (2, 3)
    src = 2 * net.source
    dst = 2 * net.sink + 1
    total = 0
    rounds = 0
    nn = 2 * len(net.labels)
    while total < k:
        rounds += 1
        assert rounds <= k, "augmentation rounds exceeded the contract"
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
        bottleneck = BIG
        x = dst
        while x != src:
            aid = via[x]
            bottleneck = min(bottleneck, net.arc_cap[aid] - net.arc_flow[aid])
            x = net.arc_to[aid ^ 1]
        x = dst
        while x != src:
            aid = via[x]
            net.arc_flow[aid] += bottleneck
            net.arc_flow[aid ^ 1] -= bottleneck
            x = net.arc_to[aid ^ 1]
        total += bottleneck

    outcome = FlowOutcome(ok=total >= k, achieved=total, rounds=rounds, unit_paths=[])
    outcome.unit_paths = _decompose_units(net, total)
    if _audit_sink is not None:
        _audit_sink.append((net, k, outcome))
    return outcome


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

    sources/sinks are (node, capacity) pairs hung off the endpoints; such a
    node's own capacity rises to match.
    """
    caps = {SOURCE: BIG, SINK: BIG}
    for v in nodes:
        caps[v] = 1
    arcs = [(v, b, BIG) for v in nodes for b in succ(v) if b in caps]
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
    return bfs_path(
        start, goal,
        lambda x: (nb for nb, _ in adj[x] if nb not in banned and spdag.in_core[nb]),
    )


def cluster_route(
    dag: ClusterDag, start: int, goal: int, banned: set[int] = frozenset()
) -> list[int] | None:
    return bfs_path(start, goal, lambda c: (b for b, _, _, _ in dag.succ[c] if b not in banned))


def _arc_witness(dag: ClusterDag, a: int, b: int) -> tuple[int, int]:
    for head, _, u, v in dag.succ[a]:
        if head == b:
            return u, v
    raise AssertionError(f"no cluster arc {a}->{b}")


def expand_comp_walk(
    partition: ZeroPartition,
    dag: ClusterDag,
    comps: list[int],
    dirs: list[bool],
    enter: int,
    exit_: int,
) -> list[int]:
    """Expand a cluster walk to vertices, stitching zero paths inside clusters.

    dirs[i] tells whether the arc between comps[i] and comps[i+1] points
    forward; a backward step traverses the witness edge against its arc.
    """
    assert len(dirs) == len(comps) - 1
    cur = enter
    out: list[int] = []
    for i, fwd in enumerate(dirs):
        if fwd:
            u, v = _arc_witness(dag, comps[i], comps[i + 1])
            hop_from, hop_to = u, v
        else:
            u, v = _arc_witness(dag, comps[i + 1], comps[i])
            hop_from, hop_to = v, u
        seg = zero_path_within(partition, cur, hop_from)
        out.extend(seg)
        cur = hop_to
    out.extend(zero_path_within(partition, cur, exit_))
    return out


def forward_join(*segments: list[int]) -> list[int]:
    """Concatenate monotone segments, splicing out any revisit loop.

    Every loop in a purely forward walk sits at one level, so cutting it
    never changes the length.  Junction vertices must match up.
    """
    walk: list[int] = []
    for seg in segments:
        assert seg, "empty segment"
        if walk:
            assert walk[-1] == seg[0], "segments do not join"
            walk.extend(seg[1:])
        else:
            walk.extend(seg)
    out: list[int] = []
    at: dict[int, int] = {}
    for v in walk:
        if v in at:
            cut = at[v]
            for z in out[cut + 1 :]:
                del at[z]
            del out[cut + 1 :]
        else:
            out.append(v)
            at[v] = len(out) - 1
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
    for nb, w in spdag.succ_all[a]:
        if nb == b:
            return w
    for nb, w in spdag.pred_all[a]:
        if nb == b:
            return w
    return None


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

    Narrow interior corridors (components touching exactly one vertex on each
    side) are replaced by unit arcs; conduits maps such an arc back to the
    concrete corridor path.  h_succ retains the uncontracted span for direct
    cluster-to-cluster walks, and h_edges its directed edge set.
    """

    net: FlowNetwork
    zy: frozenset[int]
    zx: frozenset[int]
    conduits: dict[tuple[int, int], list[int]]
    h_succ: dict[int, list[int]]
    h_edges: frozenset[tuple[int, int]]


def build_candidate_network(ctx: CoreContext, cand: BackwardCandidate) -> CandidateNetwork:
    """The candidate's flow network; a pinned_t one is built as seen from t.

    Seen from t, a t-pinned pair is the s-pinned pair (comp_y, comp_x) over
    the reversed arcs: the network flipped_context would give that pair.  It
    is this network reversed, so it has the same max flow, and its flow
    units are the ones _realize_pinned_s expands in the flipped context.
    """
    spdag, partition, dag = ctx.spdag, ctx.partition, ctx.dag
    cy, cx = cand.comp_y, cand.comp_x
    verts: set[int] = set(partition.members[cy]) | set(partition.members[cx])
    # the span cy < c < cx: what a walk back from cx and a walk on from cy
    # both meet between the two levels
    lo, hi = dag.comp_level[cy], dag.comp_level[cx]
    span = set(band_walk(dag, cx, lo, hi, False))
    span.intersection_update(band_walk(dag, cy, lo, hi, True))
    for c in span:
        verts.update(partition.members[c])
    succ_pos = spdag.succ_pos
    if cand.kind == "pinned_t":
        cy, cx, succ_pos = cx, cy, spdag.pred_pos
    zy = frozenset(partition.members[cy])
    zx = frozenset(partition.members[cx])

    h_succ: dict[int, list[int]] = {v: [] for v in verts}
    for v in verts:
        for nb, _ in succ_pos[v]:
            if nb in verts:
                h_succ[v].append(nb)
    for u, v in spdag.zero_edges:
        if u in verts and v in verts:
            if (u in zy and v in zy) or (u in zx and v in zx):
                continue
            h_succ[u].append(v)
            h_succ[v].append(u)
    for v in verts:
        h_succ[v].sort()
    h_edges = frozenset((a, b) for a in h_succ for b in h_succ[a])

    # interior components; narrow ones become unit-capacity corridor arcs
    interior = sorted(verts - zy - zx)
    comp_of: dict[int, int] = {}
    comps: list[list[int]] = []
    for seed in interior:
        if seed in comp_of:
            continue
        cid = len(comps)
        comp_of[seed] = cid
        group = [seed]
        stack = [seed]
        while stack:
            x = stack.pop()
            for y in h_succ[x]:
                if y in zy or y in zx or y in comp_of:
                    continue
                comp_of[y] = cid
                group.append(y)
                stack.append(y)
        comps.append(sorted(group))

    conduits: dict[tuple[int, int], list[int]] = {}
    replaced: set[int] = set()
    for cid, group in enumerate(comps):
        gset = set(group)
        touch_y = sorted({b for v in group for b in h_succ[v] if b in zy}
                         | {a for a in zy for b in h_succ[a] if b in gset})
        touch_x = sorted({b for v in group for b in h_succ[v] if b in zx}
                         | {a for a in zx for b in h_succ[a] if b in gset})
        if len(touch_y) != 1 or len(touch_x) != 1:
            continue
        vy, ux = touch_y[0], touch_x[0]
        corridor = _directed_through(h_succ, gset, vy, ux)
        if corridor is None:
            continue  # no usable direction, capacity would be spurious
        conduits[(vy, ux)] = corridor
        replaced.add(cid)

    y_cap = 2 if cand.kind == "pinned_both" else 1
    x_cap = 2
    caps = {SOURCE: BIG, SINK: BIG}
    for v in sorted(zy):
        caps[v] = y_cap
    for v in sorted(zx):
        caps[v] = x_cap
    for v in interior:
        if comp_of[v] not in replaced:
            caps[v] = 1
    arcs = [(v, b, BIG) for v in sorted(caps) if v >= 0 for b in h_succ[v] if b in caps]
    arcs += [(vy, ux, 1) for vy, ux in sorted(conduits)]
    arcs += [(SOURCE, v, BIG) for v in sorted(zy)]
    arcs += [(v, SINK, BIG) for v in sorted(zx)]
    net = FlowNetwork.over(caps, arcs)
    return CandidateNetwork(net=net, zy=zy, zx=zx, conduits=conduits, h_succ=h_succ, h_edges=h_edges)


def _directed_through(
    h_succ: dict[int, list[int]], allowed: set[int], start: int, goal: int
) -> list[int] | None:
    """Fewest-hop directed walk start to goal with its inner vertices in allowed."""
    return bfs_path(start, goal, lambda x: (y for y in h_succ[x] if y == goal or y in allowed))


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


def best_open_pair(ctx: CoreContext) -> BackwardCandidate | None:
    """The open pair with the smallest (delta, comp_x, comp_y), or None.

    (cx, cy) is open when cy sits strictly between idom_s(cx) and cx, below
    cx, and cx strictly before idom_t(cy).  Given cy < cx, that last test
    holds exactly when idom_t(cy) strictly t-dominates cx.  So one walk back
    from each cx (open_region) lists its partners, and a later cx only needs
    the levels that could still beat the best delta so far.
    """
    dag = ctx.dag
    level, idom_t = dag.comp_level, dag.idom_t
    best: tuple[int, int, int] | None = None
    for cx in range(dag.count):
        if dag.idom_s.idom[cx] == -1:
            continue
        bound = math.inf if best is None else best[0] - 1
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


def pinned_candidate_pairs(ctx: CoreContext) -> list[BackwardCandidate]:
    """Cluster pairs pinned through a dominator relation, cheapest first."""
    dag, partition = ctx.dag, ctx.partition
    out: list[BackwardCandidate] = []
    for cx in range(dag.count):
        cy = dag.idom_s.idom[cx]
        if cy == -1:
            continue
        delta = dag.comp_level[cx] - dag.comp_level[cy]
        if delta <= 0:
            continue
        if dag.idom_t.idom[cy] == cx:
            rep_x = partition.representative(cx)
            rep_y = partition.representative(cy)
            if backward_feasible(rep_x, rep_y, partition, dag, ctx.ts, ctx.tt):
                out.append(BackwardCandidate("pinned_both", cx, cy, delta))
        elif not dag.idom_t.dominates(cx, cy):
            out.append(BackwardCandidate("pinned_s", cx, cy, delta))
    for cy in range(dag.count):
        cx = dag.idom_t.idom[cy]
        if cx == -1:
            continue
        delta = dag.comp_level[cx] - dag.comp_level[cy]
        if delta <= 0:
            continue
        if dag.idom_s.idom[cx] == cy:
            continue  # mutual pins were collected above
        if not dag.idom_s.dominates(cy, cx):
            out.append(BackwardCandidate("pinned_t", cx, cy, delta))
    out.sort(key=_walk_key)
    return out


def _walk_key(cand: BackwardCandidate) -> tuple[int, int, int, int]:
    return cand.delta, KIND_RANK[cand.kind], cand.comp_x, cand.comp_y


def best_backward_pair(ctx: CoreContext) -> tuple[BackwardCandidate, list[int]] | None:
    """Cheapest candidate with a verified witness path, and that path.

    The best open pair and the pinned pairs are walked in (delta, kind,
    comp_x, comp_y) order.  A pinned candidate is realized only once its
    flow test passes; the first realized path that verify_zigzag accepts
    wins, so a candidate that passes its flow test without expanding just
    gives way to the next one.  A t-pinned pair is expanded as an s-pinned
    one in the flipped context, built once a first such pair passes its
    flow test; its network is already the flipped one, so that flow is
    solved once.
    """
    cands = pinned_candidate_pairs(ctx)
    open_best = best_open_pair(ctx)
    if open_best is not None:
        cands = sorted(cands + [open_best], key=_walk_key)
    flipped: CoreContext | None = None
    for cand in cands:
        if cand.kind == "open":
            path = _realize_open(ctx, cand)
        else:
            cn = build_candidate_network(ctx, cand)
            res = max_flow_at_least(cn.net, candidate_flow_quota(cand))
            if not res.ok:
                continue
            if cand.kind == "pinned_both":
                path = _realize_pinned_both(ctx, cand, cn, res)
            elif cand.kind == "pinned_s":
                path = _realize_pinned_s(ctx, cand, cn, res)
            else:
                if flipped is None:
                    flipped = flipped_context(ctx)
                mirror = BackwardCandidate(
                    "pinned_s", comp_x=cand.comp_y, comp_y=cand.comp_x, delta=cand.delta
                )
                path = _realize_pinned_s(flipped, mirror, cn, res)
                if path is not None:
                    path = path[::-1]
        if path is not None and verify_zigzag(ctx.spdag, path, cand.delta):
            return cand, path
    return None


# ---------------------------------------------------------------------------
# realization


def _expand_conduit_units(cn: CandidateNetwork, units: list[list[int]]) -> list[list[int]]:
    """Replace corridor arcs in flow unit paths by their concrete corridors.

    Each corridor may back at most one unit; a pair that is also a plain edge
    stays an edge once the corridor is spent.
    """
    spent: set[tuple[int, int]] = set()
    out: list[list[int]] = []
    for unit in units:
        path = [unit[0]]
        for a, b in zip(unit, unit[1:]):
            if (a, b) in cn.conduits and (a, b) not in spent:
                spent.add((a, b))
                path.extend(cn.conduits[(a, b)][1:])
            else:
                assert (a, b) in cn.h_edges
                path.append(b)
        out.append(path)
    return out


def _trim_unit(cn: CandidateNetwork, unit: list[int]) -> list[int]:
    """Clip a unit path to its last y-cluster vertex and first x-cluster vertex."""
    i0 = max(i for i, v in enumerate(unit) if v in cn.zy)
    i1 = next(i for i in range(i0, len(unit)) if unit[i] in cn.zx)
    return unit[i0 : i1 + 1]


def _three_links_worker(
    ctx: CoreContext, wa: int, wb: int, wc: int, to_target: bool
) -> tuple[str, list[int], list[int]] | None:
    """Connect three same-cluster vertices to one side of the core.

    Ascending side (to_target False): builds a main path s->wa and an all-zero
    cross path wc->wb, vertex-disjoint apart from unavoidable overlaps that the
    caller re-checks.  Returns ("A", main, cross), or ("B", main, cross) when
    the construction lands on s->wb with cross wc->wa instead.  Descending side
    mirrors everything toward t; paths come back in the descending direction
    (main t->wa) for the caller to reorient.
    """
    spdag, partition = ctx.spdag, ctx.partition
    tree = ctx.tt if to_target else ctx.ts
    root = spdag.target if to_target else spdag.source
    p = tree.idom[wa]
    if p == -1:
        return None
    walk = climb_path(spdag, p, root, descending=not to_target)
    if walk is None:
        return None
    trunk = walk[::-1]  # root .. p
    net = vertex_flow_net(
        spdag, [(p, 2)], [(wa, 1), (wb, 1)], descending=to_target
    )
    res = max_flow_at_least(net, 2)
    if not res.ok:
        return None
    unit_a = next((u for u in res.unit_paths if u[-1] == wa), None)
    unit_b = next((u for u in res.unit_paths if u[-1] == wb), None)
    if unit_a is None or unit_b is None:
        return None
    main_a = forward_join(trunk, unit_a)
    main_b = forward_join(trunk, unit_b)
    if wc == wb:
        return "A", main_a, [wb]
    seen_a = set(unit_a)
    seen_b = set(unit_b)
    if wc in seen_a:
        return "B", main_b, unit_a[unit_a.index(wc):]
    if wc in seen_b:
        return "A", main_a, unit_b[unit_b.index(wc):]
    z = zero_path_within(partition, wb, wc)
    hits = [i for i, v in enumerate(z) if v in seen_a or v in seen_b]
    if not hits:
        return "A", main_a, z[::-1]
    q = z[hits[-1]]
    if q in seen_a:
        # wb's zero walk last meets the wa unit: swap roles
        cross = z[hits[-1]:][::-1] + unit_a[unit_a.index(q) + 1:]
        if any(spdag.level[v] != spdag.level[wc] for v in cross):
            return None
        return "B", main_b, cross
    cross = z[hits[-1]:][::-1] + unit_b[unit_b.index(q) + 1:]
    if any(spdag.level[v] != spdag.level[wc] for v in cross):
        return None
    return "A", main_a, cross


def _realize_open(ctx: CoreContext, cand: BackwardCandidate) -> list[int] | None:
    """Expand an open pair: reach the y cluster twice, then descend once.

    Walks a cluster route from the y side to the target, picks a revisit
    cluster v on it at the y level, and closes with a 2-unit cluster flow
    from {source, v} to the x cluster.  The concatenated cluster walk rises
    to x, falls back to v, and follows the route out.
    """
    spdag, partition, dag = ctx.spdag, ctx.partition, ctx.dag
    cx, cy = cand.comp_x, cand.comp_y
    route = cluster_route(dag, cy, dag.target_comp, banned={cx})
    if route is None:
        return None
    region = set(open_region(dag, cx, cand.delta))
    picks = [
        i
        for i, c in enumerate(route)
        if dag.comp_level[c] == dag.comp_level[cy] and c in region
    ]
    for i in reversed(picks):
        v = route[i]
        tail = route[i:]
        banned = set(tail[1:])
        net = endpoint_net(
            [c for c in range(dag.count) if c not in banned],
            lambda c: (b for b, _, _, _ in dag.succ[c]),
            [(dag.source_comp, 1), (v, 1)],
            [(cx, 2)],
        )
        res = max_flow_at_least(net, 2)
        if not res.ok:
            continue
        s1 = next((u for u in res.unit_paths if u[0] == dag.source_comp), None)
        s2 = next((u for u in res.unit_paths if u[0] == v), None)
        if s1 is None or s2 is None:
            continue
        comps = s1 + s2[::-1][1:] + tail[1:]
        if len(set(comps)) != len(comps):
            continue
        dirs = (
            [True] * (len(s1) - 1)
            + [False] * (len(s2) - 1)
            + [True] * (len(tail) - 1)
        )
        path = expand_comp_walk(partition, dag, comps, dirs, spdag.source, spdag.target)
        if verify_zigzag(spdag, path, cand.delta):
            return path
    return None


def _realize_pinned_both(
    ctx: CoreContext, cand: BackwardCandidate, cn: CandidateNetwork, res: FlowOutcome
) -> list[int] | None:
    units = _expand_conduit_units(cn, res.unit_paths)
    units = [_trim_unit(cn, u) for u in units]
    pool: list[list[int]] = []
    for u in units:
        if u not in pool:
            pool.append(u)
    # wide augmenting rounds can hand back the same walk twice and starve a
    # slot; direct cluster-to-cluster walks refill the pool with fresh ones,
    # up to 8 walks so that the trio permutations stay bounded
    interiors = {v for v in cn.h_succ if v not in cn.zy and v not in cn.zx}
    for y in sorted(cn.zy):
        for x in sorted(cn.zx):
            if len(pool) >= 8:
                break
            walk = _directed_through(cn.h_succ, interiors, y, x)
            if walk is not None and walk not in pool:
                pool.append(walk)
    for trio in permutations(pool, 3):
        path = _assemble_pinned_both(ctx, cand, trio)
        if path is not None:
            return path
    return None


def _assemble_pinned_both(
    ctx: CoreContext, cand: BackwardCandidate, trio
) -> list[int] | None:
    """Try one slot assignment of three cluster-to-cluster unit paths.

    Slots follow the zigzag order: P1 carries the first ascent, P2 the final
    one, P3 is traversed backward as the descent.  Both cluster crossings are
    stitched with the three-way link construction; its B shape on the y side
    is the same arrangement under another slot order, so it is skipped here.
    """
    spdag = ctx.spdag
    p1, p2, p3 = trio
    y1, x1 = p1[0], p1[-1]
    y2, x2 = p2[0], p2[-1]
    y3, x3 = p3[0], p3[-1]
    if y1 == y2 or x2 == x3 or y3 == y1:
        return None
    ylinks = _three_links_worker(ctx, y1, y2, y3, to_target=False)
    if ylinks is None or ylinks[0] != "A":
        return None
    _, q1, q2 = ylinks
    if x1 == x2:
        r = climb_path(spdag, x3, spdag.target, banned={x1})
        if r is None:
            return None
        path = strict_join(q1, p1, p2[::-1], q2[::-1], p3, r)
    else:
        xlinks = _three_links_worker(ctx, x2, x3, x1, to_target=True)
        if xlinks is None:
            return None
        shape, main_w, cross_w = xlinks
        if shape == "A":
            path = strict_join(q1, p1, cross_w, p3[::-1], q2, p2, main_w[::-1])
        else:
            path = strict_join(q1, p1, cross_w, p2[::-1], q2[::-1], p3, main_w[::-1])
    if path is not None and verify_zigzag(spdag, path, cand.delta):
        return path
    return None


def _realize_pinned_s(
    ctx: CoreContext, cand: BackwardCandidate, cn: CandidateNetwork, res: FlowOutcome
) -> list[int] | None:
    """Expand an s-pinned pair: descend once into the y cluster, leave once.

    The exit route from the y cluster to t avoids the x cluster (it exists by
    the non-domination side condition).  A revisit vertex v on its level-Ly
    prefix splits the route; a 2-unit vertex flow from {s, v} into the x
    cluster supplies the two ascents, and the route tail finishes the walk.
    """
    spdag, partition, dag = ctx.spdag, ctx.partition, ctx.dag
    cx, cy = cand.comp_x, cand.comp_y
    level_y = dag.comp_level[cy]
    units = [_trim_unit(cn, u) for u in _expand_conduit_units(cn, res.unit_paths)]
    route = cluster_route(dag, cy, dag.target_comp, banned={cx})
    if route is None:
        return None
    for entry in dict.fromkeys(u[0] for u in units):
        expanded = expand_comp_walk(
            partition, dag, route, [True] * (len(route) - 1), entry, spdag.target
        )
        # the revisit vertex is the last one of the route's level-Ly prefix
        at = 0
        while at + 1 < len(expanded) and spdag.level[expanded[at + 1]] == level_y:
            at += 1
        v = expanded[at]
        tail = expanded[at:]
        tail_block = set(tail) - {v}
        for exit_v in dict.fromkeys(u[-1] for u in units):
            if exit_v in tail:
                continue
            net = vertex_flow_net(
                spdag, [(spdag.source, 1), (v, 1)], [(exit_v, 2)], banned=tail_block
            )
            r2 = max_flow_at_least(net, 2)
            if not r2.ok:
                continue
            s1 = next((u for u in r2.unit_paths if u[0] == spdag.source), None)
            s2 = next((u for u in r2.unit_paths if u[0] == v), None)
            if s1 is None or s2 is None:
                continue
            path = strict_join(s1, s2[::-1], tail)
            if path is not None and verify_zigzag(spdag, path, cand.delta):
                return path
    return None


def flipped_context(ctx: CoreContext) -> CoreContext:
    """The same core seen from t: arcs reversed, the dominator roles swapped.

    Cluster structure is direction-free, so the partition carries over with
    severed arcs reversed; the cluster dag is rebuilt on the reversed arcs.
    """
    sp, lb = ctx.spdag, ctx.labels
    flabels = DistLabels(
        source=lb.target,
        target=lb.source,
        from_s=lb.to_t,
        to_t=lb.from_s,
        shortest=lb.shortest,
    )
    fsp = SpDag(
        n=sp.n,
        source=sp.target,
        target=sp.source,
        in_core=sp.in_core,
        core_edge=sp.core_edge,
        arcs=tuple(sorted((v, u, w) for u, v, w in sp.arcs)),
        zero_edges=sp.zero_edges,
        succ_pos=sp.pred_pos,
        pred_pos=sp.succ_pos,
        zero_adj=sp.zero_adj,
        succ_all=sp.pred_all,
        pred_all=sp.succ_all,
        level=tuple(lb.to_t),
    )
    fts = DomTree(
        root=ctx.tt.root, direction="from_s", host="core",
        idom=ctx.tt.idom, tin=ctx.tt.tin, tout=ctx.tt.tout,
    )
    ftt = DomTree(
        root=ctx.ts.root, direction="to_t", host="core",
        idom=ctx.ts.idom, tin=ctx.ts.tin, tout=ctx.ts.tout,
    )
    fpart = ZeroPartition(
        comp=ctx.partition.comp,
        members=ctx.partition.members,
        comp_level=tuple(flabels.from_s[m[0]] for m in ctx.partition.members),
        severed=tuple(sorted((v, u) for u, v in ctx.partition.severed)),
        surviving_adj=ctx.partition.surviving_adj,
    )
    fdag = build_cluster_dag(fsp, fpart, fts, ftt)
    return CoreContext(
        graph=ctx.graph, labels=flabels, spdag=fsp, ts=fts, tt=ftt,
        partition=fpart, dag=fdag,
    )


def zigzag_shortest(ctx: CoreContext) -> tuple[int, list[int]] | None:
    """Best rise-fall-rise walk: its length and a witness path, or None."""
    found = best_backward_pair(ctx)
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
    u_s = next((u for u in res.unit_paths if u[0] == s), None)
    u_t = next((u for u in res.unit_paths if u[0] == t), None)
    if u_s is None or u_t is None:
        return None
    return u_s, u_t[::-1], u_s[-1] == b
