"""Clusters of zero-weight edges and the contracted DAG above them.

Zero edges that realize a dominator relation, read off one block DFS per
side rather than the core's dominator trees, are severed and oriented; what
survives groups into clusters whose members are mutually reachable without
ever crossing one of their own dominators.  Contracting each cluster to a
single node yields a DAG whose directed reachability is the precedence order
the backward-pair search runs on.  A core without zero edges is its own
cluster DAG (zero_free_dag).  Nothing here stores that order for all pairs.
Both cluster dominator trees are built in one pass over a topological order
(dominators.dag_dominators): the order the Kahn count that checks a
contraction for a cycle pops the clusters in, or the core sorted by level.
band_walk is the one search over the arcs, kept to a band of levels, and
the zigzag layer's walks are made of it.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, compress

from .dominators import DomTree, dag_dominators
from .spdag import SpDag, biconnected_blocks
from .sssp import bfs_path


class ClusterCycleError(RuntimeError):
    """The contracted digraph has a cycle, which signals an upstream bug."""


@dataclass(frozen=True)
class ZeroPartition:
    """Partition of core vertices into zero clusters.

    comp[v] is -1 off the core; cluster ids are dense, in order of smallest
    member.  severed holds the oriented zero edges that realized a dominator
    relation, at vertex level; surviving_adj is the intra-cluster zero
    adjacency left over, a sorted row for each vertex that has one.
    """

    comp: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    comp_level: tuple[int, ...]
    severed: tuple[tuple[int, int], ...]
    surviving_adj: dict[int, list[int]]

    @property
    def count(self) -> int:
        return len(self.members)


def zero_clusters(spdag: SpDag) -> ZeroPartition:
    """Sever the zero edges that realize a dominator relation, orient them,
    and group the remainder.

    Positive arcs climb a level and zero edges keep it, so a path from s
    enters a zero component once, at an entry, and stays in it.  Seen from
    a virtual root joined to the entries, a vertex of v's component then
    dominates v exactly when it separates v from that root, and the nearest
    such vertex is the top of v's block.  So idom_s(v) is top_s[v] whenever
    it lies in v's component, and top_s[v] is the root otherwise; top_t
    does the same from t over the reversed arcs.
    """
    # the zero rows, shared by both sides' DFSs; the entries are the
    # zero-edge vertices that a positive arc enters (s side) or leaves (t side)
    rows: dict[int, list[int]] = {}
    for u, v in spdag.zero_edges:
        rows.setdefault(u, []).append(v)
        rows.setdefault(v, []).append(u)
    heads: set[int] = set()
    tails: set[int] = set()
    if rows:
        for u, v, _ in spdag.arcs:
            if v in rows:
                heads.add(v)
            if u in rows:
                tails.add(u)
    top_s = _block_tops(rows, spdag.n, spdag.source, heads)
    top_t = _block_tops(rows, spdag.n, spdag.target, tails)
    surviving: dict[int, list[int]] = {}
    severed: list[tuple[int, int]] = []
    for u, v in spdag.zero_edges:
        # u -> v when u immediately dominates v from s or v does u from t
        fwd = top_s[v] == u or top_t[u] == v
        back = top_s[u] == v or top_t[v] == u
        assert not (fwd and back), f"conflicting orientation for zero edge {(u, v)}"
        if fwd or back:
            severed.append((u, v) if fwd else (v, u))
        else:
            # the edges come sorted with u < v, so every row fills sorted
            surviving.setdefault(u, []).append(v)
            surviving.setdefault(v, []).append(u)

    level = spdag.level
    comp = [-1] * spdag.n
    members: list[tuple[int, ...]] = []
    comp_level: list[int] = []
    for v in compress(range(spdag.n), spdag.in_core):
        if comp[v] != -1:
            continue
        cid = len(members)
        comp[v] = cid
        group = [v]
        if v in surviving:
            for x in group:
                for y in surviving[x]:
                    if comp[y] == -1:
                        comp[y] = cid
                        group.append(y)
            group.sort()
            assert all(level[x] == level[v] for x in group)
        members.append(tuple(group))
        comp_level.append(level[v])

    # s and t never absorb neighbors: a zero edge at either endpoint is
    # itself a complete path from that endpoint, forcing the dominator
    # relation that severs it.
    assert members[comp[spdag.source]] == (spdag.source,)
    assert members[comp[spdag.target]] == (spdag.target,)
    for u, v in severed:
        assert comp[u] != comp[v], "severed zero edge inside one cluster"
    return ZeroPartition(
        comp=tuple(comp),
        members=tuple(members),
        comp_level=tuple(comp_level),
        severed=tuple(sorted(severed)),
        surviving_adj=surviving,
    )


def _block_tops(
    rows: dict[int, list[int]], root: int, end: int, entries: set[int]
) -> dict[int, int]:
    """The top of each zero-edge vertex's block in the zero rows plus a
    virtual root, id root, joined to the side's entries: end and the
    vertices in entries.  The root is added to rows and taken out again."""
    starts = [v for v in rows if v == end or v in entries]
    for v in starts:
        rows[v].append(root)
    rows[root] = starts
    top: dict[int, int] = {}
    for p, members in biconnected_blocks(rows, root, root + 1):
        for v in members:
            top[v] = p
    del rows[root]
    for v in starts:
        rows[v].pop()
    assert len(top) == len(rows), "a zero-edge vertex that no entry reaches"
    return top


def zero_path_within(partition: ZeroPartition | None, a: int, b: int) -> list[int]:
    """Deterministic simple path from a to b inside their shared cluster.
    A zero-free core has no partition, and a cluster is its one vertex."""
    if partition is None:
        assert a == b, "a zero-free cluster is one vertex"
        return [a]
    assert partition.comp[a] == partition.comp[b] != -1
    path = bfs_path(a, b, partition.surviving_adj.__getitem__)
    assert path is not None, "cluster members are zero-connected"
    return path


@dataclass(slots=True)
class ClusterDag:
    """Contraction of the core onto zero clusters, or the core itself when
    it has no zero edge.

    succ[c] and pred[c] are sorted int rows of heads and tails; an arc a -> b
    weighs comp_level[b] - comp_level[a].  witness maps a contraction's arc
    (a, b) to a core edge (u, v) joining the clusters; zero arcs come from
    severed edges.  A zero-free DAG has cluster id = vertex id, witness None
    (an arc is its own edge) and one shared empty row off the core.  nodes
    lists the cluster ids in ascending order.  The arcs are acyclic; no
    topological order is kept.

    Built once per query and never written to afterwards; not frozen,
    since a frozen dataclass's field-by-field setattr is a measurable share
    of a small query.
    """

    count: int
    succ: list[Sequence[int]]
    pred: list[Sequence[int]]
    idom_s: DomTree
    idom_t: DomTree
    source_comp: int
    target_comp: int
    comp_level: Sequence[int]
    witness: dict[tuple[int, int], tuple[int, int]] | None
    nodes: Sequence[int]

    @classmethod
    def over(cls, succ, pred, order, sc, tc, level, witness, nodes) -> ClusterDag:
        """The DAG on these rows, both dominator trees taken along order."""
        count = len(succ)
        idom_s = dag_dominators(count, pred, order, sc)
        idom_t = dag_dominators(count, succ, order[::-1], tc)
        return cls(count, succ, pred, idom_s, idom_t, sc, tc, level, witness, nodes)


def band_walk(
    dag: ClusterDag, start: int, lo: int, hi: int, forward: bool, avoid: int = -1
) -> Iterator[int]:
    """Clusters reached from start along the arcs, or against them, as met.

    The walk enters only clusters whose level lies in [lo, hi] and never
    enters avoid; start itself is not listed.  Levels never fall along an
    arc, so a walk can only leave the band on one side.
    """
    arcs, level = (dag.succ if forward else dag.pred), dag.comp_level
    seen = {start, avoid}
    stack = [start]
    while stack:
        for c in arcs[stack.pop()]:
            if c not in seen and lo <= level[c] <= hi:
                seen.add(c)
                yield c
                stack.append(c)


def zero_free_dag(spdag: SpDag) -> ClusterDag:
    """The cluster DAG of a core without zero edges: the core itself.

    Every arc climbs a level, so the core vertices sorted by level are a
    topological order, and both dominator passes run over it.  The arcs
    come sorted by (u, v), so every row fills sorted.
    """
    assert not spdag.zero_edges
    n, level = spdag.n, spdag.level
    core = list(compress(range(n), spdag.in_core))
    succ: list[Sequence[int]] = [()] * n
    pred: list[Sequence[int]] = [()] * n
    for v in core:
        succ[v] = []
        pred[v] = []
    for u, v, _ in spdag.arcs:
        succ[u].append(v)
        pred[v].append(u)
    order = sorted(core, key=level.__getitem__)
    return ClusterDag.over(succ, pred, order, spdag.source, spdag.target, level, None, core)


def build_cluster_dag(spdag: SpDag, partition: ZeroPartition) -> ClusterDag:
    """Contract the core onto the partition; ClusterCycleError on a cycle."""
    comp, level = partition.comp, partition.comp_level
    count = partition.count
    # one witness per arc, the least (u, v) of the parallel core edges
    witness: dict[tuple[int, int], tuple[int, int]] = {}
    for u, v, w in chain(spdag.arcs, ((u, v, 0) for u, v in partition.severed)):
        key = (comp[u], comp[v])
        cur = witness.get(key)
        if cur is None:
            witness[key] = (u, v)
        else:
            assert w == level[key[1]] - level[key[0]], "parallel cluster arcs must agree in weight"
            if (u, v) < cur:
                witness[key] = (u, v)

    succ: list[list[int]] = [[] for _ in range(count)]
    pred: list[list[int]] = [[] for _ in range(count)]
    for a, b in witness:
        succ[a].append(b)
        pred[b].append(a)
    for row in chain(succ, pred):
        row.sort()

    # Kahn's count: every cluster leaves the ready stack iff there is no
    # cycle, and the order they leave in feeds both dominator passes
    indeg = [len(p) for p in pred]
    ready = [c for c in range(count) if indeg[c] == 0]
    order: list[int] = []
    while ready:
        c = ready.pop()
        order.append(c)
        for b in succ[c]:
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
    if len(order) != count:
        raise ClusterCycleError("cluster contraction is cyclic")

    sc, tc = comp[spdag.source], comp[spdag.target]
    return ClusterDag.over(succ, pred, order, sc, tc, level, witness, range(count))
