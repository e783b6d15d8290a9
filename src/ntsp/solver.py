"""Top-level query: the minimum-length simple s-t path longer than shortest.

The answer is the better of two scans.  The zigzag scan covers paths that
stay inside the core and pay with one backward stretch; the detour scan
covers paths that leave the tree-or-core edge set.  Every other simple s-t
path is at least as long as one of those two minima.
"""
from __future__ import annotations

from dataclasses import dataclass

from .detour import anchor_array, shortest_detour
from .dominators import core_dominator_trees
from .graph import DisconnectedGraphError, Graph, GraphError
from .spdag import build_core
from .sssp import INF, DistLabels, dijkstra, shortest_path_tree
from .sssp import distance_labels  # noqa: F401  perfbench wraps ntsp.solver.distance_labels
from .zerostruct import build_cluster_dag, zero_clusters
from .zigzag import CoreContext, zigzag_shortest


class QueryError(ValueError):
    """The query itself is unusable: equal endpoints."""


@dataclass(frozen=True)
class NtspResult:
    """Outcome of one query.  status is "found" or "none"; kind, length and
    path are set only when found."""

    status: str
    shortest: int
    kind: str | None = None
    length: int | None = None
    path: tuple[int, ...] | None = None


def validate_query(g: Graph, s: int, t: int) -> None:
    if not (0 <= s < g.n) or not (0 <= t < g.n):
        raise GraphError(f"endpoint out of range for n={g.n}: s={s} t={t}")
    if s == t:
        raise QueryError("query endpoints must differ")


def distance_stage(g: Graph, s: int, t: int) -> tuple[DistLabels, list[int], list[int]]:
    """Both distance labelings plus the s-side tree (parent, parent_edge),
    taken from the same heap pass as from_s.  A vertex that pass leaves
    unreached raises DisconnectedGraphError: every later stage needs it."""
    from_s, parent, parent_edge = shortest_path_tree(g, s)
    if INF in from_s:
        raise DisconnectedGraphError(f"vertex {from_s.index(INF)} is not reachable from {s}")
    to_t = dijkstra(g, t)
    labels = DistLabels(source=s, target=t, from_s=from_s, to_t=to_t, shortest=from_s[t])
    return labels, parent, parent_edge


def structure_stage(g: Graph, labels: DistLabels):
    """Core subgraph, its two dominator trees, and the zero clusters.  The
    trees are built here only for a core with zero edges, else both are
    None and CoreContext.core_trees builds them if a later stage asks."""
    spdag = build_core(g, labels)
    ts, tt = core_dominator_trees(spdag) if spdag.zero_edges else (None, None)
    partition = zero_clusters(spdag, ts, tt)
    return spdag, ts, tt, partition


def build_core_context(g: Graph, labels: DistLabels) -> CoreContext:
    spdag, ts, tt, partition = structure_stage(g, labels)
    dag = build_cluster_dag(spdag, partition)
    return CoreContext(labels=labels, spdag=spdag, ts=ts, tt=tt, partition=partition, dag=dag)


def next_to_shortest(g: Graph, s: int, t: int) -> NtspResult:
    validate_query(g, s, t)
    labels, parent, parent_edge = distance_stage(g, s, t)
    ctx = build_core_context(g, labels)
    zig = zigzag_shortest(ctx)
    anchor = anchor_array(g, ctx.spdag, parent, parent_edge)
    det = shortest_detour(g, labels, ctx.spdag, parent, anchor)
    pick: tuple[int, list[int], str] | None = None
    if det is not None:
        pick = (det[0], det[1], "detour")
    if zig is not None and (pick is None or zig[0] < pick[0]):
        pick = (zig[0], zig[1], "zigzag")
    if pick is None:
        return NtspResult(status="none", shortest=labels.shortest)
    return NtspResult(
        status="found",
        shortest=labels.shortest,
        kind=pick[2],
        length=pick[0],
        path=tuple(pick[1]),
    )
