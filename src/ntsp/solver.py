"""Top-level query: the minimum-length simple s-t path longer than shortest.

The answer is the better of two scans.  The detour scan covers paths that
leave the tree-or-core edge set; the zigzag scan covers paths that stay
inside the core and pay with one backward stretch.  Every other simple s-t
path is at least as long as one of those two minima.

The detour goes first, since it is one pass over the edges.  A zigzag is
always shortest + 2*delta long, where delta is the level gap between two
distinct clusters joined by a forward core path.  That path crosses at
least one positive core arc, so delta >= w_min, the least weight of any
arc of the core.  A tie goes to the detour, so the zigzag layer (zero
clusters, cluster DAG, candidate walk) is built only when the detour is
missing or longer than shortest + 2*w_min, and then walks only the
candidates strictly shorter than the detour.  w_min is read only when the
detour exists.

On top of that gate the layer is built only when the core holds two
independent cycles, |E_core| > |V_core| (cyclomatic number at least 2).
The core is the chain of blocks on the s-t block path, and with at most one
cycle each of its blocks is a bridge or a simple cycle.  An interior vertex
of a cycle block with entry a and exit b lies on a simple shortest s-t path,
which crosses the block along that vertex's a-b arc, so both arcs are
shortest.  Every simple s-t path inside such a core is then shortest, and a
zigzag, shortest + 2*delta long with delta > 0, cannot exist there.

A core without zero edges skips the contraction: its every cluster is one
vertex, so the layer walks the core itself.  No stage builds a dominator
tree of the core: the zero clusters come from block DFSs over the zero
edges, and dominators are taken on the cluster DAG only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .detour import anchor_array, shortest_detour
from .dominators import core_dominator_trees  # noqa: F401  perfbench wraps ntsp.solver's name
from .graph import DisconnectedGraphError, Graph, GraphError
from .spdag import SpDag, build_core
from .sssp import INF, DistLabels, dijkstra, shortest_path_tree
from .sssp import distance_labels  # noqa: F401  perfbench wraps ntsp.solver.distance_labels
from .zerostruct import ZeroPartition, build_cluster_dag, zero_clusters, zero_free_dag
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


def distance_stage(g: Graph, s: int, t: int) -> tuple[DistLabels, list[int]]:
    """Both distance labelings plus the s-side tree's parent array, taken
    from the same pass as from_s.  A vertex that pass leaves
    unreached raises DisconnectedGraphError: every later stage needs it."""
    from_s, parent = shortest_path_tree(g, s)
    if INF in from_s:
        raise DisconnectedGraphError(f"vertex {from_s.index(INF)} is not reachable from {s}")
    to_t = dijkstra(g, t)
    labels = DistLabels(source=s, target=t, from_s=from_s, to_t=to_t, shortest=from_s[t])
    return labels, parent


def structure_stage(g: Graph, labels: DistLabels) -> tuple[SpDag, ZeroPartition]:
    """Core subgraph and its zero clusters."""
    spdag = build_core(g, labels)
    return spdag, zero_clusters(spdag)


def core_context(labels: DistLabels, spdag: SpDag) -> CoreContext:
    """The zigzag layer's view of one query, over its already built core.
    A zero-free core is its own cluster DAG, with no partition."""
    if not spdag.zero_edges:
        return CoreContext(labels=labels, spdag=spdag, partition=None, dag=zero_free_dag(spdag))
    partition = zero_clusters(spdag)
    dag = build_cluster_dag(spdag, partition)
    return CoreContext(labels=labels, spdag=spdag, partition=partition, dag=dag)


def build_core_context(g: Graph, labels: DistLabels) -> CoreContext:
    return core_context(labels, build_core(g, labels))


def next_to_shortest(g: Graph, s: int, t: int) -> NtspResult:
    validate_query(g, s, t)
    labels, parent = distance_stage(g, s, t)
    spdag = build_core(g, labels)
    det = shortest_detour(g, labels, spdag, parent, anchor_array(g, spdag, parent))
    del parent  # only the detour reads the s-side tree
    pick = None if det is None else (*det, "detour")
    below = math.inf if det is None else det[0]
    # a zigzag is at least shortest + 2 * w_min long, w_min the least core
    # arc weight, and loses a tie; w_min is read only when a detour exists.
    # A core with fewer than two independent cycles, |E| <= |V|, holds no
    # zigzag; its vertex count is read only past the w_min gate
    arc_weights = (w for _, _, w in spdag.arcs)
    if det is None or below - labels.shortest > 2 * min(arc_weights, default=math.inf):
        if len(spdag.arcs) + len(spdag.zero_edges) > spdag.in_core.count(True):
            zig = zigzag_shortest(core_context(labels, spdag), below)
            if zig is not None:
                pick = (*zig, "zigzag")
    if pick is None:
        return NtspResult(status="none", shortest=labels.shortest)
    return NtspResult(
        status="found",
        shortest=labels.shortest,
        kind=pick[2],
        length=pick[0],
        path=tuple(pick[1]),
    )
