"""Single-source shortest paths and the deterministic shortest-path tree.

`shortest_path_tree` yields the distances and the tree together, in one
heap loop; `dijkstra` runs the same loop for distances only, with no tree
bookkeeping, and `distance_labels` calls it from both endpoints.  Both read
the graph's CSR rows.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .graph import Graph

INF = float("inf")


def shortest_path_tree(g: Graph, root: int) -> tuple[list[int], list[int], list[int]]:
    """Distances from root plus a shortest-path tree: (dist, parent, parent_edge).

    One Dijkstra pass.  Vertices settle in heap order by (distance, id), and
    each takes its smallest-id settled tight neighbour as parent: a relaxation to
    an equal distance keeps the smaller parent id, and a settled vertex is
    never re-parented, so the chain stays acyclic across zero-weight ties.
    parent_edge[v] is the index of the edge {parent[v], v}; both arrays hold
    -1 at the root.  Weights are nonnegative ints; heap keys are the ints
    d * n + v, which order like (d, v).
    """
    n = g.n
    off, nbr, wt, eid = g.off, g.nbr, g.wt, g.eid
    dist: list[int | float] = [INF] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    done = bytearray(n)
    dist[root] = 0
    heap = [root]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        u = pop(heap) % n
        if done[u]:
            continue
        done[u] = 1
        d = dist[u]
        for i in range(off[u], off[u + 1]):
            v = nbr[i]
            nd = d + wt[i]
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                parent[v] = u
                parent_edge[v] = eid[i]
                push(heap, nd * n + v)
            elif nd == dv and u < parent[v] and not done[v]:
                parent[v] = u
                parent_edge[v] = eid[i]
    # connected input: every vertex is reached
    return dist, parent, parent_edge  # type: ignore[return-value]


def dijkstra(g: Graph, root: int) -> list[int]:
    """Distance from root to every vertex: shortest_path_tree's heap loop,
    in the same order, without the parent arrays."""
    n = g.n
    off, nbr, wt = g.off, g.nbr, g.wt
    dist: list[int | float] = [INF] * n
    done = bytearray(n)
    dist[root] = 0
    heap = [root]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        u = pop(heap) % n
        if done[u]:
            continue
        done[u] = 1
        d = dist[u]
        for i in range(off[u], off[u + 1]):
            v = nbr[i]
            nd = d + wt[i]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, nd * n + v)
    return dist  # type: ignore[return-value]


@dataclass(slots=True)
class DistLabels:
    """Distances from both query endpoints plus the s-t distance.

    Built once per query and never written to afterwards; not frozen,
    since a frozen dataclass's field-by-field setattr is a measurable share
    of a small query.
    """

    source: int
    target: int
    from_s: list[int]
    to_t: list[int]
    shortest: int


def distance_labels(g: Graph, s: int, t: int) -> DistLabels:
    from_s = dijkstra(g, s)
    to_t = dijkstra(g, t)
    return DistLabels(source=s, target=t, from_s=from_s, to_t=to_t, shortest=from_s[t])


def path_length(g: Graph, path: list[int]) -> int | None:
    """Total weight of the walk along path, or None if a step has no edge."""
    total = 0
    for a, b in zip(path, path[1:]):
        ei = g.edge_index(a, b)
        if ei is None:
            return None
        total += g.ew[ei]
    return total


def tree_path(parent: list[int], root: int, v: int) -> list[int]:
    """Vertices from root to v along the parent array."""
    out = [v]
    while v != root:
        v = parent[v]
        out.append(v)
    out.reverse()
    return out


def bfs_path(
    start: int, goal: int, neighbours: Callable[[int], Iterable[int]]
) -> list[int] | None:
    """Fewest-hop path start to goal, or None.

    neighbours(x) lists the allowed steps out of x; among equally short
    paths the one found through earlier-listed steps wins, so a sorted
    neighbour order makes the smallest ids win.
    """
    if start == goal:
        return [start]
    prev = {start: start}
    queue = [start]
    for x in queue:
        for y in neighbours(x):
            if y in prev:
                continue
            prev[y] = x
            if y == goal:
                return tree_path(prev, start, goal)
            queue.append(y)
    return None
