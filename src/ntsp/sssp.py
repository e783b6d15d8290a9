"""Single-source shortest paths and the deterministic shortest-path tree."""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .graph import Graph

INF = float("inf")


def dijkstra(g: Graph, root: int) -> list[int]:
    """Distance from root to every vertex.  Weights are nonnegative ints."""
    dist: list[int | float] = [INF] * g.n
    dist[root] = 0
    done = bytearray(g.n)
    heap: list[tuple[int, int]] = [(0, root)]
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = 1
        for nb, w, _ in g.adj[v]:
            nd = d + w
            if nd < dist[nb]:
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    # connected input: every vertex is reached
    return dist  # type: ignore[return-value]


def shortest_path_tree(g: Graph, dist: list[int], root: int) -> list[int]:
    """Parent array of a shortest-path tree rooted at root.

    Vertices settle in (distance, id) order and take their smallest-id
    settled tight neighbor as parent.  Settling keeps the parent chain
    acyclic even across zero-weight ties, and the result is a pure
    function of the graph.
    """
    parent = [-1] * g.n
    settled = bytearray(g.n)
    settled[root] = 1
    heap: list[tuple[int, int]] = []
    for nb, w, _ in g.adj[root]:
        if dist[root] + w == dist[nb]:
            heapq.heappush(heap, (dist[nb], nb))
    while heap:
        _, v = heapq.heappop(heap)
        if settled[v]:
            continue
        for nb, w, _ in g.adj[v]:
            if settled[nb] and dist[nb] + w == dist[v]:
                parent[v] = nb
                break
        assert parent[v] >= 0
        settled[v] = 1
        for nb, w, _ in g.adj[v]:
            if not settled[nb] and dist[v] + w == dist[nb]:
                heapq.heappush(heap, (dist[nb], nb))
    assert all(settled)
    return parent


@dataclass(frozen=True)
class DistLabels:
    """Distances from both query endpoints plus the s-t distance."""

    source: int
    target: int
    from_s: list[int]
    to_t: list[int]
    shortest: int


def distance_labels(g: Graph, s: int, t: int) -> DistLabels:
    from_s = dijkstra(g, s)
    to_t = dijkstra(g, t)
    return DistLabels(source=s, target=t, from_s=from_s, to_t=to_t, shortest=from_s[t])


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
