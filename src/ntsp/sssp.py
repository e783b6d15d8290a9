"""Single-source shortest paths and the deterministic shortest-path tree.

`shortest_path_tree` yields the distances and the tree together in one
pass; `dijkstra` yields the distances only, with no tree bookkeeping, and
`distance_labels` calls it from both endpoints.  Both read the graph's CSR
rows, and each has two forms that return identical arrays.

The bucket form is Dial's monotone bucket queue: a dict from distance to a
list of vertex ids, plus a heap holding each open distance once, so the
heap works per distinct distance instead of per relaxation.  A relaxation
to the distance being scanned (a weight-0 edge) joins the current level.  A
vertex that moves closer leaves a stale entry in its old bucket: the
distance pass skips it by `dist[u] != d`, and the tree drops a level's
stale entries when the level opens, before it sorts.  The heap form pushes
one int key d * n + v per relaxation, which orders like (d, v).

The tree must settle in (distance, id) order in both forms, because its
parent rule depends on it.  Inside one level that order is a min-id-first
search: every vertex reached by a positive edge is already in the level's
bucket when the level opens, and a vertex first reached through a zero edge
joins during the scan.  So the bucket tree keeps the level's live entries
(`dist[u] == d`) and sorts them once when the level opens, keeps the
zero-edge arrivals in a small heap, and each step settles the smaller of
the two heads; a kept entry is already at the least open distance, so it
stays live through the scan.  The distance pass needs no settle order and
scans the bucket as it grows.

Buckets pay a dict entry and a heap push per distinct distance, so they lose
where distances rarely repeat.  `uses_buckets` picks the form per graph from
`Graph.max_weight`, which the graph records when it is built: buckets when
n >= BUCKET_SPAN * max_weight.  On random_graph(n, 4n, W, 0, 3) the bucket
tree stopped winning near W = 900 at n = 1,024, 5,000 at n = 8,192 and
7,000 at n = 32,768, and still won at W = 16,384 with n = 131,072 (best of
3 to 7, CPython 3.11 on a shared 2-core x86-64 host); the distance pass
crossed later.  A span of 8 keeps the switch below each of those.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .graph import Graph

INF = float("inf")
BUCKET_SPAN = 8


def uses_buckets(g: Graph) -> bool:
    """Whether both passes run on the bucket queue for g."""
    return BUCKET_SPAN * g.max_weight <= g.n


def shortest_path_tree(g: Graph, root: int) -> tuple[list[int], list[int]]:
    """Distances from root plus a shortest-path tree: (dist, parent).

    One Dijkstra pass.  Vertices settle in (distance, id) order, and each
    takes its smallest-id settled tight neighbour as parent: a relaxation to
    an equal distance keeps the smaller parent id, and a settled vertex is
    never re-parented, so the chain stays acyclic across zero-weight ties.
    parent holds -1 at the root.  Weights are nonnegative ints.
    """
    if uses_buckets(g):
        return _tree_by_buckets(g, root)
    return _tree_by_heap(g, root)


def dijkstra(g: Graph, root: int) -> list[int]:
    """Distance from root to every vertex, without the parent arrays."""
    if uses_buckets(g):
        return _dist_by_buckets(g, root)
    return _dist_by_heap(g, root)


def _tree_by_heap(g: Graph, root: int) -> tuple[list[int], list[int]]:
    n = g.n
    off, nbr, wt = g.off, g.nbr, g.wt
    dist: list[int | float] = [INF] * n
    parent = [-1] * n
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
                push(heap, nd * n + v)
            elif nd == dv and u < parent[v] and not done[v]:
                parent[v] = u
    # connected input: every vertex is reached
    return dist, parent  # type: ignore[return-value]


def _tree_by_buckets(g: Graph, root: int) -> tuple[list[int], list[int]]:
    n = g.n
    off, nbr, wt = g.off, g.nbr, g.wt
    dist: list[int | float] = [INF] * n
    parent = [-1] * n
    done = bytearray(n)
    dist[root] = 0
    buckets = {0: [root]}
    levels = [0]
    pop, push = heapq.heappop, heapq.heappush
    while levels:
        d = pop(levels)
        level = [u for u in buckets.pop(d) if dist[u] == d]
        level.sort()
        level.append(n)  # sentinel above every id
        zero: list[int] = []  # heap of the level's zero-edge arrivals
        j = 0
        while True:  # settle the smaller head of level[j:] and zero
            u = level[j]
            if zero and zero[0] < u:
                u = pop(zero)
            elif u == n:
                break
            else:
                j += 1
            done[u] = 1
            for i in range(off[u], off[u + 1]):
                v = nbr[i]
                nd = d + wt[i]
                dv = dist[v]
                if nd < dv:
                    dist[v] = nd
                    parent[v] = u
                    if nd == d:
                        push(zero, v)
                    else:
                        b = buckets.get(nd)
                        if b is None:
                            buckets[nd] = [v]
                            push(levels, nd)
                        else:
                            b.append(v)
                elif nd == dv and u < parent[v] and not done[v]:
                    parent[v] = u
    return dist, parent  # type: ignore[return-value]


def _dist_by_heap(g: Graph, root: int) -> list[int]:
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


def _dist_by_buckets(g: Graph, root: int) -> list[int]:
    n = g.n
    off, nbr, wt = g.off, g.nbr, g.wt
    dist: list[int | float] = [INF] * n
    dist[root] = 0
    buckets = {0: [root]}
    levels = [0]
    pop, push = heapq.heappop, heapq.heappush
    while levels:
        d = pop(levels)
        for u in buckets[d]:
            if dist[u] != d:
                continue
            for i in range(off[u], off[u + 1]):
                v = nbr[i]
                nd = d + wt[i]
                if nd < dist[v]:
                    dist[v] = nd
                    b = buckets.get(nd)
                    if b is None:
                        buckets[nd] = [v]
                        push(levels, nd)
                    else:
                        b.append(v)
        del buckets[d]
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
    start: int, goal: int, neighbours: Callable[[int], Iterable[int]], banned: Iterable[int] = ()
) -> list[int] | None:
    """Fewest-hop path start to goal that avoids banned, or None.

    neighbours(x) lists the steps out of x; among equally short paths the
    one found through earlier-listed steps wins, so a sorted neighbour
    order makes the smallest ids win.
    """
    if start == goal:
        return [start]
    prev = dict.fromkeys(banned, start)  # never stepped to, never on the path
    prev[start] = start
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
