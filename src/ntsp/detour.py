"""Scan for the best s-t path that leaves the tree-or-core edge set.

Every such path crosses some edge absent from both the shortest-path tree
and the core; crossing (x, y) costs at least from_s[x] + w + to_t[y].  The
scan keeps, in one pass over the usable edges, the crossings of minimum score.
Each of the three shapes that turn a crossing into a simple path is one
construction whose length the distance labels fix; it runs only when that
length is the score, and the chosen witness is checked once.

An edge is usable only when its endpoints hang from different anchors.  The
anchor of v is the root of the maximal tree stretch above v with no core
parent edge; edges inside one such stretch can only close walks that revisit
the shared root, never a cheapest simple path.
"""
from __future__ import annotations

from .graph import Graph
from .spdag import SpDag
from .sssp import INF, DistLabels, tree_path
from .zigzag import RealizationExhausted, disjoint_st_pair, strict_join


def anchor_array(
    g: Graph, spdag: SpDag, parent: list[int], parent_edge: list[int]
) -> list[int]:
    """Anchor of every vertex: itself when its tree parent edge is a core
    edge (or it is s), otherwise the anchor of its parent."""
    core_edge = spdag.core_edge
    anch = [-1] * g.n
    anch[spdag.source] = spdag.source
    for v0 in range(g.n):
        if anch[v0] != -1:
            continue
        chain: list[int] = []
        v = v0
        while anch[v] == -1:
            if core_edge[parent_edge[v]]:
                anch[v] = v
            else:
                chain.append(v)
                v = parent[v]
        for u in chain:
            anch[u] = anch[v]
    return anch


def detour_candidates(
    g: Graph, labels: DistLabels, spdag: SpDag, anchor: list[int]
) -> list[tuple[int, int, int, int]]:
    """The cheapest scored (f, x, y, w) crossings of usable edges, sorted.

    One pass over the edges keeps only the crossings, in either direction,
    whose score f equals the minimum; the list is empty when no edge is
    usable.  A tree edge is never usable: it is a core edge, or it gives
    both of its ends the same anchor.
    """
    from_s, to_t = labels.from_s, labels.to_t
    best = INF
    ties: list[tuple[int, int, int, int]] = []
    for u, v, w, core in zip(g.eu, g.ev, g.ew, spdag.core_edge):
        if core or anchor[u] == anchor[v]:
            continue
        f = from_s[u] + w + to_t[v]
        r = from_s[v] + w + to_t[u]
        if f < best or r < best:
            best = min(f, r)
            ties = []
        if f == best:
            ties.append((f, u, v, w))
        if r == best:
            ties.append((r, v, u, w))
    ties.sort()
    return ties


def _path_length(g: Graph, path: list[int]) -> int:
    total = 0
    for a, b in zip(path, path[1:]):
        ei = g.edge_index(a, b)
        if ei is None:
            return -1
        total += g.ew[ei]
    return total


def _accept(g: Graph, labels: DistLabels, path: list[int], goal: int) -> bool:
    if len(set(path)) != len(path):
        return False
    if path[0] != labels.source or path[-1] != labels.target:
        return False
    return _path_length(g, path) == goal


def _tight_descent(
    g: Graph, labels: DistLabels, start: int, banned: set[int]
) -> list[int] | None:
    """Fewest-hop walk start to t along edges that spend to_t exactly,
    avoiding banned.  A breadth-first search over the CSR rows in neighbour
    order, so among equally short walks the smallest ids win, as in
    sssp.bfs_path."""
    goal = labels.target
    if start == goal:
        return [start]
    to_t = labels.to_t
    off, nbr, wt = g.off, g.nbr, g.wt
    prev = {start: start}
    queue = [start]
    for x in queue:
        tx = to_t[x]
        for i in range(off[x], off[x + 1]):
            y = nbr[i]
            if tx != wt[i] + to_t[y] or y in prev or y in banned:
                continue
            prev[y] = x
            if y == goal:
                return tree_path(prev, start, goal)
            queue.append(y)
    return None


def _direct(g: Graph, labels: DistLabels, parent: list[int], x: int, y: int) -> list[int] | None:
    """The tree walk s..x, the crossing, then a tight descent y..t that dodges
    the walk: from_s[x] + w + to_t[y] long, or None when y is on the walk or
    no such descent exists."""
    p_x = tree_path(parent, labels.source, x)
    p_set = set(p_x)
    if y in p_set:
        return None
    desc = _tight_descent(g, labels, y, p_set)
    return None if desc is None else p_x + desc


def _realize_crossing(
    g: Graph,
    labels: DistLabels,
    spdag: SpDag,
    parent: list[int],
    anchor: list[int],
    x: int,
    y: int,
    w: int,
    goal: int,
) -> list[int] | None:
    """Simple s-t path of length goal == from_s[x] + w + to_t[y] through the
    crossing, or None.

    Tried in order, each only where the labels make its length goal:
    _direct(x, y); the disjoint climb pair through both anchors joined by
    the two tree stems, when y's stem is tight toward t; _direct(y, x),
    when the reverse score is goal too.
    """
    from_s, to_t = labels.from_s, labels.to_t
    path = _direct(g, labels, parent, x, y)
    if path is not None:
        return path

    r_x, r_y = anchor[x], anchor[y]
    if from_s[y] - from_s[r_y] + to_t[r_y] == to_t[y]:
        # s climbs to r_x, the stems bridge the crossing, r_y climbs out to t
        pair = disjoint_st_pair(spdag, r_x, r_y)
        if pair is not None and not pair[2]:
            p1, p2, _ = pair
            stem_x = tree_path(parent, r_x, x)
            stem_y = tree_path(parent, r_y, y)
            path = strict_join(p1, stem_x, [x, y], stem_y[::-1], p2)
            if path is not None:
                return path

    if from_s[y] + w + to_t[x] == goal:
        return _direct(g, labels, parent, y, x)
    return None


def shortest_detour(
    g: Graph, labels: DistLabels, spdag: SpDag, parent: list[int], anchor: list[int]
) -> tuple[int, list[int]] | None:
    """Best tree-leaving length and a witness path, or None when no edge
    qualifies.  The first tie that realizes is checked once; a bad witness
    raises RealizationExhausted, like ties that all fail."""
    cands = detour_candidates(g, labels, spdag, anchor)
    if not cands:
        return None
    goal = cands[0][0]
    for _, x, y, w in cands:
        path = _realize_crossing(g, labels, spdag, parent, anchor, x, y, w, goal)
        if path is None:
            continue
        if not _accept(g, labels, path, goal):
            raise RealizationExhausted(f"crossing ({x}, {y}) gave a bad witness at score {goal}")
        return goal, path
    raise RealizationExhausted(f"no crossing at score {goal} expanded to a path")
