"""Scan for the best s-t path that leaves the tree-or-core edge set.

Every such path crosses some edge absent from both the shortest-path tree
and the core; crossing (x, y) costs at least from_s[x] + w + to_t[y].  The
scan takes the minimum of that score over the usable edges, and a short
cascade of constructions turns the winning edge into a concrete simple path
of exactly that length.  The scan is one pass over the edges that keeps only
the crossings at the minimum score.

An edge is usable only when its endpoints hang from different anchors.  The
anchor of v is the root of the maximal tree stretch above v with no core
parent edge; edges inside one such stretch can only close walks that revisit
the shared root, never a cheapest simple path.
"""
from __future__ import annotations

from .graph import Graph
from .spdag import SpDag
from .sssp import INF, DistLabels, bfs_path, tree_path
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
    for (u, v, w), core in zip(g.edges, spdag.core_edge):
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
        total += g.edges[ei][2]
    return total


def _accept(g: Graph, labels: DistLabels, path: list[int] | None, goal: int) -> bool:
    if path is None or len(set(path)) != len(path):
        return False
    if path[0] != labels.source or path[-1] != labels.target:
        return False
    return _path_length(g, path) == goal


def _tight_descent(
    g: Graph, labels: DistLabels, start: int, banned: set[int]
) -> list[int] | None:
    """Fewest-hop walk start to t along edges that spend to_t exactly."""
    to_t = labels.to_t
    return bfs_path(
        start, labels.target,
        lambda a: (nb for nb, w, _ in g.adj[a] if nb not in banned and to_t[a] == w + to_t[nb]),
    )


def _realize_crossing(
    g: Graph,
    labels: DistLabels,
    spdag: SpDag,
    parent: list[int],
    anchor: list[int],
    x: int,
    y: int,
    goal: int,
) -> list[int] | None:
    """Simple s-t path of length goal through or around the crossing (x, y).

    Tried in order: the tree walk to x with a tight descent dodging it; the
    disjoint climb pair through both anchors joined by the two tree stems;
    the tree walk to y with a tight descent from x dodging it.  Each product
    is length-checked, so a miss just falls through.
    """
    s = labels.source
    p_x = tree_path(parent, s, x)
    p_set = set(p_x)

    # direct: dodge the tree walk entirely
    if y not in p_set:
        desc = _tight_descent(g, labels, y, p_set)
        if desc is not None:
            cand = p_x + desc
            if _accept(g, labels, cand, goal):
                return cand

    r_x, r_y = anchor[x], anchor[y]
    stem_x = tree_path(parent, r_x, x)
    stem_y = tree_path(parent, r_y, y)

    # through both anchors: s climbs to r_x, stems bridge the crossing,
    # r_y climbs out to t
    pair = disjoint_st_pair(spdag, r_x, r_y)
    if pair is not None:
        p1, p2, swapped = pair
        if not swapped:
            cand = strict_join(p1, stem_x, [x, y], stem_y[::-1], p2)
            if _accept(g, labels, cand, goal):
                return cand

    # the direct shape with the crossing walked y to x; the length check
    # keeps it only when the reverse direction costs the same
    p_y = tree_path(parent, s, y)
    if x not in set(p_y):
        desc = _tight_descent(g, labels, x, set(p_y))
        if desc is not None:
            cand = p_y + desc
            if _accept(g, labels, cand, goal):
                return cand
    return None


def shortest_detour(
    g: Graph, labels: DistLabels, spdag: SpDag, parent: list[int], anchor: list[int]
) -> tuple[int, list[int]] | None:
    """Best tree-leaving length and a witness path, or None when no edge
    qualifies."""
    cands = detour_candidates(g, labels, spdag, anchor)
    if not cands:
        return None
    goal = cands[0][0]
    for _, x, y, _ in cands:
        path = _realize_crossing(g, labels, spdag, parent, anchor, x, y, goal)
        if path is not None:
            return goal, path
    raise RealizationExhausted(f"no crossing at score {goal} expanded to a path")
