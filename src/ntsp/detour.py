"""Scan for the best s-t path that leaves the tree-or-core edge set.

Every such path crosses some edge absent from both the shortest-path tree
and the core; crossing (x, y) costs at least from_s[x] + w + to_t[y].  One
pass over the usable edges keeps the least (score, x, y, w) crossing, and
one try of four shapes realizes it.  Each shape is one construction whose
length the distance labels fix, run only when that length is the score; the
witness is checked once, and no witness raises RealizationExhausted.

An edge is usable only when its endpoints hang from different anchors.  The
anchor of v is the root of the maximal tree stretch above v with no core
parent edge; edges inside one such stretch can only close walks that revisit
the shared root, never a cheapest simple path.
"""
from __future__ import annotations

from .graph import Graph
from .spdag import SpDag
from .sssp import INF, DistLabels, path_length, tree_path
from .zigzag import RealizationExhausted, disjoint_st_pair, strict_join


def anchor_array(g: Graph, spdag: SpDag, parent: list[int]) -> list[int]:
    """Anchor of every vertex: itself when its tree parent edge is a core
    edge (or it is s), otherwise the anchor of its parent.

    The parent edge is read from its two ends: a tree edge (p, v) is tight
    exactly when v is, and a core edge is a tight edge with both ends in
    the core, so it is a core edge exactly when p and v are core vertices."""
    in_core = spdag.in_core
    anch = [-1] * g.n
    anch[spdag.source] = spdag.source
    for v0 in range(g.n):
        if anch[v0] != -1:
            continue
        chain: list[int] = []
        v = v0
        while anch[v] == -1:
            if in_core[v] and in_core[parent[v]]:
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
    """The least scored crossing (f, x, y, w) of a usable edge, as a list of
    one, or [] when no edge is usable.

    One pass over the edges scores each usable one in both directions and
    keeps the least tuple, so among the crossings of minimum score f the
    smallest (x, y) wins.  A tree edge is never usable: it is a core edge, or
    it gives both of its ends the same anchor.
    """
    from_s, to_t = labels.from_s, labels.to_t
    best = (INF,)
    for u, v, w, core in zip(g.eu, g.ev, g.ew, spdag.core_edge):
        if core or anchor[u] == anchor[v]:
            continue
        f = from_s[u] + w + to_t[v]
        r = from_s[v] + w + to_t[u]
        if f <= best[0] and (f, u, v, w) < best:
            best = (f, u, v, w)
        if r <= best[0] and (r, v, u, w) < best:
            best = (r, v, u, w)
    return [best] if best[0] < INF else []


def _accept(g: Graph, labels: DistLabels, path: list[int], goal: int) -> bool:
    if len(set(path)) != len(path):
        return False
    if path[0] != labels.source or path[-1] != labels.target:
        return False
    return path_length(g, path) == goal


def _tight_descent(
    g: Graph, labels: DistLabels, start: int, banned: list[int]
) -> list[int] | None:
    """Fewest-hop walk start to t along edges that spend to_t exactly,
    avoiding banned, or None when start is banned or no such walk exists.
    A breadth-first search over the CSR rows in neighbour order, so among
    equally short walks the smallest ids win, as in sssp.bfs_path.  One
    n-length list holds every mark: -1 unseen, else the BFS parent, with
    each banned vertex pre-marked as its own parent."""
    prev = [-1] * g.n
    for v in banned:
        prev[v] = v
    if prev[start] != -1:
        return None
    goal = labels.target
    if start == goal:
        return [start]
    to_t = labels.to_t
    off, nbr, wt = g.off, g.nbr, g.wt
    prev[start] = start
    queue = [start]
    for x in queue:
        tx = to_t[x]
        for i in range(off[x], off[x + 1]):
            y = nbr[i]
            if prev[y] != -1 or tx != wt[i] + to_t[y]:
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
    desc = _tight_descent(g, labels, y, p_x)
    return None if desc is None else p_x + desc


def _climb_join(parent: list[int], pair: tuple, a: int, b: int) -> list[int] | None:
    """Climb pair s..r_a, r_b..t joined by a's stem, a->b and b's stem."""
    p1, p2, _ = pair
    stem_b = tree_path(parent, p2[0], b)
    return strict_join(p1, tree_path(parent, p1[-1], a), [a, b], stem_b[::-1], p2)


def _realize_crossing(
    g: Graph,
    labels: DistLabels,
    spdag: SpDag,
    parent: list[int],
    anchor: list[int],
    x: int,
    y: int,
) -> list[int] | None:
    """Simple s-t path through the crossing x->y as long as its score, or None.

    Tried in order, each only where the labels make its length the score:
    _direct(x, y); the climb pair s->r_x, r_y->t joined by the two tree
    stems, when y's stem is tight toward t; _direct(y, x), when y->x scores
    the same; and the pair swapped, s->r_y, r_x->t, joined across y->x, when
    x's stem is tight toward t too.  disjoint_st_pair returns a single
    orientation, so one call serves both pair shapes.
    """
    from_s, to_t = labels.from_s, labels.to_t
    path = _direct(g, labels, parent, x, y)
    if path is not None:
        return path

    r_x, r_y = anchor[x], anchor[y]
    tight_y = from_s[y] - from_s[r_y] + to_t[r_y] == to_t[y]
    pair = disjoint_st_pair(spdag, r_x, r_y) if tight_y else None
    if pair is not None and not pair[2]:
        path = _climb_join(parent, pair, x, y)
        if path is not None:
            return path

    if from_s[y] + to_t[x] != from_s[x] + to_t[y]:
        return None
    path = _direct(g, labels, parent, y, x)
    if path is not None or from_s[x] - from_s[r_x] + to_t[r_x] != to_t[x]:
        return path
    if not tight_y:
        pair = disjoint_st_pair(spdag, r_x, r_y)
    return _climb_join(parent, pair, y, x) if pair is not None and pair[2] else None


def shortest_detour(
    g: Graph, labels: DistLabels, spdag: SpDag, parent: list[int], anchor: list[int]
) -> tuple[int, list[int]] | None:
    """Best tree-leaving length and a witness path, or None when no edge
    qualifies.  The least crossing is realized once and its witness checked
    once; no path, or a bad one, raises RealizationExhausted."""
    cands = detour_candidates(g, labels, spdag, anchor)
    if not cands:
        return None
    goal, x, y, _ = cands[0]
    path = _realize_crossing(g, labels, spdag, parent, anchor, x, y)
    if path is None or not _accept(g, labels, path, goal):
        raise RealizationExhausted(f"crossing ({x}, {y}) gave no valid witness at score {goal}")
    return goal, path
