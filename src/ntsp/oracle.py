"""Brute-force references: exhaustive path enumeration and removal tests.

Everything here is deliberately naive.  The solver is checked against these
on thousands of small random instances, so none of the clever structure is
allowed to leak in.
"""
from __future__ import annotations

import heapq

from .graph import Graph, build_graph
from .spdag import SpDag
from .sssp import DistLabels, path_length

DEFAULT_PATH_CAP = 200_000


class PathCapExceeded(RuntimeError):
    """More simple s-t paths than the exhaustive search may enumerate."""


def enumerate_simple_st_paths(
    g: Graph, s: int, t: int, cap: int = DEFAULT_PATH_CAP
) -> tuple[list[list[int]], bool]:
    """All simple s-t paths as vertex lists, plus a truncation flag."""
    paths: list[list[int]] = []
    off, nbr = g.off, g.nbr
    on_path = bytearray(g.n)
    on_path[s] = 1
    cur = [s]
    stack: list[tuple[int, int]] = [(s, off[s])]
    truncated = False
    while stack:
        v, ptr = stack[-1]
        if v == t:
            if len(paths) >= cap:
                truncated = True
                break
            paths.append(cur[:])
            stack.pop()
            on_path[v] = 0
            cur.pop()
            continue
        if ptr < off[v + 1]:
            stack[-1] = (v, ptr + 1)
            nb = nbr[ptr]
            if not on_path[nb]:
                on_path[nb] = 1
                cur.append(nb)
                stack.append((nb, off[nb]))
        else:
            stack.pop()
            on_path[v] = 0
            cur.pop()
    return paths, truncated


def oracle_next_to_shortest(g: Graph, s: int, t: int, cap: int = DEFAULT_PATH_CAP) -> int | None:
    """Minimum length of a simple s-t path strictly longer than the shortest."""
    paths, truncated = enumerate_simple_st_paths(g, s, t, cap)
    if truncated:
        raise PathCapExceeded(f"more than {cap} simple s-t paths")
    lengths = sorted({path_length(g, p) for p in paths})
    if len(lengths) < 2:
        return None
    return lengths[1]


def oracle_shortest_path_tree(g: Graph, dist: list[int], root: int) -> list[int]:
    """Parent array of the shortest-path tree, rebuilt in a second pass.

    Vertices settle in (distance, id) order over tight edges only, and each
    takes its smallest-id settled tight neighbour as parent.
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


def oracle_trim_off_path_components(
    g: Graph, labels: DistLabels, tight_v: list[bool], tight_e: list[bool]
) -> tuple[list[bool], list[bool]]:
    """spdag.trim_off_path_components the long way: every biconnected block
    is listed with its vertex set, and a BFS over blocks through shared cut
    vertices finds the chain of blocks from s to t."""
    s, t = labels.source, labels.target
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for idx, (u, v, _) in enumerate(g.edges):
        if tight_e[idx]:
            nbrs[u].append((v, idx))
            nbrs[v].append((u, idx))

    # Iterative biconnected-components DFS from s; the tight subgraph is
    # connected, so one root covers it.
    disc = [-1] * g.n
    low = [0] * g.n
    parent_edge = [-1] * g.n
    edge_stack: list[int] = []
    blocks: list[list[int]] = []  # edge indices per block
    timer = 0
    it_stack: list[tuple[int, int]] = [(s, 0)]
    disc[s] = low[s] = timer
    timer += 1
    while it_stack:
        v, ptr = it_stack[-1]
        if ptr < len(nbrs[v]):
            it_stack[-1] = (v, ptr + 1)
            nb, idx = nbrs[v][ptr]
            if disc[nb] == -1:
                parent_edge[nb] = idx
                disc[nb] = low[nb] = timer
                timer += 1
                edge_stack.append(idx)
                it_stack.append((nb, 0))
            elif idx != parent_edge[v] and disc[nb] < disc[v]:
                edge_stack.append(idx)
                low[v] = min(low[v], disc[nb])
        else:
            it_stack.pop()
            if it_stack:
                p = it_stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] >= disc[p]:
                    # p closes a block; pop up to and including the tree edge
                    blk = []
                    while True:
                        idx = edge_stack.pop()
                        blk.append(idx)
                        if idx == parent_edge[v]:
                            break
                    blocks.append(blk)

    # Block-cut tree walk: find the chain of blocks connecting s and t.
    block_of: list[list[int]] = [[] for _ in range(g.n)]
    block_verts: list[list[int]] = []
    for b, blk in enumerate(blocks):
        seen: set[int] = set()
        for idx in blk:
            seen.add(g.eu[idx])
            seen.add(g.ev[idx])
        block_verts.append(sorted(seen))
        for v in seen:
            block_of[v].append(b)

    if not blocks:  # n == 1 tight subgraph cannot happen (s != t), guard anyway
        return tight_v, tight_e

    # BFS over blocks through shared cut vertices, from any block holding s
    # to any block holding t.
    prev_block = [-2] * len(blocks)
    queue = []
    for b in block_of[s]:
        prev_block[b] = -1
        queue.append(b)
    goal = -1
    qi = 0
    while qi < len(queue):
        b = queue[qi]
        qi += 1
        if t in block_verts[b]:
            goal = b
            break
        for v in block_verts[b]:
            for nb in block_of[v]:
                if prev_block[nb] == -2:
                    prev_block[nb] = b
                    queue.append(nb)
    assert goal >= 0, "tight subgraph must connect s and t"
    keep_blocks = []
    b = goal
    while b != -1:
        keep_blocks.append(b)
        b = prev_block[b]

    core_v = [False] * g.n
    core_e = [False] * g.m
    for b in keep_blocks:
        for idx in blocks[b]:
            core_e[idx] = True
        for v in block_verts[b]:
            core_v[v] = True
    core_v[s] = True
    core_v[t] = True
    return core_v, core_e


def oracle_detour_candidates(
    g: Graph, labels: DistLabels, spdag: SpDag, parent: list[int], anchor: list[int]
) -> list[tuple[int, int, int, int]]:
    """Every scored (f, x, y, w) crossing of a usable edge, both directions,
    sorted.  Usable: off the core, off the tree, endpoints under different
    anchors."""
    tree_pairs = set()
    for v, p in enumerate(parent):
        if p >= 0:
            tree_pairs.add((p, v) if p < v else (v, p))
    out: list[tuple[int, int, int, int]] = []
    for ei, (u, v, w) in enumerate(g.edges):
        if spdag.core_edge[ei] or (u, v) in tree_pairs:
            continue
        if anchor[u] == anchor[v]:
            continue
        out.append((labels.from_s[u] + w + labels.to_t[v], u, v, w))
        out.append((labels.from_s[v] + w + labels.to_t[u], v, u, w))
    out.sort()
    return out


def oracle_immediate_dominator(n: int, succ: list[list[int]], root: int, v: int) -> int:
    """Immediate dominator of v by vertex-removal reachability tests."""
    assert v != root
    separators = [w for w in range(n) if w != v and not _reaches_excluding(n, succ, root, v, w)]
    assert root in separators
    # the immediate one is cut off from the root by every other separator
    for u in separators:
        if all(w == u or not _reaches_excluding(n, succ, root, u, w) for w in separators):
            return u
    raise AssertionError("separator nesting violated")


def _reaches_excluding(n: int, succ: list[list[int]], root: int, v: int, banned: int) -> bool:
    if banned == root:
        return False
    if v == root:
        return True
    seen = bytearray(n)
    seen[root] = 1
    stack = [root]
    while stack:
        x = stack.pop()
        if x == v:
            return True
        for y in succ[x]:
            if y != banned and not seen[y]:
                seen[y] = 1
                stack.append(y)
    return False


def oracle_lengauer_tarjan(
    n: int, succ: list[list[int]] | tuple, pred: list[list[int]] | tuple, root: int
) -> list[int]:
    """Immediate dominators by iterative Lengauer-Tarjan with simple path
    compression, buckets and deferred samedom fix-ups: a reference for the
    semi-NCA and one-pass DAG trees of dominators.py that shares no code
    with them.

    idom[root] is -1.  Every one of the n vertices must be reachable from
    root; one that is not raises ValueError.
    """
    dfnum = [-1] * n
    vertex: list[int] = []
    parent = [-1] * n
    stack: list[tuple[int, int]] = [(root, -1)]
    while stack:
        v, p = stack.pop()
        if dfnum[v] != -1:
            continue
        dfnum[v] = len(vertex)
        vertex.append(v)
        parent[v] = p
        # reversed so the smallest successor is explored first
        for nb in reversed(succ[v]):
            if dfnum[nb] == -1:
                stack.append((nb, v))

    for v in range(n):
        if dfnum[v] == -1:
            raise ValueError(f"vertex {v} unreachable from {root}")

    semi = dfnum[:]
    ancestor = [-1] * n
    best = list(range(n))
    idom = [-1] * n
    samedom = [-1] * n
    bucket: list[list[int]] = [[] for _ in vertex]  # by preorder number

    def compress_eval(v: int) -> int:
        # vertex on the compressed-forest path from v with the lowest semi
        if ancestor[v] == -1:
            return v
        orig = v
        trail = []
        while ancestor[ancestor[v]] != -1:
            trail.append(v)
            v = ancestor[v]
        for u in reversed(trail):
            if semi[best[ancestor[u]]] < semi[best[u]]:
                best[u] = best[ancestor[u]]
            ancestor[u] = ancestor[v]
        return best[orig]

    for i in range(len(vertex) - 1, 0, -1):
        v = vertex[i]
        p = parent[v]
        s = p
        for u in pred[v]:
            if dfnum[u] == -1:
                continue  # unreachable from root
            if dfnum[u] <= dfnum[v]:
                cand = u
            else:
                cand = vertex[semi[compress_eval(u)]]
            if dfnum[cand] < dfnum[s]:
                s = cand
        semi[v] = dfnum[s]
        bucket[semi[v]].append(v)
        ancestor[v] = p
        for w in bucket[dfnum[p]]:
            y = compress_eval(w)
            if semi[y] == semi[w]:
                idom[w] = p
            else:
                samedom[w] = y
        bucket[dfnum[p]] = []
    for i in range(1, len(vertex)):
        v = vertex[i]
        if samedom[v] != -1:
            idom[v] = idom[samedom[v]]
    return idom


def _step_kind(spdag: SpDag, a: int, b: int) -> str:
    """forward / backward / zero for one move along a core edge."""
    la, lb = spdag.level[a], spdag.level[b]
    if la == lb:
        return "zero"
    return "forward" if lb > la else "backward"


def oracle_backward_pairs(g: Graph, spdag: SpDag, cap: int = DEFAULT_PATH_CAP) -> set[tuple[int, int]]:
    """All (x, y) closing a rise-fall-rise walk on some core simple s-t path.

    A pair is collected when a simple s-t path within the core splits as a
    forward stretch to x, a descending stretch from x to y, and a forward
    stretch from y to t, where descending means every step is a reversed
    positive arc or a zero edge.  Zero edges at either end of the descent
    are pushed into the neighbouring forward stretch, so the descent begins
    and ends on a reversed arc; shifted split points would name the same
    walk at the same cost without pinning down where the drop happens.
    """
    s, t = spdag.source, spdag.target
    core_only = [e for i, e in enumerate(g.edges) if spdag.core_edge[i]]
    sub = build_graph(g.n, core_only)
    paths, truncated = enumerate_simple_st_paths(sub, s, t, cap)
    if truncated:
        raise PathCapExceeded(f"more than {cap} simple s-t paths in the core")
    found: set[tuple[int, int]] = set()
    for p in paths:
        kinds = [_step_kind(spdag, a, b) for a, b in zip(p, p[1:])]
        L = len(kinds)
        ok_prefix = [True] * (L + 1)
        for i in range(L):
            ok_prefix[i + 1] = ok_prefix[i] and kinds[i] != "backward"
        ok_suffix = [True] * (L + 1)
        for i in range(L - 1, -1, -1):
            ok_suffix[i] = ok_suffix[i + 1] and kinds[i] != "backward"
        for i in range(L):
            if not ok_prefix[i] or kinds[i] != "backward":
                continue
            for j in range(i + 1, L + 1):
                step = kinds[j - 1]
                if step == "forward":
                    break
                if step == "backward" and ok_suffix[j]:
                    found.add((p[i], p[j]))
    return found


def oracle_zero_clusters(spdag: SpDag, idom_s: list[int], idom_t: list[int]) -> list[set[int]]:
    """Clusters by definition: mutual zero paths avoiding either dominator.

    Two core vertices belong together when some path of zero-weight core
    edges joins them without touching the immediate dominator, in either
    direction, of either endpoint.  Returns the partition as sets, and
    asserts that mutual connectivity is transitive on the instance.
    """
    n = spdag.n
    zero_adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in spdag.zero_edges:
        zero_adj[u].append(v)
        zero_adj[v].append(u)

    def linked(u: int, v: int) -> bool:
        if u == v:
            return True
        banned = {idom_s[u], idom_t[u], idom_s[v], idom_t[v]}
        banned.discard(-1)
        if u in banned or v in banned:
            return False
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for y in zero_adj[x]:
                if y not in seen and y not in banned:
                    seen.add(y)
                    stack.append(y)
        return False

    core = spdag.core_vertices()
    parent = {v: v for v in core}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, u in enumerate(core):
        for v in core[i + 1 :]:
            if spdag.level[u] == spdag.level[v] and linked(u, v):
                parent[find(u)] = find(v)
    groups: dict[int, set[int]] = {}
    for v in core:
        groups.setdefault(find(v), set()).add(v)
    out = sorted(groups.values(), key=min)
    for grp in out:
        for u in grp:
            for v in grp:
                assert linked(u, v), "zero-cluster relation not transitive here"
    return out


def max_flow_value(net) -> int:
    """Full max flow of a split-node FlowNetwork, unbounded rounds.

    Plain breadth-first augmenting paths; the flow is left in net.
    """
    src = 2 * net.source
    dst = 2 * net.sink + 1
    nn = 2 * len(net.labels)
    total = 0
    while True:
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
            return total
        bottleneck = None
        x = dst
        while x != src:
            aid = via[x]
            room = net.arc_cap[aid] - net.arc_flow[aid]
            bottleneck = room if bottleneck is None else min(bottleneck, room)
            x = net.arc_to[aid ^ 1]
        x = dst
        while x != src:
            aid = via[x]
            net.arc_flow[aid] += bottleneck
            net.arc_flow[aid ^ 1] -= bottleneck
            x = net.arc_to[aid ^ 1]
        total += bottleneck
