"""The structure of all shortest s-t paths: tight subgraph, trim, orientation.

A vertex is distance-tight when its two endpoint distances add up to the s-t
distance.  Tight vertices can still be off every simple shortest path when
they hang off a cut vertex through zero-weight edges; trimming removes such
side lobes, after which membership means "lies on some simple shortest s-t
path".  Orienting the surviving positive edges away from s gives a DAG in
which every directed path from u to v has length from_s[v] - from_s[u].
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .graph import Graph
from .sssp import DistLabels


@dataclass(frozen=True)
class SpDag:
    """Trimmed shortest-path structure with positive edges oriented away from s.

    arcs hold (u, v, w) with w > 0 and from_s[v] = from_s[u] + w; zero_edges
    hold (u, v) with u < v and equal levels.  succ_all and pred_all are the
    one adjacency format: row v lists (neighbour, weight) sorted, the arcs
    out of v (into v for pred_all) plus every zero edge at v as a weight-0
    step, so each zero edge appears in both directions.  That is the digraph
    used for dominator computations and monotone searches.  Rows are built
    for core vertices only; the row of a vertex outside the core is the
    shared empty tuple.
    """

    n: int
    source: int
    target: int
    in_core: tuple[bool, ...]
    core_edge: tuple[bool, ...]
    arcs: tuple[tuple[int, int, int], ...]
    zero_edges: tuple[tuple[int, int], ...]
    succ_all: tuple[tuple[tuple[int, int], ...], ...]
    pred_all: tuple[tuple[tuple[int, int], ...], ...]
    level: tuple[int, ...]

    def core_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.in_core[v]]


def distance_tight_subgraph(g: Graph, labels: DistLabels) -> tuple[list[bool], list[bool]]:
    """Flags (per vertex, per edge index) for the tight subgraph."""
    dst = labels.shortest
    from_s = labels.from_s
    to_t = labels.to_t
    tight_v = [from_s[v] + to_t[v] == dst for v in range(g.n)]
    tight_e = [False] * g.m
    for idx, (u, v, w) in enumerate(g.edges):
        if not (tight_v[u] and tight_v[v]):
            continue
        d = from_s[v] - from_s[u]
        if d == w or -d == w:
            tight_e[idx] = True
    return tight_v, tight_e


def trim_off_path_components(
    g: Graph, labels: DistLabels, tight_v: list[bool], tight_e: list[bool]
) -> tuple[list[bool], list[bool]]:
    """Restrict tight flags to the blocks lying between s and t.

    Decomposes the tight subgraph into biconnected blocks and keeps exactly
    the blocks on the block-cut-tree path from s to t.  Everything else hangs
    off a cut vertex away from both endpoints and cannot appear on a simple
    shortest s-t path.  Running the trim twice changes nothing.
    """
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
            u, v, _ = g.edges[idx]
            seen.add(u)
            seen.add(v)
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


def orient_core(g: Graph, labels: DistLabels, core_v: list[bool], core_e: list[bool]) -> SpDag:
    """Package the trimmed structure with positive arcs pointing toward t."""
    from_s = labels.from_s
    core = [v for v in range(g.n) if core_v[v]]
    arcs: list[tuple[int, int, int]] = []
    zero_edges: list[tuple[int, int]] = []
    succ: dict[int, list[tuple[int, int]]] = {v: [] for v in core}
    pred: dict[int, list[tuple[int, int]]] = {v: [] for v in core}
    for u, v, w in compress(g.edges, core_e):
        if w == 0:
            zero_edges.append((u, v))
            succ[u].append((v, 0))
            pred[u].append((v, 0))
            succ[v].append((u, 0))
            pred[v].append((u, 0))
            continue
        if from_s[u] > from_s[v]:
            u, v = v, u
        arcs.append((u, v, w))
        succ[u].append((v, w))
        pred[v].append((u, w))
    succ_all: list = [()] * g.n
    pred_all: list = [()] * g.n
    for v in core:
        succ_all[v] = tuple(sorted(succ[v]))
        pred_all[v] = tuple(sorted(pred[v]))
    return SpDag(
        n=g.n,
        source=labels.source,
        target=labels.target,
        in_core=tuple(core_v),
        core_edge=tuple(core_e),
        arcs=tuple(sorted(arcs)),
        zero_edges=tuple(sorted(zero_edges)),
        succ_all=tuple(succ_all),
        pred_all=tuple(pred_all),
        level=tuple(labels.from_s),
    )


def build_core(g: Graph, labels: DistLabels) -> SpDag:
    tight_v, tight_e = distance_tight_subgraph(g, labels)
    core_v, core_e = trim_off_path_components(g, labels, tight_v, tight_e)
    return orient_core(g, labels, core_v, core_e)
