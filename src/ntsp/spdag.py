"""The structure of all shortest s-t paths: tight subgraph, trim, orientation.

A vertex is distance-tight when its two endpoint distances add up to the s-t
distance.  Tight vertices can still be off every simple shortest path when
they hang off a cut vertex through zero-weight edges; trimming removes such
side lobes, after which membership means "lies on some simple shortest s-t
path".  Without a tight zero edge there are no such lobes, and the trim is
skipped.  Orienting the surviving positive edges away from s gives a DAG in
which every directed path from u to v has length from_s[v] - from_s[u].
The core keeps no adjacency of its own: its rows are the graph's CSR rows
read through the core-edge flags and the levels (SpDag.row).
"""
from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from itertools import compress

from .graph import Graph
from .sssp import DistLabels


@dataclass(slots=True)
class SpDag:
    """Trimmed shortest-path structure with positive edges oriented away from s.

    in_core and core_edge flag the core's vertices and edge indices; arcs
    hold (u, v, w) with w > 0 and from_s[v] = from_s[u] + w; zero_edges hold
    (u, v) with u < v and equal levels.  No adjacency of its own is stored:
    row reads the core's steps at a vertex from the graph's CSR row, and
    succ_all and pred_all present those rows as sequences for the readers
    that index or iterate them.

    Built once per query and never written to afterwards; not frozen,
    since a frozen dataclass's field-by-field setattr is a measurable share
    of a small query.
    """

    n: int
    source: int
    target: int
    in_core: tuple[bool, ...]
    core_edge: tuple[bool, ...]
    arcs: tuple[tuple[int, int, int], ...]
    zero_edges: tuple[tuple[int, int], ...]
    level: tuple[int, ...]
    graph: Graph

    def core_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.in_core[v]]

    def row(self, v: int, up: bool) -> list[tuple[int, int]]:
        """v's core steps as (neighbour, weight) sorted by neighbour: the
        arcs out of v when up, into v otherwise, plus every zero edge at v
        as a weight-0 step, so each zero edge shows from both ends.  Empty
        off the core.

        Read from v's CSR row, kept where core_edge holds.  Along a core
        edge the level rises by its weight, so the level alone tells the
        direction, and a zero edge, which keeps the level, passes both ways.
        """
        g = self.graph
        a, b = g.off[v], g.off[v + 1]
        core_edge, level = self.core_edge, self.level
        lv = level[v]
        steps = zip(g.nbr[a:b], g.wt[a:b], g.eid[a:b])
        if up:
            return [(nb, w) for nb, w, e in steps if core_edge[e] and level[nb] >= lv]
        return [(nb, w) for nb, w, e in steps if core_edge[e] and level[nb] <= lv]

    @property
    def succ_all(self) -> CoreRows:
        return CoreRows(self, True)

    @property
    def pred_all(self) -> CoreRows:
        return CoreRows(self, False)


class CoreRows:
    """Read-only view of one direction of the core's rows: rows[v] is
    spdag.row(v, up), rebuilt on each access.  The digraph it spans is the
    one dominator computations and monotone searches run on."""

    __slots__ = ("_spdag", "_up")

    def __init__(self, spdag: SpDag, up: bool):
        self._spdag = spdag
        self._up = up

    def __len__(self) -> int:
        return self._spdag.n

    def __getitem__(self, v: int) -> list[tuple[int, int]]:
        return self._spdag.row(v, self._up)

    def __iter__(self) -> Iterator[list[tuple[int, int]]]:
        row, up = self._spdag.row, self._up
        return (row(v, up) for v in range(self._spdag.n))


def distance_tight_subgraph(g: Graph, labels: DistLabels) -> tuple[list[bool], list[bool]]:
    """Flags (per vertex, per edge index) for the tight subgraph.

    An edge is tight when crossing it one way or the other costs exactly
    the s-t distance; by the triangle inequality both its ends are then
    tight too.
    """
    dst = labels.shortest
    from_s = labels.from_s
    to_t = labels.to_t
    tight_v = [a + b == dst for a, b in zip(from_s, to_t)]
    tight_e = [
        from_s[u] + w + to_t[v] == dst or from_s[v] + w + to_t[u] == dst
        for u, v, w in zip(g.eu, g.ev, g.ew)
    ]
    return tight_v, tight_e


def biconnected_blocks(
    nbrs: Mapping[int, list[int]], root: int, size: int
) -> Iterator[tuple[int, list[int]]]:
    """The blocks reached from root, by an iterative biconnected-components
    DFS (Hopcroft and Tarjan) over nbrs: ids below size, no edge twice.

    A block is listed as (top, members) once the DFS climbs back to top, its
    vertex nearest root, so it comes after every block below it.  Every
    reached vertex but root is a member of one block: the one holding its
    tree edge up.
    """
    disc = [-1] * size
    low = [0] * size
    disc[root] = 0
    timer = 1
    found: list[int] = []  # reached vertices not yet listed in a block
    # a stack entry is (v, tree parent, len(found) before v, v's neighbour iterator)
    stack = [(root, -1, 0, iter(nbrs[root]))]
    while stack:
        v, p, base, it = stack[-1]
        for nb in it:
            if disc[nb] == -1:
                disc[nb] = low[nb] = timer
                timer += 1
                stack.append((nb, v, len(found), iter(nbrs[nb])))
                found.append(nb)
                break
            if nb != p and disc[nb] < low[v]:
                low[v] = disc[nb]
        else:
            stack.pop()
            if p == -1:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                yield p, found[base:]
                del found[base:]


def trim_off_path_components(
    g: Graph, labels: DistLabels, tight_v: list[bool], tight_e: list[bool]
) -> tuple[list[bool], list[bool]]:
    """Restrict tight flags to the blocks on the block-cut-tree path from s
    to t: t's own block, the block above its top, and so on up to s.

    Everything else hangs off a cut vertex away from both endpoints and
    cannot appear on a simple shortest s-t path.  An edge lies in one block,
    and two blocks share at most one vertex, so the kept edges are the tight
    edges with both ends kept.  Running the trim twice changes nothing.
    """
    s, t = labels.source, labels.target
    eu, ev = g.eu, g.ev
    nbrs: dict[int, list[int]] = {v: [] for v in compress(range(g.n), tight_v)}
    for u, v in compress(zip(eu, ev), tight_e):
        nbrs[u].append(v)
        nbrs[v].append(u)

    # the tight subgraph is connected, so one root covers it; the blocks
    # come bottom-up, so each kept block is listed before the one above it
    core_v = [False] * g.n
    want = t
    for top, members in biconnected_blocks(nbrs, s, g.n):
        if want in members:
            for v in (top, *members):
                core_v[v] = True
            if top == s:
                break
            want = top
    core_e = [False] * g.m
    for idx in compress(range(g.m), tight_e):
        core_e[idx] = core_v[eu[idx]] and core_v[ev[idx]]
    return core_v, core_e


def orient_core(g: Graph, labels: DistLabels, core_v: list[bool], core_e: list[bool]) -> SpDag:
    """Package the trimmed structure with positive arcs pointing toward t.

    The edges come in canonical order, so the zero edges come sorted.
    """
    from_s = labels.from_s
    arcs: list[tuple[int, int, int]] = []
    zero_edges: list[tuple[int, int]] = []
    for u, v, w in compress(zip(g.eu, g.ev, g.ew), core_e):
        if w == 0:
            zero_edges.append((u, v))
        elif from_s[u] < from_s[v]:
            arcs.append((u, v, w))
        else:
            arcs.append((v, u, w))
    arcs.sort()
    return SpDag(
        n=g.n,
        source=labels.source,
        target=labels.target,
        in_core=tuple(core_v),
        core_edge=tuple(core_e),
        arcs=tuple(arcs),
        zero_edges=tuple(zero_edges),
        level=tuple(from_s),
        graph=g,
    )


def build_core(g: Graph, labels: DistLabels) -> SpDag:
    """The oriented core.  Without a tight zero edge the trim would keep
    everything: shortest s-v and v-t paths then climb strictly in from_s,
    so they join into a simple s-t path through v (or a tight edge)."""
    tight_v, tight_e = distance_tight_subgraph(g, labels)
    if 0 in compress(g.ew, tight_e):
        tight_v, tight_e = trim_off_path_components(g, labels, tight_v, tight_e)
    return orient_core(g, labels, tight_v, tight_e)
