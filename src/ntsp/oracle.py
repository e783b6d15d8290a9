"""Brute-force references: exhaustive path enumeration and removal tests.

Everything here is deliberately naive.  The solver is checked against these
on thousands of small random instances, so none of the clever structure is
allowed to leak in.
"""
from __future__ import annotations

from .graph import Graph, build_graph
from .spdag import SpDag
from .zigzag import BackwardCandidate, CoreContext

DEFAULT_PATH_CAP = 200_000


def enumerate_simple_st_paths(
    g: Graph, s: int, t: int, cap: int = DEFAULT_PATH_CAP
) -> tuple[list[list[int]], bool]:
    """All simple s-t paths as vertex lists, plus a truncation flag."""
    paths: list[list[int]] = []
    on_path = bytearray(g.n)
    on_path[s] = 1
    cur = [s]
    stack: list[tuple[int, int]] = [(s, 0)]
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
        if ptr < len(g.adj[v]):
            stack[-1] = (v, ptr + 1)
            nb = g.adj[v][ptr][0]
            if not on_path[nb]:
                on_path[nb] = 1
                cur.append(nb)
                stack.append((nb, 0))
        else:
            stack.pop()
            on_path[v] = 0
            cur.pop()
    return paths, truncated


def path_length(g: Graph, path: list[int]) -> int:
    total = 0
    for a, b in zip(path, path[1:]):
        idx = g.edge_index(a, b)
        assert idx is not None, f"no edge {a}-{b}"
        total += g.edges[idx][2]
    return total


def oracle_next_to_shortest(g: Graph, s: int, t: int, cap: int = DEFAULT_PATH_CAP) -> int | None:
    """Minimum length of a simple s-t path strictly longer than the shortest."""
    paths, truncated = enumerate_simple_st_paths(g, s, t, cap)
    assert not truncated, "instance too large for exhaustive reference"
    lengths = sorted({path_length(g, p) for p in paths})
    if len(lengths) < 2:
        return None
    return lengths[1]


def oracle_immediate_dominator(n: int, succ: list[list[int]], root: int, v: int) -> int:
    """Immediate dominator of v by vertex-removal reachability tests."""

    def reaches(banned: int) -> bool:
        if banned == root:
            return False
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

    assert v != root
    separators = [w for w in range(n) if w != v and not reaches(w)]
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
    assert not truncated
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


def oracle_open_pair(ctx: CoreContext) -> BackwardCandidate | None:
    """Smallest (delta, comp_x, comp_y) open pair by scanning all cluster pairs.

    The pair must descend, neither cluster may dominate the other on its
    side, and idom_s(cx) < cy < cx < idom_t(cy) must hold, where < is
    reachability along cluster arcs, read off bitsets built here.
    """
    dag = ctx.dag
    reach = [0] * dag.count
    for c in reversed(dag.topo):
        bits = 1 << c
        for b, _, _, _ in dag.succ[c]:
            bits |= reach[b]
        reach[c] = bits

    def precedes(a: int, b: int) -> bool:
        return a != b and (reach[a] >> b) & 1 == 1

    best: tuple[int, int, int] | None = None
    for cx in range(dag.count):
        gate_in = dag.idom_s.idom[cx]
        if gate_in == -1:
            continue
        for cy in range(dag.count):
            delta = dag.comp_level[cx] - dag.comp_level[cy]
            if delta <= 0:
                continue
            gate_out = dag.idom_t.idom[cy]
            if gate_out == -1:
                continue
            if dag.idom_s.dominates(cy, cx) or dag.idom_t.dominates(cx, cy):
                continue
            if not (precedes(gate_in, cy) and precedes(cy, cx) and precedes(cx, gate_out)):
                continue
            key = (delta, cx, cy)
            if best is None or key < best:
                best = key
    if best is None:
        return None
    return BackwardCandidate("open", comp_x=best[1], comp_y=best[2], delta=best[0])


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
