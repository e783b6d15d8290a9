"""Graph representation, text format parsing and serialization, random instances.

The text format is line oriented: lines starting with '#' are comments, the
first significant line is "n m", followed by exactly m lines "u v w".
Vertex ids are dense 0-based integers.  Only connected simple graphs with
nonnegative integer weights are accepted.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


class GraphError(ValueError):
    """Base class for input rejections.  `line` is 1-based, None if global."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class MalformedLineError(GraphError):
    pass


class NegativeWeightError(GraphError):
    pass


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class InfeasibleSpecError(GraphError):
    pass


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph with canonical edge order.

    edges holds (u, v, w) with u < v, sorted; adj[v] lists (neighbor, weight,
    edge_index) sorted by neighbor id.  Instances are immutable and safe to
    share between threads.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    adj: tuple[tuple[tuple[int, int, int], ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_index(self, u: int, v: int) -> int | None:
        """Index into edges for {u, v}, or None if absent."""
        if u > v:
            u, v = v, u
        for nb, _, idx in self.adj[u]:
            if nb == v:
                return idx
            if nb > v:
                return None
        return None


def build_graph(n: int, edge_list) -> Graph:
    """Canonicalize an iterable of (u, v, w) into a Graph.

    Assumes the edges were already validated (no loops or duplicates) and the
    graph is connected; parse_graph and random_graph guarantee that.
    """
    edges = tuple(sorted((min(u, v), max(u, v), w) for u, v, w in edge_list))
    adj_lists: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, (u, v, w) in enumerate(edges):
        adj_lists[u].append((v, w, idx))
        adj_lists[v].append((u, w, idx))
    adj = tuple(tuple(sorted(lst)) for lst in adj_lists)
    return Graph(n=n, edges=edges, adj=adj)


def _connected(n: int, edges) -> bool:
    if n == 0:
        return False
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        x = stack.pop()
        for y in nbrs[x]:
            if not seen[y]:
                seen[y] = 1
                reached += 1
                stack.append(y)
    return reached == n


def parse_graph(text: bytes | str) -> Graph:
    """Parse the text format, rejecting bad input with a line-specific error."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int, int]] = []
    seen_pairs: set[tuple[int, int]] = set()
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise MalformedLineError(f"line {lineno}: expected 'n m' header", lineno)
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise MalformedLineError(f"line {lineno}: non-integer header", lineno) from None
            if n <= 0 or m < 0:
                raise MalformedLineError(f"line {lineno}: bad sizes n={n} m={m}", lineno)
            header = (n, m)
            continue
        n, m = header
        if len(edges) >= m:
            raise MalformedLineError(f"line {lineno}: more than {m} edges", lineno)
        if len(fields) != 3:
            raise MalformedLineError(f"line {lineno}: expected 'u v w'", lineno)
        try:
            u, v, w = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise MalformedLineError(f"line {lineno}: non-integer edge", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedLineError(f"line {lineno}: vertex id out of range", lineno)
        if w < 0:
            raise NegativeWeightError(f"line {lineno}: negative weight {w}", lineno)
        if w >= 1 << 32:
            raise MalformedLineError(f"line {lineno}: weight does not fit 32 bits", lineno)
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at {u}", lineno)
        pair = (min(u, v), max(u, v))
        if pair in seen_pairs:
            raise DuplicateEdgeError(f"line {lineno}: duplicate edge {pair[0]} {pair[1]}", lineno)
        seen_pairs.add(pair)
        edges.append((u, v, w))
    if header is None:
        raise MalformedLineError(f"line {last_line + 1}: missing header", last_line + 1)
    n, m = header
    if len(edges) != m:
        raise MalformedLineError(
            f"line {last_line + 1}: expected {m} edges, got {len(edges)}", last_line + 1
        )
    if not _connected(n, edges):
        raise DisconnectedGraphError("graph is not connected", None)
    return build_graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph, bit-exact: header then edges in canonical order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in g.edges)
    return "\n".join(lines) + "\n"


def random_graph(n: int, m: int, max_w: int, zero_prob: float, seed: int) -> Graph:
    """Connected random graph: a random spanning tree plus uniform extra edges.

    Each weight is 0 with probability zero_prob, else uniform in [1, max_w].
    The same arguments always produce the identical graph.
    """
    if n <= 0 or m < n - 1 or m > n * (n - 1) // 2:
        raise InfeasibleSpecError(f"infeasible combination n={n} m={m}", None)
    if max_w < 1:
        raise InfeasibleSpecError(f"max weight must be at least 1, got {max_w}", None)
    if not 0 <= zero_prob <= 1:
        raise InfeasibleSpecError(f"zero probability must lie in [0, 1], got {zero_prob}", None)
    rng = random.Random(seed)

    def draw_weight() -> int:
        if rng.random() < zero_prob:
            return 0
        return rng.randint(1, max_w)

    order = list(range(n))
    rng.shuffle(order)
    pairs: set[tuple[int, int]] = set()
    edge_list: list[tuple[int, int, int]] = []
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        a, b = (u, v) if u < v else (v, u)
        pairs.add((a, b))
        edge_list.append((a, b, draw_weight()))
    while len(edge_list) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        if (a, b) in pairs:
            continue
        pairs.add((a, b))
        edge_list.append((a, b, draw_weight()))
    return build_graph(n, edge_list)
