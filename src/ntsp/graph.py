"""Graph representation, text format parsing and serialization, random instances.

The text format is line oriented: lines starting with '#' are comments, the
first significant line is "n m", followed by exactly m lines "u v w".
Vertex ids are dense 0-based integers.  Only connected simple graphs with
nonnegative integer weights are accepted.
"""
from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate


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


VERTEX = "i"  # typecode of vertex ids, offsets and edge ids
WEIGHT = "I"  # typecode of weights: unsigned 32 bits, the text format's limit


class _Rows:
    """Read-only view of the CSR rows: rows[v] is v's (neighbour, weight,
    edge_index) triples sorted by neighbour, built from the arrays on each
    access.  Nothing on the query path reads it."""

    __slots__ = ("_g",)

    def __init__(self, g: Graph):
        self._g = g

    def __len__(self) -> int:
        return self._g.n

    def __getitem__(self, v: int) -> tuple[tuple[int, int, int], ...]:
        g = self._g
        a, b = g.off[v], g.off[v + 1]
        return tuple(zip(g.nbr[a:b], g.wt[a:b], g.eid[a:b]))


@dataclass(slots=True)
class Graph:
    """Undirected weighted graph in flat arrays, with canonical edge order.

    Edge i joins eu[i] < ev[i] with weight ew[i]; edges are sorted by
    (eu, ev).  Row v of the CSR layout is the index range off[v]:off[v+1]
    of nbr, wt and eid: v's neighbours sorted by id, the weights and the
    edge indices of the edges to them.

    Immutable by convention, not by type: neither the fields nor the arrays
    are frozen (freezing the dataclass would slow every build and still
    leave the arrays writable), but nothing writes to them once build_graph
    returns, so a Graph is safe to share between threads.  It is not
    hashable.  Equality compares n and the edge columns, which fix the rows.

    edges and adj rebuild the tuple forms, (u, v, w) per edge and a
    per-row view of (neighbour, weight, edge_index), on each access; they
    are for tests, the oracle and referees, and the solver reads the arrays.
    """

    n: int
    eu: array
    ev: array
    ew: array
    off: array = field(compare=False, repr=False)
    nbr: array = field(compare=False, repr=False)
    wt: array = field(compare=False, repr=False)
    eid: array = field(compare=False, repr=False)

    @property
    def m(self) -> int:
        return len(self.eu)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(zip(self.eu, self.ev, self.ew))

    @property
    def adj(self) -> _Rows:
        return _Rows(self)

    def edge_index(self, u: int, v: int) -> int | None:
        """Index into the edge columns for {u, v}, or None if absent."""
        if u > v:
            u, v = v, u
        nbr = self.nbr
        end = self.off[u + 1]
        i = bisect_left(nbr, v, self.off[u], end)
        return self.eid[i] if i < end and nbr[i] == v else None


def build_graph(n: int, edge_list) -> Graph:
    """Canonicalize an iterable of (u, v, w) into a Graph.

    Assumes the edges were already validated (no loops or duplicates,
    weights in [0, 2**32)) and the graph is connected; parse_graph and
    random_graph guarantee that.
    """
    return _from_weights(n, {(u * n + v if u < v else v * n + u): w for u, v, w in edge_list})


def _from_weights(n: int, weight: dict[int, int]) -> Graph:
    """The Graph whose edge {a, b}, a < b, has weight weight[a * n + b].

    The keys sort into the canonical edge order.  One counting fill over
    the sorted edges then lays out the rows: edge (a, b) lands in row a
    after every edge (x, a), x < a, which comes earlier in that order, so
    each row comes out sorted by neighbour with no sort of its own.  The
    columns are filled as lists, which index faster than arrays, and the
    three row columns, twice as long as the rest, become arrays one at a
    time.  weight is emptied.
    """
    keys = sorted(weight)
    ew = [weight[k] for k in keys]
    weight.clear()  # the caller's reference would keep it alive during the fill
    eu = [k // n for k in keys]
    ev = [k % n for k in keys]
    del keys
    deg = [0] * n
    for x in eu:
        deg[x] += 1
    for x in ev:
        deg[x] += 1
    off = list(accumulate(deg, initial=0))
    pos = off[:]
    nbr = [0] * off[n]
    wt = [0] * off[n]
    eid = [0] * off[n]
    i = 0
    for u, v, w in zip(eu, ev, ew):
        p = pos[u]
        pos[u] = p + 1
        nbr[p] = v
        wt[p] = w
        eid[p] = i
        p = pos[v]
        pos[v] = p + 1
        nbr[p] = u
        wt[p] = w
        eid[p] = i
        i += 1
    nbr = array(VERTEX, nbr)
    wt = array(WEIGHT, wt)
    eid = array(VERTEX, eid)
    return Graph(
        n, array(VERTEX, eu), array(VERTEX, ev), array(WEIGHT, ew), array(VERTEX, off), nbr, wt, eid
    )


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
    # fewer than n - 1 edges cannot connect n vertices: refuse before the
    # n-sized connectivity check, which a large header alone would pay for
    if m < n - 1 or not _connected(n, edges):
        raise DisconnectedGraphError("graph is not connected", None)
    return build_graph(n, edges)


def serialize_graph(g: Graph) -> str:
    """Inverse of parse_graph, bit-exact: header then edges in canonical order."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v} {w}" for u, v, w in zip(g.eu, g.ev, g.ew))
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
    if max_w >= 1 << 32:
        raise InfeasibleSpecError(f"max weight must be below 2**32, got {max_w}", None)
    if not 0 <= zero_prob <= 1:
        raise InfeasibleSpecError(f"zero probability must lie in [0, 1], got {zero_prob}", None)
    rng = random.Random(seed)

    def draw_weight() -> int:
        if rng.random() < zero_prob:
            return 0
        return rng.randint(1, max_w)

    order = list(range(n))
    rng.shuffle(order)
    # edge {a, b}, a < b, is the key a * n + b; the dict is the duplicate check
    weight: dict[int, int] = {}
    for i in range(1, n):
        u = order[rng.randrange(i)]
        v = order[i]
        weight[u * n + v if u < v else v * n + u] = draw_weight()
    del order
    while len(weight) < m:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        key = a * n + b if a < b else b * n + a
        if key in weight:
            continue
        weight[key] = draw_weight()
    return _from_weights(n, weight)
