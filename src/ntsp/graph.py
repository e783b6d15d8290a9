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
from itertools import accumulate, islice


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


VERTEX = "i"  # typecode of the edge-id column


class _Rows:
    """Read-only view of the CSR rows: rows[v] is v's (neighbour, weight,
    edge_index) triples sorted by neighbour, built from the columns on each
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
    """Undirected weighted graph in flat columns, with canonical edge order.

    Edge i joins eu[i] < ev[i] with weight ew[i]; edges are sorted by
    (eu, ev).  Row v of the CSR layout is the index range off[v]:off[v+1]
    of nbr, wt and eid: v's neighbours sorted by id, the weights and the
    edge indices of the edges to them.

    eu, ev, ew, off, nbr and wt are exact-size tuples of shared ints: each
    vertex id is one int object that eu, ev and both of its edges' row
    slots point at, and each weight is one object shared by ew and both
    slots.  A Dijkstra reads a row slot per relaxation, and an array
    would box a new int for every read of a value above 256; a tuple read
    only takes a reference.  eid, which only the core's row reads touch,
    stays an int32 array.  The graph holds about 82 bytes per edge (110
    with weights up to 4*10**9, too large for the small-int cache),
    against 37 for all-array columns.

    Immutable by convention, not by type: the dataclass is not frozen
    (freezing it would slow every build) and eid is writable, but nothing
    writes to a Graph once build_graph returns, so it is safe to share
    between threads.  It is not hashable.  Equality compares n and the
    edge columns, which fix the rows.

    edges and adj rebuild the tuple forms, (u, v, w) per edge and a
    per-row view of (neighbour, weight, edge_index), on each access; they
    are for tests, the oracle and referees, and the solver reads the
    columns.  max_weight is the largest edge weight (0 with no edges),
    recorded at build time so that sssp can pick its queue without a pass
    over wt.
    """

    n: int
    eu: tuple[int, ...]
    ev: tuple[int, ...]
    ew: tuple[int, ...]
    off: tuple[int, ...] = field(compare=False, repr=False)
    nbr: tuple[int, ...] = field(compare=False, repr=False)
    wt: tuple[int, ...] = field(compare=False, repr=False)
    eid: array = field(compare=False, repr=False)
    max_weight: int = field(compare=False, repr=False)

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
    each row comes out sorted by neighbour with no sort of its own.

    The endpoint columns are read through ids, a list of the ints 0..n-1
    thrown away after the build, so the fill copies one shared object per
    vertex into both row slots instead of a fresh int per slot; the weight
    objects are likewise shared.  The held graph is then about 82 bytes
    per edge and the build peaks near 138 (random_graph(20000, 80000, 8,
    0.2, 1) under tracemalloc, CPython 3.11).  weight is emptied.
    """
    keys = sorted(weight)
    ew = tuple([weight[k] for k in keys])
    weight.clear()  # the caller's reference would keep it alive during the fill
    ids = list(range(n))
    eu = tuple([ids[k // n] for k in keys])
    ev = tuple([ids[k % n] for k in keys])
    del keys, ids
    deg = [0] * n
    for x in eu:
        deg[x] += 1
    for x in ev:
        deg[x] += 1
    off = list(accumulate(deg, initial=0))
    del deg
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
    del pos
    nbr = tuple(nbr)
    wt = tuple(wt)
    eid = array(VERTEX, eid)
    return Graph(n, eu, ev, ew, tuple(off), nbr, wt, eid, max(ew, default=0))


def parse_graph(text: bytes | str) -> Graph:
    """Parse the text format, rejecting bad input with a line-specific error.

    One pass: each edge goes straight into the {a * n + b: w} dict that
    _from_weights takes, and that dict is the duplicate check, as in
    random_graph.  Connectivity is checked on the built Graph's rows.
    """
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    lines = text.splitlines()
    total = len(lines)
    for head, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 2:
            raise MalformedLineError(f"line {head}: expected 'n m' header", head)
        try:
            n, m = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedLineError(f"line {head}: non-integer header", head) from None
        if n <= 0 or m < 0:
            raise MalformedLineError(f"line {head}: bad sizes n={n} m={m}", head)
        break
    else:
        raise MalformedLineError(f"line {total + 1}: missing header", total + 1)

    weight: dict[int, int] = {}
    count = 0
    for lineno, raw in enumerate(islice(lines, head, None), start=head + 1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if count == m:
            raise MalformedLineError(f"line {lineno}: more than {m} edges", lineno)
        try:
            u, v, w = fields
        except ValueError:
            raise MalformedLineError(f"line {lineno}: expected 'u v w'", lineno) from None
        try:
            u, v, w = int(u), int(v), int(w)
        except ValueError:
            raise MalformedLineError(f"line {lineno}: non-integer edge", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedLineError(f"line {lineno}: vertex id out of range", lineno)
        if not 0 <= w < 1 << 32:
            if w < 0:
                raise NegativeWeightError(f"line {lineno}: negative weight {w}", lineno)
            raise MalformedLineError(f"line {lineno}: weight does not fit 32 bits", lineno)
        if u == v:
            raise SelfLoopError(f"line {lineno}: self-loop at {u}", lineno)
        key = u * n + v if u < v else v * n + u
        if key in weight:
            raise DuplicateEdgeError(
                f"line {lineno}: duplicate edge {min(u, v)} {max(u, v)}", lineno
            )
        weight[key] = w
        count += 1
    del lines
    if count != m:
        raise MalformedLineError(f"line {total + 1}: expected {m} edges, got {count}", total + 1)
    # fewer than n - 1 edges cannot connect n vertices: refuse before
    # anything n-sized is built, which a large header alone would pay for
    if m < n - 1:
        raise DisconnectedGraphError("graph is not connected", None)
    g = _from_weights(n, weight)
    off, nbr = g.off, g.nbr
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]  # grows as it is read: each vertex's row is scanned once
    for x in reached:
        for y in nbr[off[x] : off[x + 1]]:
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
    if len(reached) != n:
        raise DisconnectedGraphError("graph is not connected", None)
    return g


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
