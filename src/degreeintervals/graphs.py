"""Simple undirected graphs on vertices 0..n-1, with edge-list I/O.

Wire format: a header line "n m" followed by one "u v" line per edge.
The writer emits u < v, sorted by u and then by v, one row of lines per
vertex; the reader takes the edges in any order and checks each one as
it inserts it.

The reader (`parse_edge_list`) splits its text `_CHUNK` characters at a
time, each chunk ending just after a "\n" (`_chunk_lines`), and inserts
each edge as its line is read, so it never holds a list of every line.
It takes both endpoints of every edge from one `list(range(n))`, so a
graph read holds one int per vertex, as a built one does.  Lines are
only counted after a fault, since a wrong edge count is reported before
any bad edge.

Edges go in through one of two shapes.  `Graph._add_all` takes (u, v)
pairs and checks each one as it inserts it; it is the loop behind
`Graph(n, edges)` and `add_edge`.  `Graph._add_rows` takes rows (u, vs),
a vertex and all its new neighbours, and checks a whole row at once with
set operations; the constructions, `realize` and `complement` use it.  A
row that fails a check is handed to `_add_all` edge by edge, and so is an
edge line that fails the reader's own checks, so every error message, and
which bad edge is reported first, comes from that one loop.

A row insert shares one int object per vertex: each call makes the list
`list(range(n))` once, takes every row's u from it, and turns a step-1
range row inside 0..n-1 into a slice of it.  Iterating a range makes a
new int (32 bytes) for every entry above 256, so range rows would give
the split graph of `extremal --n 1000 --m 249750` about 250k ints for
its 1,000 vertices; shared, it holds one per vertex, and its adjacency
sets are most of what it takes.

The writer is `_edge_list_rows`, a generator of one string per vertex
(the header first); `format_edge_list` joins it, and the CLI hands it to
`writelines`, so the whole edge list is never held as one string.

The constructions and `realize` refuse more than `HARD_EDGE_LIMIT` edges
before they build anything (`require_edge_count`), and `Graph` refuses
more than `HARD_VERTEX_LIMIT` vertices before it makes any adjacency set,
so no graph, built or read, is larger; both raise `DomainError`.
Measured with tracemalloc, the adjacency sets of a split or complete
graph take 83-104 bytes per edge (1,000 to 2,000 vertices), and building
a near-extremal graph peaks at about 105, so the edges of a graph at the
limit need 0.8-1.05 GB.  A vertex costs about 360 bytes at the peak of
`extremal --n 1000000 --m 10 --dplus 5` (its empty set, the shared int
and its name in the writer), so a graph at both limits needs at most
about 1.4 GB.  Reading peaks at about the graph's own size: 85 bytes per
edge for the n = 1000 split graph (83 held), and 264 per vertex for an
edgeless graph (its empty set and the shared int list).
"""

from bisect import bisect_right
from itertools import chain, repeat

from .errors import DomainError
from .params import GraphParams

HARD_EDGE_LIMIT = 10 ** 7  # edges in one constructed graph; refused above, before any is built
HARD_VERTEX_LIMIT = 10 ** 6  # vertices in one graph; refused above, before any is allocated
_CHUNK = 1 << 16  # characters the reader splits at a time (`_chunk_lines`)


def require_edge_count(m) -> None:
    """Raise DomainError when a construction asks for more than
    `HARD_EDGE_LIMIT` edges."""
    if m > HARD_EDGE_LIMIT:
        raise DomainError(f"{m} edges above the construction limit {HARD_EDGE_LIMIT}")


class Graph:
    """Adjacency-set graph; rejects loops and duplicate edges."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges=()):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"order must be a non-negative integer, got {n!r}")
        if n > HARD_VERTEX_LIMIT:
            raise DomainError(f"{n} vertices above the graph limit {HARD_VERTEX_LIMIT}")
        self.n = n
        self._adj = [set() for _ in range(n)]
        self._add_all(edges)

    def _add_all(self, edges):
        """Insert every (u, v) of `edges` in turn, rejecting a vertex out of
        range, a loop or an edge already present (in either orientation).
        The int objects given are the ones stored; `Graph(n, edges)` and
        `add_edge` build no list of vertices to share them, so each stays
        O(1) per edge, while the reader and `_add_rows` take theirs from
        one `list(range(n))` per call."""
        n, adj = self.n, self._adj
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            nbrs = adj[u]
            if v in nbrs:
                raise ValueError(f"duplicate edge ({u}, {v})")
            nbrs.add(v)
            adj[v].add(u)

    def _add_rows(self, rows):
        """Insert every row (u, vs) of `rows` in turn: the edges (u, v) for v
        in `vs`, a sized sequence (a range or a list).  A row passes whole
        when u is in range, `vs` repeats no vertex, holds no u, lies in
        0..n-1 and meets none of u's neighbours; then u's side goes in as
        one set union.  A row that fails goes through `_add_all`, which
        raises the first bad edge's error, so the text and the order of
        errors are those of the pair loop.  A step-1 range inside 0..n-1
        is first replaced by the same vertices sliced from `verts`, and u
        is taken from `verts`, so the sets share one int per vertex."""
        n, adj = self.n, self._adj
        verts = list(range(n))
        for u, vs in rows:
            if not vs:
                continue
            if type(vs) is range and vs.step == 1 and 0 <= vs.start and vs.stop <= n:
                vs = verts[vs.start:vs.stop]
            row = set(vs)
            if (0 <= u < n and len(row) == len(vs) and u not in row
                    and 0 <= min(row) and max(row) < n and adj[u].isdisjoint(row)):
                u = verts[u]
                adj[u] |= row
                for v in vs:
                    adj[v].add(u)
            else:
                self._add_all(zip(repeat(u), vs))

    def add_edge(self, u: int, v: int):
        self._add_all(((u, v),))

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def _adj_of(self, v: int) -> set:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside vertex range 0..{self.n - 1}")
        return self._adj[v]

    def neighbors(self, v: int) -> set:
        return set(self._adj_of(v))

    def degree(self, v: int) -> int:
        return len(self._adj_of(v))

    def degrees(self) -> list:
        """Per-vertex degrees in vertex order."""
        return [len(a) for a in self._adj]

    def degree_sequence(self) -> tuple:
        """Degrees sorted non-increasing."""
        return tuple(sorted(self.degrees(), reverse=True))

    @property
    def m(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def edges(self) -> list:
        return sorted((u, v) for u in range(self.n) for v in self._adj[u] if u < v)

    def params(self) -> GraphParams:
        return GraphParams(self.n, self.m)

    def complement(self) -> "Graph":
        """The graph of the non-edges.  Each vertex's non-neighbours above it
        go in as runs, each a range between two of its neighbours, which
        `_add_rows` slices from its one vertex list."""
        n, adj = self.n, self._adj

        def runs():
            for u in range(n):
                start = u + 1
                for v in sorted(v for v in adj[u] if v > u):
                    yield u, range(start, v)
                    start = v + 1
                yield u, range(start, n)
        g = Graph(n)
        g._add_rows(runs())
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        g = cls(n)
        g._add_rows((u, range(u + 1, n)) for u in range(n))
        return g

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _edge_list_rows(g: Graph):
    """The "n m" header line, then for each u ascending one string of
    "u v" lines, v > u ascending: the bytes of sorting every edge, a
    vertex at a time, with each vertex turned into a string once."""
    names = [str(v) for v in range(g.n)]
    yield f"{g.n} {g.m}\n"
    for u, nbrs in enumerate(g._adj):
        ordered = sorted(nbrs)
        above = ordered[bisect_right(ordered, u):]
        if above:
            head = names[u] + " "
            yield head + ("\n" + head).join([names[v] for v in above]) + "\n"


def format_edge_list(g: Graph) -> str:
    """The wire format of `g` as one string (see `_edge_list_rows`)."""
    return "".join(_edge_list_rows(g))


def _chunk_lines(text: str):
    """`text.splitlines()` a list per chunk of about `_CHUNK` characters.
    Every chunk but the last ends just after a "\n", which ends a line
    under every separator `splitlines` knows ("\r\n" included) and starts
    none, so the chunks split into exactly the lines of the whole text."""
    start, size = 0, len(text)
    while start < size:
        stop = text.find("\n", start + _CHUNK) + 1 or size
        yield text[start:stop].splitlines()
        start = stop


def parse_edge_list(text: str) -> Graph:
    """Graph from the wire format; blank and whitespace-only lines are
    skipped.  Faults are reported in this order: a bad header, a line
    count other than the header's m, an order `Graph` refuses, then the
    first bad edge line, malformed or an invalid edge.  Each edge goes in
    as its line is read, with both endpoints taken from one
    `list(range(n))`, so the graph holds one int per vertex.  An edge
    that fails a check goes to `Graph._add_all`, which raises its error;
    after a fault the remaining lines are only counted."""
    lines = chain.from_iterable(_chunk_lines(text))
    for raw in lines:
        head = raw.split()
        if head:
            break
    else:
        raise ValueError("empty edge list input")
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {raw.strip()!r}")
    n, m = int(head[0]), int(head[1])
    found, fault = 0, None
    try:
        g = Graph(n)
        adj, verts = g._adj, list(range(n))
        for raw in lines:
            parts = raw.split()
            if not parts:
                continue
            found += 1
            if len(parts) != 2:
                raise ValueError(f"edge line must be 'u v', got {raw.strip()!r}")
            u, v = int(parts[0]), int(parts[1])
            if 0 <= u < n and 0 <= v < n and u != v and v not in adj[u]:
                u, v = verts[u], verts[v]
                adj[u].add(v)
                adj[v].add(u)
            else:
                g._add_all(((u, v),))
    except ValueError as exc:
        fault = exc
    found += sum(1 for raw in lines if raw.split())
    if found != m:
        raise ValueError(f"header promises {m} edges, found {found}")
    if fault is not None:
        raise fault
    return g
