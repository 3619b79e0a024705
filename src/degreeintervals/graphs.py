"""Simple undirected graphs on vertices 0..n-1, with edge-list I/O.

Wire format: a header line "n m" followed by one "u v" line per edge.
"""

from .errors import DomainError
from .params import GraphParams


class Graph:
    """Adjacency-set graph; rejects loops and duplicate edges."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges=()):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"order must be a non-negative integer, got {n!r}")
        self.n = n
        self._adj = [set() for _ in range(n)]
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int):
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        if v in self._adj[u]:
            raise ValueError(f"duplicate edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self._adj[u]

    def neighbors(self, v: int) -> set:
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

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
        g = Graph(self.n)
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if v not in self._adj[u]:
                    g.add_edge(u, v)
        return g

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    g = Graph(n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        g.add_edge(int(parts[0]), int(parts[1]))
    return g
