"""Output checks that do not rely on the package under test.

Edge lists are parsed here, degrees are recomputed here, and the
half-order interval is evaluated here from its closed form
[d - (k-2)/(2(k-1)) d,  d + (k-2)/(2(k-1)) (k-1-d)] with d = 2m/k.
Each check returns a list of problems; an empty list means the output
is correct.
"""

import re
from collections import Counter
from fractions import Fraction

_PEEL_LINE = re.compile(r"(\d+) (\d+) (\d+) \[([0-9/]+), ([0-9/]+)\]")


def parse_edge_list(text):
    """(n, edges) of a simple graph in the "n m" + "u v" lines format.

    Raises ValueError on any malformed line, loop, duplicate edge or
    out-of-range vertex.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty edge list")
    n, m = (int(x) for x in lines[0].split(" "))
    if len(lines) != m + 1:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        u, v = (int(x) for x in ln.split(" "))
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {ln!r} outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"loop {ln!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"duplicate edge {ln!r}")
        seen.add(key)
        edges.append(key)
    return n, edges


def half_order_interval(k, m):
    """Closed half-order interval for k vertices and m edges; [0, 0] at k = 1."""
    if k == 1:
        return Fraction(0), Fraction(0)
    d = Fraction(2 * m, k)
    shrink = Fraction(k - 2, 2 * (k - 1))
    return d - shrink * d, d + shrink * (k - 1 - d)


def check_realize(text, degrees):
    """The output is a simple graph whose degree multiset equals `degrees`."""
    try:
        n, edges = parse_edge_list(text)
    except ValueError as exc:
        return [f"realize: bad edge list: {exc}"]
    if n != len(degrees):
        return [f"realize: {n} vertices, expected {len(degrees)}"]
    got = Counter(u for e in edges for u in e)
    if sorted(got[v] for v in range(n)) != sorted(degrees):
        return ["realize: degree multiset differs from the input sequence"]
    return []


def check_peel(text, n, edges):
    """Every vertex is peeled once, at its current degree, inside the
    printed interval, and the printed interval is the half-order interval
    of the graph that remains."""
    lines = text.splitlines()
    if not lines or lines[0] != "step vertex degree interval":
        return ["peel: missing header line"]
    if len(lines) != n + 1:
        return [f"peel: {len(lines) - 1} steps for {n} vertices"]
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(a) for a in adj]
    alive = [True] * n
    m = len(edges)
    for step, ln in enumerate(lines[1:], 1):
        match = _PEEL_LINE.fullmatch(ln)
        if not match:
            return [f"peel: malformed line {ln!r}"]
        i, v, deg = (int(match.group(g)) for g in (1, 2, 3))
        lo, hi = Fraction(match.group(4)), Fraction(match.group(5))
        if i != step or not 0 <= v < n or not alive[v]:
            return [f"peel: step {step} line {ln!r} repeats or skips a vertex"]
        if deg != degree[v]:
            return [f"peel: step {step} prints degree {deg}, vertex {v} has {degree[v]}"]
        if not lo <= deg <= hi:
            return [f"peel: step {step} degree {deg} outside printed [{lo}, {hi}]"]
        if (lo, hi) != half_order_interval(n - step + 1, m):
            return [f"peel: step {step} interval [{lo}, {hi}] is not the half-order interval"]
        alive[v] = False
        for u in adj[v]:
            if alive[u]:
                degree[u] -= 1
        m -= degree[v]
        degree[v] = 0
    return []
