"""Constructions that attain (or approach) the interval bounds.

`build_split_extremal` produces the split graph whose only degrees are
the two endpoints of the half-order interval: a clique joined to an
independent set by a biregular cross layer, each clique vertex adjacent
to half the independent side and vice versa.  It exists exactly when
both side sizes are even integers.

`build_near_extremal` aims at the optimal point of the window
relaxation: clique of size about x* n, every clique vertex pushed to
degree >= ceil(d_plus), cross edges dealt as evenly as possible over the
independent side.  The achieved low-side value is measured and reported
against the theoretical bound; it can approach but never beat it.
"""

import heapq
import math
from itertools import chain
from typing import NamedTuple

from .bounds import extremal_profile, require_above_root
from .errors import DomainError, InfeasibleConstructionError, NotRealizableError
from .graphs import Graph, require_edge_count
from .optim import closed_form_solution
from .params import GraphParams


class ConstructionResult(NamedTuple):
    """A constructed graph with its measured parameters and target gaps.

    `achieved_params` is recomputed from the graph, never copied from the
    target.  `gap_report` maps quantity names to |achieved - target|.
    """

    graph: Graph
    achieved_params: GraphParams
    achieved_degree_set: set
    target: object
    gap_report: dict


def _biregular_rows(a: int, b: int):
    """Cross rows (i, arc) from clique 0..a-1 to independent a..a+b-1 that
    give every left vertex b/2 rights and every right a/2 lefts.

    For even a and b, left i covers the arc of b/2 rights starting at
    s(i) = floor(i*b/a), mod b: one range, or two when the arc wraps past
    the last right.  Since s(i + a/2) = s(i) + b/2, lefts i and i + a/2
    cover complementary arcs, so every right is covered by exactly one
    left of each such pair: a/2 lefts in all.
    """
    half = b // 2
    for i in range(a):
        s = i * b // a
        if s + half <= b:
            yield i, range(a + s, a + s + half)
        else:
            yield i, range(a + s, a + b)
            yield i, range(a, a + s + half - b)


def build_split_extremal(n: int, m: int) -> ConstructionResult:
    """Split graph whose degrees are exactly the half-order endpoints.

    Requires both profile sizes to be even integers; raises
    NotRealizableError otherwise, and DomainError at degenerate density
    or above `graphs.HARD_EDGE_LIMIT` edges.
    The clique goes in as rows (u, range(u+1, a)) and the cross layer as
    one or two ranges per clique vertex (`_biregular_rows`), through one
    checked row insert.
    """
    p = GraphParams(n, m)
    if p.m.denominator != 1:
        raise DomainError("construction needs an integer edge count")
    require_edge_count(m)
    prof = extremal_profile(p)
    if not prof.realizable:
        raise NotRealizableError(
            f"profile sizes {prof.size_plus} and {prof.size_minus} must be even integers")
    a, b = int(prof.size_plus), int(prof.size_minus)
    g = Graph(n)
    g._add_rows(chain(((u, range(u + 1, a)) for u in range(a)), _biregular_rows(a, b)))
    achieved = GraphParams(n, g.m)
    degrees = g.degrees()
    gap = {
        "deg_plus": abs(max(degrees[:a]) - float(prof.deg_plus)),
        "deg_minus": abs(min(degrees[a:]) - float(prof.deg_minus)) if b else 0.0,
        "average_degree": abs(float(achieved.d) - float(p.d)),
    }
    return ConstructionResult(g, achieved, set(degrees), prof, gap)


def _deal_cross(a: int, b: int, total: int) -> list:
    """Rows (u, vs) of `total` edges from clique 0..a-1 to independent
    a..a+b-1, one row per clique vertex.

    The k-th edge starts at clique vertex k mod a and ends at the
    least-loaded independent vertex not yet adjacent to it, ties toward
    the lower index.  Each choice depends only on the earlier ones, so a
    shorter deal is a prefix of a longer one.

    The independent side sits in a heap of (load, j).  Popping until an
    entry is not adjacent to u yields the least (load, j) among u's
    non-neighbours, which is that rule by construction.  An edge costs
    O((1 + s) log b), where s counts the entries skipped as neighbours
    of u: on `build_near_extremal(400, 39900, 300)` s totals 200 over
    20,397 edges, while a complete 200 x 200 cross layer skips about 27
    per edge.

    Adjacency is read from one local set per dealer, grown as it deals.
    The rows take their vertices from one list of the independent side,
    so they share one int per vertex.
    """
    taken = [set() for _ in range(a)]
    right = list(range(a, a + b))
    rows = [[] for _ in range(a)]
    loads = [(0, j) for j in range(b)]  # a heap of (load, j), one entry per j
    for k in range(total):
        u = k % a
        mine = taken[u]
        skipped = []
        load, j = heapq.heappop(loads)
        while j in mine:
            skipped.append((load, j))
            load, j = heapq.heappop(loads)
        for entry in skipped:
            heapq.heappush(loads, entry)
        heapq.heappush(loads, (load + 1, j))
        mine.add(j)
        rows[u].append(right[j])
    return list(enumerate(rows))


def build_near_extremal(n: int, m: int, d_plus) -> ConstructionResult:
    """Clique-plus-independent graph approximating the window optimum.

    The clique size starts at round(x* n), where x* comes from the
    closed-form optimal point, and is reduced until the clique fits in m
    edges and every clique vertex can reach degree ceil(d_plus) through
    cross edges.  Cross edges are then dealt one at a time: the k-th
    starts at clique vertex k mod a, so both sides stay balanced, and
    ends at the least-loaded independent vertex not yet adjacent to it,
    ties toward the lower index.  A heap of (load, index) finds that
    vertex in O((1 + s) log b) per edge, s the dealer's neighbours it
    skips (see `_deal_cross`).  The clique rows and the dealt rows go in
    through one checked row insert.  The total is clamped to the cross
    capacity a*b, so the graph stops at C(a,2) + a*b edges whenever that
    is below m, well inside the domain too; the shortfall shows up in the
    gap report.  An m above `graphs.HARD_EDGE_LIMIT` is refused with
    DomainError first.
    """
    p = GraphParams(n, m)
    if p.m.denominator != 1:
        raise DomainError("construction needs an integer edge count")
    require_edge_count(m)
    require_above_root(p, d_plus)
    sol = closed_form_solution(p, d_plus)
    ceil_dp = math.ceil(d_plus)
    a_start = min(max(round(sol.x * n), 1), n - 1)
    a = a_start
    while a >= 1:
        clique_edges = a * (a - 1) // 2
        per_vertex = max(ceil_dp - (a - 1), 0)
        if clique_edges + a * per_vertex <= m:
            break
        a -= 1
    else:
        raise InfeasibleConstructionError(
            f"no clique vertex can reach degree {ceil_dp} within m={m} edges")
    b = n - a

    g = Graph(n)
    total = min(max(m - a * (a - 1) // 2, 0), a * b)
    g._add_rows(chain(((u, range(u + 1, a)) for u in range(a)), _deal_cross(a, b, total)))

    achieved = GraphParams(n, g.m)
    degrees = g.degrees()
    low_side = [dv for dv in degrees if dv < d_plus]
    measured_low = max(low_side)  # nonempty: average degree < d_plus
    gap = {
        "high_side_min_degree": abs(min(degrees[:a]) - float(d_plus)),
        "low_side_L": abs(measured_low - sol.objective),
        "average_degree": abs(float(achieved.d) - float(p.d)),
        "clique_reduction": float(a_start - a),
    }
    return ConstructionResult(g, achieved, set(degrees), sol, gap)
