"""Degree-sequence machinery and the exhaustive ground truth.

The interval guarantees constrain vertex degrees only, so exhaustive
verification runs over graphical degree sequences instead of labeled
graphs (16016 graphical sequences of length 10, versus 2^45 labeled
graphs).  Sequences are plain non-increasing tuples of ints.

Both guarantees only ask whether some graphical sequence avoids an
integer band [a, b], so the scans speak in bands, and never list every
sequence.  `_search(n, m, a, b)` lists the sequences of one cell with no
degree in the band (every one when a > b), generated depth first as
bounded partitions of the degree sum over the degrees outside it; a
prefix is cut as soon as its own Erdos-Gallai inequality cannot hold, and
each complete candidate is kept when it passes all of them (at n = 11,
72,674 candidates instead of the 176,482 bounded partitions).  A
violation has every degree outside the closed band and an extremal
sequence every degree outside the strict one, so both come from one
search of the strict band (`_band_sets`), and a window cell is decided
by that search alone.  The exact window optimum is found only by
`empirical_d_minus`: the first non-empty listing over the bands
[L+1, hi_strict], L rising from lo_strict-1.  The window thresholds are
step functions of d_plus, so grid cells in one window piece share a
band, searched once.  A half-order cell's thresholds are computed in
integers (`half_order_thresholds`), and its two-endpoint profile is built
only when the cell has extremal sequences to compare with it.  The
sequences of every order of a scan are counted once, in one
Durfee-square recurrence at the scan's largest order that keeps totals
only (`_graphical_totals`).  Full enumeration (`enumerate_graphical`) is
the search of the empty band, kept as the tests' oracle.  Every listing,
and every t1 scan before it counts, checks the order against
`HARD_ORDER_LIMIT` in one place (`_require_order`).

Wire formats shared with the command line: a degree sequence is one line
of comma-separated integers; graphs use the edge-list format of
`graphs`.
"""

import functools
import math
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Iterator, NamedTuple, Optional

from .bounds import (_half_order_ratios, extremal_profile, half_order_thresholds,
                     require_above_root, require_window_domain, window_thresholds)
from .errors import DomainError, EnumerationLimitError, NotGraphicalError
from .graphs import Graph, require_edge_count
from .params import GraphParams, Interval

HARD_ORDER_LIMIT = 12

DegreeSequence = tuple


def as_degree_sequence(degrees) -> DegreeSequence:
    """Non-increasing tuple of the given degrees; rejects non-integers."""
    seq = []
    for d in degrees:
        try:
            v = int(d)
        except (OverflowError, ValueError):  # inf, nan
            v = None
        if v != d:
            raise DomainError(f"degree {d!r} is not an integer")
        if v < 0:
            raise DomainError(f"degree {v} is negative")
        seq.append(v)
    seq.sort(reverse=True)
    return tuple(seq)


def _eg_ok(s: tuple) -> bool:
    # Erdos-Gallai: even sum and, for every prefix length k,
    # sum of the k largest <= k(k-1) + sum over the rest of min(d, k).
    if sum(s) % 2:
        return False
    n = len(s)
    lhs = 0
    for k in range(1, n + 1):
        # Past the Durfee number every d_i <= k-1, so step k-1 -> k adds d_k on the
        # left, 2(k-1) - d_k on the right: the slack only grows, by 2(k-1-d_k).
        if s[k - 1] < k:
            return True
        lhs += s[k - 1]
        rhs = k * (k - 1)
        for d in s[k:]:
            rhs += d if d < k else k
        if lhs > rhs:
            return False
    return True


def is_graphical(degrees) -> bool:
    """True iff some simple graph has exactly these degrees.

    A degree above n-1 fails the first Erdos-Gallai inequality."""
    return _eg_ok(as_degree_sequence(degrees))


def realize(degrees) -> Graph:
    """Deterministic realization of a graphical sequence.

    Havel-Hakimi: repeatedly connects the vertex with the largest
    residual degree to the next-largest residuals (ties toward smaller
    index).  The sorted degree list of the result equals the input
    sequence.

    Vertices are kept in residual-degree buckets, each in increasing
    index order, so a step touches only the buckets it takes from: the
    chosen vertex is the head of the highest non-empty bucket, its
    neighbours are the heads of the buckets below it, and each taken
    head moves one bucket down, merged in index order.  That is the
    order a full sort by (-residual, index) gives, so the edges are the
    same.  A step does O(max degree) Python work plus list copies of the
    buckets it touches, where a sort of all n vertices per step cost
    O(n^2 log n) in all; the Erdos-Gallai check is O(n h), h the Durfee
    number (the largest k with d_k >= k).  A step keeps its edges as rows
    (v, head), one per bucket it takes from, and the graph is built from
    all rows in one checked row insert (`Graph._add_rows`) at the end.
    A sequence of more than `graphs.HARD_EDGE_LIMIT` edges is refused
    with DomainError before the Erdos-Gallai check.
    """
    s = as_degree_sequence(degrees)
    require_edge_count(sum(s) // 2)
    if not _eg_ok(s):
        raise NotGraphicalError(f"sequence {s} is not graphical")
    rows = []
    buckets = [[] for _ in range(max(s, default=0) + 1)]
    for v, d in enumerate(s):
        buckets[d].append(v)
    top = len(buckets) - 1
    while top:
        if not buckets[top]:
            top -= 1
            continue
        v = buckets[top].pop(0)
        need, d, taken = top, top, []
        while need:  # a graphical sequence never runs out above bucket 0
            head = buckets[d][:need]
            del buckets[d][:need]
            taken.append((d, head))
            need -= len(head)
            d -= 1
        for d, head in taken:
            rows.append((v, head))
            if d > 1:
                buckets[d - 1] = sorted(head + buckets[d - 1])
    g = Graph(len(s))
    g._add_rows(rows)
    return g


def _extend(d: list, allowed: list, j: int, out: list, i: int, rem: int, lhs: int):
    # Fills d[i:] with non-increasing values from allowed[j:] (descending)
    # summing to rem, in lexicographically decreasing order, and appends each
    # graphical fill to out as a tuple.  lhs is sum(d[:i]).  A value v at
    # position k = i+1 leaves a tail of n-k entries <= v summing to
    # r = rem - v, so the k-th Erdos-Gallai right side is at most
    # k(k-1) + min(r, (n-k)k); a prefix above that bound has no graphical
    # completion.
    n = len(d)
    k = i + 1
    floor_k = k * (k - 1)
    tail_cap = (n - k) * k
    least = -(-rem // (n - i))  # the entries left cannot exceed this one
    for j in range(j, len(allowed)):
        v = allowed[j]
        if v > rem:
            continue
        if v < least:
            break
        r = rem - v
        if lhs + v > floor_k + (r if r < tail_cap else tail_cap):
            continue
        d[i] = v
        if k < n:
            _extend(d, allowed, j, out, k, r, lhs + v)
        elif _eg_ok(tuple(d)):
            out.append(tuple(d))


def _integer_edges(m) -> int:
    # m as an int; the one check, for `_search` and `window_grid`.
    if m != int(m):
        raise DomainError(f"edge count {m!r} is not an integer")
    return int(m)


def _require_order(n: int) -> None:
    # The one check of `HARD_ORDER_LIMIT`, read at call time.
    if n > HARD_ORDER_LIMIT:
        raise EnumerationLimitError(f"order {n} above enumeration limit {HARD_ORDER_LIMIT}")


def _search(n: int, m: int, a: int, b: int) -> list:
    """The graphical sequences of length n and sum 2m with no degree in the
    band [a, b], lexicographically decreasing; every one when a > b."""
    m = _integer_edges(m)
    _require_order(n)
    allowed = [v for v in range(n - 1, -1, -1) if not a <= v <= b]
    out = []
    _extend([0] * n, allowed, 0, out, 0, 2 * m, 0)
    return out


def enumerate_graphical(n: int, m: int) -> Iterator[DegreeSequence]:
    """All graphical sequences of length n and sum 2m, lexicographically
    decreasing, each exactly once.

    Prefixes are filled depth first in that order and cut as soon as
    their own Erdos-Gallai inequality fails for every possible tail;
    each complete survivor still passes the full `_eg_ok`.  Over the
    cells 0 < m < 55 of n = 11 that check sees 72,674 leaves, where
    filtering every bounded partition saw 176,482.  It is `_search` on
    the empty band.  The scans do not call it: they search their own
    bands, and `half_order_summaries` counts every order by
    `_graphical_totals`; it is their test oracle."""
    GraphParams(n, m)  # validates the order and the edge count
    yield from _search(n, m, 1, 0)  # the empty band


def graphical_sequences(n: int, m: int) -> tuple:
    """Tuple of `enumerate_graphical(n, m)`, not cached.  It stays public
    because `perfbench/passrun.py` LAYERS traces it by name, and CI's
    benchmark step fails on a traced function that is missing."""
    return tuple(enumerate_graphical(n, m))


def _graphical_totals(order: int) -> tuple:
    """Number of graphical sequences of each length n = 0..order, any edge
    count, from one recurrence at the given order; none is listed.

    A non-zero sequence is a partition whose Ferrers diagram splits into
    its Durfee square h x h (h the largest k with d_k >= k), an arm
    a_i = d_i - h and a leg b_i = d*_i - h for i <= h (d* the conjugate),
    both non-increasing and otherwise free.  It has h + b_1 non-zero
    entries, so it fits in n entries iff h + b_1 <= n; its degree sum is
    h^2 + sum(a) + sum(b), and by Berge's form of Erdos-Gallai it is
    graphical iff that sum is even and sum_{i<=k} (b_i - a_i) >= k for
    every k <= h.  The k = 1 inequality, b_1 > a_1, already gives
    d_1 <= n-1.  So one recurrence at the given order counts every
    shorter length too: each count is kept per b_1, and length n sums
    those with h + b_1 <= n.

    For each h a recurrence over k carries the states (a_k, b_k, slack),
    slack being that prefix sum minus k, capped at (h-k)(a_k+1) since no
    later step can lose more.  Only the parity of the running
    sum(a) + sum(b) matters, so a state holds, per b_1, two counts, of the
    prefixes with an even and with an odd running sum.  They are fields of
    one int, 2*order bits each, the field of (b_1, parity) at position
    2*b_1 + parity.  A field counts distinct prefixes (a_1..a_k, b_1..b_k)
    with entries at most order-h, fewer than C(order, k)^2 < 4^order, so
    fields never carry.  The first step puts each prefix in its b_1's
    field; a later step by an odd a2 + b2 swaps every even field with the
    odd one above it, through two masks.  At the end, a sequence is
    graphical iff the parity of the running sum is that of h^2.

    A state (a, b, slack) steps to every (a2 <= a, b2 <= b), and the new
    key depends on slack, a2 and b2 alone.  So each step groups the states
    by slack, takes 2-D suffix sums of their counts over (a, b), and emits
    each (a2, b2) once per slack (suffix sums after Kai Wang, "Efficient
    counting of degree sequences", Discrete Mathematics, 2019).  On a
    2-vCPU VM with Python 3.11, this one pass at order 11 took 2.9 ms,
    where counting the orders 2..11 one at a time, with a degree-sum
    polynomial per state, took 7.1 ms.
    """
    width = 2 * order
    mask = (1 << width) - 1
    even = sum(mask << 2 * width * j for j in range(order))  # b_1 < order
    odd = even << width
    by_length = [1] + [0] * order  # the zero sequence, at every length
    for h in range(1, order):
        grids = {0: {(order - h, order - h): 1}}  # a_1, b_1 <= order-h
        for k in range(h):
            later = h - k - 1
            nxt = {}
            for slack, grid in grids.items():
                top_b = max(b for _, b in grid)
                rows = [[0] * (top_b + 1) for _ in range(max(a for a, _ in grid) + 1)]
                for (a, b), counts in grid.items():
                    rows[a][b] = counts
                below = [0] * (top_b + 1)
                for a2 in range(len(rows) - 1, -1, -1):
                    # below[b2] becomes the sum over a >= a2 and b >= b2.
                    below = list(map(add, accumulate(reversed(rows[a2])), reversed(below)))
                    below.reverse()
                    cap = later * (a2 + 1)
                    base = slack - a2 - 1
                    for b2 in range(max(0, -base), top_b + 1):
                        s2 = base + b2
                        key = (a2, b2, s2 if s2 < cap else cap)
                        nxt[key] = nxt.get(key, 0) + below[b2]
            grids = {}
            for (a2, b2, slack), counts in nxt.items():
                if not k:  # counts is 1: a first step sets b_1
                    counts <<= width * (2 * b2 + ((a2 + b2) & 1))
                elif (a2 + b2) & 1:
                    counts = (counts & even) << width | (counts & odd) >> width
                grids.setdefault(slack, {})[a2, b2] = counts
        final = sum(grids[0].values()) >> width * (h & 1)  # the last step caps slack at 0
        for b1 in range(1, order - h + 1):
            by_length[h + b1] += final >> 2 * width * b1 & mask
    return tuple(accumulate(by_length))


@functools.lru_cache(maxsize=1)
def _band_sets(n: int, m: int, lo: int, lo_strict: int, hi: int, hi_strict: int) -> tuple:
    """(violations, extremal) as tuples: the graphical sequences of length
    n, sum 2m, with no degree in [lo, hi], and those with none in
    [lo_strict, hi_strict].  The strict band lies inside the closed one, so
    the violations are filtered out of the extremal sequences, the one
    search of the strict band.  One band is kept: thresholds never fall as
    d_plus grows, so `window_summary` meets each piece once."""
    extremal = tuple(_search(n, m, lo_strict, hi_strict))
    return tuple(s for s in extremal if not any(lo <= d <= hi for d in s)), extremal


class VerificationReport(NamedTuple):
    """Outcome of one exhaustive scan over graphical sequences.

    `violations` holds sequences with no entry in the guaranteed closed
    interval (must stay empty).  `extremal_sequences` are those with no
    entry strictly inside; for the half-order scan each is compared with
    the two-endpoint profile and deviations land in `profile_mismatches`.
    A profile mismatch is not a counterexample: every off-profile
    boundary sequence has a degree outside the closed interval (stars
    and their complements, for example).  Window scans also record
    whether the optimum (`empirical_d_minus`) reaches the bound (`bound_ok`).
    The scan covers every graphical sequence of the cell without visiting
    them: it searches only the degrees that avoid the band, and every
    sequence not found there has a degree inside it.  Their number is
    not counted per report: `half_order_summaries` counts each order's
    total, over every edge count, by `_graphical_totals`.
    """

    params: GraphParams
    d_plus: Optional[object]
    violations: list
    extremal_sequences: list
    profile_mismatches: list
    bound_ok: Optional[bool] = None


def _profile_sequence(p: GraphParams):
    prof = extremal_profile(p)
    if not prof.realizable:
        return None
    return (int(prof.deg_plus),) * int(prof.size_plus) + \
        (int(prof.deg_minus),) * int(prof.size_minus)


def verify_half_order(n: int, m: int) -> VerificationReport:
    """Scan every graphical sequence of length n, sum 2m, for an entry in
    the closed half-order interval; exact rational thresholds.

    Sequences with no entry in the open interval are collected as
    extremal; at non-degenerate density each is compared against the
    two-endpoint profile multiset and mismatches are recorded.  Those
    confined to the closed interval take only the two endpoint degrees,
    and the degree sum fixes how many of each, so they are exactly the
    profile; a mismatch has a degree outside the closed interval (a
    star, or its complement) and is not a counterexample.  The profile is
    built only when there are extremal sequences to compare with it.
    """
    p = GraphParams(n, m)
    violations, extremal = _band_sets(n, m, *half_order_thresholds(p))
    mismatches = []
    if extremal and 0 < p.m < p.max_edges:  # 0 < d < n-1
        expected = _profile_sequence(p)
        mismatches = [s for s in extremal if s != expected]
    return VerificationReport(p, None, list(violations), list(extremal), mismatches)


def empirical_d_minus(n: int, m: int, d_plus) -> int:
    """Exact minimum, over all graphical sequences with sum 2m, of the
    largest degree strictly below d_plus; needs d < d_plus <= n-1, and
    unlike `verify_window` accepts d_plus at or below the root sqrt(d n).

    This is the true optimum the closed-form bound approximates: the
    sequence attaining it has every degree <= the returned value or
    >= d_plus.  Comparisons against d_plus reduce to integer thresholds
    (`window_thresholds`), so the scan is exact for any rational d_plus.

    One loop lists, for L = lo_strict-1, lo_strict, ..., the graphical
    sequences with no degree in the band [L+1, hi_strict], and stops at the
    first L with any; every degree of those <= hi_strict is at most L.  At
    L = lo_strict-1 the band is the strict one, and the optimum may lie
    below L; past it none lies below L, since the band one wider had no
    sequence.  The loop ends by L = hi_strict, where the band is empty.
    """
    _, lo_strict, _, hi_strict = window_thresholds(GraphParams(n, m), d_plus)
    low = lo_strict - 1
    while not (found := _search(n, m, low + 1, hi_strict)):
        low += 1
    return min(max((d for d in s if d <= hi_strict), default=-1) for s in found)


def verify_window(n: int, m: int, d_plus) -> VerificationReport:
    """Scan every graphical sequence for an entry in [d_minus bound, d_plus],
    decided on exact integer thresholds; needs sqrt(d n) < d_plus <= n-1.

    Grid cells in one window piece have the same thresholds and share one
    band, searched once (`_band_sets`); each report gets its own lists.
    `bound_ok` (optimum >= lo) is, like the violations, a filter over the
    extremal sequences: only they can miss [lo, hi_strict]."""
    p = GraphParams(n, m)
    lo, lo_strict, hi, hi_strict = window_thresholds(p, d_plus)
    if lo == 0:  # lo = ceil(opt_value), 0 exactly when d_plus <= sqrt(d n)
        require_above_root(p, d_plus)  # raises
    violations, extremal = _band_sets(n, m, lo, lo_strict, hi, hi_strict)
    bound_ok = all(any(lo <= d <= hi_strict for d in s) for s in extremal)
    return VerificationReport(p, d_plus, list(violations), list(extremal), [], bound_ok)


def window_grid(n: int, m: int) -> list:
    """Exact one-decimal d_plus values k/10 strictly above sqrt(2m), up to n-1.

    The start index solves k^2 > 100 * 2m in integers, so the strictness
    is exact even when sqrt(2m) is itself a tenth; m must be an integer.
    """
    require_window_domain(GraphParams(n, m), n - 1)  # n-1 must be a valid d_plus
    k0 = math.isqrt(200 * _integer_edges(m)) + 1
    return [Fraction(k, 10) for k in range(k0, 10 * (n - 1) + 1)]


class OrderSummary(NamedTuple):
    """Totals of one exhaustive scan over every 0 < m < n(n-1)/2 of an
    order, or, from `total`, of several orders.  `sequences`, the order's
    graphical sequences, is set by `half_order_summaries` from one count
    of every order of the scan; window summaries leave it 0."""

    cells: int
    sequences: int
    violations: int
    extremal: int
    mismatches: int
    bound_failures: int

    @classmethod
    def total(cls, rows) -> "OrderSummary":
        """Column sums of `rows`, each a tuple in the field order; zeros
        when there are none."""
        return cls(*map(sum, zip(cls(0, 0, 0, 0, 0, 0), *rows)))


def _summarize(reports) -> OrderSummary:
    return OrderSummary.total(
        (1, 0, len(r.violations), len(r.extremal_sequences),
         len(r.profile_mismatches), r.bound_ok is False) for r in reports)


def half_order_summaries(nmax: int) -> Iterator[OrderSummary]:
    """`verify_half_order` at each order n = 2..nmax, totalled over every
    edge count.  The sequences of all these orders are counted in one
    pass, `_graphical_totals(nmax)`; each order's total less its two
    degenerate cells (m = 0 and m = C(n,2), one sequence each) is its
    row's `sequences`.  An nmax above `HARD_ORDER_LIMIT` is refused at the
    first row, before anything is counted."""
    _require_order(nmax)
    totals = _graphical_totals(nmax)
    for n in range(2, nmax + 1):
        s = _summarize(verify_half_order(n, m) for m in range(1, n * (n - 1) // 2))
        yield s._replace(sequences=totals[n] - 2)


def window_summary(n: int) -> OrderSummary:
    """`verify_window` at order n, totalled over every edge count and its
    `window_grid`; one cell per (m, d_plus)."""
    ms = range(1, n * (n - 1) // 2)
    return _summarize(verify_window(n, m, dp) for m in ms for dp in window_grid(n, m))


def find_vertex_in_interval(g: Graph, interval: Interval):
    """Lowest-index vertex whose degree lies in the interval, else None."""
    for v in range(g.n):
        if interval.contains(g.degree(v)):
            return v
    return None


class PeelStep(NamedTuple):
    vertex: int
    degree: int
    interval: Interval


def _peel_order(g: Graph) -> Iterator[tuple]:
    """The peel of `peel_trace` in plain integers: one (vertex, degree,
    lo, hi, den) per step, its interval [lo/den, hi/den] being
    `bounds._half_order_ratios(k, e, 1)` for k >= 2 live vertices and e
    live edges, and (0, 0, 1) for the last vertex.

    The pick is the lowest live index with a degree in
    [ceil(lo/den), floor(hi/den)].  The graph is read, not copied, and
    left unchanged: a degree list is kept, and a removal decrements every
    neighbour's entry (a removed vertex's entry is never read again).  The
    live vertices are kept in descending index order and scanned from the
    end, so the usual pick, the lowest live index, is popped off the end
    without shifting the rest; a pick deeper in the list costs a scan and
    a shift, O(n) per step in the worst case."""
    adj = g._adj
    deg = g.degrees()
    e = sum(deg) // 2
    alive = list(range(g.n - 1, -1, -1))
    for k in range(g.n, 0, -1):
        lo, hi, den = _half_order_ratios(k, e, 1) if k > 1 else (0, 0, 1)
        low, high = -(-lo // den), hi // den
        i = k - 1
        while i >= 0 and not low <= deg[alive[i]] <= high:
            i -= 1
        if i < 0:
            raise RuntimeError("no vertex degree in the guaranteed interval")
        v = alive.pop(i)
        d = deg[v]
        yield v, d, lo, hi, den
        e -= d
        for u in adj[v]:
            deg[u] -= 1


def peel_trace(g: Graph) -> list:
    """Repeatedly remove the lowest-index vertex whose degree lies in the
    current half-order interval, until the graph is empty.

    Every step succeeds (the closed interval always contains a degree),
    so the trace has exactly g.n steps.  The final single vertex has
    degree 0 and its interval degenerates to [0, 0].  The steps come from
    `_peel_order`, which picks on integer thresholds and reads the graph
    in place; only here does each step's interval ratio become two exact
    Fractions.
    """
    return [PeelStep(v, d, Interval(Fraction(lo, den), Fraction(hi, den)))
            for v, d, lo, hi, den in _peel_order(g)]


def parse_sequence(text: str) -> DegreeSequence:
    """Degree sequence from one line of comma-separated integers."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise DomainError("empty degree sequence")
    return as_degree_sequence(int(part) for part in items)


def format_sequence(seq) -> str:
    return ",".join(str(d) for d in seq)
