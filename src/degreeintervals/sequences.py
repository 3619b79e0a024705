"""Degree-sequence machinery and the exhaustive ground truth.

The interval guarantees constrain vertex degrees only, so exhaustive
verification runs over graphical degree sequences instead of labeled
graphs (16016 graphical sequences of length 10, versus 2^45 labeled
graphs).  Sequences are plain non-increasing tuples of ints, generated
depth first as bounded partitions of the degree sum over a descending
alphabet of allowed degrees; a prefix is cut as soon as its own
Erdos-Gallai inequality cannot hold, and each complete candidate is kept
when it passes all of them (at n = 11, 72,674 candidates instead of the
176,482 bounded partitions).

Both guarantees only ask whether some degree falls in an integer band,
so the scans never list every sequence.  A violation has every degree
outside the closed band and an extremal sequence every degree outside
the strict one, so each is searched over that band's complement; the
window optimum is found by emptiness checks over such alphabets.  The
number of sequences scanned is counted by a Durfee-square recurrence
(`_graphical_counts`).  Full enumeration (`enumerate_graphical`) over
the alphabet 0..n-1 is kept as the tests' oracle.

Wire formats shared with the command line: a degree sequence is one line
of comma-separated integers; graphs use the edge-list format of
`graphs`.
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .bounds import (extremal_profile, half_order_interval, half_order_thresholds,
                     require_above_root, require_window_domain, window_thresholds)
from .errors import DomainError, EnumerationLimitError, NotGraphicalError
from .graphs import Graph
from .params import GraphParams, Interval

HARD_ORDER_LIMIT = 12

DegreeSequence = tuple


def as_degree_sequence(degrees) -> DegreeSequence:
    """Non-increasing tuple of the given degrees; rejects non-integers."""
    seq = []
    for d in degrees:
        v = int(d)
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
    number (the largest k with d_k >= k).
    """
    s = as_degree_sequence(degrees)
    if not _eg_ok(s):
        raise NotGraphicalError(f"sequence {s} is not graphical")
    g = Graph(len(s))
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
            for u in head:
                g.add_edge(v, u)
            if d > 1:
                buckets[d - 1] = sorted(head + buckets[d - 1])
    return g


def _extend(d: list, alphabet: list, j: int, out: Optional[list], i: int, rem: int,
            lhs: int) -> bool:
    # Fills d[i:] with non-increasing values from alphabet[j:] (descending)
    # summing to rem, in lexicographically decreasing order, and appends each
    # graphical fill to out as a tuple; with out None it stops at the first
    # and returns True.  lhs is sum(d[:i]).  A value v at position k = i+1
    # leaves a tail of n-k entries <= v summing to r = rem - v, so the k-th
    # Erdos-Gallai right side is at most k(k-1) + min(r, (n-k)k); a prefix
    # above that bound has no graphical completion.
    n = len(d)
    k = i + 1
    floor_k = k * (k - 1)
    tail_cap = (n - k) * k
    least = -(-rem // (n - i))  # the entries left cannot exceed this one
    for j in range(j, len(alphabet)):
        v = alphabet[j]
        if v > rem:
            continue
        if v < least:
            break
        r = rem - v
        if lhs + v > floor_k + (r if r < tail_cap else tail_cap):
            continue
        d[i] = v
        if k < n:
            if _extend(d, alphabet, j, out, k, r, lhs + v):
                return True
        elif _eg_ok(tuple(d)):
            if out is None:
                return True
            out.append(tuple(d))
    return False


def _search(n: int, m: int, alphabet: list, out: Optional[list]) -> bool:
    """Appends to out the graphical sequences of length n and sum 2m whose
    every degree lies in `alphabet` (descending), lexicographically
    decreasing; with out None, returns whether there is one.  The one
    place that enforces `HARD_ORDER_LIMIT`."""
    if n > HARD_ORDER_LIMIT:
        raise EnumerationLimitError(
            f"order {n} above enumeration limit {HARD_ORDER_LIMIT}")
    return _extend([0] * n, alphabet, 0, out, 0, 2 * m, 0)


def _outside(n: int, a: int, b: int) -> list:
    # The degrees 0..n-1 not in [a, b], descending.
    return [v for v in range(n - 1, -1, -1) if v < a or v > b]


def enumerate_graphical(n: int, m: int) -> Iterator[DegreeSequence]:
    """All graphical sequences of length n and sum 2m, lexicographically
    decreasing, each exactly once.

    Prefixes are filled depth first in that order and cut as soon as
    their own Erdos-Gallai inequality fails for every possible tail;
    each complete survivor still passes the full `_eg_ok`.  Over the
    cells 0 < m < 55 of n = 11 that check sees 72,674 leaves, where
    filtering every bounded partition saw 176,482.  The scans do not
    call it: they count by `_graphical_counts` and search band-avoiding
    alphabets; it is their test oracle."""
    GraphParams(n, m)  # validates the order and the edge count
    out = []
    _search(n, m, list(range(n - 1, -1, -1)), out)
    yield from out


def graphical_sequences(n: int, m: int) -> tuple:
    """Tuple of `enumerate_graphical(n, m)`, not cached.  It stays public
    because `perfbench/passrun.py` LAYERS traces it by name, and CI's
    benchmark step fails on a traced function that is missing."""
    return tuple(enumerate_graphical(n, m))


@functools.lru_cache(maxsize=1)
def _graphical_counts(n: int) -> tuple:
    """Number of graphical sequences of length n with m edges, indexed by
    m = 0..C(n,2); built without listing them, and cached one order at a
    time.

    A non-zero sequence is a partition whose Ferrers diagram splits into
    its Durfee square h x h (h the largest k with d_k >= k), an arm
    a_i = d_i - h and a leg b_i = d*_i - h for i <= h (d* the conjugate),
    both non-increasing and otherwise free.  It fits in n entries iff
    h + b_1 <= n, its degree sum is h^2 + sum(a) + sum(b), and by Berge's
    form of Erdos-Gallai it is graphical iff that sum is even and
    sum_{i<=k} (b_i - a_i) >= k for every k <= h.  For each h a recurrence
    over k carries the states (a_k, b_k, slack), slack being that prefix
    sum minus k, capped at (h-k)(a_k+1) since no later step can lose
    more; each state holds the generating polynomial of the running
    sum(a) + sum(b).  A polynomial is one int with a 2n-bit field per
    power: a coefficient counts prefixes (a_1..a_k, b_1..b_k) with entries
    at most n-h, fewer than C(n, k)^2 < 4^n, so fields never carry.
    """
    width = 2 * n
    total = 1  # the zero sequence
    for h in range(1, n):
        states = {(n - h, n - h, 0): 1}  # step 0: a_1, b_1 <= n-h (n entries)
        for k in range(h):
            later = h - k - 1
            nxt = {}
            for (a, b, slack), poly in states.items():
                for a2 in range(a + 1):
                    for b2 in range(max(0, a2 + 1 - slack), b + 1):
                        key = (a2, b2, min(slack + b2 - a2 - 1, later * (a2 + 1)))
                        nxt[key] = nxt.get(key, 0) + (poly << width * (a2 + b2))
            states = nxt
        total += sum(states.values()) << width * h * h
    mask = (1 << width) - 1
    return tuple((total >> width * 2 * m) & mask for m in range(n * (n - 1) // 2 + 1))


def _low_max(n: int, m: int, lo: int, hi_strict: int) -> int:
    """The least L >= -1 such that a graphical sequence of length n, sum 2m,
    has every degree <= L or > hi_strict: the least, over all of them, of
    the largest degree <= hi_strict (-1 when there is none).  The first
    emptiness check, at L = lo - 1, alone decides whether that reaches lo;
    the search then walks down or up from there.  It ends by L = hi_strict,
    where the alphabet is every degree."""
    if _search(n, m, _outside(n, lo, hi_strict), None):
        low = lo - 1
        while low >= 0 and _search(n, m, _outside(n, low, hi_strict), None):
            low -= 1
        return low
    low = lo
    while low < hi_strict and not _search(n, m, _outside(n, low + 1, hi_strict), None):
        low += 1
    return low


def empirical_d_minus(n: int, m: int, d_plus) -> int:
    """Exact minimum, over all graphical sequences with sum 2m, of the
    largest degree strictly below d_plus.

    This is the true optimum the closed-form bound approximates: the
    sequence attaining it has every degree <= the returned value or
    >= d_plus.  Comparisons against d_plus reduce to integer thresholds,
    so the scan is exact for any rational d_plus.
    """
    lo, _, _, hi_strict = window_thresholds(GraphParams(n, m), d_plus)
    return _low_max(n, m, lo, hi_strict)


def _band_sets(n: int, m: int, lo: int, lo_strict: int, hi: int, hi_strict: int) -> tuple:
    """(violations, extremal): the graphical sequences of length n, sum 2m,
    with no degree in [lo, hi], and those with none in [lo_strict,
    hi_strict].  The strict band lies inside the closed one, so the
    violations are filtered out of the extremal sequences, which are
    searched over the degrees outside the strict band."""
    extremal = []
    _search(n, m, _outside(n, lo_strict, hi_strict), extremal)
    return [s for s in extremal if not any(lo <= d <= hi for d in s)], extremal


@dataclass
class VerificationReport:
    """Outcome of one exhaustive scan over graphical sequences.

    `violations` holds sequences with no entry in the guaranteed closed
    interval (must stay empty).  `extremal_sequences` are those with no
    entry strictly inside; for the half-order scan each is compared with
    the two-endpoint profile and deviations land in `profile_mismatches`.
    A profile mismatch is not a counterexample: every off-profile
    boundary sequence has a degree outside the closed interval (stars
    and their complements, for example).  Window scans also record the
    empirical optimum and whether it reaches the theory bound (`bound_ok`).
    `sequences_checked` is the number of graphical sequences of the cell,
    counted by `_graphical_counts`, not visited one by one: the guarantees
    are decided by searching only the degrees that avoid the band, and
    every sequence not found there has a degree inside it.
    """

    params: GraphParams
    d_plus: Optional[object]
    sequences_checked: int
    violations: list
    extremal_sequences: list
    profile_mismatches: list = field(default_factory=list)
    empirical_d_minus: Optional[int] = None
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
    star, or its complement) and is not a counterexample.
    """
    p = GraphParams(n, m)
    violations, extremal = _band_sets(n, m, *half_order_thresholds(p))
    mismatches = []
    if 0 < p.d < n - 1:
        expected = _profile_sequence(p)
        mismatches = [s for s in extremal if s != expected]
    return VerificationReport(p, None, _graphical_counts(n)[m], violations, extremal,
                              mismatches)


def verify_window(n: int, m: int, d_plus) -> VerificationReport:
    """Scan every graphical sequence for an entry in [d_minus bound, d_plus],
    decided on exact integer thresholds; needs sqrt(d n) < d_plus <= n-1."""
    p = GraphParams(n, m)
    lo, lo_strict, hi, hi_strict = window_thresholds(p, d_plus)
    if lo == 0:  # lo = ceil(opt_value), 0 exactly when d_plus <= sqrt(d n)
        require_above_root(p, d_plus)  # raises
    violations, extremal = _band_sets(n, m, lo, lo_strict, hi, hi_strict)
    low_max = _low_max(n, m, lo, hi_strict)
    return VerificationReport(p, d_plus, _graphical_counts(n)[m], violations, extremal,
                              empirical_d_minus=low_max, bound_ok=low_max >= lo)


def window_grid(n: int, m: int) -> list:
    """Exact one-decimal d_plus values k/10 strictly above sqrt(2m), up to n-1.

    The start index solves k^2 > 100 * 2m in integers, so the strictness
    is exact even when sqrt(2m) is itself a tenth.
    """
    require_window_domain(GraphParams(n, m), n - 1)  # n-1 must be a valid d_plus
    k0 = math.isqrt(200 * m) + 1
    return [Fraction(k, 10) for k in range(k0, 10 * (n - 1) + 1)]


class OrderSummary(NamedTuple):
    """Totals of one exhaustive scan over every 0 < m < n(n-1)/2 of an order."""

    cells: int
    sequences: int
    violations: int
    extremal: int
    mismatches: int
    bound_failures: int


def _summarize(reports) -> OrderSummary:
    total = OrderSummary(0, 0, 0, 0, 0, 0)
    for r in reports:
        counts = (1, r.sequences_checked, len(r.violations), len(r.extremal_sequences),
                  len(r.profile_mismatches), r.bound_ok is False)
        total = OrderSummary(*(a + b for a, b in zip(total, counts)))
    return total


def half_order_summary(n: int) -> OrderSummary:
    """`verify_half_order` at order n, totalled over every edge count."""
    return _summarize(verify_half_order(n, m) for m in range(1, n * (n - 1) // 2))


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


def peel_trace(g: Graph) -> list:
    """Repeatedly remove the lowest-index vertex whose degree lies in the
    current half-order interval, until the graph is empty.

    Every step succeeds (the closed interval always contains a degree),
    so the trace has exactly g.n steps.  The final single vertex has
    degree 0 and its interval degenerates to [0, 0].  Degrees are picked
    on the integer thresholds of the interval.
    """
    adj = [g.neighbors(v) for v in range(g.n)]
    deg = [len(a) for a in adj]
    edges = sum(deg) // 2
    alive = list(range(g.n))
    steps = []
    while alive:
        if len(alive) >= 2:
            p = GraphParams(len(alive), edges)
            iv = half_order_interval(p)
            lo, _, hi, _ = half_order_thresholds(p)
        else:
            iv, lo, hi = Interval(Fraction(0), Fraction(0)), 0, 0
        pick = next((v for v in alive if lo <= deg[v] <= hi), None)
        if pick is None:
            raise RuntimeError("no vertex degree in the guaranteed interval")
        steps.append(PeelStep(pick, deg[pick], iv))
        edges -= deg[pick]
        for u in adj[pick]:
            adj[u].discard(pick)
            deg[u] -= 1
        adj[pick] = set()
        deg[pick] = 0
        alive.remove(pick)
    return steps


def parse_sequence(text: str) -> DegreeSequence:
    """Degree sequence from one line of comma-separated integers."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise DomainError("empty degree sequence")
    return as_degree_sequence(int(part) for part in items)


def format_sequence(seq) -> str:
    return ",".join(str(d) for d in seq)
