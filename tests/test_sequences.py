import itertools
import math
import random
from fractions import Fraction
from operator import add

import numpy as np
import pytest

from degreeintervals import (
    DomainError,
    EnumerationLimitError,
    Graph,
    GraphParams,
    Interval,
    NotGraphicalError,
    as_degree_sequence,
    empirical_d_minus,
    enumerate_graphical,
    find_vertex_in_interval,
    format_edge_list,
    graphical_sequences,
    half_order_interval,
    is_graphical,
    opt_value,
    parse_edge_list,
    peel_trace,
    realize,
    verify_half_order,
    verify_window,
    window_grid,
)
from degreeintervals import sequences
from degreeintervals.bounds import half_order_thresholds, window_thresholds
from degreeintervals.sequences import _eg_ok
from test_graphs import random_graph, small_constructions


def resorting_realize(degrees):
    """Reference for `realize`: the same rule with a full re-sort of every
    vertex by (-residual, index) on each step, O(n^2 log n)."""
    s = as_degree_sequence(degrees)
    n = len(s)
    g = Graph(n)
    residual = list(s)
    for _ in range(n):
        order = sorted(range(n), key=lambda v: (-residual[v], v))
        v = order[0]
        if residual[v] == 0:
            break
        for u in order[1:residual[v] + 1]:
            g.add_edge(v, u)
            residual[u] -= 1
        residual[v] = 0
    return g


def full_eg_ok(s):
    """Reference for `_eg_ok`: every Erdos-Gallai inequality, k = 1..n,
    with no early exit, O(n^2)."""
    if sum(s) % 2:
        return False
    lhs = 0
    for k in range(1, len(s) + 1):
        lhs += s[k - 1]
        if lhs > k * (k - 1) + sum(min(d, k) for d in s[k:]):
            return False
    return True


def _bounded_partitions(total, parts, cap):
    """Reference for `enumerate_graphical`'s candidates: non-increasing
    tuples of `parts` entries in [0, cap] summing to `total`, in
    lexicographically decreasing order, with no pruning."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    lo = -(-total // parts)  # ceil; later parts cannot exceed the first
    for v in range(min(cap, total), lo - 1, -1):
        for rest in _bounded_partitions(total - v, parts - 1, v):
            yield (v,) + rest


def brute_force_degree_sequences(n):
    """Degree sequences of all 2^C(n,2) labeled graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    inc = np.zeros((len(pairs), n), dtype=np.int8)
    for k, (u, v) in enumerate(pairs):
        inc[k, u] = 1
        inc[k, v] = 1
    masks = np.arange(1 << len(pairs), dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(len(pairs))) & 1).astype(np.int8)
    degs = bits @ inc
    return {tuple(sorted(row, reverse=True)) for row in degs.tolist()}


class TestIsGraphical:
    def test_basic_cases(self):
        assert is_graphical((3, 3, 3, 3))
        assert is_graphical((3, 1, 1, 1))
        assert not is_graphical((3, 3, 1, 1))

    def test_normalizes_order(self):
        assert is_graphical([1, 2, 2, 1])

    def test_entry_out_of_range(self):
        assert not is_graphical((4, 1, 1, 1))
        with pytest.raises(DomainError):
            is_graphical((2, -1, 1))
        with pytest.raises(DomainError):
            is_graphical((1.5, 0.5))

    def test_durfee_cutoff_matches_every_inequality(self):
        # Every candidate of the enumeration up to n = 9, odd sums and a
        # degree of n included, then seeded G(n, p) sequences, each also
        # with one unit moved from a low degree to a high one.
        seqs = [s for n in range(1, 10) for total in range(n * n + 1)
                for s in _bounded_partitions(total, n, n)]
        rng = random.Random(11)
        for _ in range(200):
            n, p = rng.randint(2, 60), rng.random()
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            degrees = sorted(g.degrees(), reverse=True)
            seqs.append(tuple(degrees))
            i, j = sorted(rng.sample(range(n), 2))
            if degrees[j]:
                degrees[i] += 1
                degrees[j] -= 1
                seqs.append(tuple(sorted(degrees, reverse=True)))
        verdicts = [full_eg_ok(s) for s in seqs]
        assert [_eg_ok(s) for s in seqs] == verdicts
        assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_brute_force(self, n):
        realizable = brute_force_degree_sequences(n)
        for comb in itertools.combinations_with_replacement(range(n), n):
            s = tuple(sorted(comb, reverse=True))
            assert is_graphical(s) == (s in realizable), s


class TestRealize:
    def test_triangle(self):
        g = realize((2, 2, 2))
        assert g.m == 3 and all(g.degree(v) == 2 for v in range(3))

    def test_star(self):
        g = realize((3, 1, 1, 1))
        assert g.degree_sequence() == (3, 1, 1, 1)
        center = max(range(4), key=g.degree)
        assert g.degree(center) == 3

    def test_path_degrees(self):
        g = realize((2, 2, 1, 1))
        assert g.degree_sequence() == (2, 2, 1, 1)

    def test_round_trip_small_orders(self):
        for n in range(2, 8):
            for m in range(0, n * (n - 1) // 2 + 1):
                for s in graphical_sequences(n, m):
                    assert realize(s).degree_sequence() == s

    def test_rejects_non_graphical(self):
        with pytest.raises(NotGraphicalError):
            realize((3, 3, 1, 1))

    def test_edge_lists_match_resorting_reference(self):
        sequences = [(), (0,)] + [s for n in range(2, 8) for m in range(n * (n - 1) // 2 + 1)
                                  for s in graphical_sequences(n, m)]
        rng = random.Random(8)
        for _ in range(300):
            n, p = rng.randint(1, 40), rng.random()
            g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
            degrees = g.degrees()
            rng.shuffle(degrees)
            sequences.append(degrees)
        for s in sequences:
            assert format_edge_list(realize(s)) == format_edge_list(resorting_realize(s)), s


class TestEnumeration:
    def test_tiny_cases(self):
        assert list(enumerate_graphical(3, 2)) == [(2, 1, 1)]
        assert list(enumerate_graphical(4, 6)) == [(3, 3, 3, 3)]

    def test_lexicographic_decreasing_order(self):
        assert list(enumerate_graphical(4, 3)) == [(3, 1, 1, 1), (2, 2, 2, 0), (2, 2, 1, 1)]

    def test_no_duplicates_and_all_graphical(self):
        for n in range(2, 8):
            for m in range(0, n * (n - 1) // 2 + 1):
                seqs = graphical_sequences(n, m)
                assert len(set(seqs)) == len(seqs)
                assert all(is_graphical(s) for s in seqs)
                assert all(sum(s) == 2 * m for s in seqs)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_totals_against_independent_enumerations(self, n):
        # oracle 1: walk every multiset of degrees and filter
        by_filter = {}
        for comb in itertools.combinations_with_replacement(range(n), n):
            s = tuple(sorted(comb, reverse=True))
            if is_graphical(s):
                by_filter.setdefault(sum(s) // 2, set()).add(s)
        # oracle 2: degree sequences of all labeled graphs
        by_brute = {}
        for s in brute_force_degree_sequences(n):
            by_brute.setdefault(sum(s) // 2, set()).add(s)
        for m in range(0, n * (n - 1) // 2 + 1):
            got = set(graphical_sequences(n, m))
            assert got == by_filter.get(m, set())
            assert got == by_brute.get(m, set())

    def test_matches_partition_filter_reference(self):
        # The prefix cuts drop only sequences the full check would reject,
        # and keep the order of the unpruned partitions.
        for n in range(2, 11):
            for m in range(n * (n - 1) // 2 + 1):
                expected = [s for s in _bounded_partitions(2 * m, n, n - 1) if _eg_ok(s)]
                assert list(enumerate_graphical(n, m)) == expected, (n, m)

    def test_order_totals_match_oeis_a004251(self):
        # Graphical sequences of length n, any edge count (OEIS A004251).
        totals = [sum(len(list(enumerate_graphical(n, m))) for m in range(n * (n - 1) // 2 + 1))
                  for n in range(2, 12)]
        assert totals == [2, 4, 11, 31, 102, 342, 1213, 4361, 16016, 59348]

    def test_scans_never_enumerate(self, monkeypatch):
        # Both verifiers and empirical_d_minus search their own bands;
        # full enumeration is only the tests' oracle.  Only the t1 scan
        # counts, once for all its orders; the window scans never count.
        def stub(n, m):
            raise AssertionError(f"enumerate_graphical({n}, {m}) called")
        monkeypatch.setattr(sequences, "enumerate_graphical", stub)
        monkeypatch.setattr(sequences, "graphical_sequences", stub)
        totals = sequences._graphical_totals
        calls = []

        def counted(order):
            calls.append(order)
            return totals(order)
        monkeypatch.setattr(sequences, "_graphical_totals", counted)
        rows = list(sequences.half_order_summaries(9))
        assert [r.sequences for r in rows] == [0, 2, 9, 29, 100, 340, 1211, 4359]
        assert calls == [9]

        def no_count(order):
            raise AssertionError(f"_graphical_totals({order}) called")
        monkeypatch.setattr(sequences, "_graphical_totals", no_count)
        summary = sequences.window_summary(7)
        assert summary.bound_failures == 0 and summary.sequences == 0
        assert verify_window(9, 18, Fraction(7)).bound_ok
        assert empirical_d_minus(4, 3, 3) == 1

    def test_order_guard(self):
        with pytest.raises(EnumerationLimitError):
            list(enumerate_graphical(13, 5))

    def test_scans_need_an_integer_edge_count(self):
        # An integer-valued m is taken as its int; any other m is refused
        # before the order limit, at every scan entry point.
        assert verify_half_order(4, 3.0) == verify_half_order(4, Fraction(3)) == \
            verify_half_order(4, 3)
        assert verify_window(6, 6.0, 5) == verify_window(6, 6, 5)
        assert empirical_d_minus(6, Fraction(12), 5) == empirical_d_minus(6, 12, 5)
        assert list(enumerate_graphical(4, 3.0)) == list(enumerate_graphical(4, 3))
        for scan in (lambda: verify_half_order(4, 2.5), lambda: verify_window(6, 6.5, 5),
                     lambda: empirical_d_minus(6, Fraction(13, 2), 5),
                     lambda: list(enumerate_graphical(4, Fraction(5, 2))),
                     lambda: verify_half_order(13, 5.5), lambda: verify_window(13, 30.5, 11),
                     lambda: empirical_d_minus(13, Fraction(61, 2), 11),
                     lambda: list(enumerate_graphical(13, 5.5))):
            with pytest.raises(DomainError, match="is not an integer$"):
                scan()

    def test_scans_keep_the_order_limit(self):
        # Parameter and window-domain errors come first, then the one order
        # limit, with the same text at every scan entry point.
        with pytest.raises(DomainError, match="edge count"):
            verify_half_order(13, 79)
        with pytest.raises(DomainError, match="must exceed sqrt"):
            verify_window(13, 30, 7)
        with pytest.raises(DomainError, match="outside"):
            empirical_d_minus(13, 30, 4)
        for scan in (lambda: verify_half_order(13, 5), lambda: verify_window(13, 30, 11),
                     lambda: empirical_d_minus(13, 30, 11), lambda: graphical_sequences(13, 5)):
            with pytest.raises(EnumerationLimitError,
                               match=r"^order 13 above enumeration limit 12$"):
                scan()

    def test_t1_refuses_an_order_before_counting(self, monkeypatch):
        def no_count(order):
            raise AssertionError(f"_graphical_totals({order}) called")
        monkeypatch.setattr(sequences, "_graphical_totals", no_count)
        with pytest.raises(EnumerationLimitError,
                           match=r"^order 13 above enumeration limit 12$"):
            next(sequences.half_order_summaries(13))

    def test_scans_past_the_limit(self, monkeypatch):
        # The limit is read at call time, so both scans run past 12 when it
        # is raised.  The t1 profile mismatches are the star and
        # K_{n-1} + K_1, two per order from n = 3.
        monkeypatch.setattr(sequences, "HARD_ORDER_LIMIT", 16)
        rows = list(sequences.half_order_summaries(16))
        assert [r.mismatches for r in rows] == [0] + [2] * 14
        t1 = sequences.OrderSummary.total(rows)
        assert (t1.sequences, t1.violations, t1.extremal, t1.mismatches) == \
            (62_316_783, 0, 56, 28)
        t2 = sequences.OrderSummary.total(map(sequences.window_summary, range(2, 17)))
        assert (t2.cells, t2.violations, t2.bound_failures) == (23_767, 0, 0)

    def test_bad_edge_count(self):
        with pytest.raises(DomainError):
            list(enumerate_graphical(4, 7))


def graphical_counts(n):
    """Number of graphical sequences of length n with m edges, indexed by
    m = 0..C(n,2); the library's counter before it kept totals only.

    The Durfee-square recurrence of `sequences._graphical_totals` at one
    order, each state holding the generating polynomial of the running
    sum(a) + sum(b): one int with a 2n-bit field per power, whose
    coefficients count fewer than C(n, k)^2 < 4^n prefixes, so fields
    never carry.  Each new key's suffix sum is multiplied by x^(a2+b2)
    once, a shift by 2n(a2+b2) bits.  Kept as a second reference for the
    totals, and as the per-edge-count reference for enumeration."""
    width = 2 * n
    total = 1  # the zero sequence
    for h in range(1, n):
        grids = {0: {(n - h, n - h): 1}}  # step 0: a_1, b_1 <= n-h (n entries)
        for k in range(h):
            later = h - k - 1
            nxt = {}
            for slack, grid in grids.items():
                top_b = max(b for _, b in grid)
                rows = [[0] * (top_b + 1) for _ in range(max(a for a, _ in grid) + 1)]
                for (a, b), poly in grid.items():
                    rows[a][b] = poly
                below = [0] * (top_b + 1)
                for a2 in range(len(rows) - 1, -1, -1):
                    # below[b2] becomes the sum over a >= a2 and b >= b2.
                    below = list(map(add, itertools.accumulate(reversed(rows[a2])), reversed(below)))
                    below.reverse()
                    cap = later * (a2 + 1)
                    base = slack - a2 - 1
                    for b2 in range(max(0, -base), top_b + 1):
                        s2 = base + b2
                        key = (a2, b2, s2 if s2 < cap else cap)
                        nxt[key] = nxt.get(key, 0) + below[b2]
            grids = {}
            for (a2, b2, slack), poly in nxt.items():
                grids.setdefault(slack, {})[a2, b2] = poly << width * (a2 + b2)
        total += sum(grids[0].values()) << width * h * h  # the last step caps slack at 0
    mask = (1 << width) - 1
    return tuple((total >> width * 2 * m) & mask for m in range(n * (n - 1) // 2 + 1))


def reference_graphical_counts(n):
    """`graphical_counts` as it was before it took suffix sums: the same
    Durfee-square recurrence and packed polynomials, with every state
    (a, b, slack) moved to every (a2 <= a, b2 <= b) one at a time and
    each move shifted on its own.  Kept as the reference for every count."""
    width = 2 * n
    total = 1
    for h in range(1, n):
        states = {(n - h, n - h, 0): 1}
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


class TestCounting:
    def test_counts_match_enumeration(self):
        for n in range(2, 12):
            counts = graphical_counts(n)
            assert len(counts) == n * (n - 1) // 2 + 1
            for m, count in enumerate(counts):
                assert count == len(list(enumerate_graphical(n, m))), (n, m)

    def test_counts_match_the_reference_recurrence(self):
        # Every edge count, past the enumeration limit too.
        for n in range(2, 17):
            assert graphical_counts(n) == reference_graphical_counts(n), n

    def test_totals_of_every_order_match_the_per_edge_counts(self):
        # One pass at each order N counts every shorter length n too.
        per_order = {n: sum(graphical_counts(n)) for n in range(2, 17)}
        for order in range(2, 17):
            totals = sequences._graphical_totals(order)
            assert len(totals) == order + 1
            assert totals[:2] == (1, 1)  # the empty sequence, and (0,)
            assert all(totals[n] == per_order[n] for n in range(2, order + 1)), order

    def test_counts_beyond_the_limit_match_oeis_a004251(self):
        # The count builds no sequence, so it runs past HARD_ORDER_LIMIT.
        a004251 = [836315, 3166852, 12042620, 45967479]
        assert list(sequences._graphical_totals(16)[13:]) == a004251
        assert [sum(graphical_counts(n)) for n in (13, 14, 15, 16)] == a004251

    def test_total_through_order_20(self):
        # A004251 summed over n = 2..20, less the two degenerate cells
        # (m = 0 and m = C(n,2)) per order: the t1 total at nmax 20.
        totals = sequences._graphical_totals(20)
        assert sum(totals[n] - 2 for n in range(2, 21)) == 13_544_587_260


class TestBandSearch:
    @staticmethod
    def bands(n, rng):
        # Every band [a, b] inside 0..n-1 and one empty band up to order 8;
        # past it the empty band, the full one, the empty strict band of
        # n = 2 and seeded random bands, some reaching past 0..n-1.
        if n <= 8:
            yield 1, 0
            yield from itertools.combinations_with_replacement(range(n), 2)
            return
        _, lo_strict, _, hi_strict = half_order_thresholds(GraphParams(2, 1))
        yield from [(1, 0), (0, n - 1), (lo_strict, hi_strict)]
        for _ in range(4):
            yield tuple(sorted(rng.choices(range(-1, n + 1), k=2)))

    def test_matches_filtered_enumeration(self):
        rng = random.Random(12)
        nonempty = 0
        for n in range(2, 11):
            for m in range(n * (n - 1) // 2 + 1):
                every = list(enumerate_graphical(n, m))
                for a, b in self.bands(n, rng):
                    expected = [s for s in every if not any(a <= d <= b for d in s)]
                    assert sequences._search(n, m, a, b) == expected, (n, m, a, b)
                    nonempty += bool(expected)
        assert nonempty > 500


class TestEmpiricalDMinus:
    def test_star_attains_minimum(self):
        assert empirical_d_minus(4, 3, 3) == 1
        assert empirical_d_minus(4, 3, 2.75) == 1
        # Every quarter-integer d_plus in (d, n-1], at or below the root too,
        # where lo = 0 and the band's extremal set may be non-empty.
        for n in range(3, 9):
            for m in range(1, n * (n - 1) // 2):
                for q in range(8 * m // n + 1, 4 * (n - 1) + 1):
                    dp = Fraction(q, 4)
                    *_, low_max = reference_band_scan(
                        n, m, *window_thresholds(GraphParams(n, m), dp))
                    assert empirical_d_minus(n, m, dp) == low_max, (n, m, dp)

    def test_integer_d_plus_at_orders_9_and_10(self):
        # Every integer d_plus in (d, n-1], at or below the root too, against
        # one enumeration per (n, m); most cells have no extremal sequence,
        # so the loop narrows its band past the strict one.
        cells = walked = 0
        for n in (9, 10):
            for m in range(1, n * (n - 1) // 2):
                seqs = list(enumerate_graphical(n, m))
                for dp in range(2 * m // n + 1, n):
                    band = window_thresholds(GraphParams(n, m), dp)
                    hi_strict = band[3]
                    low_max = min(max((d for d in s if d <= hi_strict), default=-1)
                                  for s in seqs)
                    assert empirical_d_minus(n, m, dp) == low_max, (n, m, dp)
                    cells += 1
                    walked += not sequences._band_sets(n, m, *band)[1]
        assert (cells, walked) == (372, 289)

    def test_relaxation_floor(self):
        for n in range(4, 8):
            for m in [2, n, n * (n - 1) // 2 - 2]:
                p = GraphParams(n, m)
                for dp in window_grid(n, m):
                    assert empirical_d_minus(n, m, dp) >= opt_value(p, dp) - 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            empirical_d_minus(4, 0, 3)
        with pytest.raises(DomainError):
            empirical_d_minus(4, 3, 1.0)


class TestVerifyHalfOrder:
    def test_square_case_full_report(self):
        rep = verify_half_order(4, 3)
        assert rep.violations == []
        # every sequence here avoids the open interval (1, 2): it holds no integer
        assert rep.extremal_sequences == [(3, 1, 1, 1), (2, 2, 2, 0), (2, 2, 1, 1)]
        assert graphical_counts(4)[3] == 3
        # the star and its complement avoid the open interval yet are not
        # the two-endpoint profile; only sequences confined to the closed
        # interval must match it
        assert rep.profile_mismatches == [(3, 1, 1, 1), (2, 2, 2, 0)]

    def test_unrealizable_profile_has_no_confined_extremal(self):
        rep = verify_half_order(5, 5)
        assert rep.violations == [] and rep.extremal_sequences == []

    def test_two_vertices(self):
        rep = verify_half_order(2, 1)
        assert rep.violations == []
        assert rep.extremal_sequences == [(1, 1)]
        assert rep.profile_mismatches == []

    def test_containment_never_fails_small_orders(self):
        for n in range(2, 9):
            for m in range(1, n * (n - 1) // 2):
                assert verify_half_order(n, m).violations == []

    def test_confined_extremal_sequences_match_profile(self):
        # the sharp form of the endpoint characterization: a sequence that
        # avoids the open interval AND stays inside the closed one is
        # exactly the profile multiset; every recorded mismatch must
        # instead have an entry outside the closed interval
        for n in range(3, 9):
            for m in range(1, n * (n - 1) // 2):
                rep = verify_half_order(n, m)
                iv = half_order_interval(rep.params)
                for s in rep.extremal_sequences:
                    if all(iv.contains(e) for e in s):
                        assert s not in rep.profile_mismatches, (n, m, s)
                for s in rep.profile_mismatches:
                    assert any(not iv.contains(e) for e in s), (n, m, s)

    def test_complement_symmetry(self):
        # The half-order interval at C(n,2) - m is the d -> n-1-d image of
        # the one at m, so the extremal sets are complements of each other.
        for n in range(2, 11):
            top = n * (n - 1) // 2
            for m in range(top + 1):
                mirrored = sorted((tuple(sorted((n - 1 - d for d in s), reverse=True))
                                   for s in verify_half_order(n, m).extremal_sequences),
                                  reverse=True)
                assert verify_half_order(n, top - m).extremal_sequences == mirrored, (n, m)

    def test_profile_only_on_cells_with_extremal_sequences(self, monkeypatch):
        # The profile multiset is built only where there is an extremal
        # sequence to compare; the degenerate cells m = 0 and m = C(n,2)
        # have extremal sequences but no profile, and no mismatch.
        profile = sequences._profile_sequence
        calls = []

        def counted(p):
            calls.append((p.n, p.m))
            return profile(p)
        monkeypatch.setattr(sequences, "_profile_sequence", counted)
        rows = sequences.half_order_summaries(9)
        for n in range(2, 10):
            calls.clear()
            next(rows)  # the row of order n
            summary_calls = list(calls)
            expected = [(n, m) for m in range(1, n * (n - 1) // 2)
                        if verify_half_order(n, m).extremal_sequences]
            assert summary_calls == expected, n
            calls.clear()
            for m in (0, n * (n - 1) // 2):
                rep = verify_half_order(n, m)
                assert rep.extremal_sequences and rep.profile_mismatches == [], (n, m)
            assert calls == [], n

    def test_stars_slip_past_the_open_interval_filter(self):
        # stars have degrees {n-1, 1} only, so nothing falls strictly
        # inside the interval, yet their multiset is not the profile
        rep = verify_half_order(6, 5)
        assert (5, 1, 1, 1, 1, 1) in rep.extremal_sequences
        assert (5, 1, 1, 1, 1, 1) in rep.profile_mismatches
        assert (3, 3, 1, 1, 1, 1) in rep.extremal_sequences
        assert (3, 3, 1, 1, 1, 1) not in rep.profile_mismatches


class TestVerifyWindow:
    def test_reference_cases(self):
        rep = verify_window(4, 3, 3)
        assert rep.violations == []
        assert empirical_d_minus(4, 3, 3) == 1
        assert rep.bound_ok

        rep = verify_window(4, 3, 2.75)
        assert rep.violations == [] and empirical_d_minus(4, 3, 2.75) == 1

        rep = verify_window(6, 6, 5)
        assert rep.violations == [] and rep.bound_ok

    def test_refuses_d_plus_at_or_below_root(self):
        # d = 3/2 < 2 < sqrt(d n) = sqrt(6): inside (d, n-1] but below the root
        with pytest.raises(DomainError):
            verify_window(4, 3, 2)

    def test_grid_starts_strictly_above_root(self):
        for n, m in [(4, 3), (6, 6), (9, 18), (8, 8)]:
            grid = window_grid(n, m)
            root = math.sqrt(2 * m)
            assert all(dp > root for dp in grid)
            assert grid[-1] == n - 1
            # exact steps of one tenth
            assert all(dp == Fraction(round(dp * 10), 10) for dp in grid)

    def test_grid_needs_an_integer_edge_count(self):
        # The scans' own check and text, before the integer square root; an
        # integral float or Fraction gives the grid of the integer.
        for m, text in [(Fraction(3, 2), "edge count Fraction(3, 2) is not an integer"),
                        (1.5, "edge count 1.5 is not an integer")]:
            with pytest.raises(DomainError) as info:
                window_grid(4, m)
            assert str(info.value) == text
        assert window_grid(4, 3.0) == window_grid(4, Fraction(3)) == window_grid(4, 3)

    @staticmethod
    def window_pieces(n):
        # The distinct (m, thresholds) of the order's grid cells, checking
        # on the way that along each m's grid the thresholds never decrease.
        pieces = set()
        for m in range(1, n * (n - 1) // 2):
            walk = [window_thresholds(GraphParams(n, m), dp) for dp in window_grid(n, m)]
            assert all(a <= b for prev, t in zip(walk, walk[1:]) for a, b in zip(prev, t))
            pieces.update((m, t) for t in walk)
        return pieces

    def test_one_search_per_window_piece(self):
        # Along each m's grid the thresholds never decrease, so the cells of
        # one window piece come in a row and the one-band cache misses
        # exactly once per piece.
        n, pieces = 9, self.window_pieces(9)
        sequences._band_sets.cache_clear()
        summary = sequences.window_summary(n)
        info = sequences._band_sets.cache_info()
        assert (info.misses, info.hits + info.misses, info.currsize) == \
            (len(pieces), summary.cells, 1)
        assert len(pieces) < summary.cells

    def test_t2_runs_one_search_per_window_piece(self, monkeypatch):
        # No walk of the exact optimum is on the t2 path: window_summary
        # calls _search once per window piece, for that piece's band.
        search, calls = sequences._search, []

        def counted(n, m, a, b):
            calls.append((n, m))
            return search(n, m, a, b)
        monkeypatch.setattr(sequences, "_search", counted)
        sequences._band_sets.cache_clear()
        sequences.window_summary(9)
        assert len(calls) == len(self.window_pieces(9))

    def test_bound_ok_is_the_optimum_reaching_lo(self):
        # At every quarter-integer d_plus above the root, the filter over the
        # extremal sequences gives what comparing the exact optimum with lo
        # gives.  Grid cells have no extremal sequences; test_every_band
        # covers the filter on non-empty sets.
        cells = 0
        for n in range(2, 9):
            for m in range(1, n * (n - 1) // 2):
                for q in range(math.isqrt(32 * m) + 1, 4 * (n - 1) + 1):
                    dp = Fraction(q, 4)
                    lo = window_thresholds(GraphParams(n, m), dp)[0]
                    assert verify_window(n, m, dp).bound_ok == \
                        (empirical_d_minus(n, m, dp) >= lo), (n, m, dp)
                    cells += 1
        assert cells == 512

    def test_reports_from_one_band_own_their_lists(self):
        sequences._band_sets.cache_clear()
        first, second = verify_window(9, 18, Fraction(7)), verify_window(9, 18, 7.0)
        assert sequences._band_sets.cache_info().hits == 1
        first.violations.append((8,) * 9)
        first.extremal_sequences.append((8,) * 9)
        assert second.violations == second.extremal_sequences == []
        third = verify_window(9, 18, 7)
        assert third.violations == third.extremal_sequences == []
        # empirical_d_minus searches its own bands and leaves the cache alone.
        info = sequences._band_sets.cache_info()
        assert empirical_d_minus(9, 18, 7) == reference_band_scan(
            9, 18, *window_thresholds(GraphParams(9, 18), 7))[3]
        assert sequences._band_sets.cache_info() == info

    def test_order_limit_error_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(EnumerationLimitError,
                               match=r"^order 13 above enumeration limit 12$"):
                verify_window(13, 30, 11)

    def test_exhaustive_small_orders(self):
        for n in range(3, 8):
            for m in range(1, n * (n - 1) // 2):
                for dp in window_grid(n, m):
                    rep = verify_window(n, m, dp)
                    assert rep.violations == [], (n, m, dp)
                    assert rep.bound_ok, (n, m, dp)

    def test_integer_d_plus_cover_every_real_d_plus(self):
        # For real d_plus in (t-1, t], t an integer, hi_strict is t-1 and lo
        # is at most lo(t), so a pass at t proves the window at d_plus.
        grid_cells = integer_cells = 0
        for n in range(2, 13):
            for m in range(1, n * (n - 1) // 2):
                p = GraphParams(n, m)
                for dp in window_grid(n, m):
                    lo, _, _, hi_strict = window_thresholds(p, dp)
                    t_lo, _, _, t_hi_strict = window_thresholds(p, math.ceil(dp))
                    assert (t_hi_strict, t_lo >= lo) == (hi_strict, True), (n, m, dp)
                    grid_cells += 1
                # every integer d_plus in (sqrt(2m), n-1]
                for t in range(math.isqrt(2 * m) + 1, n):
                    rep = verify_window(n, m, t)
                    assert rep.bound_ok and rep.violations == [], (n, m, t)
                    integer_cells += 1
        assert (grid_cells, integer_cells) == (7089, 810)


def reference_band_scan(n, m, lo, lo_strict, hi, hi_strict):
    """Count, violations, extremal sequences and the least largest degree
    <= hi_strict, decided degree by degree on a fresh enumeration."""
    seqs = list(enumerate_graphical(n, m))
    violations = [s for s in seqs if not any(lo <= d <= hi for d in s)]
    extremal = [s for s in seqs if not any(lo_strict <= d <= hi_strict for d in s)]
    low_max = min(max((d for d in s if d <= hi_strict), default=-1) for s in seqs)
    return len(seqs), violations, extremal, low_max


class TestBandScanAgainstReference:
    def test_half_order_cells(self):
        _, lo_strict, _, hi_strict = half_order_thresholds(GraphParams(2, 1))
        assert lo_strict > hi_strict  # n = 2: the strict band is empty
        rows = list(sequences.half_order_summaries(8))
        for n in range(2, 9):
            total = 0
            for m in range(0, n * (n - 1) // 2 + 1):
                count, violations, extremal, _ = reference_band_scan(
                    n, m, *half_order_thresholds(GraphParams(n, m)))
                rep = verify_half_order(n, m)
                assert rep.violations == violations, (n, m)
                assert rep.extremal_sequences == extremal, (n, m)
                total += count if 0 < m < n * (n - 1) // 2 else 0
            assert rows[n - 2].sequences == total, n

    def test_window_cells(self):
        for n in range(3, 9):
            for m in range(1, n * (n - 1) // 2):
                for dp in window_grid(n, m):
                    band = window_thresholds(GraphParams(n, m), dp)
                    _, violations, extremal, low_max = reference_band_scan(n, m, *band)
                    rep = verify_window(n, m, dp)
                    assert rep.violations == violations, (n, m, dp)
                    assert rep.extremal_sequences == extremal, (n, m, dp)
                    assert rep.bound_ok == (low_max >= band[0]), (n, m, dp)
                    assert empirical_d_minus(n, m, dp) == low_max, (n, m, dp)

    def test_every_band(self, monkeypatch):
        # Every band, not only those of window cells: every grid cell has an
        # empty extremal set, so it never reaches the branches that read the
        # optimum and bound_ok off that set.  verify_window is handed each
        # band in place of its thresholds, so its own filter over
        # _band_sets(...)[1] decides bound_ok here, and empirical_d_minus
        # starts its loop from the band's strict part.
        band, nonempty = None, 0
        monkeypatch.setattr(sequences, "window_thresholds", lambda p, d_plus: band)
        monkeypatch.setattr(sequences, "require_above_root", lambda p, d_plus: None)
        for n in range(2, 8):
            for m in range(n * (n - 1) // 2 + 1):
                for lo in range(n):
                    for hi in range(lo, n):
                        for band in itertools.product([lo], [lo, lo + 1], [hi], [hi, hi - 1]):
                            _, violations, extremal, low_max = reference_band_scan(n, m, *band)
                            assert sequences._band_sets(n, m, *band) == \
                                (tuple(violations), tuple(extremal)), (n, m, band)
                            assert empirical_d_minus(n, m, n - 1) == low_max, (n, m, band)
                            assert verify_window(n, m, n - 1).bound_ok == (low_max >= lo), \
                                (n, m, band)
                            nonempty += bool(extremal)
        assert nonempty == 3370

    def test_sequences_are_tuples_of_python_ints(self):
        for n in range(2, 8):
            for m in range(0, n * (n - 1) // 2 + 1):
                for s in graphical_sequences(n, m):
                    assert type(s) is tuple and all(type(d) is int for d in s), s


def reference_peel_trace(g):
    """`peel_trace` as it was before it ran on integers: a copy of the
    adjacency, and per step a GraphParams and its half-order interval
    m/(n-1) + [0, (n-2)/2].  Kept as the reference for every PeelStep."""
    adj = [g.neighbors(v) for v in range(g.n)]
    deg = [len(a) for a in adj]
    edges = sum(deg) // 2
    alive = list(range(g.n))
    steps = []
    while alive:
        if len(alive) >= 2:
            p = GraphParams(len(alive), edges)
            lo = p.m / (p.n - 1)
            iv = Interval(lo, lo + Fraction(p.n - 2, 2))
            lo, hi = math.ceil(iv.lo), math.floor(iv.hi)
        else:
            iv, lo, hi = Interval(Fraction(0), Fraction(0)), 0, 0
        pick = next(v for v in alive if lo <= deg[v] <= hi)
        steps.append((pick, deg[pick], iv))
        edges -= deg[pick]
        for u in adj[pick]:
            adj[u].discard(pick)
            deg[u] -= 1
        adj[pick] = set()
        deg[pick] = 0
        alive.remove(pick)
    return steps


class TestFindVertexAndPeel:
    def test_complete_graph_misses_interval(self):
        g = Graph.complete(4)
        assert find_vertex_in_interval(g, Interval(1, 2)) is None

    def test_path_hits_interval(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert find_vertex_in_interval(g, Interval(1, 2)) == 0

    def test_guarantee_on_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randint(2, 10)
            g = Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < rng.random():
                        g.add_edge(u, v)
            iv = half_order_interval(g.params())
            assert find_vertex_in_interval(g, iv) is not None

    def test_peel_complete_graph(self):
        steps = peel_trace(Graph.complete(4))
        assert [(s.vertex, s.degree) for s in steps] == [(0, 3), (1, 2), (2, 1), (3, 0)]
        assert steps[0].interval == Interval(Fraction(2), Fraction(3))

    def test_peel_empty_graph(self):
        steps = peel_trace(Graph(5))
        assert len(steps) == 5
        assert all(s.degree == 0 and s.interval.contains(0) for s in steps)

    def test_peel_random_graphs(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randint(1, 8)
            g = Graph(n)
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        g.add_edge(u, v)
            steps = peel_trace(g)
            assert len(steps) == n
            for s in steps:
                assert s.interval.contains(s.degree)


    def test_peel_matches_the_reference(self):
        rng = random.Random(2002)
        graphs = [random_graph(n, p, rng, isolated)
                  for n in range(61) for p in (0.0, 0.1, 0.5, 1.0) for isolated in (0, n // 4)]
        graphs += [Graph.complete(n) for n in range(13)]
        graphs += list(small_constructions())
        for g in graphs:
            edges = g.edges()
            steps = peel_trace(g)
            assert g.edges() == edges, g
            want = reference_peel_trace(g)
            assert len(steps) == len(want) == g.n, g
            for step, (vertex, degree, iv) in zip(steps, want):
                assert (step.vertex, step.degree) == (vertex, degree), g
                got = step.interval
                assert type(got.lo) is type(got.hi) is Fraction, g
                assert (got.lo, got.hi, str(got)) == (iv.lo, iv.hi, str(iv)), g


class TestGraphAndFormats:
    def test_edge_validation(self):
        g = Graph(3)
        g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(0, 1)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_edge_list_round_trip(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        text = format_edge_list(g)
        assert text.splitlines()[0] == "5 3"
        h = parse_edge_list(text)
        assert h.edges() == g.edges() and h.n == g.n

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ValueError):
            parse_edge_list("3\n0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_complement(self):
        g = Graph(4, [(0, 1)])
        assert g.complement().m == 5

    def test_sequence_normalization(self):
        assert as_degree_sequence([1, 3, 2]) == (3, 2, 1)
        with pytest.raises(DomainError):
            as_degree_sequence([1.5, 2])

    def test_infinite_and_nan_degrees_are_not_integers(self):
        # The same DomainError as any other non-integer degree, from every
        # function that takes a sequence.
        for d in (float("inf"), float("-inf"), float("nan")):
            for call in (as_degree_sequence, is_graphical, realize):
                with pytest.raises(DomainError) as info:
                    call([2, d, 1])
                assert str(info.value) == f"degree {d!r} is not an integer"
