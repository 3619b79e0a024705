import math
from collections import Counter
from fractions import Fraction

import pytest

from degreeintervals import (
    DomainError,
    Graph,
    GraphParams,
    InfeasibleConstructionError,
    NotRealizableError,
    build_near_extremal,
    build_split_extremal,
    extremal_profile,
    half_order_interval,
    opt_value,
    verify_half_order,
)
from degreeintervals.extremal import _biregular_rows, _deal_cross


def min_scan_deal(g, a, b, total):
    """Reference for `_deal_cross`: the same rule with an O(b) `min` over
    the non-neighbours of each dealer (min keeps the first of equal keys,
    so ties go to the lower index)."""
    right_deg = [0] * b
    for k in range(total):
        u = k % a
        j = min((j for j in range(b) if not g.has_edge(u, a + j)), key=right_deg.__getitem__)
        right_deg[j] += 1
        g.add_edge(u, a + j)


def split_parity_ok(n, m):
    a = Fraction(2 * m, n - 1)
    b = n - a
    return all(s.denominator == 1 and s.numerator % 2 == 0 for s in (a, b))


class TestSplitExtremal:
    def test_square_case_edges(self):
        res = build_split_extremal(4, 3)
        assert res.graph.edges() == [(0, 1), (0, 2), (1, 3)]
        assert res.graph.degree_sequence() == (2, 2, 1, 1)
        assert res.achieved_degree_set == {1, 2}
        assert all(v == 0.0 for v in res.gap_report.values())

    def test_five_structural_properties(self):
        # clique side complete, independent side empty, biregular cross
        # layer, exact average degree, degrees equal to the endpoints
        for n in range(3, 11):
            for m in range(1, n * (n - 1) // 2):
                if not split_parity_ok(n, m):
                    continue
                res = build_split_extremal(n, m)
                g = res.graph
                prof = extremal_profile(GraphParams(n, m))
                a, b = int(prof.size_plus), int(prof.size_minus)
                for u in range(a):
                    for v in range(u + 1, a):
                        assert g.has_edge(u, v)
                for u in range(a, n):
                    for v in range(u + 1, n):
                        assert not g.has_edge(u, v)
                for u in range(a):
                    assert sum(1 for w in g.neighbors(u) if w >= a) == b // 2
                for u in range(a, n):
                    assert sum(1 for w in g.neighbors(u) if w < a) == a // 2
                assert res.achieved_params.d == GraphParams(n, m).d
                iv = half_order_interval(GraphParams(n, m))
                assert res.achieved_degree_set == {iv.lo, iv.hi}

    def test_succeeds_exactly_on_even_even_cells(self):
        for n in range(3, 11):
            for m in range(1, n * (n - 1) // 2):
                if split_parity_ok(n, m):
                    build_split_extremal(n, m)
                else:
                    with pytest.raises(NotRealizableError):
                        build_split_extremal(n, m)

    def test_sequence_lands_in_extremal_scan(self):
        for n, m in [(4, 3), (6, 5), (6, 10), (8, 7), (10, 27)]:
            if not split_parity_ok(n, m):
                continue
            res = build_split_extremal(n, m)
            assert res.graph.degree_sequence() in verify_half_order(n, m).extremal_sequences

    def test_non_integer_size_rejected(self):
        with pytest.raises(NotRealizableError):
            build_split_extremal(8, 12)  # clique side would be 24/7
        with pytest.raises(NotRealizableError):
            build_split_extremal(5, 5)

    def test_odd_even_rejected(self):
        with pytest.raises(NotRealizableError):
            build_split_extremal(5, 4)  # sizes 2 and 3

    def test_degenerate_density_rejected(self):
        with pytest.raises(DomainError):
            build_split_extremal(4, 6)


class TestBipartiteHelpers:
    def test_modular_layout_is_biregular(self):
        for a in range(2, 41, 2):
            for b in range(2, 41, 2):
                rows = list(_biregular_rows(a, b))
                assert all(isinstance(vs, range) for _, vs in rows), (a, b)
                assert max(Counter(i for i, _ in rows).values()) <= 2, (a, b)
                pairs = [(i, v - a) for i, vs in rows for v in vs]
                assert len(set(pairs)) == len(pairs) == a * b // 2, (a, b)
                left = Counter(i for i, _ in pairs)
                right = Counter(j for _, j in pairs)
                assert all(left[i] == b // 2 for i in range(a)), (a, b)
                assert all(right[j] == a // 2 for j in range(b)), (a, b)


class TestNearExtremal:
    def test_tiny_case_is_star(self):
        res = build_near_extremal(4, 3, 3)
        assert res.graph.degree_sequence() == (3, 1, 1, 1)
        assert res.gap_report["low_side_L"] == pytest.approx(1 - 0.8038, abs=1e-4)

    def test_reference_instance(self):
        res = build_near_extremal(100, 1250, 60)
        g = res.graph
        assert g.m == 1250
        degrees = g.degrees()
        measured_low = max(d for d in degrees if d < 60)
        theory = opt_value(GraphParams(100, 1250), 60)
        assert measured_low == 13
        assert abs(measured_low - theory) <= 2
        assert measured_low >= theory - 1e-9
        # every clique vertex reaches the window
        clique = [v for v in range(g.n) if degrees[v] >= 60]
        assert len(clique) == 26 and res.gap_report["clique_reduction"] == 1.0
        assert res.gap_report["high_side_min_degree"] == 0.0

    def test_cross_deal_wraps_past_lcm(self):
        # clique a = 4 (reduced from 5), independent side b = 6, 21 cross
        # edges: the round-robin deal wraps past lcm(4, 6) = 12, where the
        # least-loaded right vertex is already adjacent to the dealer
        res = build_near_extremal(10, 27, 8)
        assert res.gap_report["clique_reduction"] == 1.0
        assert res.graph.edges() == [
            (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8), (0, 9),
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9),
            (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
            (3, 4), (3, 5), (3, 6), (3, 7), (3, 9)]

    def test_cross_deal_matches_min_scan(self):
        # build_near_extremal deals `total` in [0, a*b] edges with a + b = n,
        # and the deal reads only cross adjacency, so this is every deal of
        # every feasible cell with n <= 16, wrap-arounds past lcm(a, b) included
        for a in range(1, 16):
            for b in range(1, 17 - a):
                for total in range(a * b + 1):
                    heap, scan = Graph(a + b), Graph(a + b)
                    heap._add_rows(_deal_cross(a, b, total))
                    min_scan_deal(scan, a, b, total)
                    assert heap.edges() == scan.edges(), (a, b, total)

    def test_shortfall_shows_in_gap_report(self):
        # The cross layer holds at most a*b edges, so the graph stops at
        # C(a,2) + a*b edges when that is below m, well inside the domain:
        # five of the six gap-table cells fall short.  The shortfall is the
        # average-degree gap, 2(m - achieved)/n.
        cells = [(10, 12, Fraction(15, 2)), (12, 18, Fraction(9)), (10, 25, Fraction(17, 2)),
                 (12, 36, Fraction(51, 5)), (10, 12, Fraction(9)), (12, 18, Fraction(54, 5)),
                 (100, 1250, 60), (400, 39900, 300)]
        achieved = []
        for n, m, dp in cells:
            res = build_near_extremal(n, m, dp)
            achieved.append(res.graph.m)
            assert res.gap_report["average_degree"] == \
                pytest.approx(2 * (m - res.graph.m) / n, rel=0, abs=1e-12), (n, m, dp)
        assert achieved == [9, 18, 24, 30, 9, 11, 1250, 39900]

    def test_structure_is_split(self):
        res = build_near_extremal(100, 1250, 60)
        g = res.graph
        degrees = g.degrees()
        high = [v for v in range(g.n) if degrees[v] >= 60]
        low = [v for v in range(g.n) if v not in high]
        for i, u in enumerate(high):
            for v in high[i + 1:]:
                assert g.has_edge(u, v)
        for i, u in enumerate(low):
            for v in low[i + 1:]:
                assert not g.has_edge(u, v)

    def test_never_beats_the_relaxation(self):
        for n, m, dp in [(30, 100, 20.0), (50, 300, 40.0), (100, 1250, 60),
                         (100, 2000, 70.0), (40, 200, 25.5)]:
            res = build_near_extremal(n, m, dp)
            degrees = res.graph.degrees()
            measured_low = max(d for d in degrees if d < dp)
            assert measured_low >= opt_value(GraphParams(n, m), dp) - 1e-9

    def test_gap_shrinks_with_order(self):
        # fixed d/n = 1/4, d_plus/n = 3/5; the relative gap must not grow
        gaps = []
        for n, m in [(50, 312), (100, 1250), (200, 5000)]:
            res = build_near_extremal(n, m, 0.6 * n)
            degrees = res.graph.degrees()
            measured_low = max(d for d in degrees if d < 0.6 * n)
            theory = opt_value(GraphParams(n, m), 0.6 * n)
            gaps.append(abs(measured_low - theory) / n)
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_infeasible_when_no_vertex_can_reach_window(self):
        with pytest.raises(InfeasibleConstructionError):
            build_near_extremal(10, 5, 9)  # degree 9 needs 9 edges, only 5 exist

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            build_near_extremal(100, 1250, 45)  # below sqrt(d n) = 50
        with pytest.raises(DomainError):
            build_near_extremal(100, 1250, 99.5)
