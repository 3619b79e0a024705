import copy
import math
import pickle
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from degreeintervals import (
    DomainError,
    GraphParams,
    Interval,
    complement_edge_count_slack,
    d_minus_bound,
    edge_count_slack,
    ell_min,
    extremal_profile,
    half_order_interval,
    opt_value,
    scaled_d_minus,
    scaled_d_minus_deriv,
    scaled_ell_min,
    symmetric_d_plus,
    window_grid,
)
from degreeintervals import bounds
from degreeintervals.bounds import (half_order_thresholds, require_window_domain,
                                    window_thresholds)


def all_params(n_max):
    for n in range(2, n_max + 1):
        for m in range(0, n * (n - 1) // 2 + 1):
            yield GraphParams(n, m)


class TestValueTypes:
    def test_params_and_intervals_are_immutable_values(self):
        p = GraphParams(4, 3)
        iv = Interval(Fraction(2), Fraction(3))
        assert p == GraphParams(4, Fraction(3)) and hash(p) == hash(GraphParams(4, Fraction(3)))
        assert iv == Interval(2, Fraction(3)) and hash(iv) == hash(Interval(2, Fraction(3)))
        # Equal only to their own type, never to a tuple of their fields.
        assert p != (4, 3) and iv != (2, 3)
        assert repr(p) == "GraphParams(n=4, m=3)"
        assert repr(iv) == "Interval(lo=Fraction(2, 1), hi=Fraction(3, 1))"
        assert str(iv) == "[2, 3]"
        for value, name in ((p, "n"), (p, "m"), (iv, "lo"), (iv, "hi")):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
        assert (p.n, p.m, iv.lo, iv.hi) == (4, 3, 2, 3)

    def test_validation_errors(self):
        for args, text in [((1, 0), "order must be an integer >= 2, got 1"),
                           ((4.0, 1), "order must be an integer >= 2, got 4.0"),
                           ((4, 7), "edge count 7 outside [0, 6] for order 4"),
                           ((4, Fraction(-1, 2)), "edge count -1/2 outside [0, 6] for order 4")]:
            with pytest.raises(DomainError) as info:
                GraphParams(*args)
            assert str(info.value) == text
        # Both ends of [0, max_edges] are in range, fractional m too.
        assert [GraphParams(4, m).m for m in (0, Fraction(11, 2), 6)] == [0, Fraction(11, 2), 6]
        with pytest.raises(DomainError, match=r"^empty interval: lo=1/2 > hi=1/3$"):
            Interval(Fraction(1, 2), Fraction(1, 3))

    def test_non_finite_edge_count(self):
        # inf and nan have no integer ratio; every entry taking (n, m)
        # reaches GraphParams, so each refuses them with a DomainError, as
        # `from_density` does for an average degree.
        for m in (math.inf, -math.inf, math.nan, Decimal("Infinity"), Decimal("NaN")):
            with pytest.raises(DomainError) as info:
                GraphParams(4, m)
            assert str(info.value) == f"edge count {m!r} is not a finite number"
            with pytest.raises(DomainError) as info:
                GraphParams.from_density(4, m)
            assert str(info.value) == f"average degree {m!r} is not a finite number"
        with pytest.raises(DomainError, match="^edge count inf is not a finite number$"):
            window_grid(4, math.inf)


def reference_half_order(p):
    """The half-order quantities of p, each from its own formula and not
    from `bounds._half_order_ratios`: the interval as two Fractions, the
    integer thresholds of `half_order_thresholds`, and, at non-degenerate
    density, the `extremal_profile` fields in field order (None at d = 0
    and d = n-1)."""
    n, m, d, dbar = p.n, p.m, p.d, p.d_bar
    interval = (Fraction(m, n - 1), Fraction(2 * m + (n - 2) * (n - 1), 2 * (n - 1)))
    u, v = m.as_integer_ratio()
    lo_den = (n - 1) * v
    hi_num, hi_den = 2 * u + (n - 2) * lo_den, 2 * lo_den
    thresholds = (-(-u // lo_den), u // lo_den + 1, hi_num // hi_den,
                  -(-hi_num // hi_den) - 1)
    if not 0 < d < n - 1:
        return interval, thresholds, None
    size_plus, size_minus = d * n / (n - 1), dbar * n / (n - 1)
    c = Fraction(n - 2, 2 * (n - 1))
    realizable = all(s.denominator == 1 and s.numerator % 2 == 0
                     for s in (size_plus, size_minus))
    return interval, thresholds, (size_plus, size_minus, d + c * dbar, d - c * d, realizable)


def same_values_and_types(got, want):
    return tuple(got) == tuple(want) and [type(x) for x in got] == [type(x) for x in want]


class TestHalfOrderInterval:
    def test_matches_the_reference_formulas(self):
        # Every order up to 40 with m in sixths, both degenerate densities
        # included: equal values of equal types, field by field.
        for n in range(2, 41):
            for j in range(3 * n * (n - 1) + 1):
                p = GraphParams(n, Fraction(j, 6))
                interval, thresholds, profile = reference_half_order(p)
                iv = half_order_interval(p)
                assert same_values_and_types((iv.lo, iv.hi), interval), p
                assert same_values_and_types(half_order_thresholds(p), thresholds), p
                if profile is None:
                    with pytest.raises(DomainError, match="is degenerate"):
                        extremal_profile(p)
                else:
                    assert same_values_and_types(extremal_profile(p), profile), p

    def test_known_intervals(self):
        iv = half_order_interval(GraphParams(4, 3))
        assert (iv.lo, iv.hi) == (Fraction(1), Fraction(2))
        iv = half_order_interval(GraphParams(6, 0))
        assert (iv.lo, iv.hi) == (0, 2)
        iv = half_order_interval(GraphParams(6, 15))
        assert (iv.lo, iv.hi) == (3, 5)

    def test_length_and_containment_exact(self):
        for p in all_params(10):
            iv = half_order_interval(p)
            assert iv.length == Fraction(p.n - 2, 2)
            assert iv.contains(p.d)

    def test_endpoints_are_exact_fractions(self):
        iv = half_order_interval(GraphParams(7, 9))
        assert isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction)
        # lo = d * n / (2(n-1)) in lowest terms
        assert iv.lo == Fraction(18, 7) * 7 / 12

    def test_thresholds_match_exact_containment(self):
        # Integer edge counts through n = 40, and fractional ones from
        # `from_density`, which callers such as the optimizer grids build.
        fractional = [GraphParams.from_density(n, Fraction(k, q) * (n - 1))
                      for n in range(2, 41) for q in (3, 7, 10) for k in range(q + 1)]
        fractional += [GraphParams.from_density(n, d) for n in (5, 12, 40)
                       for d in (0.1, 1 / 3, 2.5, n / 3, n - 1.5)]
        assert any(p.m.denominator > 1 for p in fractional)
        for p in list(all_params(40)) + fractional:
            iv = half_order_interval(p)
            lo, lo_strict, hi, hi_strict = half_order_thresholds(p)
            for k in range(p.n):
                assert (lo <= k <= hi) == (iv.lo <= k <= iv.hi), (p, k)
                assert (lo_strict <= k <= hi_strict) == (iv.lo < k < iv.hi), (p, k)


class TestExtremalProfile:
    def test_square_case(self):
        prof = extremal_profile(GraphParams(4, 3))
        assert (prof.size_plus, prof.size_minus) == (2, 2)
        assert (prof.deg_plus, prof.deg_minus) == (2, 1)
        assert prof.realizable

    def test_non_integer_sizes(self):
        prof = extremal_profile(GraphParams(5, 5))
        assert prof.size_plus == Fraction(5, 2)
        assert not prof.realizable

    def test_size_and_degree_identities(self):
        for p in all_params(9):
            if p.d == 0 or p.d == p.n - 1:
                continue
            prof = extremal_profile(p)
            assert prof.size_plus + prof.size_minus == p.n
            assert prof.deg_plus - prof.deg_minus == Fraction(p.n - 2, 2)

    def test_degenerate_density_rejected(self):
        with pytest.raises(DomainError):
            extremal_profile(GraphParams(6, 0))
        with pytest.raises(DomainError):
            extremal_profile(GraphParams(6, 15))


class TestWindowLowerBound:
    def test_reference_value(self):
        # 3 - 6/(1 + sqrt(3)) simplifies to 6 - 3 sqrt(3)
        got = d_minus_bound(GraphParams(4, 3), 3)
        assert got == pytest.approx(6 - 3 * math.sqrt(3), abs=1e-12)

    def test_half_order_crossover_point(self):
        # at d_plus = (n+d)/2 the window has length n/2, so the low end is d_plus - n/2
        assert d_minus_bound(GraphParams(4, 3), 2.75) == pytest.approx(0.75, abs=1e-12)
        assert ell_min(GraphParams(4, 3), 2.75) == pytest.approx(2.0, abs=1e-12)

    def test_domain_errors(self):
        p = GraphParams(4, 3)
        with pytest.raises(DomainError):
            d_minus_bound(p, 2)  # below sqrt(6)
        with pytest.raises(DomainError):
            d_minus_bound(p, math.sqrt(6))  # boundary is excluded
        with pytest.raises(DomainError):
            d_minus_bound(p, 3.5)  # above n-1
        with pytest.raises(DomainError):
            d_minus_bound(GraphParams(4, 0), 3)
        with pytest.raises(DomainError):
            d_minus_bound(GraphParams(4, 6), 3)

    def test_limit_at_threshold_is_zero(self):
        # convergence is like sqrt(eps): the discriminant vanishes linearly
        p = GraphParams(4, 3)
        root = math.sqrt(6)
        values = [d_minus_bound(p, root + eps) for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(v > 0 for v in values)
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-3

    def test_range_and_monotonicity(self):
        for n, m in [(6, 7), (9, 14), (12, 30), (20, 60)]:
            p = GraphParams(n, m)
            root = math.sqrt(float(p.d) * n)
            grid = [root + (i + 1) * (n - 1 - root) / 120 for i in range(120)]
            vals = [d_minus_bound(p, dp) for dp in grid]
            for dp, v in zip(grid, vals):
                assert 0 <= v < float(p.d) < dp
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-12

    def test_ell_min_composition(self):
        p = GraphParams(4, 3)
        assert ell_min(p, 3) == pytest.approx(3 - d_minus_bound(p, 3), abs=1e-12)


class TestOptValue:
    def test_piecewise_branches(self):
        p = GraphParams(100, 1250)  # d = 25, sqrt(d n) = 50
        assert opt_value(p, 40) == 0.0
        expected = 60 - 3500 / (40 + math.sqrt(1100))
        assert opt_value(p, 60) == pytest.approx(expected, rel=1e-13)

    def test_boundary_value_zero(self):
        assert opt_value(GraphParams(4, 3), math.sqrt(6)) == 0.0

    def test_matches_bound_above_threshold(self):
        p = GraphParams(9, 14)
        root = math.sqrt(float(p.d) * 9)
        for dp in [root + 0.3, root + 1.0, 8.0]:
            assert opt_value(p, dp) == d_minus_bound(p, dp)

    def test_domain(self):
        p = GraphParams(100, 1250)
        with pytest.raises(DomainError):
            opt_value(p, 25)  # not above d
        with pytest.raises(DomainError):
            opt_value(p, 99.5)


def tenth_grid(n_max):
    """(params, d_plus) over every `window_grid` cell up to order n_max."""
    for n in range(2, n_max + 1):
        for m in range(1, n * (n - 1) // 2):
            for dp in window_grid(n, m):
                yield GraphParams(n, m), dp


def fraction_window_domain(p, d_plus):
    """Reference for the window-domain check: 0 < d < n-1 and
    d < d_plus <= n-1 compared in Fractions, then Fraction(d_plus)."""
    if p.m == 0 or p.m == p.max_edges:
        raise DomainError(
            f"average degree {p.d} is degenerate for order {p.n}; need 0 < d < n-1")
    if not p.d < d_plus <= p.n - 1:
        raise DomainError(f"d_plus={d_plus} outside (d, n-1] = ({p.d}, {p.n - 1}]")
    return Fraction(d_plus)


def fraction_window_thresholds(p, d_plus):
    """Reference for `window_thresholds`: the domain checked in Fractions by
    `fraction_window_domain`, then the same sign tests on the ratio of
    Fraction(d_plus)."""
    q = fraction_window_domain(p, d_plus)
    hi, hi_strict = math.floor(q), math.ceil(q) - 1
    a, b = q.as_integer_ratio()
    u, v = (2 * p.m).as_integer_ratio()  # d n = 2m = u/v
    disc = a * a * v - u * b * b  # sign of d_plus^2 - d n
    if disc <= 0:
        return 0, 1, hi, hi_strict
    slope = a * p.n * v - u * b  # > 0 because d_plus > d

    def excess(k):  # has the sign of k - d_minus
        rhs = u - k * p.n * v
        return 1 if rhs <= 0 else k * k * slope * slope * v - rhs * rhs * disc

    lo = bisect_left(range(p.n), 0, key=excess)
    return lo, lo + (excess(lo) == 0), hi, hi_strict


def outcome(f, *args):
    """The value of f(*args), or the type and text of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestWindowThresholds:
    def test_integer_version_equals_fraction_reference(self):
        cases = list(tenth_grid(12))
        for p in all_params(8):  # degenerate m included
            quarters = [Fraction(k, 4) for k in range(-4, 4 * p.n + 1)]
            cases += [(p, q) for q in quarters] + [(p, float(q)) for q in quarters]
        for n in (5, 9, 20):  # fractional edge counts
            for r in (Fraction(1, 7), Fraction(3, 7), Fraction(5, 11), Fraction(9, 13)):
                p = GraphParams.from_density(n, r * (n - 1))
                assert p.m.denominator > 1
                cases += [(p, Fraction(k, 10)) for k in range(10 * n + 1)]
                cases += [(p, k / 10) for k in range(10 * n + 1)]
        cases += [(GraphParams(9, 18), x) for x in (
            math.nan, math.inf, -math.inf, True, False, np.int64(7), np.float64(6.5),
            Decimal("6.5"), Decimal("NaN"), Decimal("Infinity"))]
        cases += [(GraphParams(4, 1), True), (GraphParams(2, 1), math.nan)]
        kinds = []
        for p, dp in cases:
            got, want = outcome(window_thresholds, p, dp), outcome(fraction_window_thresholds, p, dp)
            assert got == want, (p, dp)
            disc = outcome(lambda: fraction_window_domain(p, dp) ** 2 - 2 * p.m)
            assert outcome(require_window_domain, p, dp) == disc, (p, dp)
            if not isinstance(want[0], type):
                kinds.append("value")
            elif want[0] is DomainError:
                kinds.append("degenerate" if want[1].startswith("average") else "outside")
            else:
                kinds.append(want[0].__name__)
        # Decimal("NaN") cannot be ordered against d, so both raise InvalidOperation
        assert {k: kinds.count(k) for k in set(kinds)} == {
            "value": 10291, "degenerate": 701, "outside": 4410, "InvalidOperation": 1}

    def test_in_domain_inputs_skip_the_fraction_check(self, monkeypatch):
        # The domain is decided on integer ratios; a Fraction is built only
        # for a d_plus without `as_integer_ratio`.
        def stub(*args):
            raise AssertionError(f"Fraction{args!r} built")
        cells = list(tenth_grid(8)) + [(GraphParams.from_density(9, Fraction(9, 2)), 8.0)]
        cells += [(GraphParams(9, 18), dp) for dp in (Fraction(17, 4), 4.25, 8)]
        cells += [(GraphParams(4, 1), True)]
        expected = [window_thresholds(p, dp) for p, dp in cells]
        monkeypatch.setattr(bounds, "Fraction", stub)
        assert [window_thresholds(p, dp) for p, dp in cells] == expected
        with pytest.raises(AssertionError):
            window_thresholds(GraphParams(9, 18), np.int64(8))

    def test_float_misses_the_integer(self):
        # n = 12: the float bound lands a few ulps off an exact integer
        cases = [(52, Fraction(51, 5), 1), (54, Fraction(52, 5), 2),
                 (56, Fraction(53, 5), 3), (58, Fraction(54, 5), 4)]
        for m, dp, k in cases:
            p = GraphParams(12, m)
            assert window_thresholds(p, dp)[:2] == (k, k + 1)
            assert d_minus_bound(p, dp) == pytest.approx(k, abs=1e-12)

    def test_agrees_with_float_away_from_integers(self):
        for p, dp in tenth_grid(10):
            v = d_minus_bound(p, dp)
            if abs(v - round(v)) > 1e-9:
                lo, lo_strict, hi, hi_strict = window_thresholds(p, dp)
                assert lo == lo_strict == math.ceil(v), (p, dp)
                assert (hi, hi_strict) == (math.floor(dp), math.ceil(dp) - 1)

    def test_integer_d_minus_has_strict_threshold_above(self):
        # d_minus = k exactly iff s = (q - d) n / (q - k) - n + q is the
        # nonnegative root of q^2 - d n, checked here in exact rationals
        ties = 0
        for p, dp in tenth_grid(12):
            v = d_minus_bound(p, dp)
            k = round(v)
            if abs(v - k) > 1e-9:
                continue
            s = (dp - p.d) * p.n / (dp - k) - p.n + dp
            if s >= 0 and s * s == dp * dp - p.d * p.n:
                ties += 1
                assert window_thresholds(p, dp)[:2] == (k, k + 1), (p, dp)
        assert ties == 49

    def test_float_input_is_taken_at_its_exact_value(self):
        # the double nearest 10.4 lies just above 52/5, so its d_minus
        # lies just above 2 and the first degree in the window is 3
        p = GraphParams(12, 54)
        assert Fraction(10.4) > Fraction(52, 5)
        assert window_thresholds(p, 10.4)[:2] == (3, 3)
        assert window_thresholds(p, Fraction(52, 5))[:2] == (2, 3)

    def test_below_root_and_domain(self):
        p = GraphParams(4, 3)  # d = 3/2, sqrt(d n) = sqrt(6)
        assert window_thresholds(p, 2) == (0, 1, 2, 1)
        for bad in (Fraction(3, 2), 4):
            with pytest.raises(DomainError):
                window_thresholds(p, bad)
        with pytest.raises(DomainError):
            window_thresholds(GraphParams(4, 0), 2)


class TestSymmetricUpper:
    def test_complement_map_identity(self):
        for n, m, d_minus in [(4, 3, 0), (8, 10, 0.5), (10, 23, 2.0)]:
            p = GraphParams(n, m)
            comp = GraphParams(n, n * (n - 1) // 2 - m)
            expected = (n - 1) - d_minus_bound(comp, (n - 1) - d_minus)
            assert symmetric_d_plus(p, d_minus) == expected

    def test_reference_value(self):
        got = symmetric_d_plus(GraphParams(4, 3), 0)
        assert got == pytest.approx(3 - (6 - 3 * math.sqrt(3)), abs=1e-12)

    def test_complement_precondition(self):
        # n-1-d_minus must clear sqrt(dbar n); a dense graph with a high
        # d_minus request fails it
        with pytest.raises(DomainError):
            symmetric_d_plus(GraphParams(6, 7), 2.3)
        with pytest.raises(DomainError):
            symmetric_d_plus(GraphParams(4, 3), 1.6)  # d_minus >= d


def expanded_edge_count_slack(x, p):
    """Reference for `edge_count_slack`: its defining sum, exact."""
    x = Fraction(x)
    low = p.d - Fraction(p.n - 2, 2 * (p.n - 1)) * p.d
    return x * (x * p.n - 1) + 2 * (1 - x) * low - p.d


def expanded_complement_edge_count_slack(x, p):
    """Reference for `complement_edge_count_slack`: its defining sum, exact."""
    x = Fraction(x)
    high = p.n - 1 - p.d - Fraction(p.n - 2, 2 * (p.n - 1)) * p.d_bar
    return (1 - x) * ((1 - x) * p.n - 1) + 2 * x * high - p.d_bar


class TestSlackPolynomials:
    @pytest.mark.parametrize("n,m", [(4, 3), (5, 7), (9, 14), (11, 30)])
    def test_known_zeros_exact(self, n, m):
        p = GraphParams(n, m)
        assert edge_count_slack(Fraction(1, n), p) == 0
        assert edge_count_slack(p.d / (n - 1), p) == 0
        assert complement_edge_count_slack(p.d / (n - 1), p) == 0
        assert complement_edge_count_slack(1 - Fraction(1, n), p) == 0

    @pytest.mark.parametrize("n,m", [(4, 3), (6, 8), (10, 17)])
    def test_expanded_equals_factored_exactly(self, n, m):
        p = GraphParams(n, m)
        xs = [Fraction(k, 37) for k in range(0, 38, 5)] + [0.3125, 0.875]
        for x in xs:
            assert expanded_edge_count_slack(x, p) == edge_count_slack(x, p)
            assert expanded_complement_edge_count_slack(x, p) == \
                complement_edge_count_slack(x, p)

    def test_strict_convexity_second_differences(self):
        p = GraphParams(7, 10)
        h = Fraction(1, 64)
        for base in [Fraction(1, 7), Fraction(1, 3), Fraction(5, 6)]:
            for f in (edge_count_slack, complement_edge_count_slack):
                second = f(base + h, p) - 2 * f(base, p) + f(base - h, p)
                assert second > 0


class TestScaledBoundFunction:
    def test_value_at_one(self):
        for z0 in (0.1, 0.5, 0.9):
            assert scaled_d_minus(1.0, z0) == pytest.approx(1 - math.sqrt(1 - z0), abs=1e-15)
            assert scaled_d_minus_deriv(1.0, z0) == 0.0
            assert scaled_ell_min(1.0, z0) == pytest.approx(math.sqrt(1 - z0), abs=1e-15)

    def test_figure_endpoint(self):
        assert scaled_ell_min(1.0, 0.25) == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        got = scaled_d_minus_deriv(0.8, 0.5)
        fd = (scaled_d_minus(0.8 + h, 0.5) - scaled_d_minus(0.8 - h, 0.5)) / (2 * h)
        assert abs(got - fd) / max(1.0, abs(got)) <= 1e-6

    def test_derivative_nonnegative(self):
        for z0 in [k / 10 for k in range(1, 10)]:
            lo = math.sqrt(z0) + 1e-3
            for i in range(50):
                z = min(lo + i * (1 - lo) / 49, 1.0)  # float drift past 1 is off-domain
                assert scaled_d_minus_deriv(z, z0) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            scaled_d_minus(0.5, 0.5)  # below sqrt(z0)
        with pytest.raises(DomainError):
            scaled_d_minus(0.9, 1.5)

    def test_domain_ends_at_one(self):
        # The window needs d_plus <= n-1, so z = d_plus/n stays at or below 1.
        for f in (scaled_d_minus, scaled_ell_min, scaled_d_minus_deriv):
            for z in (1.5, math.nextafter(1.0, 2.0), -0.9, math.nan):
                with pytest.raises(DomainError):
                    f(z, 0.25)
            assert f(1.0, 0.25) >= 0.0

    def test_domain_decided_on_the_rooted_value(self):
        # z^2 > z0 here although z <= sqrt(z0) in floats.
        z = 0.7071067811865476
        assert z <= math.sqrt(0.5) and z * z - 0.5 > 0
        assert scaled_d_minus_deriv(z, 0.5) > 0.0
        assert 0.0 < scaled_d_minus(z, 0.5) < scaled_ell_min(z, 0.5) < z


class TestEllMinIdentities:
    def test_midpoint_gives_half_order(self):
        for n, m in [(4, 3), (7, 9), (12, 30), (25, 100)]:
            p = GraphParams(n, m)
            dp = Fraction(n + p.d, 2)
            assert abs(ell_min(p, dp) - n / 2) <= 1e-12 * n

    def test_minimum_over_grid_at_most_half_order(self):
        for n, m in [(10, 20), (20, 50), (40, 300)]:
            p = GraphParams(n, m)
            root = math.sqrt(float(p.d) * n)
            grid = [root + (i + 1) * (n - 1 - root) / 200 for i in range(200)]
            grid.append(float(Fraction(n + p.d, 2)))
            best = min(ell_min(p, dp) for dp in grid if dp <= n - 1)
            assert best <= n / 2 + 1e-9
