"""Closed-form degree-interval bounds around the average degree.

For a graph of order n with average degree d and complement average
degree dbar = n-1-d, two guarantees are computed here:

* the half-order interval
      [d - (n-2)/(2(n-1)) * d,  d + (n-2)/(2(n-1)) * dbar]
    = [m/(n-1),  m/(n-1) + (n-2)/2]
  of exact length (n-2)/2, which always contains some vertex degree; its
  boundary case is a split graph whose only degrees are the two
  endpoints (`extremal_profile`), and

* the sliding window [d_minus, d_plus] for a chosen upper end
  d_plus in (sqrt(d*n), n-1], with
      d_minus = d_plus - (d_plus - d) n / (n - d_plus + sqrt(d_plus^2 - d n)),
  the optimal value of a continuous relaxation (see `optim`).  Below the
  sqrt(d*n) threshold nothing nontrivial holds and the optimum is 0.

The half-order ends are written once, in integers, by
`_half_order_ratios`; `half_order_interval`, `half_order_thresholds`,
`extremal_profile` and the peel read them.  The edge-counting slack
polynomials are exact rationals.  Window values involve a square root
and are floats with an exactly formed discriminant.  Where an interval
end meets an integer degree, `half_order_thresholds` and
`window_thresholds` decide it exactly, in integers.  The window domain
0 < d < n-1, d < d_plus <= n-1 is decided in one place, `_window_ratios`,
also in integers; every window function checks its arguments there.
"""

import math
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError
from .params import GraphParams, Interval


def _require_nondegenerate(p: GraphParams) -> tuple:
    # 0 < d < n-1, decided in integers on d n = 2m = u/v; returns (u, v).
    u, v = p.m.as_integer_ratio()
    u *= 2
    if not 0 < u < p.n * (p.n - 1) * v:
        raise DomainError(
            f"average degree {p.d} is degenerate for order {p.n}; need 0 < d < n-1")
    return u, v


def _window_ratios(p: GraphParams, d_plus) -> tuple:
    """The window-domain check, 0 < d < n-1 and d < d_plus <= n-1, in
    integers: (a, b, u, v) with d_plus = a/b and d n = u/v.  A d_plus with
    no integer ratio (numpy ints, nan, infinities) is compared as given,
    so an unordered value keeps its own error."""
    u, v = _require_nondegenerate(p)
    n = p.n
    try:
        a, b = d_plus.as_integer_ratio()
    except (AttributeError, ValueError, OverflowError):
        inside = p.d < d_plus <= n - 1
        if inside:
            a, b = Fraction(d_plus).as_integer_ratio()
    else:
        inside = u * b < a * n * v and a <= (n - 1) * b
    if not inside:
        raise DomainError(f"d_plus={d_plus} outside (d, n-1] = ({p.d}, {n - 1}]")
    return a, b, u, v


def require_window_domain(p: GraphParams, d_plus) -> Fraction:
    """The window-domain check of `_window_ratios`.  Returns the exact
    d_plus^2 - d*n, positive iff d_plus > sqrt(d*n)."""
    a, b, u, v = _window_ratios(p, d_plus)
    return Fraction(a * a * v - u * b * b, v * b * b)


def require_above_root(p: GraphParams, d_plus) -> Fraction:
    """The window-domain check, narrowed to sqrt(d*n) < d_plus <= n-1;
    returns the same exact d_plus^2 - d*n, here positive."""
    disc = require_window_domain(p, d_plus)
    if disc <= 0:
        raise DomainError(
            f"d_plus={d_plus} must exceed sqrt(d*n) = {math.sqrt(float(p.d * p.n)):.6g}")
    return disc


def _half_order_ratios(n: int, u: int, v: int) -> tuple:
    """The half-order interval of order n >= 2 and m = u/v edges, as one
    unreduced integer ratio (lo, hi, den): lo/den = m/(n-1) and
    hi/den = lo/den + (n-2)/2.  The one place that writes its ends."""
    return 2 * u, 2 * u + (n - 2) * (n - 1) * v, 2 * (n - 1) * v


def half_order_interval(p: GraphParams) -> Interval:
    """Closed interval of length (n-2)/2 around d guaranteed to contain a degree.

    Its ends are the exact Fractions of `_half_order_ratios`.  With
    c = (n-2)/(2(n-1)), d - c d = m/(n-1) and d + c dbar = m/(n-1) + (n-2)/2.
    """
    lo, hi, den = _half_order_ratios(p.n, *p.m.as_integer_ratio())
    return Interval(Fraction(lo, den), Fraction(hi, den))


def half_order_thresholds(p: GraphParams) -> tuple:
    """Integer thresholds (lo, lo_strict, hi, hi_strict) of the half-order
    interval, with the meaning of `window_thresholds`.

    Exact for any rational m: ceil(lo), floor(lo)+1, floor(hi) and
    ceil(hi)-1, by floor division of the `_half_order_ratios` ends.  No
    Fraction or Interval is built."""
    lo, hi, den = _half_order_ratios(p.n, *p.m.as_integer_ratio())
    return -(-lo // den), lo // den + 1, hi // den, -(-hi // den) - 1


class ExtremalProfile(NamedTuple):
    """Shape of the boundary graph for the half-order interval.

    A clique of size_plus vertices, an independent set of size_minus, and
    a biregular cross layer; the only degrees are the interval endpoints
    deg_plus and deg_minus.  Realizable iff both sizes are even integers
    (each side must see exactly half of the other).
    """

    size_plus: Fraction
    size_minus: Fraction
    deg_plus: Fraction
    deg_minus: Fraction
    realizable: bool


def extremal_profile(p: GraphParams) -> ExtremalProfile:
    """Sizes and endpoint degrees of the boundary split graph: the degrees
    are the half-order ends, and size_plus = d n/(n-1) is twice the low end."""
    _require_nondegenerate(p)
    lo, hi, den = _half_order_ratios(p.n, *p.m.as_integer_ratio())
    size_plus = Fraction(2 * lo, den)
    size_minus = p.n - size_plus
    realizable = all(
        s.denominator == 1 and s.numerator % 2 == 0 for s in (size_plus, size_minus))
    return ExtremalProfile(size_plus=size_plus, size_minus=size_minus,
                           deg_plus=Fraction(hi, den), deg_minus=Fraction(lo, den),
                           realizable=realizable)


def d_minus_bound(p: GraphParams, d_plus) -> float:
    """Guaranteed low endpoint of the window ending at d_plus.

    Equals d_plus - (d_plus - d) n / (n - d_plus + s) with
    s = sqrt(d_plus^2 - d n); evaluated as s*d*n/((d_plus+s)(n-d_plus+s)),
    which is the same value without subtractive cancellation and is
    nonnegative term by term.  Requires sqrt(d n) < d_plus <= n-1.
    """
    return _d_minus(p, d_plus, math.sqrt(require_above_root(p, d_plus)))


def _d_minus(p: GraphParams, d_plus, s: float) -> float:
    # The `d_minus_bound` formula, for an already checked d_plus and its s.
    dpf = float(d_plus)
    return s * float(p.d * p.n) / ((dpf + s) * (p.n - dpf + s))


def ell_min(p: GraphParams, d_plus) -> float:
    """Window length d_plus - d_minus = (d_plus - d) n / (n - d_plus + s)."""
    s = math.sqrt(require_above_root(p, d_plus))
    dpf = float(d_plus)
    return (dpf - float(p.d)) * p.n / (p.n - dpf + s)


def opt_value(p: GraphParams, d_plus) -> float:
    """Optimal value of the window relaxation: 0 up to sqrt(d*n), then
    the d_minus bound.  Defined for d < d_plus <= n-1."""
    disc = require_window_domain(p, d_plus)
    return _d_minus(p, d_plus, math.sqrt(disc)) if disc > 0 else 0.0


def window_thresholds(p: GraphParams, d_plus) -> tuple:
    """Integer thresholds (lo, lo_strict, hi, hi_strict) of the window
    [opt_value(p, d_plus), d_plus]: a degree k lies in it iff lo <= k <= hi,
    and strictly inside iff lo_strict <= k <= hi_strict.  lo is 0 exactly
    when d_plus <= sqrt(d n), since the d_minus bound is positive above.

    Computed in integers, exact for any rational d_plus, floats included:
    with d_plus = a/b and d n = u/v from the domain check
    `_window_ratios`, above sqrt(d n) k >= d_minus iff
    k(a n v - u b) >= (u - k n v) sqrt((a^2 v - u b^2)/v), decided by sign
    and by squaring.
    """
    a, b, u, v = _window_ratios(p, d_plus)
    n = p.n
    hi, hi_strict = a // b, -(-a // b) - 1
    disc = a * a * v - u * b * b  # sign of d_plus^2 - d n
    if disc <= 0:
        return 0, 1, hi, hi_strict
    slope = a * n * v - u * b  # > 0 because d_plus > d

    def excess(k):  # has the sign of k - d_minus
        rhs = u - k * n * v
        return 1 if rhs <= 0 else k * k * slope * slope * v - rhs * rhs * disc

    lo = bisect_left(range(n), 0, key=excess)  # d_minus < n-1, so lo < n
    return lo, lo + (excess(lo) == 0), hi, hi_strict


def symmetric_d_plus(p: GraphParams, d_minus) -> float:
    """Upper window end for a prescribed lower end, via the complement.

    Pure complement map: n-1 minus the d_minus bound of the complement
    parameters evaluated at n-1-d_minus.  Requires
    n-1-d_minus > sqrt(dbar*n).
    """
    _require_nondegenerate(p)
    if not 0 <= d_minus < p.d:
        raise DomainError(f"d_minus={d_minus} outside [0, d) = [0, {p.d})")
    comp = p.complement()
    try:
        low = d_minus_bound(comp, (p.n - 1) - d_minus)
    except DomainError as exc:
        raise DomainError(f"complement precondition fails: {exc}") from None
    return (p.n - 1) - low


def edge_count_slack(x, p: GraphParams) -> Fraction:
    """Slack polynomial of the degree-sum count on the graph side.

    Nonnegative whenever x is the clique-side fraction of a graph with no
    degree strictly inside the half-order interval.  Factored form
    (x n - 1)(x(n-1) - d)/(n-1); the tests check it against the defining
    sum, exactly.
    """
    x = Fraction(x)
    n = p.n
    return (x * n - 1) * (x * (n - 1) - p.d) / (n - 1)


def complement_edge_count_slack(x, p: GraphParams) -> Fraction:
    """Slack polynomial of the same count applied to the complement.

    Factored form (x(n-1) - d)((x-1) n + 1)/(n-1).
    """
    x = Fraction(x)
    n = p.n
    return (x * (n - 1) - p.d) * ((x - 1) * n + 1) / (n - 1)


def _require_scaled_domain(z: float, z0: float) -> float:
    # The domain 0 < z0 < 1, sqrt(z0) < z <= 1, decided on the float
    # z*z - z0 whose root the scaled formulas take; returns that root.
    if not 0 < z0 < 1:
        raise DomainError(f"z0={z0} outside (0, 1)")
    if not (0 < z <= 1 and z * z - z0 > 0):
        raise DomainError(f"z={z} outside (sqrt(z0), 1] = ({math.sqrt(z0):.6g}, 1]")
    return math.sqrt(z * z - z0)


def scaled_d_minus(z: float, z0: float) -> float:
    """Window low end over n as a function of z = d_plus/n, z0 = d/n."""
    s = _require_scaled_domain(z, z0)
    return z - (z - z0) / (1.0 - z + s)


def scaled_ell_min(z: float, z0: float) -> float:
    """Window length over n: (z - z0)/(1 - z + sqrt(z^2 - z0))."""
    s = _require_scaled_domain(z, z0)
    return (z - z0) / (1.0 - z + s)


def scaled_d_minus_deriv(z: float, z0: float) -> float:
    """Derivative of `scaled_d_minus` in z; nonnegative on its domain (sqrt(z0), 1].

    The numerator factor 2z^2 - z0 - 2z*sqrt(z^2 - z0) is evaluated as
    z0^2 / (2z^2 - z0 + 2z*sqrt(z^2 - z0)) (rationalized; the product of
    the two forms is z0^2), which keeps it positive in floating point.
    """
    s = _require_scaled_domain(z, z0)
    core = z0 * z0 / (2 * z * z - z0 + 2 * z * s)
    return (1.0 - z) * core / (s * (1.0 - z + s) ** 2)
