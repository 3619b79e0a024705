"""Shared parameter and interval types.

Density data is kept exact: for a graph with n vertices and m edges the
average degree d = 2m/n and the complement average degree n-1-d are
stored as fractions, so comparisons against integer vertex degrees never
see rounding.
"""

from fractions import Fraction

from .errors import DomainError


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class _Value:
    """Base of the immutable value types below.  Fields live in
    `__slots__` and are set once, in `__init__`; assigning or deleting one
    raises AttributeError.  Two values are equal, and hash alike, exactly
    when they are of the same type with equal fields."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


class GraphParams(_Value):
    """Order and edge count of a graph, with exact derived densities.

    The edge count is normally an integer.  `from_density` admits a
    fractional m (= d*n/2) so the continuous optimization can be run on
    density grids that no integer edge count hits exactly; graph
    constructions and sequence scans require integer m.
    """

    __slots__ = ("n", "m")

    def __init__(self, n: int, m):
        if not isinstance(n, int) or n < 2:
            raise DomainError(f"order must be an integer >= 2, got {n!r}")
        try:
            m = Fraction(m)
        except (OverflowError, ValueError):  # inf, nan
            raise DomainError(f"edge count {m!r} is not a finite number") from None
        max_edges = n * (n - 1) // 2
        # 0 <= m <= max_edges, in integers (the denominator is positive).
        if not 0 <= m.numerator <= max_edges * m.denominator:
            raise DomainError(f"edge count {m} outside [0, {max_edges}] for order {n}")
        _set_n(self, n)
        _set_m(self, m)

    @classmethod
    def from_density(cls, n: int, d) -> "GraphParams":
        """Params with average degree exactly d (pass a Fraction for exactness)."""
        try:
            d = Fraction(d)
        except (OverflowError, ValueError):  # inf, nan
            raise DomainError(f"average degree {d!r} is not a finite number") from None
        return cls(n, d * n / 2)

    @property
    def d(self) -> Fraction:
        """Average degree 2m/n."""
        return 2 * self.m / self.n

    @property
    def d_bar(self) -> Fraction:
        """Average degree of the complement, n-1-d."""
        return self.n - 1 - self.d

    @property
    def max_edges(self) -> int:
        return self.n * (self.n - 1) // 2

    def complement(self) -> "GraphParams":
        return GraphParams(self.n, self.max_edges - self.m)

    def __repr__(self):
        return f"GraphParams(n={self.n}, m={self.m})"


class Interval(_Value):
    """Closed real interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise DomainError(f"empty interval: lo={lo} > hi={hi}")
        _set_lo(self, lo)
        _set_hi(self, hi)

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    @property
    def length(self):
        return self.hi - self.lo

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self):
        return f"[{_fmt(self.lo)}, {_fmt(self.hi)}]"


# The slots' own setters, which bypass the read-only __setattr__; only
# __init__ uses them.
_set_n, _set_m = GraphParams.n.__set__, GraphParams.m.__set__
_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__
