"""Shared parameter and interval types.

Density data is kept exact: for a graph with n vertices and m edges the
average degree d = 2m/n and the complement average degree n-1-d are
stored as fractions, so comparisons against integer vertex degrees never
see rounding.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


@dataclass(frozen=True)
class GraphParams:
    """Order and edge count of a graph, with exact derived densities.

    The edge count is normally an integer.  `from_density` admits a
    fractional m (= d*n/2) so the continuous optimization can be run on
    density grids that no integer edge count hits exactly; graph
    constructions and sequence scans require integer m.
    """

    n: int
    m: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"order must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "m", Fraction(self.m))
        if not 0 <= self.m <= self.max_edges:
            raise DomainError(
                f"edge count {self.m} outside [0, {self.max_edges}] for order {self.n}")

    @classmethod
    def from_density(cls, n: int, d) -> "GraphParams":
        """Params with average degree exactly d (pass a Fraction for exactness)."""
        return cls(n, Fraction(d) * n / 2)

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


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi]."""

    lo: object
    hi: object

    def __post_init__(self):
        if self.lo > self.hi:
            raise DomainError(f"empty interval: lo={self.lo} > hi={self.hi}")

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    @property
    def length(self):
        return self.hi - self.lo

    def __str__(self):
        return f"[{_fmt(self.lo)}, {_fmt(self.hi)}]"
