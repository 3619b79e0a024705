"""Feasibility checking and a grid oracle for the window relaxation.

The relaxation minimizes the window low end over real variables
(d_minus, dbar_minus, dbar_plus, x), where dbar_minus / dbar_plus are
the mean degrees of the low / high vertex classes and x is the high
class fraction:

    minimize  d_minus
    mixture:  (1-x) dbar_minus + x dbar_plus == d
    cross:    (1-x) dbar_minus >= (dbar_plus - x n) x
    low:      0 <= dbar_minus <= d_minus
    high:     d_plus <= dbar_plus <= n
    box:      0 <= x <= 1

`closed_form_solution` returns the optimal point in closed form;
`solve_grid` is an independent dense-scan oracle used to validate it.
After eliminating dbar_minus through the mixture identity and setting
d_minus = dbar_minus (forced at an optimum), two degrees of freedom
remain, so an exhaustive grid over (x, dbar_plus) with window refinement
is a trustworthy check.  One shrink-and-rescan loop does the search; it
runs on dbar_plus in [d_plus, n] and again on the one-point range
[d_plus, d_plus], the edge where the joint window can stall.
`solve_grid` is the package's only numpy user and imports it when
called, so importing the package does not load it.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .bounds import d_minus_bound, is_above_sqrt_dn, require_window_domain, _window_sqrt
from .errors import DomainError, InfeasibleSearchError
from .params import GraphParams

X_EDGE = 1e-9  # keep x away from 1 so the mixture identity can be solved
GRID_STEPS = 120  # grid points per axis in every round of `solve_grid`
REFINE_ROUNDS = 5  # shrink-and-rescan rounds after its coarse pass


@dataclass(frozen=True)
class OptSolution:
    """Candidate point of the relaxation with optional feasibility data."""

    d_minus: float
    dbar_minus: float
    dbar_plus: float
    x: float
    residuals: dict | None = None
    feasible: bool | None = None

    @property
    def objective(self) -> float:
        return self.d_minus

    @property
    def worst_residual(self) -> float:
        """Largest amount by which `residuals` (which must be set) breach
        a constraint, 0.0 when none does."""
        return max([0.0, *(_excess(name, value) for name, value in self.residuals.items())])


def constraint_residuals(sol: OptSolution, p: GraphParams, d_plus) -> dict:
    """Signed slack of each constraint (negative means violated).

    The mixture identity reports its signed deviation; the two-sided
    bounds report the smaller of their two slacks.
    """
    n, d = p.n, float(p.d)
    x, dm, db = sol.x, sol.dbar_minus, sol.dbar_plus
    return {
        "mixture": (1.0 - x) * dm + x * db - d,
        "cross": (1.0 - x) * dm - (db - x * n) * x,
        "low": min(dm, sol.d_minus - dm),
        "high": min(db - float(d_plus), n - db),
        "box": min(x, 1.0 - x),
    }


def _excess(name: str, value: float) -> float:
    # How far a residual lies outside its constraint (<= 0 when it holds):
    # the mixture identity is breached by a deviation of either sign.
    return abs(value) if name == "mixture" else -value


def _violations(res: dict, p: GraphParams) -> list:
    # Tolerance 1e-9 n: constraint magnitudes grow with n.
    tol = 1e-9 * p.n
    return [(name, value) for name, value in res.items() if _excess(name, value) > tol]


def check_feasible(sol: OptSolution, p: GraphParams, d_plus) -> list:
    """List of (constraint name, residual) pairs violated beyond 1e-9 n."""
    return _violations(constraint_residuals(sol, p, d_plus), p)


def _with_feasibility(sol: OptSolution, p: GraphParams, d_plus) -> OptSolution:
    res = constraint_residuals(sol, p, d_plus)
    return replace(sol, residuals=res, feasible=not _violations(res, p))


def closed_form_solution(p: GraphParams, d_plus) -> OptSolution:
    """Optimal point of the relaxation.

    Below the sqrt(d n) threshold: (0, 0, sqrt(d n), sqrt(d/n)).  Above
    it: d_minus = dbar_minus = the closed-form bound, dbar_plus = d_plus,
    x = (d_plus - sqrt(d_plus^2 - d n))/n, with the cross constraint
    tight.
    """
    require_window_domain(p, d_plus)
    d = float(p.d)
    if not is_above_sqrt_dn(p, d_plus):
        sol = OptSolution(0.0, 0.0, math.sqrt(d * p.n), math.sqrt(d / p.n))
    else:
        v = d_minus_bound(p, d_plus)
        s = _window_sqrt(p, d_plus)
        sol = OptSolution(v, v, float(d_plus), (float(d_plus) - s) / p.n)
    return _with_feasibility(sol, p, d_plus)


def solve_grid(p: GraphParams, d_plus) -> OptSolution:
    """Dense grid minimizer over (x, dbar_plus) with window refinement.

    dbar_minus is eliminated through the mixture identity and d_minus is
    set equal to it.  A coarse GRID_STEPS x GRID_STEPS scan is followed
    by REFINE_ROUNDS rounds that shrink the window around the incumbent
    by a factor of 10 and rescan.  That loop runs twice, over dbar_plus
    in [d_plus, n] and over the one-point range [d_plus, d_plus]; the
    smaller result wins, the joint one on a tie.  Ties break toward
    smaller x, then smaller dbar_plus, so the result is deterministic.
    """
    import numpy as np

    require_window_domain(p, d_plus)
    n = p.n
    d = float(p.d)
    dpf = float(d_plus)
    x_bounds = (X_EDGE, 1.0 - X_EDGE)

    def shrink_and_rescan(b_bounds):
        x_lo, x_hi = x_bounds
        b_lo, b_hi = b_bounds
        best = None  # (objective, x, dbar_plus)
        for _ in range(REFINE_ROUNDS + 1):
            xs = np.linspace(x_lo, x_hi, GRID_STEPS)
            # Keep the admissible lower edge of dbar_plus sampled in every
            # round; window refinement around the incumbent can otherwise
            # strand a minimizer sitting exactly on that boundary.
            bs = np.unique(np.append(np.linspace(b_lo, b_hi, GRID_STEPS), b_bounds[0]))
            X, B = xs[:, None], bs[None, :]  # broadcast to the (x, dbar_plus) grid
            dbar_minus = (d - X * B) / (1.0 - X)
            cross = (1.0 - X) * dbar_minus - (B - X * n) * X
            # Strict feasibility: tolerance-relaxed points could undercut the
            # true optimum by more than the promised 1e-9*n floor.
            feas = (dbar_minus >= 0.0) & (cross >= 0.0)
            if feas.any():
                obj = np.where(feas, dbar_minus, np.inf)
                # row-major: smallest x, then dbar_plus
                i, j = np.unravel_index(np.argmin(obj), obj.shape)
                cand = (float(obj[i, j]), float(xs[i]), float(bs[j]))
                if best is None or cand < best:
                    best = cand
            cx = best[1] if best else 0.5 * (x_lo + x_hi)
            cb = best[2] if best else 0.5 * (b_lo + b_hi)
            wx = (x_hi - x_lo) / 10.0
            wb = (b_hi - b_lo) / 10.0
            x_lo = max(x_bounds[0], cx - wx / 2)
            x_hi = min(x_bounds[1], cx + wx / 2)
            b_lo = max(b_bounds[0], cb - wb / 2)
            b_hi = min(b_bounds[1], cb + wb / 2)
        return best

    # The edge pass exists because the joint window can stall on flat
    # stretches of the cross-constraint boundary curve; with dbar_plus
    # fixed, the incumbent stays within one grid spacing of the edge
    # optimum, so that pass cannot strand.
    found = [r for r in (shrink_and_rescan((dpf, float(n))), shrink_and_rescan((dpf, dpf))) if r]
    if not found:
        raise InfeasibleSearchError(
            f"no feasible grid point for n={n}, d={p.d}, d_plus={d_plus}")
    val, bx, bb = min(found)
    sol = OptSolution(val, val, bb, bx)
    return _with_feasibility(sol, p, d_plus)


def d_plus_test_grid(p: GraphParams, count: int = 12) -> list:
    """`count` d_plus values spanning (d, n-1].

    Uniform spacing, except that the value nearest to (n+d)/2 is replaced
    by it exactly: that point minimizes the window length (value n/2), so
    grids used for length sweeps must contain it.
    """
    d = float(p.d)
    n = p.n
    vals = [d + i * (n - 1 - d) / count for i in range(1, count + 1)]
    mid = (n + d) / 2.0
    if d < mid <= n - 1:
        j = min(range(count), key=lambda i: abs(vals[i] - mid))
        vals[j] = mid
    return vals


def reference_cells(sizes=(20, 50, 100),
                    ratios=(Fraction(1, 10), Fraction(1, 4), Fraction(1, 2),
                            Fraction(3, 4), Fraction(9, 10))) -> list:
    """GraphParams for the standard validation grid of (n, d/n) cells."""
    return [GraphParams.from_density(n, r * n) for n in sizes for r in ratios]


class OracleRow(NamedTuple):
    """One cell of `oracle_summary`: the worst |grid - closed| over its
    d_plus values, the allowed 1e-3 n, and whether every closed-form
    point was feasible."""

    params: GraphParams
    worst: float
    allowed: float
    feasible: bool

    @property
    def within_tolerance(self) -> bool:
        return self.worst <= self.allowed


def oracle_summary(grid: str) -> list:
    """`solve_grid` against `closed_form_solution` on a named validation
    grid, one `OracleRow` per cell: "default" is `reference_cells()` with
    12 d_plus values each, "quick" is n=20 at d/n = 1/4, 1/2 with 6."""
    if grid == "quick":
        cells, count = reference_cells(sizes=(20,), ratios=(Fraction(1, 4), Fraction(1, 2))), 6
    elif grid == "default":
        cells, count = reference_cells(), 12
    else:
        raise DomainError(f"unknown grid {grid!r} (use default or quick)")
    rows = []
    for p in cells:
        worst, feasible = 0.0, True
        for dp in d_plus_test_grid(p, count):
            closed = closed_form_solution(p, dp)
            sol = solve_grid(p, dp)
            worst = max(worst, abs(sol.objective - closed.objective))
            feasible = feasible and closed.feasible
        rows.append(OracleRow(p, worst, 1e-3 * p.n, feasible))
    return rows


__all__ = [
    "OptSolution", "OracleRow", "constraint_residuals", "check_feasible",
    "closed_form_solution", "solve_grid", "d_plus_test_grid", "reference_cells", "oracle_summary",
]
