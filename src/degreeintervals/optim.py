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
`solve_grid` is an independent grid oracle used to validate it.
After eliminating dbar_minus through the mixture identity and setting
d_minus = dbar_minus (forced at an optimum), two degrees of freedom
remain, so an exhaustive grid over (x, dbar_plus) with window refinement
is a trustworthy check.  One shrink-and-rescan loop does the search; it
runs on dbar_plus in [d_plus, n] and again on the one-point range
[d_plus, d_plus], the edge where the joint window can stall, whose grid
is the single column d_plus.  Each round evaluates only each grid row's
feasibility boundary, which gives the same result as the dense scan of
every grid point, bit for bit: along a row both constraints are monotone
in dbar_plus, even in floating point (the proof is in `solve_grid`).
`oracle_summary` solves the d_plus values of a cell in lockstep.  The
grid oracle is the package's only numpy user and imports it when
called, so importing the package does not load it.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .bounds import _d_minus, require_window_domain
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
    disc = require_window_domain(p, d_plus)
    d = float(p.d)
    if disc <= 0:
        sol = OptSolution(0.0, 0.0, math.sqrt(d * p.n), math.sqrt(d / p.n))
    else:
        s = math.sqrt(disc)
        v = _d_minus(p, d_plus, s)
        sol = OptSolution(v, v, float(d_plus), (float(d_plus) - s) / p.n)
    return _with_feasibility(sol, p, d_plus)


def solve_grid(p: GraphParams, d_plus) -> OptSolution:
    """Grid minimizer over (x, dbar_plus) with window refinement.

    dbar_minus is eliminated through the mixture identity and d_minus is
    set equal to it.  A coarse GRID_STEPS x GRID_STEPS scan is followed
    by REFINE_ROUNDS rounds that shrink the window around the incumbent
    by a factor of 10 and rescan.  That loop runs twice, over dbar_plus
    in [d_plus, n] and over the one-point range [d_plus, d_plus]; the
    smaller result wins, the joint one on a tie.  Ties break toward
    smaller x, then smaller dbar_plus, so the result is deterministic.

    The result is the one a dense scan of every grid point gives, bit
    for bit, although each round evaluates only each row's feasibility
    boundary.  Fix a row, so x in (0, 1) is fixed, and let b = dbar_plus
    grow along the sorted columns.  Each float step of

        dbar_minus = (d - x b) / (1 - x)
        cross      = (1 - x) dbar_minus - (b - x n) x

    is correctly rounded, and rounding is monotone, so x b and b - x n
    are non-decreasing in b, and dbar_minus, (1 - x) dbar_minus and
    cross are non-increasing.  Both feasibility tests (dbar_minus >= 0,
    cross >= 0) therefore hold on a prefix of the columns, and the
    objective dbar_minus is smallest on the prefix's last column.  The
    dense scan's row-major argmin is the first row holding the least of
    these row minima, at the first column of the run of equal values
    that ends on that row's last feasible column; `_round_best` takes
    exactly that point.  The sample of the lower edge d_plus is
    kept as column 0 of every round, so the columns stay sorted; a
    repeated value changes no chosen (value, x, dbar_plus).  In the edge
    pass every round's dbar_plus range is [d_plus, d_plus], whose grid
    is the single column d_plus.
    """
    return _solve_many([(p, d_plus)])[0]


def _solve_many(cells) -> list:
    """`solve_grid(p, d_plus)` for each (p, d_plus) of `cells`, in order.

    The problems run in lockstep, each round on (len(cells), GRID_STEPS)
    arrays, with every value computed as `solve_grid` alone computes it.
    The first invalid cell raises, before any search."""
    import numpy as np

    for p, d_plus in cells:
        require_window_domain(p, d_plus)
    d = np.array([float(p.d) for p, _ in cells])
    n = np.array([float(p.n) for p, _ in cells])
    dpf = np.array([float(d_plus) for _, d_plus in cells])
    # The edge pass exists because the joint window can stall on flat
    # stretches of the cross-constraint boundary curve; with dbar_plus
    # fixed, the incumbent stays within one grid spacing of the edge
    # optimum, so that pass cannot strand.
    passes = _shrink_and_rescan(d, n, dpf, n), _shrink_and_rescan(d, n, dpf, None)
    sols = []
    for (p, d_plus), *results in zip(cells, *passes):
        found = [r for r in results if r]
        if not found:
            raise InfeasibleSearchError(
                f"no feasible grid point for n={p.n}, d={p.d}, d_plus={d_plus}")
        val, bx, bb = min(found)
        sols.append(_with_feasibility(OptSolution(val, val, bb, bx), p, d_plus))
    return sols


def _shrink_and_rescan(d, n, b_min, b_max) -> list:
    """Best (objective, x, dbar_plus) of each problem over its rounds,
    None where no grid point was feasible.  dbar_plus ranges over
    [b_min, b_max], or is b_min alone when b_max is None (the edge pass).
    """
    import numpy as np

    dc, nc, b0 = d[:, None], n[:, None], b_min[:, None]
    # A last column of +inf is infeasible for every x, so column k exists
    # for every count k of feasible columns.
    end = np.full_like(b0, np.inf)
    edge = np.concatenate([b0, end], axis=1)  # the edge pass's one column
    x_lo, x_hi = np.full_like(d, X_EDGE), np.full_like(d, 1.0 - X_EDGE)
    b_lo, b_hi = b_min, b_max
    bv = bx = bb = np.full_like(d, np.inf)  # the best (objective, x, dbar_plus)
    for _ in range(REFINE_ROUNDS + 1):
        xs = _linspace(x_lo, x_hi)[0]
        # The exact boundary, a start for the float one: dbar_minus >= 0
        # iff b <= d/x, and cross >= 0 iff b <= (d + x^2 n)/(2x).
        t = np.minimum(dc / xs, (dc + xs * xs * nc) / (2.0 * xs))
        k = (b0 <= t).astype(int)
        if b_max is None:
            bs = edge
        else:
            # Keep the admissible lower edge of dbar_plus sampled in every
            # round; window refinement around the incumbent can otherwise
            # strand a minimizer sitting exactly on that boundary.
            grid, step = _linspace(b_lo, b_hi)
            bs = np.concatenate([b0, grid, end], axis=1)
            # and the grid columns at or below t.  step is 0 when the window
            # is narrower than the spacing of doubles (n = 10^10, say).
            at = np.floor((t - b_lo[:, None]) / np.where(step > 0, step, np.inf)[:, None])
            k += np.minimum(np.maximum(at + 1, 0), GRID_STEPS).astype(int)
        v, x, b = _round_best(dc, nc, xs, bs, k)
        # The dense scan's `cand < best` on (objective, x, dbar_plus) tuples
        better = (v < np.inf) & ((v < bv) | (v == bv) & ((x < bx) | (x == bx) & (b < bb)))
        bv, bx, bb = np.where(better, v, bv), np.where(better, x, bx), np.where(better, b, bb)
        has = bv < np.inf
        cx = np.where(has, bx, 0.5 * (x_lo + x_hi))
        wx = (x_hi - x_lo) / 10.0
        x_lo = np.maximum(X_EDGE, cx - wx / 2)
        x_hi = np.minimum(1.0 - X_EDGE, cx + wx / 2)
        if b_max is not None:
            cb = np.where(has, bb, 0.5 * (b_lo + b_hi))
            wb = (b_hi - b_lo) / 10.0
            b_lo = np.maximum(b_min, cb - wb / 2)
            b_hi = np.minimum(b_max, cb + wb / 2)
    return [(float(v), float(x), float(b)) if v < math.inf else None for v, x, b in zip(bv, bx, bb)]


def _round_best(d, n, xs, bs, k):
    """(objective, x, dbar_plus) arrays: each problem's point of the
    dense scan's row-major argmin over the grid xs x bs, with objective
    +inf where no point is feasible.  k starts `_row_boundary`."""
    import numpy as np

    rows = np.arange(len(bs))
    k, last = _row_boundary(d, n, xs, bs, k)
    obj = np.where(k > 0, last, np.inf)
    i = obj.argmin(axis=1)  # first row on ties
    least, x = obj[rows, i], xs[rows, i]
    # Walk left over the run of equal values ending at column k-1.
    dm = _dbar_minus(d, x[:, None], bs)
    j = (dm == least[:, None]).argmax(axis=1)
    return np.where(least < np.inf, dm[rows, j], np.inf), x, bs[rows, j]


def _linspace(start, stop):
    """(grid, step): row k of grid is np.linspace(start[k], stop[k],
    GRID_STEPS) bit for bit, numpy's arange * step + start with the last
    point set to stop.  (numpy takes (arange / div) * delta when step is
    0; the two differ only for a subnormal width, which no window has.)"""
    import numpy as np

    step = (stop - start) / (GRID_STEPS - 1)
    grid = np.arange(GRID_STEPS) * step[:, None] + start[:, None]
    grid[:, -1] = stop
    return grid, step


def _dbar_minus(d, x, b):
    return (d - x * b) / (1.0 - x)


def _row_boundary(d, n, xs, bs, k):
    """(k, dbar_minus at column k-1) for each row of the grid xs x bs,
    where k counts the row's feasible columns.  d, n (one column each)
    and bs (sorted columns, the last one infeasible) hold one problem
    per row of xs; k is any start, moved one column a step until column
    k-1 is feasible and column k is not.  Exact because feasibility is a
    prefix of each row (see `solve_grid`)."""
    import numpy as np

    rows = np.arange(len(bs))[:, None]
    width = xs.shape[1]
    x = np.concatenate([xs, xs], axis=1)
    while True:
        # Column -1 is the infeasible last one; k > 0 masks it below.
        b = bs[rows, np.concatenate([k - 1, k], axis=1)]
        dm = _dbar_minus(d, x, b)
        # Strict feasibility: tolerance-relaxed points could undercut the
        # true optimum by more than the promised 1e-9*n floor.
        feas = (dm >= 0.0) & ((1.0 - x) * dm - (b - x * n) * x >= 0.0)
        down = (k > 0) & ~feas[:, :width]
        up = feas[:, width:]
        if not (down.any() or up.any()):
            return k, dm[:, :width]
        k = k - down + up


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
        d_plus_values = d_plus_test_grid(p, count)
        sols = _solve_many([(p, dp) for dp in d_plus_values])
        for dp, sol in zip(d_plus_values, sols):
            closed = closed_form_solution(p, dp)
            worst = max(worst, abs(sol.objective - closed.objective))
            feasible = feasible and closed.feasible
        rows.append(OracleRow(p, worst, 1e-3 * p.n, feasible))
    return rows


__all__ = [
    "OptSolution", "OracleRow", "constraint_residuals", "check_feasible",
    "closed_form_solution", "solve_grid", "d_plus_test_grid", "reference_cells", "oracle_summary",
]
