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
is a trustworthy check.  One shrink-and-rescan loop, with one round
function, does the search: it runs on dbar_plus in [d_plus, n] and
again on the one-point range [d_plus, d_plus], the edge where the joint
window can stall.  A range collapsed to one point is one grid column, so
every round of that second pass scans the column d_plus alone.  Each
round evaluates only each grid row's feasibility boundary, and skips the
rows that cannot win, which gives the same result as the dense scan of
every grid point, bit for bit: along a row both constraints are monotone
in dbar_plus, even in floating point (the proofs are in `solve_grid`).
The oracle runs on Python floats, one problem at a time; the package has
no third-party runtime dependency.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .bounds import _d_minus, require_window_domain
from .errors import DomainError, InfeasibleSearchError
from .params import GraphParams

X_EDGE = 1e-9  # keep x away from 1 so the mixture identity can be solved
GRID_STEPS = 120  # grid points per axis in every round of `solve_grid`
REFINE_ROUNDS = 5  # shrink-and-rescan rounds after its coarse pass


class OptSolution(NamedTuple):
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
    return sol._replace(residuals=res, feasible=not _violations(res, p))


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
    by a factor of 10 and rescan.  That loop, `_shrink_and_rescan`, runs
    twice, over dbar_plus in [d_plus, n] and over the one-point range
    [d_plus, d_plus], and each of its rounds is one `_joint_round`; the
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
    that ends on that row's last feasible column; `_joint_round` takes
    exactly that point.  The sample of the lower edge d_plus is kept as
    column 0 of every round, so the columns stay sorted; a repeated value
    changes no chosen (value, x, dbar_plus).

    Whole rows are skipped when they cannot change the result.  By the
    same monotonicity, no feasible point of a row lies below dbar_minus
    at its largest finite column.  When that value is above the pass's
    best objective so far, any round result taken from the row is above
    the best and does not replace it, under the (objective, x, dbar_plus)
    order; and the window of the next round is read from the best alone.

    A dbar_plus range collapsed to one point adds that point once, or not
    at all when it is d_plus, already column 0: by the repeated-column
    rule this chooses the point the dense scan of the collapsed range
    does.  So every round of the second pass is the one-column grid
    [d_plus] (with its +inf end), which the proofs above cover.
    """
    require_window_domain(p, d_plus)
    d, n, b_min = float(p.d), float(p.n), float(d_plus)
    # The edge pass exists because the joint window can stall on flat
    # stretches of the cross-constraint boundary curve; with dbar_plus
    # fixed, the incumbent stays within one grid spacing of the edge
    # optimum, so that pass cannot strand.
    passes = _shrink_and_rescan(d, n, b_min, n), _shrink_and_rescan(d, n, b_min, b_min)
    found = [r for r in passes if r]
    if not found:
        raise InfeasibleSearchError(
            f"no feasible grid point for n={p.n}, d={p.d}, d_plus={d_plus}")
    val, bx, bb = min(found)
    return _with_feasibility(OptSolution(val, val, bb, bx), p, d_plus)


def _shrink_and_rescan(d, n, b_min, b_max):
    """Best (objective, x, dbar_plus) over the rounds, None when no grid
    point was feasible.  dbar_plus ranges over [b_min, b_max]; the x and
    dbar_plus windows shrink alike around the best point so far."""
    x_lo, x_hi = X_EDGE, 1.0 - X_EDGE
    b_lo, b_hi = b_min, b_max
    best = None
    for _ in range(REFINE_ROUNDS + 1):
        xs = _linspace(x_lo, x_hi)
        # Keep the admissible lower edge of dbar_plus sampled in every
        # round; window refinement around the incumbent can otherwise
        # strand a minimizer sitting exactly on that boundary.  A range
        # collapsed to one point adds it once, or not at all when it is
        # that edge: a repeated column changes no chosen point.  A last
        # column of +inf is infeasible for every x, so column k exists for
        # every count k of feasible columns.
        cols = _linspace(b_lo, b_hi) if b_lo < b_hi else [b_lo] if b_lo > b_min else []
        bs = [b_min, *cols, math.inf]
        cand = _joint_round(d, n, xs, bs, best[0] if best else math.inf)
        if cand and (best is None or cand < best):
            best = cand
        cx = best[1] if best else 0.5 * (x_lo + x_hi)
        cb = best[2] if best else 0.5 * (b_lo + b_hi)
        wx = (x_hi - x_lo) / 10.0
        wb = (b_hi - b_lo) / 10.0
        x_lo = max(X_EDGE, cx - wx / 2)
        x_hi = min(1.0 - X_EDGE, cx + wx / 2)
        b_lo = max(b_min, cb - wb / 2)
        b_hi = min(b_max, cb + wb / 2)
    return best


def _joint_round(d, n, xs, bs, bound):
    """The dense scan's row-major argmin over the grid xs x bs as
    (objective, x, dbar_plus), None where no point is feasible.  bs is
    sorted and ends with +inf.  Rows that cannot give a result at or
    below `bound` are skipped, so a result above `bound` may differ from
    the dense one, or be None (see `solve_grid`).

    A row's count k of feasible columns is found from any start, moved
    one column a step until column k-1 is feasible and column k is not;
    exact because feasibility is a prefix of each row.  Feasibility is
    strict: tolerance-relaxed points could undercut the true optimum by
    more than the promised 1e-9*n floor."""
    top = bs[-2]
    least, row, k = math.inf, None, None
    for x in xs:
        rest, xn = 1.0 - x, x * n  # per row; the same IEEE operations as inline
        if (d - x * top) / rest > bound:
            continue
        if k is None:
            # The exact boundary starts the first row: dbar_minus >= 0 iff
            # b <= d/x, and cross >= 0 iff b <= (d + x^2 n)/(2x).  Each
            # later row starts from the last boundary found.
            k = bisect_right(bs, min(d / x, (d + x * x * n) / (2.0 * x)), 0, len(bs) - 1)
        while k:  # down while column k-1 is infeasible
            b = bs[k - 1]
            value = (d - x * b) / rest
            if value >= 0.0 and rest * value - (b - xn) * x >= 0.0:
                break
            k -= 1
        while True:  # up while column k is feasible
            b = bs[k]
            dbar_minus = (d - x * b) / rest
            if not (dbar_minus >= 0.0 and rest * dbar_minus - (b - xn) * x >= 0.0):
                break
            value, k = dbar_minus, k + 1
        # value is dbar_minus at column k-1, the row's least objective
        if k and value < least:
            least, row = value, (x, k - 1)
    if row is None:
        return None
    # Walk left over the run of equal values ending at the row's last
    # feasible column.
    x, j = row
    while j and (d - x * bs[j - 1]) / (1.0 - x) == least:
        j -= 1
    return (d - x * bs[j]) / (1.0 - x), x, bs[j]


_INDEX = [float(i) for i in range(GRID_STEPS - 1)]  # exact, and faster to multiply than ints


def _linspace(start, stop) -> list:
    """np.linspace(start, stop, GRID_STEPS) bit for bit: numpy's
    i * step + start, with the last point set to stop.  (numpy takes
    (i / div) * delta when step is 0; the two differ only for a
    subnormal width, which no window has.)"""
    step = (stop - start) / (GRID_STEPS - 1)
    return [i * step + start for i in _INDEX] + [stop]


def d_plus_test_grid(p: GraphParams, count: int = 12) -> list:
    """`count` d_plus values spanning (d, n-1].

    Uniform spacing, except that the value nearest to (n+d)/2 is replaced
    by it exactly: that point minimizes the window length (value n/2), so
    grids used for length sweeps must contain it.  A `count` that is not
    an int >= 1 is refused, and so is d = n-1, where (d, n-1] is empty.
    """
    if not isinstance(count, int):
        raise DomainError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count!r}")
    if not p.d < p.n - 1:
        raise DomainError(f"(d, n-1] = ({p.d}, {p.n - 1}] is empty")
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
            worst = max(worst, abs(solve_grid(p, dp).objective - closed.objective))
            feasible = feasible and closed.feasible
        rows.append(OracleRow(p, worst, 1e-3 * p.n, feasible))
    return rows


__all__ = [
    "OptSolution", "OracleRow", "constraint_residuals", "check_feasible",
    "closed_form_solution", "solve_grid", "d_plus_test_grid", "reference_cells", "oracle_summary",
]
