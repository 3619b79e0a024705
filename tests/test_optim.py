import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from degreeintervals import (
    DomainError,
    GraphParams,
    InfeasibleSearchError,
    OptSolution,
    check_feasible,
    closed_form_solution,
    constraint_residuals,
    d_minus_bound,
    d_plus_test_grid,
    opt_value,
    solve_grid,
    window_grid,
)
from degreeintervals import optim
from degreeintervals.bounds import require_window_domain
from degreeintervals.optim import (GRID_STEPS, REFINE_ROUNDS, X_EDGE, OracleRow, oracle_summary,
                                   reference_cells)


def dense_solve_grid(p, d_plus):
    """Reference for `solve_grid`: the dense scan that evaluates every
    point of each GRID_STEPS x GRID_STEPS grid and takes numpy's row-major
    argmin."""
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
            bs = np.unique(np.append(np.linspace(b_lo, b_hi, GRID_STEPS), b_bounds[0]))
            X, B = xs[:, None], bs[None, :]
            dbar_minus = (d - X * B) / (1.0 - X)
            cross = (1.0 - X) * dbar_minus - (B - X * n) * X
            feas = (dbar_minus >= 0.0) & (cross >= 0.0)
            if feas.any():
                obj = np.where(feas, dbar_minus, np.inf)
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

    found = [r for r in (shrink_and_rescan((dpf, float(n))), shrink_and_rescan((dpf, dpf))) if r]
    if not found:
        raise InfeasibleSearchError(
            f"no feasible grid point for n={n}, d={p.d}, d_plus={d_plus}")
    val, bx, bb = min(found)
    sol = OptSolution(val, val, bb, bx)
    return replace(sol, residuals=constraint_residuals(sol, p, d_plus),
                   feasible=not check_feasible(sol, p, d_plus))


def exact_fields(sol):
    """Every field of an `OptSolution`, floats by `float.hex`."""
    return (sol.d_minus.hex(), sol.dbar_minus.hex(), sol.dbar_plus.hex(), sol.x.hex(),
            {name: value.hex() for name, value in sol.residuals.items()}, sol.feasible)


def grid_outcome(solver, p, d_plus):
    """`exact_fields` of solver(p, d_plus), or the type and text of what
    it raised."""
    try:
        return exact_fields(solver(p, d_plus))
    except Exception as exc:
        return type(exc), str(exc)


# d = 10^-12 at n = 10: with x >= X_EDGE no grid point is feasible at
# d_plus = 5, while d_plus = 10^-11 has a solution.
TINY = GraphParams.from_density(10, Fraction(1, 10**12))
BELOW_ROOT = [(GraphParams(20, 20), 3.5), (GraphParams(100, 1250), 40),
              (GraphParams(50, 500), 25), (GraphParams(10, 9), 3)]
# At n = 10^10 the dbar_plus window of a late round is narrower than the
# spacing of doubles there, so its grid has step 0.
HUGE = (GraphParams(10**10, 5 * 10**11), 10**10 - 1)


def oracle_cases():
    """The cells on which the library must equal `dense_solve_grid`, in
    batches: one per reference cell, its d_plus values solved one by one,
    and one per window-grid (n, m), solved in lockstep."""
    for p in reference_cells(sizes=(10, 20, 37)):
        yield False, [(p, dp) for count in (7, 12) for dp in d_plus_test_grid(p, count)]
    for n in range(2, 8):
        for m in range(1, n * (n - 1) // 2):
            yield True, [(GraphParams(n, m), dp) for dp in window_grid(n, m)]
    yield False, BELOW_ROOT + [(TINY, 5), (TINY, Fraction(1, 10**11)), HUGE]


def recorded_rounds(cells):
    """(d, n, xs, bs, k) of every `_round_best` call while `_solve_many`
    solves `cells`: the grids of real rounds, with their analytic starts."""
    calls = []

    def record(d, n, xs, bs, k):
        calls.append((d, n, xs, bs, k))
        return round_best(d, n, xs, bs, k)

    round_best = optim._round_best
    optim._round_best = record
    try:
        optim._solve_many(cells)
    finally:
        optim._round_best = round_best
    return calls


def tied_rounds(seed, count):
    """Rounds of three problems each on windows so narrow that many grid
    points share one objective value, across columns and across rows,
    some with the feasibility boundary inside the window."""
    rng = random.Random(seed)
    for _ in range(count):
        d, n, xs, bs = [], [], [], []
        for _ in range(3):
            dk, nk = rng.uniform(0.5, 50.0), float(rng.randint(2, 200))
            x = rng.choice([X_EDGE, rng.uniform(0.01, 0.99)])
            t = min(dk / x, (dk + x * x * nk) / (2.0 * x))
            b_w = 10.0 ** rng.uniform(-15, -3) * t
            b_lo = rng.choice([t - b_w * rng.random(), min(t, 10.0 * dk)])
            d.append(dk)
            n.append(nk)
            xs.append(np.linspace(x, x + 10.0 ** rng.uniform(-22, -8), GRID_STEPS))
            bs.append([b_lo - rng.choice([0.0, b_w]), *np.linspace(b_lo, b_lo + b_w, GRID_STEPS),
                       np.inf])
        yield np.array(d)[:, None], np.array(n)[:, None], np.array(xs), np.array(bs), None


def dense_argmin(d, n, xs, bs):
    """Each problem's (objective, x, dbar_plus) by float.hex at the dense
    scan's row-major argmin over the grid xs x bs (its finite columns,
    deduplicated), None where no point is feasible; and how many of the
    problems reach their least objective at more than one point."""
    best, tied = [], 0
    for dk, nk, x, b in zip(d[:, 0], n[:, 0], xs, bs):
        b = np.unique(b[np.isfinite(b)])
        dbar_minus, cross = dense_rows(dk[None, None], nk[None, None], x[None, :], b[None, :])
        feas = ((dbar_minus >= 0.0) & (cross >= 0.0))[0]
        obj = np.where(feas, dbar_minus[0], np.inf)
        i, j = np.unravel_index(np.argmin(obj), obj.shape)
        point = (float(obj[i, j]).hex(), float(x[i]).hex(), float(b[j]).hex())
        best.append(point if feas.any() else None)
        tied += int((obj == obj[i, j]).sum() > 1)
    return best, tied


def dense_rows(d, n, xs, bs):
    """dbar_minus and cross at every point of the grid xs x bs, one
    problem per row of xs."""
    X, B = xs[:, :, None], bs[:, None, :]
    dbar_minus = (d[:, :, None] - X * B) / (1.0 - X)
    return dbar_minus, (1.0 - X) * dbar_minus - (B - X * n[:, :, None]) * X


class TestClosedFormSolution:
    def test_upper_branch_point(self):
        sol = closed_form_solution(GraphParams(4, 3), 3)
        assert sol.x == pytest.approx((3 - math.sqrt(3)) / 4, abs=1e-15)
        assert sol.dbar_plus == 3.0
        assert sol.d_minus == sol.dbar_minus == sol.objective
        assert sol.feasible

    def test_lower_branch_point(self):
        sol = closed_form_solution(GraphParams(100, 1250), 40)
        assert (sol.d_minus, sol.dbar_minus) == (0.0, 0.0)
        assert sol.dbar_plus == pytest.approx(50.0, abs=1e-12)
        assert sol.x == pytest.approx(0.5, abs=1e-12)
        assert sol.feasible

    def test_objective_equals_closed_form_value(self):
        for n, m, dp in [(4, 3, 3), (100, 1250, 40), (100, 1250, 60), (9, 14, 7.3)]:
            p = GraphParams(n, m)
            assert closed_form_solution(p, dp).objective == opt_value(p, dp)

    def test_cross_constraint_tight(self):
        for n, m, dp in [(4, 3, 3), (100, 1250, 60), (100, 1250, 40), (20, 50, 16.0)]:
            p = GraphParams(n, m)
            sol = closed_form_solution(p, dp)
            assert abs(sol.residuals["cross"]) <= 1e-9 * n

    def test_domain(self):
        with pytest.raises(DomainError):
            closed_form_solution(GraphParams(4, 3), 1.0)
        with pytest.raises(DomainError):
            closed_form_solution(GraphParams(4, 3), 3.2)


class TestFeasibilityChecking:
    def test_mixture_violation_detected(self):
        p = GraphParams(100, 1250)
        bad = OptSolution(0.0, 0.0, 100.0, 0.0)
        names = [name for name, _ in check_feasible(bad, p, 60)]
        assert names == ["mixture"]

    def test_residual_signs(self):
        p = GraphParams(100, 1250)
        sol = closed_form_solution(p, 60)
        res = constraint_residuals(sol, p, 60)
        assert abs(res["mixture"]) <= 1e-9 * p.n
        assert res["low"] >= -1e-12 and res["high"] >= -1e-12 and res["box"] > 0


class TestGridSolver:
    def test_agrees_with_closed_form(self):
        p = GraphParams(100, 1250)
        sol = solve_grid(p, 60)
        assert abs(sol.objective - opt_value(p, 60)) <= 1e-3
        assert sol.feasible

    def test_zero_branch(self):
        p = GraphParams(100, 1250)
        sol = solve_grid(p, 40)
        assert sol.objective <= 1e-3

    def test_small_instance(self):
        sol = solve_grid(GraphParams(4, 3), 3)
        assert sol.objective == pytest.approx(0.8038, abs=1e-3)

    def test_never_undershoots_closed_form(self):
        for n, m, dp in [(20, 50, 16.0), (50, 500, 40.0), (100, 1250, 60),
                         (100, 1250, 40), (100, 4500, 97.0)]:
            p = GraphParams(n, m)
            sol = solve_grid(p, dp)
            assert sol.objective >= opt_value(p, dp) - 1e-9 * n

    def test_low_means_coincide(self):
        sol = solve_grid(GraphParams(50, 500), 35.0)
        assert sol.d_minus == sol.dbar_minus

    def test_deterministic(self):
        p = GraphParams(20, 50)
        a = solve_grid(p, 15.0)
        b = solve_grid(p, 15.0)
        assert (a.objective, a.x, a.dbar_plus) == (b.objective, b.x, b.dbar_plus)

    def test_parameter_validation(self):
        p = GraphParams(20, 50)
        with pytest.raises(DomainError):
            solve_grid(p, 4.0)  # below d

    @pytest.mark.parametrize("p, dp, objective, x, dbar_plus", [
        # below the root; the joint (x, dbar_plus) pass wins
        (GraphParams(20, 20), d_plus_test_grid(GraphParams(20, 20), 12)[0],
         "0x1.77f17a0fa0b1cp-28", "0x1.18dac20fd0d48p-1", "0x1.d2b0a45a474aap+1"),
        # the joint and the d_plus-edge passes tie
        (GraphParams(20, 20), d_plus_test_grid(GraphParams(20, 20), 12)[4],
         "0x1.eac983c6ab1a5p-1", "0x1.06832b8e80877p-3", "0x1.22aaaaaaaaaaap+3"),
        # d_plus = 14.75: the edge pass wins
        (GraphParams(20, 20), d_plus_test_grid(GraphParams(20, 20), 12)[8],
         "0x1.05a5e677c65d3p+0", "0x1.23c96d521ecfap-4", "0x1.d800000000000p+3"),
        (GraphParams(100, 1250), 40,
         "0x1.9800023f38089p-42", "0x1.00000168ebef5p-1", "0x1.8ffffdcc0f5a0p+5"),
        # the fractional cell of test_solver_runs_on_fractional_cells
        (GraphParams.from_density(50, Fraction(3, 4) * 50), 43.75,
         "0x1.2c00000d6bf97p+4", "0x1.7ffffffbb47d0p-1", "0x1.5e00000000000p+5"),
    ])
    def test_results_pinned_bit_for_bit(self, p, dp, objective, x, dbar_plus):
        # The tolerance tests above would let a refactor move the oracle by
        # an ulp; these exact values pin it.
        sol = solve_grid(p, dp)
        assert (sol.objective.hex(), sol.x.hex(), sol.dbar_plus.hex()) == (objective, x, dbar_plus)


class TestAgainstDenseScan:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_case_bit_for_bit(self):
        cases = raised = 0
        for lockstep, cells in oracle_cases():
            dense = [grid_outcome(dense_solve_grid, p, dp) for p, dp in cells]
            if lockstep:
                assert [exact_fields(s) for s in optim._solve_many(cells)] == dense, cells
            else:
                assert [grid_outcome(solve_grid, p, dp) for p, dp in cells] == dense, cells
            cases += len(cells)
            raised += sum(isinstance(outcome[0], type) for outcome in dense)
        assert (cases, raised) == (958, 20)

    def test_lockstep_batches(self):
        # Problems of different orders and densities in one batch, and an
        # infeasible one, which raises as the dense scan does.
        cells = [(GraphParams(n, m), window_grid(n, m)[0]) for n, m in [(4, 3), (7, 5), (7, 15)]]
        cells += [(GraphParams(100, 1250), 60.5), (GraphParams(100, 1250), 99), *BELOW_ROOT,
                  (TINY, Fraction(1, 10**11)), HUGE]
        sols = optim._solve_many(cells)
        assert [exact_fields(s) for s in sols] == \
            [grid_outcome(dense_solve_grid, p, dp) for p, dp in cells]
        with pytest.raises(InfeasibleSearchError) as info:
            optim._solve_many(cells + [(TINY, 5)])
        assert (InfeasibleSearchError, str(info.value)) == grid_outcome(dense_solve_grid, TINY, 5)
        with pytest.raises(DomainError):
            optim._solve_many(cells + [(GraphParams(20, 20), 1)])

    def test_equal_objectives_keep_the_smaller_point(self, monkeypatch):
        # Like the dense scan's `cand < best` on (objective, x, dbar_plus)
        # tuples, a tie on the objective goes to the smaller x, then the
        # smaller dbar_plus; a round with no feasible point changes nothing.
        script = iter([(1.0, 0.5, 3.0), (1.0, 0.4, 3.5), (1.0, 0.4, 3.25),
                       (1.0, 0.45, 3.0), (2.0, 0.1, 3.0), (math.inf, 0.0, 0.0)])
        assert REFINE_ROUNDS + 1 == 6
        monkeypatch.setattr(optim, "_round_best",
                            lambda *args: tuple(np.array([c]) for c in next(script)))
        one = np.array([1.0])
        assert optim._shrink_and_rescan(one, 10 * one, 2 * one, 10 * one) == [(1.0, 0.4, 3.25)]

    @pytest.mark.parametrize("grid, cells, count", [
        ("quick", reference_cells(sizes=(20,), ratios=(Fraction(1, 4), Fraction(1, 2))), 6),
        ("default", reference_cells(), 12),
    ])
    def test_oracle_summary_rows(self, grid, cells, count):
        rows = []
        for p in cells:
            worst, feasible = 0.0, True
            for dp in d_plus_test_grid(p, count):
                closed = closed_form_solution(p, dp)
                worst = max(worst, abs(dense_solve_grid(p, dp).objective - closed.objective))
                feasible = feasible and closed.feasible
            rows.append(OracleRow(p, worst, 1e-3 * p.n, feasible))
        exact = [(r.params, r.worst.hex(), r.allowed.hex(), r.feasible) for r in rows]
        assert [(r.params, r.worst.hex(), r.allowed.hex(), r.feasible)
                for r in oracle_summary(grid)] == exact


class TestRowBoundary:
    def test_rows_are_non_increasing(self):
        # The lemma behind the boundary search: in floats, dbar_minus and
        # cross never increase along a row of sorted dbar_plus values.
        rounds = recorded_rounds([(p, dp) for p in reference_cells(sizes=(20, 37, 100))
                                  for dp in d_plus_test_grid(p, 5)] + BELOW_ROOT)
        rng = random.Random(17)
        for _ in range(40):
            # tiny windows: a few ulps to 1e-6 wide, at random places
            x_lo = rng.uniform(X_EDGE, 0.999)
            b_lo = rng.uniform(0.5, 150.0)
            x_w, b_w = (10.0 ** rng.uniform(-15, -6) for _ in range(2))
            xs = np.linspace(x_lo, x_lo + x_w, GRID_STEPS)[None, :]
            bs = np.linspace(b_lo, b_lo + b_w, GRID_STEPS + 1)[None, :]
            d = np.array([[rng.uniform(0.01, 0.99) * b_lo]])
            n = np.array([[float(rng.randint(2, 200))]])
            rounds.append((d, n, xs, bs, None))
        assert sum(len(xs) for _, _, xs, _, _ in rounds) > 900
        for d, n, xs, bs, _ in rounds:
            bs = bs[:, np.isfinite(bs).all(axis=0)]
            assert (np.diff(bs, axis=-1) >= 0).all()
            for values in dense_rows(d, n, xs, bs):
                assert (np.diff(values, axis=-1) <= 0).all()

    def test_any_start_finds_the_same_boundary(self):
        rounds = recorded_rounds([(p, dp) for p in reference_cells(sizes=(20, 37))
                                  for dp in d_plus_test_grid(p, 4)] + BELOW_ROOT)
        for d, n, xs, bs, k in rounds:
            ncol = bs.shape[1] - 1  # the last column is the +inf one
            found, last = optim._row_boundary(d, n, xs, bs, k)
            dbar_minus, cross = dense_rows(d, n, xs, bs[:, :ncol])
            feasible = (dbar_minus >= 0.0) & (cross >= 0.0)
            # feasibility is a prefix of each row, of length k
            assert (feasible == (np.arange(ncol) < found[:, :, None])).all()
            at = np.take_along_axis(dbar_minus, np.maximum(found - 1, 0)[:, :, None], axis=2)
            at = at[:, :, 0]
            assert (last[found > 0] == at[found > 0]).all()
            for start in (np.zeros_like(k), np.full_like(k, ncol)):
                assert (optim._row_boundary(d, n, xs, bs, start)[0] == found).all()

    def test_round_best_is_the_dense_argmin(self):
        rounds = recorded_rounds([(p, dp) for p in reference_cells(sizes=(20, 37))
                                  for dp in d_plus_test_grid(p, 4)] + BELOW_ROOT)
        tied = 0
        for d, n, xs, bs, k in rounds + list(tied_rounds(5, 60)):
            k = np.zeros(xs.shape, int) if k is None else k
            v, x, b = optim._round_best(d, n, xs, bs, k)
            found = [(vk.hex(), xk.hex(), bk.hex()) if vk < math.inf else None
                     for vk, xk, bk in zip(v.tolist(), x.tolist(), b.tolist())]
            best, ties = dense_argmin(d, n, xs, bs)
            assert found == best
            tied += ties
        assert tied > 60

    def test_linspace_rows_match_numpy(self):
        rng = random.Random(3)
        starts = [rng.uniform(0, 200) for _ in range(30)] + [0.3, 1e-9, 55.0]
        stops = [a + 10.0 ** rng.uniform(-14, 2) for a in starts[:30]] + [0.3, 1 - 1e-9, 55.0]
        grid, step = optim._linspace(np.array(starts), np.array(stops))
        for row, a, b in zip(grid, starts, stops):
            assert np.linspace(a, b, GRID_STEPS).tobytes() == row.tobytes()
        assert step[-1] == 0.0 and (grid[-1] == 55.0).all()


class TestDensityParams:
    def test_fractional_edge_count_allowed(self):
        # d/n = 1/4 at n = 50 needs m = 312.5; the density constructor
        # carries it exactly
        p = GraphParams.from_density(50, Fraction(1, 4) * 50)
        assert p.d == Fraction(25, 2)
        assert p.m == Fraction(625, 2)

    def test_solver_runs_on_fractional_cells(self):
        p = GraphParams.from_density(50, Fraction(3, 4) * 50)
        dp = d_plus_test_grid(p)[6]
        sol = solve_grid(p, dp)
        assert abs(sol.objective - opt_value(p, dp)) <= 1e-3 * p.n


class TestDPlusTestGrid:
    def test_spans_and_contains_midpoint(self):
        for n, m in [(20, 50), (50, 500), (100, 1250), (20, 180)]:
            p = GraphParams(n, m)
            grid = d_plus_test_grid(p)
            assert len(grid) == 12
            d = float(p.d)
            assert all(d < dp <= n - 1 for dp in grid)
            assert grid[-1] == n - 1 or max(grid) == n - 1
            assert (n + d) / 2 in grid


class TestOracleSummary:
    def test_quick_grid(self):
        rows = oracle_summary("quick")
        assert [(r.params.n, r.params.d) for r in rows] == [(20, 5), (20, 10)]
        assert all(r.within_tolerance and r.feasible for r in rows)
        assert all(r.allowed == 1e-3 * 20 for r in rows)

    def test_unknown_grid(self):
        with pytest.raises(DomainError):
            oracle_summary("huge")
