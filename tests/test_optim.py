import math
from fractions import Fraction

import pytest

from degreeintervals import (
    DomainError,
    GraphParams,
    OptSolution,
    check_feasible,
    closed_form_solution,
    constraint_residuals,
    d_minus_bound,
    d_plus_test_grid,
    opt_value,
    solve_grid,
)
from degreeintervals.optim import oracle_summary


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
