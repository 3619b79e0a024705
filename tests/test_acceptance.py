"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines.  Criterion 2 is the boundary characterization of the half-order
interval, checked from both sides on every cell: (a) the boundary
sequences confined to the closed interval are exactly the two-endpoint
profile multiset when the profile is realizable, and there are none
otherwise; (b) every boundary sequence off the profile has a degree
outside the closed interval.  The unconfined form ("no degree strictly
inside implies the profile") is false and is not asserted: the star
K(1, n-1) has d = 2(n-1)/n, so its lower endpoint is d * n/(2(n-1)) = 1
and its upper endpoint is n/2; its leaves sit on the lower endpoint and
its centre (degree n-1) lies above the interval for every n >= 3.  The
complement of the star does the same, mirrored.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from degreeintervals import (
    GraphParams,
    Graph,
    build_near_extremal,
    build_split_extremal,
    closed_form_solution,
    complement_edge_count_slack,
    d_minus_bound,
    d_plus_test_grid,
    edge_count_slack,
    ell_min,
    empirical_d_minus,
    extremal_profile,
    graphical_sequences,
    half_order_interval,
    is_graphical,
    opt_value,
    peel_trace,
    realize,
    reference_cells,
    scaled_d_minus,
    scaled_d_minus_deriv,
    solve_grid,
    verify_half_order,
    verify_window,
    window_grid,
)
from degreeintervals.bounds import require_window_domain, window_thresholds
from degreeintervals.cli import main as cli_main, read_sweep_csv
from degreeintervals.extremal import _biregular_rows
from degreeintervals.sequences import _graphical_totals
from test_bounds import expanded_complement_edge_count_slack, expanded_edge_count_slack


def report(idx, ok, detail):
    print(f"\nACCEPTANCE {idx}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_01_half_order_exhaustive():
    """Every graphical sequence, n in [2,10], m in (0, C(n,2)), has an
    entry in the closed interval; exact rational comparisons."""
    violations = 0
    checked = 0
    totals = _graphical_totals(10)
    for n in range(2, 11):
        for m in range(1, n * (n - 1) // 2):
            rep = verify_half_order(n, m)
            violations += len(rep.violations)
        checked += totals[n] - 2  # less the cells m = 0 and m = C(n,2)
    ok = violations == 0
    assert report(1, ok, f"{checked} sequences scanned, {violations} violations")


def test_02_extremal_characterization():
    """Boundary sequences (no degree strictly inside the half-order
    interval), n in [2,10], every 0 < m < C(n,2); exact comparisons.

    (a) Those with every degree in the closed interval are exactly
        [profile multiset] when `extremal_profile(p).realizable`, and
        there are none otherwise.
    (b) Every profile mismatch has a degree outside the closed interval.

    Stars and their complements are boundary sequences off the profile
    (the star's leaves sit on the lower endpoint 1, its centre n-1 lies
    above the upper endpoint n/2), so the unconfined form is not asserted.
    """
    cells = realizable = mismatches = 0
    failures = []
    for n in range(2, 11):
        for m in range(1, n * (n - 1) // 2):
            rep = verify_half_order(n, m)
            iv = half_order_interval(rep.params)
            prof = extremal_profile(rep.params)
            expected = []
            if prof.realizable:
                realizable += 1
                expected = [(int(prof.deg_plus),) * int(prof.size_plus)
                            + (int(prof.deg_minus),) * int(prof.size_minus)]
            confined = [s for s in rep.extremal_sequences
                        if all(iv.contains(e) for e in s)]
            if confined != expected:
                failures.append(f"(a) n={n} m={m} confined={confined} expected={expected}")
            for s in rep.profile_mismatches:
                if all(iv.contains(e) for e in s):
                    failures.append(f"(b) n={n} m={m} {s} inside the closed interval")
            mismatches += len(rep.profile_mismatches)
            cells += 1
    ok = not failures
    detail = (f"{cells} cells, {realizable} realizable profiles found, {mismatches} "
              "profile mismatches, each with a degree outside the closed interval"
              if ok else f"{len(failures)} failures, e.g. {'; '.join(failures[:4])}")
    assert report(2, ok, detail), "; ".join(failures[:8])


def test_03_window_exhaustive():
    """Every graphical sequence has an entry in [low bound, d_plus] over
    the one-tenth d_plus grid, n in [2,9], and the empirical optimum never
    falls below the relaxation value minus 1e-9."""
    violations = 0
    floor_failures = 0
    cells = 0
    for n in range(2, 10):
        for m in range(1, n * (n - 1) // 2):
            for dp in window_grid(n, m):
                rep = verify_window(n, m, dp)
                violations += len(rep.violations)
                cells += 1
                if empirical_d_minus(n, m, dp) < opt_value(rep.params, dp) - 1e-9:
                    floor_failures += 1
    ok = violations == 0 and floor_failures == 0
    assert report(3, ok, f"{cells} (n, m, d_plus) cells, {violations} violations, "
                         f"{floor_failures} relaxation-floor failures")


def test_04_relaxation_vs_grid_oracle():
    """|grid - closed form| <= 1e-3 n after 5 refinement rounds on the
    standard cells; closed-form point feasible with the cross constraint
    tight to 1e-9 n."""
    worst = 0.0
    feasible_failures = 0
    for p in reference_cells():
        for dp in d_plus_test_grid(p):
            closed = opt_value(p, dp)
            sol = solve_grid(p, dp)
            worst = max(worst, abs(sol.objective - closed) / p.n)
            assert sol.objective >= closed - 1e-9 * p.n
            cf = closed_form_solution(p, dp)
            if not cf.feasible or abs(cf.residuals["cross"]) > 1e-9 * p.n:
                feasible_failures += 1
    ok = worst <= 1e-3 and feasible_failures == 0
    assert report(4, ok, f"worst |grid-closed|/n = {worst:.2e}, "
                         f"{feasible_failures} feasibility failures")


def test_05_window_length_identities():
    """ell_min at d_plus = (n+d)/2 equals n/2 within 1e-12 n on 100 random
    parameter sets; the grid minimum of ell_min stays at or below n/2."""
    rng = random.Random(120)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(3, 60)
        m = rng.randint(1, n * (n - 2) // 2)  # keeps (n+d)/2 <= n-1
        p = GraphParams(n, m)
        dp = Fraction(n + p.d, 2)
        worst = max(worst, abs(ell_min(p, dp) - n / 2) / n)
    grid_ok = True
    for p in reference_cells():
        ells = [ell_min(p, dp) for dp in d_plus_test_grid(p)
                if require_window_domain(p, dp) > 0]
        if min(ells) > p.n / 2 + 1e-9:
            grid_ok = False
    ok = worst <= 1e-12 and grid_ok
    assert report(5, ok, f"midpoint identity worst rel err {worst:.2e}, "
                         f"grid minima at or below n/2: {grid_ok}")


def test_06_length_curve_sweep(tmp_path):
    """The sweep CSV reproduces (x - z0)/(1 - x + sqrt(x^2 - z0)) at every
    sample to 1e-9, starts just above sqrt(z0), and passes through 1/2 at
    x = (1 + z0)/2."""
    out = tmp_path / "curves.csv"
    rc = cli_main(["sweep", "0.25", "0.5", "0.81", "--steps", "100",
                   "--out", str(out)])
    assert rc == 0
    rows = read_sweep_csv(out)
    worst = 0.0
    ok = True
    for z0 in (0.25, 0.5, 0.81):
        curve = [r for r in rows if r.d_over_n == z0]
        first = curve[0].d_plus_over_n
        expected_start = (math.floor(math.sqrt(z0) * 10 ** 4) + 1) / 10 ** 4
        if not (math.sqrt(z0) < first == expected_start):
            ok = False
        for r in curve:
            x = r.d_plus_over_n
            value = (x - z0) / (1.0 - x + math.sqrt(x * x - z0))
            worst = max(worst, abs(r.ell_min_over_n - value))
        mid = [r for r in curve if r.d_plus_over_n == (1.0 + z0) / 2.0]
        if len(mid) != 1 or abs(mid[0].ell_min_over_n - 0.5) > 1e-9:
            ok = False
    ok = ok and worst <= 1e-9
    assert report(6, ok, f"start 0.7072 for z0=0.5, worst sample error {worst:.2e}, "
                         f"value 1/2 at the crossover sample")


def test_07_calculus_checks():
    """Derivative nonnegative and within 1e-6 of central differences away
    from the singularity; slack polynomials agree in both forms exactly
    and vanish at 1/n, d/(n-1), 1-1/n."""
    h = 1e-6
    worst_fd = 0.0
    min_deriv = math.inf
    for k in range(1, 10):
        z0 = k / 10
        lo = math.sqrt(z0) + 1e-3 + h
        for i in range(60):
            z = min(lo + i * (1.0 - lo) / 59, 1.0 - h)  # keep z +/- h inside (sqrt(z0), 1]
            deriv = scaled_d_minus_deriv(z, z0)
            min_deriv = min(min_deriv, deriv)
            fd = (scaled_d_minus(z + h, z0) - scaled_d_minus(z - h, z0)) / (2 * h)
            worst_fd = max(worst_fd, abs(deriv - fd) / max(1.0, abs(deriv)))
    zeros_ok = True
    forms_ok = True
    for n, m in [(4, 3), (6, 8), (9, 14), (11, 30)]:
        p = GraphParams(n, m)
        zeros_ok &= edge_count_slack(Fraction(1, n), p) == 0
        zeros_ok &= edge_count_slack(p.d / (n - 1), p) == 0
        zeros_ok &= complement_edge_count_slack(p.d / (n - 1), p) == 0
        zeros_ok &= complement_edge_count_slack(1 - Fraction(1, n), p) == 0
        for x in [Fraction(j, 23) for j in range(24)]:
            forms_ok &= expanded_edge_count_slack(x, p) == edge_count_slack(x, p)
            forms_ok &= expanded_complement_edge_count_slack(x, p) == \
                complement_edge_count_slack(x, p)
    ok = min_deriv >= 0.0 and worst_fd <= 1e-6 and zeros_ok and forms_ok
    assert report(7, ok, f"min derivative {min_deriv:.2e}, worst FD rel err "
                         f"{worst_fd:.2e}, zeros and dual forms exact: {zeros_ok and forms_ok}")


def test_08_constructions():
    """Split construction succeeds exactly on even-even cells (n <= 10) and
    satisfies all structural properties; the near-extremal reference
    instance lands within 2 of the relaxation value and never beats it."""
    structure_ok = True
    parity_ok = True
    for n in range(3, 11):
        for m in range(1, n * (n - 1) // 2):
            a = Fraction(2 * m, n - 1)
            b = n - a
            expect = all(s.denominator == 1 and s.numerator % 2 == 0 for s in (a, b))
            try:
                res = build_split_extremal(n, m)
                built = True
            except Exception:
                built = False
            if built != expect:
                parity_ok = False
                continue
            if not built:
                continue
            g = res.graph
            ai = int(a)
            clique = all(g.has_edge(u, v) for u in range(ai) for v in range(u + 1, ai))
            indep = all(not g.has_edge(u, v)
                        for u in range(ai, n) for v in range(u + 1, n))
            cross = all(sum(1 for w in g.neighbors(u) if w >= ai) == int(b) // 2
                        for u in range(ai))
            cross &= all(sum(1 for w in g.neighbors(u) if w < ai) == ai // 2
                         for u in range(ai, n))
            iv = half_order_interval(GraphParams(n, m))
            degrees_ok = res.achieved_degree_set == {iv.lo, iv.hi}
            avg_ok = res.achieved_params.d == GraphParams(n, m).d
            structure_ok &= clique and indep and cross and degrees_ok and avg_ok

    res = build_near_extremal(100, 1250, 60)
    degrees = res.graph.degrees()
    measured_low = max(d for d in degrees if d < 60)
    theory = opt_value(GraphParams(100, 1250), 60)
    near_ok = abs(measured_low - 12.1637) <= 2 and measured_low >= theory - 1e-9
    ok = structure_ok and parity_ok and near_ok
    assert report(8, ok, f"parity scan ok: {parity_ok}, structure ok: {structure_ok}, "
                         f"reference low side {measured_low} vs {theory:.4f}")


def test_09_plumbing_oracles():
    """Graphical test vs brute force over all length <= 6 sequences;
    realization round-trips everything up to n = 9; peeling completes on
    1000 random graphs with n <= 12."""
    brute_ok = True
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        inc = np.zeros((max(len(pairs), 1), n), dtype=np.int8)
        for k, (u, v) in enumerate(pairs):
            inc[k, u] = 1
            inc[k, v] = 1
        masks = np.arange(1 << len(pairs), dtype=np.int64)
        if pairs:
            bits = ((masks[:, None] >> np.arange(len(pairs))) & 1).astype(np.int8)
            degs = bits @ inc[:len(pairs)]
        else:
            degs = np.zeros((1, n), dtype=np.int8)
        realizable = {tuple(sorted(row, reverse=True)) for row in degs.tolist()}
        for comb in itertools.combinations_with_replacement(range(n), n):
            s = tuple(sorted(comb, reverse=True))
            if is_graphical(s) != (s in realizable):
                brute_ok = False

    round_trips = 0
    round_trip_ok = True
    for n in range(2, 10):
        for m in range(0, n * (n - 1) // 2 + 1):
            for s in graphical_sequences(n, m):
                if realize(s).degree_sequence() != s:
                    round_trip_ok = False
                round_trips += 1

    rng = random.Random(94321)
    peel_ok = True
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = Graph(n)
        p_edge = rng.random()
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p_edge:
                    g.add_edge(u, v)
        steps = peel_trace(g)
        if len(steps) != n or any(not s.interval.contains(s.degree) for s in steps):
            peel_ok = False

    ok = brute_ok and round_trip_ok and peel_ok
    assert report(9, ok, f"brute-force agreement: {brute_ok}, "
                         f"{round_trips} realizations round-tripped: {round_trip_ok}, "
                         f"1000 peel traces: {peel_ok}")


def test_10_window_gap_table():
    """On six cells fixed in advance (d/n about 1/4 or 1/2, d_plus/n about
    3/4, 17/20 or 9/10), the exact window optimum `empirical_d_minus` is
    never below the first integer degree of the window.  The line records
    its gap to the closed-form bound, which the paper claims is tight up
    to lower-order terms; orders above the library limit are not run."""
    cells = [(10, 12, Fraction(15, 2)), (12, 18, Fraction(9)), (10, 25, Fraction(17, 2)),
             (12, 36, Fraction(51, 5)), (10, 12, Fraction(9)), (12, 18, Fraction(54, 5))]
    gaps = []
    ok = True
    for n, m, dp in cells:
        p = GraphParams(n, m)
        exact = empirical_d_minus(n, m, dp)
        ok &= exact >= window_thresholds(p, dp)[0]
        gaps.append(exact - d_minus_bound(p, dp))
    table = ", ".join(f"({n}, {m}, {dp}) {g:.2f}" for (n, m, dp), g in zip(cells, gaps))
    assert report(10, ok, f"exact optimum minus d_minus bound: {table}")
