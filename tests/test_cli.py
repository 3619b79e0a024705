import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import degreeintervals
from degreeintervals import DomainError, Graph, cli, format_edge_list, graphs, sequences
from degreeintervals.cli import MAX_SWEEP_STEPS, main, read_sweep_csv, sweep_rows
from test_graphs import random_graph
from test_sequences import reference_peel_trace


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestInterval:
    def test_square_case(self, capsys):
        rc, out, _ = run(capsys, "interval", "--n", "4", "--m", "3")
        assert rc == 0
        assert "[1, 2]" in out
        assert "realizable" in out

    def test_empty_and_complete(self, capsys):
        rc, out, _ = run(capsys, "interval", "--n", "6", "--m", "0")
        assert rc == 0 and "[0, 2]" in out
        rc, out, _ = run(capsys, "interval", "--n", "6", "--m", "15")
        assert rc == 0 and "[3, 5]" in out

    def test_invalid_args(self, capsys):
        rc, _, err = run(capsys, "interval", "--n", "6", "--m", "99")
        assert rc == 2 and "error" in err


class TestBound:
    def test_window_values(self, capsys):
        rc, out, _ = run(capsys, "bound", "--n", "4", "--m", "3", "--dplus", "3")
        assert rc == 0
        assert "0.803848" in out

    def test_half_order_crossover(self, capsys):
        rc, out, _ = run(capsys, "bound", "--n", "4", "--m", "3", "--dplus", "2.75")
        assert rc == 0
        assert "d_minus = 0.75" in out
        assert "ell_min = 2" in out

    def test_domain_guard_exit_code(self, capsys):
        rc, _, err = run(capsys, "bound", "--n", "4", "--m", "3", "--dplus", "2")
        assert rc == 2
        assert "sqrt" in err

    def test_symmetric_side(self, capsys):
        rc, out, _ = run(capsys, "bound", "--n", "4", "--m", "3", "--dminus", "0")
        assert rc == 0
        assert "2.19615" in out

    def test_rational_dplus(self, capsys):
        rc, exact, _ = run(capsys, "bound", "--n", "12", "--m", "54", "--dplus", "52/5")
        assert rc == 0
        rc, decimal, _ = run(capsys, "bound", "--n", "12", "--m", "54", "--dplus", "10.4")
        assert rc == 0 and decimal == exact
        assert "d_plus  = 10.4\n" in exact

    def test_zero_denominator_is_an_argument_error(self, capsys):
        for argv in (["bound", "--n", "4", "--m", "3", "--dplus", "1/0"],
                     ["bound", "--n", "4", "--m", "3", "--dminus", "1/0"],
                     ["opt", "--n", "4", "--m", "3", "--dplus", "1/0"],
                     ["extremal", "--n", "4", "--m", "3", "--dplus", "1/0"]):
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and out == "", argv
            assert "1/0" in err and "Traceback" not in err, argv

    def test_domain_error_prints_nothing(self, capsys):
        # --dplus is valid, --dminus = 2 lies outside [0, d) = [0, 1.5)
        rc, out, err = run(capsys, "bound", "--n", "4", "--m", "3",
                           "--dplus", "3", "--dminus", "2")
        assert rc == 2 and out == ""
        assert "d_minus" in err

    def test_needs_a_bound_flag(self, capsys):
        rc, _, err = run(capsys, "bound", "--n", "4", "--m", "3")
        assert rc == 2


class TestSweep:
    def test_rows_include_crossover_sample(self):
        rows = sweep_rows(0.5, 50)
        assert rows[0].d_plus_over_n == 0.7072
        assert rows[0].d_plus_over_n > math.sqrt(0.5)
        crossing = [r for r in rows if r.d_plus_over_n == 0.75]
        assert len(crossing) == 1
        assert abs(crossing[0].ell_min_over_n - 0.5) <= 1e-9

    def test_csv_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "curves.csv"
        rc, _, _ = run(capsys, "sweep", "0.25", "0.5", "--steps", "20",
                       "--out", str(out_path))
        assert rc == 0
        rows = read_sweep_csv(out_path)
        expected = sweep_rows(0.25, 20) + sweep_rows(0.5, 20)
        assert [(r.d_over_n, r.d_plus_over_n, r.ell_min_over_n) for r in rows] == \
            [(r.d_over_n, r.d_plus_over_n, r.ell_min_over_n) for r in expected]

    def test_stdout_header(self, capsys):
        rc, out, _ = run(capsys, "sweep", "0.81", "--steps", "5")
        assert rc == 0
        assert out.splitlines()[0] == "d_over_n,d_plus_over_n,ell_min_over_n"

    def test_last_sample_is_one(self):
        # start + 11 * (1 - start) / 11 rounds to 1 + 2^-52 for start = 0.1001.
        rows = sweep_rows(0.01, 12)
        assert rows[-1].d_plus_over_n == 1.0
        assert rows[-1].ell_min_over_n == math.sqrt(1 - 0.01)

    def test_bad_density(self, capsys):
        rc, _, err = run(capsys, "sweep", "1.5", "--steps", "5")
        assert rc == 2

    def test_density_near_one(self, capsys):
        # Above 1 - 2.6e-8 the minimizer (1 + d/n)/2 can round onto sqrt(d/n);
        # every d/n whose square root rounds up to 1 at 4 decimals is refused.
        rc, out, err = run(capsys, "sweep", "0.9999999999", "--steps", "2")
        assert rc == 2 and out == ""
        assert "d/n = 0.9999999999 too close to 1" in err
        for k in range(1, 200_000, 997):
            with pytest.raises(DomainError, match="too close to 1"):
                sweep_rows(1 - k * 1e-12, 2)
        with pytest.raises(DomainError, match="too close to 1"):
            sweep_rows(0.99980001, 2)  # sqrt(d/n) = 0.9999
        rows = sweep_rows(0.9998, 3)  # samples from 0.9999, the minimizer
        assert [r.d_plus_over_n for r in rows] == [0.9999, 0.99995, 1.0]
        assert abs(rows[0].ell_min_over_n - 0.5) < 1e-8

    def test_oversized_steps_refused_before_sampling(self, capsys, monkeypatch):
        class NoMath:  # the first sample point needs math; refusal must come first
            def __getattr__(self, name):
                raise AssertionError("sampling started before the refusal")
        monkeypatch.setattr(cli, "math", NoMath())
        rc, out, err = run(capsys, "sweep", "0.5", "--steps", str(10 ** 11))
        assert rc == 2 and out == ""
        assert "steps" in err
        with pytest.raises(DomainError):
            sweep_rows(0.5, MAX_SWEEP_STEPS + 1)


class TestVerify:
    def test_half_order_mode(self, capsys):
        rc, out, _ = run(capsys, "verify", "--mode", "t1", "--nmax", "5")
        assert rc == 0
        assert "0 violations" in out

    def test_half_order_mode_counts_once(self, capsys, monkeypatch):
        # Every order's sequence total comes from one count at nmax; t2
        # counts nothing.
        totals = sequences._graphical_totals
        calls = []

        def counted(order):
            calls.append(order)
            return totals(order)
        monkeypatch.setattr(sequences, "_graphical_totals", counted)
        rc, out, _ = run(capsys, "verify", "--mode", "t1", "--nmax", "9")
        assert rc == 0 and calls == [9]
        assert out.splitlines()[-2].startswith("n=9: 4359 sequences, 0 violations")
        rc, _, _ = run(capsys, "verify", "--mode", "t2", "--nmax", "6")
        assert rc == 0 and calls == [9]

    def test_window_mode(self, capsys):
        rc, out, _ = run(capsys, "verify", "--mode", "t2", "--nmax", "5")
        assert rc == 0
        assert "0 violations" in out

    def test_order_two_has_zero_totals(self, capsys):
        # order 2 has no non-degenerate edge count, so no cell at all
        for mode, total in (("t1", "total: 0 sequences, 0 violations (0 profile mismatches)"),
                            ("t2", "total: 0 cells, 0 violations, "
                                   "0 empirical-vs-theory failures")):
            rc, out, _ = run(capsys, "verify", "--mode", mode, "--nmax", "2")
            assert rc == 0
            assert out.splitlines()[-1] == total

    def test_totals_are_the_sum_of_order_lines(self, capsys):
        def counts(line, labels):
            return [int(re.search(rf"(\d+) {label}", line).group(1)) for label in labels]
        for mode, nmax, labels in (
                ("t1", 7, ("sequences", "violations", "profile mismatches")),
                ("t2", 6, (r"(?:\(m, d_plus\) )?cells", "violations"))):
            rc, out, _ = run(capsys, "verify", "--mode", mode, "--nmax", str(nmax))
            *orders, total = out.splitlines()
            assert rc == 0 and len(orders) == nmax - 1
            sums = [sum(col) for col in zip(*(counts(line, labels) for line in orders))]
            assert counts(total, labels) == sums and sums[0] > 0

    def test_opt_mode_quick(self, capsys):
        rc, out, _ = run(capsys, "verify", "--mode", "opt", "--nmax", "0",
                         "--grid", "quick")
        assert rc == 0
        assert out == (
            "n=20 d=5: max |grid - closed| = 1.17e-06 (allowed 0.02) ok\n"
            "n=20 d=10: max |grid - closed| = 1.39e-06 (allowed 0.02) ok\n"
            "all cells within tolerance\n")

    def test_library_limit_refused_before_scanning(self, capsys, monkeypatch):
        monkeypatch.setattr(sequences, "HARD_ORDER_LIMIT", 4)
        for mode in ("t1", "t2"):
            rc, out, err = run(capsys, "verify", "--mode", mode, "--nmax", "5")
            assert rc == 2 and out == ""
            assert "library limit" in err

    def test_library_limit_is_the_only_order_limit(self, capsys, monkeypatch):
        # DEGSEQ_MAX_N sets no limit; HARD_ORDER_LIMIT is the only one.
        monkeypatch.setenv("DEGSEQ_MAX_N", "4")
        monkeypatch.setattr(sequences, "HARD_ORDER_LIMIT", 5)
        rc, out, _ = run(capsys, "verify", "--mode", "t1", "--nmax", "5")
        assert rc == 0 and "n=5:" in out
        rc, out, err = run(capsys, "verify", "--mode", "t1", "--nmax", "6")
        assert rc == 2 and out == ""
        assert "library limit" in err


class TestConstructionCommands:
    def test_extremal_edge_list(self, capsys):
        rc, out, err = run(capsys, "extremal", "--n", "4", "--m", "3")
        assert rc == 0
        assert out.splitlines() == ["4 3", "0 1", "0 2", "1 3"]
        assert "gap" in err

    def test_extremal_not_realizable(self, capsys):
        rc, _, err = run(capsys, "extremal", "--n", "5", "--m", "5")
        assert rc == 2

    def test_near_extremal(self, capsys):
        rc, out, _ = run(capsys, "extremal", "--n", "100", "--m", "1250",
                         "--dplus", "60")
        assert rc == 0
        assert out.splitlines()[0] == "100 1250"

    def test_realize_star(self, capsys):
        rc, out, _ = run(capsys, "realize", "--seq", "3,1,1,1")
        assert rc == 0
        assert out.splitlines() == ["4 3", "0 1", "0 2", "0 3"]

    def test_realize_rejects_non_graphical(self, capsys):
        rc, _, err = run(capsys, "realize", "--seq", "3,3,1,1")
        assert rc == 2

    def test_edge_limit_refused_before_building(self, capsys):
        # 2.5e9 and 2.5e7 edges: refused with exit 2 before any row is built.
        commands = [("extremal", "--n", "100000", "--m", "2499975000"),
                    ("extremal", "--n", "100000", "--m", "2499975000", "--dplus", "90000"),
                    ("realize", "--seq", ",".join(["5000"] * 10001))]
        tracemalloc.start()
        try:
            results = [run(capsys, *argv) for argv in commands]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for rc, out, err in results:
            assert rc == 2 and out == ""
            assert f"above the construction limit {graphs.HARD_EDGE_LIMIT}" in err
        assert peak < 10 ** 7

    def test_edge_limit_is_inclusive(self, capsys, monkeypatch):
        commands = [("extremal", "--n", "4", "--m", "3"),
                    ("extremal", "--n", "4", "--m", "3", "--dplus", "3"),
                    ("realize", "--seq", "3,1,1,1")]
        monkeypatch.setattr(graphs, "HARD_EDGE_LIMIT", 3)
        for argv in commands:
            rc, out, _ = run(capsys, *argv)
            assert rc == 0 and out.startswith("4 3\n"), argv
        monkeypatch.setattr(graphs, "HARD_EDGE_LIMIT", 2)
        for argv in commands:
            rc, out, err = run(capsys, *argv)
            assert rc == 2 and out == "", argv
            assert "3 edges above the construction limit 2" in err

    def test_vertex_limit_refused_before_building(self, capsys, monkeypatch):
        # 10^8 vertices with 10 edges, and with none read from stdin:
        # refused with exit 2 before any adjacency set is made.
        monkeypatch.setattr(sys, "stdin", io.StringIO("100000000 0\n"))
        commands = [("extremal", "--n", "100000000", "--m", "10", "--dplus", "5"),
                    ("peel", "-")]
        tracemalloc.start()
        try:
            results = [run(capsys, *argv) for argv in commands]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for rc, out, err in results:
            assert rc == 2 and out == ""
            assert f"100000000 vertices above the graph limit {graphs.HARD_VERTEX_LIMIT}" in err
        assert peak < 10 ** 7

    def test_check_seq(self, capsys):
        rc, out, _ = run(capsys, "check-seq", "--seq", "3,1,1,1")
        assert rc == 0 and "graphical" in out
        rc, out, _ = run(capsys, "check-seq", "--seq", "3,3,1,1")
        assert rc == 1 and "not graphical" in out

    def test_check_seq_degree_above_order(self, capsys):
        rc, out, _ = run(capsys, "check-seq", "--seq", "5,1")
        assert rc == 1 and out == "5,1: not graphical\n"

    def test_degree_that_is_not_an_integer(self, capsys):
        # The library's own check names the item, not int()'s message.
        for command, seq, item in [("realize", "1.5,1", "'1.5'"),
                                   ("check-seq", "a,1", "'a'"),
                                   ("check-seq", "--3,1", "'--3'"),
                                   ("realize", "1,  2e0 ", "'2e0'")]:
            rc, out, err = run(capsys, command, f"--seq={seq}")
            assert (rc, out, err) == (2, "", f"error: degree {item} is not an integer\n"), seq
        rc, out, _ = run(capsys, "check-seq", "--seq", "+3, 1,1,1")
        assert (rc, out) == (0, "3,1,1,1: graphical\n")
        rc, _, err = run(capsys, "check-seq", "--seq=-1,1")
        assert (rc, err) == (2, "error: degree -1 is negative\n")


class TestPeel:
    def test_complete_graph_trace(self, capsys, tmp_path):
        path = tmp_path / "k4.txt"
        path.write_text(format_edge_list(Graph.complete(4)))
        rc, out, _ = run(capsys, "peel", str(path))
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 5  # header plus one row per vertex
        assert lines[1] == "1 0 3 [2, 3]"

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "peel", str(tmp_path / "nope.txt"))
        assert rc == 2

    def test_directory_is_an_argument_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "peel", str(tmp_path))
        assert rc == 2 and "error" in err

    def test_output_matches_the_reference_trace(self, capsys, monkeypatch):
        rng = random.Random(2904)
        cases = [random_graph(n, p, rng, n // 5) for n in range(41) for p in (0.0, 0.2, 0.6, 1.0)]
        cases.append(random_graph(400, 0.05, rng))
        for g in cases:
            lines = ["step vertex degree interval"]
            lines += [f"{i} {v} {deg} {iv}"
                      for i, (v, deg, iv) in enumerate(reference_peel_trace(g), 1)]
            monkeypatch.setattr(sys, "stdin", io.StringIO(format_edge_list(g)))
            rc, out, err = run(capsys, "peel", "-")
            assert (rc, err) == (0, "") and out == "\n".join(lines) + "\n", g

    @pytest.mark.parametrize("text", ["3 2\n0 1\n1 1\n", "3 3\n0 1\n", "3 1\n0 x\n",
                                      "3 1\n0 1 2\n", "-1 0\n", "5\n", ""])
    def test_parse_error_exits_two_with_empty_stdout(self, capsys, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        rc, out, err = run(capsys, "peel", "-")
        assert (rc, out) == (2, "") and err.startswith("error: ")

    def test_memory_per_vertex(self, capsys, monkeypatch):
        # Each line is written as its step is found, so no trace is kept:
        # at 10^5 edgeless vertices the peak, the graph's empty sets and the
        # captured output included, stays below 400 bytes per vertex.
        n = 10 ** 5
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{n} 0\n"))
        tracemalloc.start()
        try:
            rc = main(["peel", "-"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert rc == 0 and out.count("\n") == n + 1
        assert peak <= 400 * n, peak / n


class TestOpt:
    def test_closed_form_vs_grid_report(self, capsys):
        rc, out, _ = run(capsys, "opt", "--n", "100", "--m", "1250", "--dplus", "60")
        assert rc == 0
        assert "12.1637" in out
        assert "difference" in out

    def test_worst_residual_counts_the_mixture_deviation(self, capsys):
        # The mixture identity is off by +4.44e-16 here; the figure uses the
        # same rule as the feasibility check, so it is not reported as 0.
        rc, out, _ = run(capsys, "opt", "--n", "20", "--m", "20", "--dplus", "8")
        assert rc == 0
        assert out == (
            "closed form: d_minus = 0.898979  dbar_plus = 8  x = 0.155051"
            "  (feasible: True, worst residual 4.44e-16)\n"
            "grid oracle: d_minus = 0.89898\n"
            "difference : 1.55e-07\n")

    def test_no_feasible_grid_point_is_an_argument_error(self, capsys):
        # A valid cell where the grid, which keeps x >= X_EDGE, has no
        # feasible point: an error message and exit 2, no traceback.
        rc, out, err = run(capsys, "opt", "--n", "1000000000000", "--m", "1000000000000",
                           "--dplus", "999999999999")
        assert (rc, out) == (2, "")
        assert err == ("error: no feasible grid point for n=1000000000000, d=2, "
                       "d_plus=999999999999\n")

    def test_grid_size_is_not_an_option(self, capsys):
        rc, out, err = run(capsys, "opt", "--n", "100", "--m", "1250", "--dplus", "60",
                           "--steps", "100")
        assert rc == 2 and out == ""
        assert "--steps" in err


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def run_fresh(script, cwd):
    """Run `script` in a fresh interpreter that imports the package under test."""
    src = str(Path(degreeintervals.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_numpy_stays_off_the_import_path(tmp_path):
    # The package has no third-party runtime dependency; a fresh
    # interpreter with numpy blocked runs every command that uses the grid
    # oracle and a few others.
    script = """
import sys
sys.modules["numpy"] = None
import degreeintervals
from degreeintervals.cli import main
for argv in (["verify", "--mode", "t1", "--nmax", "6"], ["check-seq", "--seq", "3,3,1,1"],
             ["realize", "--seq", "3,1,1,1"], ["extremal", "--n", "4", "--m", "3"],
             ["opt", "--n", "50", "--m", "500", "--dplus", "35"],
             ["verify", "--mode", "opt", "--grid", "quick"]):
    main(argv)
"""
    proc = run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cold_import_skips_dataclasses(tmp_path):
    # Every command is a cold process, so start-up is part of its cost.
    # `dataclasses` pulls in `inspect` (and with it `ast`, `dis` and
    # `tokenize`); the record types are NamedTuples and __slots__ classes.
    script = """
import sys
import degreeintervals.cli
print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))
"""
    proc = run_fresh(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_public_names_resolve():
    names = degreeintervals.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(degreeintervals, n)] == []
    namespace = {}
    exec("from degreeintervals import *", namespace)
    assert set(names) <= namespace.keys()
