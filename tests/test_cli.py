import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import degreeintervals
from degreeintervals import DomainError, Graph, cli, format_edge_list, sequences
from degreeintervals.cli import MAX_SWEEP_STEPS, main, read_sweep_csv, sweep_rows


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

    def test_bad_density(self, capsys):
        rc, _, err = run(capsys, "sweep", "1.5", "--steps", "5")
        assert rc == 2

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

    def test_window_mode(self, capsys):
        rc, out, _ = run(capsys, "verify", "--mode", "t2", "--nmax", "5")
        assert rc == 0
        assert "0 violations" in out

    def test_opt_mode_quick(self, capsys):
        rc, out, _ = run(capsys, "verify", "--mode", "opt", "--nmax", "0",
                         "--grid", "quick")
        assert rc == 0
        assert out == (
            "n=20 d=5: max |grid - closed| = 1.17e-06 (allowed 0.02) ok\n"
            "n=20 d=10: max |grid - closed| = 1.39e-06 (allowed 0.02) ok\n"
            "all cells within tolerance\n")

    def test_enumeration_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGSEQ_MAX_N", "4")
        rc, _, err = run(capsys, "verify", "--mode", "t1", "--nmax", "5")
        assert rc == 2
        assert "DEGSEQ_MAX_N" in err

    def test_library_limit_refused_before_scanning(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGSEQ_MAX_N", "5")
        monkeypatch.setattr(sequences, "HARD_ORDER_LIMIT", 4)
        for mode in ("t1", "t2"):
            rc, out, err = run(capsys, "verify", "--mode", mode, "--nmax", "5")
            assert rc == 2 and out == ""
            assert "library limit" in err

    def test_default_cap_allows_ten(self, capsys, monkeypatch):
        monkeypatch.delenv("DEGSEQ_MAX_N", raising=False)
        rc, _, _ = run(capsys, "verify", "--mode", "t1", "--nmax", "4")
        assert rc == 0


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

    def test_check_seq(self, capsys):
        rc, out, _ = run(capsys, "check-seq", "--seq", "3,1,1,1")
        assert rc == 0 and "graphical" in out
        rc, out, _ = run(capsys, "check-seq", "--seq", "3,3,1,1")
        assert rc == 1 and "not graphical" in out

    def test_check_seq_degree_above_order(self, capsys):
        rc, out, _ = run(capsys, "check-seq", "--seq", "5,1")
        assert rc == 1 and out == "5,1: not graphical\n"


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

    def test_grid_size_is_not_an_option(self, capsys):
        rc, out, err = run(capsys, "opt", "--n", "100", "--m", "1250", "--dplus", "60",
                           "--steps", "100")
        assert rc == 2 and out == ""
        assert "--steps" in err


def test_unknown_command_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_numpy_stays_off_the_import_path(tmp_path):
    # Only the grid oracle needs numpy; a fresh interpreter shows what the
    # package and these commands import.
    script = """
import sys
import degreeintervals
from degreeintervals.cli import main
for argv in (["verify", "--mode", "t1", "--nmax", "6"], ["check-seq", "--seq", "3,3,1,1"],
             ["realize", "--seq", "3,1,1,1"], ["extremal", "--n", "4", "--m", "3"]):
    main(argv)
assert "numpy" not in sys.modules, "numpy was imported"
"""
    src = str(Path(degreeintervals.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
