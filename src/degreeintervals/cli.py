"""Command-line front end.

Subcommands: interval, bound, sweep, opt, verify, extremal, peel,
realize, check-seq.  Exit codes are stable across subcommands: 0 for
success (all checks pass), 1 when a verification found a violation, 2 on
invalid arguments or domain errors.  The environment variable
DEGSEQ_MAX_N (default 10) caps the order of enumeration-backed commands.

Human-readable numbers are printed with 6 significant digits and exact
rationals as p/q; the sweep CSV carries full round-trip precision so the
curves can be checked and replotted without loss.
"""

import argparse
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import bounds, extremal, optim, sequences
from .errors import DomainError
from .graphs import format_edge_list, parse_edge_list
from .params import GraphParams

SWEEP_HEADER = "d_over_n,d_plus_over_n,ell_min_over_n"
DEFAULT_SWEEP_DENSITIES = (0.25, 0.5, 0.81)
MAX_SWEEP_STEPS = 10 ** 6  # samples per density; refused above, before any is built


@dataclass
class SweepRow:
    d_over_n: float
    d_plus_over_n: float
    ell_min_over_n: float


def _enumeration_cap() -> int:
    raw = os.environ.get("DEGSEQ_MAX_N", "10")
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"DEGSEQ_MAX_N must be an integer, got {raw!r}") from None


def _rational(text: str) -> Fraction:
    """Argument type of --dplus / --dminus: an exact rational such as 52/5
    or 10.4.  A zero denominator is an argument error like any other bad
    value (Fraction raises ZeroDivisionError, which argparse lets through)."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q} = {float(q):.6g}"


def sweep_rows(density: float, steps: int) -> list:
    """Normalized window-length curve for one density d/n.

    Samples start just above sqrt(d/n) (rounded up to 4 decimals, so e.g.
    0.7072 for d/n = 0.5) and run uniformly to 1; the length minimizer
    (1 + d/n)/2, where the curve equals 1/2, is always included.
    """
    z0 = float(density)
    if not 0.0 < z0 < 1.0:
        raise DomainError(f"d/n must lie in (0, 1), got {z0}")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise DomainError(f"steps must lie in [2, {MAX_SWEEP_STEPS}], got {steps}")
    start = (math.floor(math.sqrt(z0) * 10 ** 4) + 1) / 10 ** 4
    xs = [start + i * (1.0 - start) / (steps - 1) for i in range(steps)]
    xs.append((1.0 + z0) / 2.0)
    xs = sorted(set(xs))
    return [SweepRow(z0, x, bounds.scaled_ell_min(x, z0)) for x in xs]


def write_sweep_csv(rows, fh) -> None:
    fh.write(SWEEP_HEADER + "\n")
    for r in rows:
        fh.write(f"{r.d_over_n!r},{r.d_plus_over_n!r},{r.ell_min_over_n!r}\n")


def read_sweep_csv(path) -> list:
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != SWEEP_HEADER:
        raise ValueError(f"bad sweep header: {lines[0] if lines else ''!r}")
    rows = []
    for ln in lines[1:]:
        a, b, c = ln.split(",")
        rows.append(SweepRow(float(a), float(b), float(c)))
    return rows


def cmd_interval(args) -> int:
    p = GraphParams(args.n, args.m)
    iv = bounds.half_order_interval(p)
    print(f"n = {p.n}  m = {args.m}")
    print(f"average degree d = {_frac(p.d)}")
    print(f"complement average degree = {_frac(p.d_bar)}")
    print(f"interval {iv}  (length {_frac(iv.length)})")
    if 0 < p.d < p.n - 1:
        prof = bounds.extremal_profile(p)
        tag = "realizable" if prof.realizable else "not realizable"
        print(f"extremal profile: clique side {_frac(prof.size_plus)} x degree "
              f"{_frac(prof.deg_plus)}, independent side {_frac(prof.size_minus)} x degree "
              f"{_frac(prof.deg_minus)} ({tag})")
    else:
        print("extremal profile: not defined at degenerate density")
    return 0


def cmd_bound(args) -> int:
    p = GraphParams(args.n, args.m)
    if args.dplus is None and args.dminus is None:
        print("error: bound needs --dplus and/or --dminus", file=sys.stderr)
        return 2
    # Every value is computed before the first line is printed, so a
    # domain error exits 2 with empty stdout.
    lines = [f"n = {p.n}  m = {args.m}  d = {_frac(p.d)}"]
    if args.dplus is not None:
        lines += [f"d_plus  = {float(args.dplus):.6g}",
                  f"d_minus = {bounds.d_minus_bound(p, args.dplus):.6g}",
                  f"ell_min = {bounds.ell_min(p, args.dplus):.6g}"]
    if args.dminus is not None:
        up = bounds.symmetric_d_plus(p, args.dminus)
        lines.append(f"symmetric window for d_minus = {float(args.dminus):.6g}: d_plus = {up:.6g}")
    print("\n".join(lines))
    return 0


def cmd_sweep(args) -> int:
    densities = args.density or list(DEFAULT_SWEEP_DENSITIES)
    rows = []
    for z0 in densities:
        rows.extend(sweep_rows(z0, args.steps))
    if args.out:
        with open(args.out, "w") as fh:
            write_sweep_csv(rows, fh)
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        write_sweep_csv(rows, sys.stdout)
    return 0


def cmd_opt(args) -> int:
    p = GraphParams(args.n, args.m)
    sol = optim.closed_form_solution(p, args.dplus)
    grid = optim.solve_grid(p, args.dplus)
    print(f"closed form: d_minus = {sol.d_minus:.6g}  dbar_plus = {sol.dbar_plus:.6g}"
          f"  x = {sol.x:.6g}  (feasible: {sol.feasible},"
          f" worst residual {sol.worst_residual:.3g})")
    print(f"grid oracle: d_minus = {grid.objective:.6g}")
    print(f"difference : {abs(grid.objective - sol.objective):.3g}")
    return 0


def cmd_verify(args) -> int:
    if args.mode == "opt":
        rows = optim.oracle_summary(args.grid)
        for r in rows:
            flag = "ok" if r.within_tolerance else "FAIL"
            print(f"n={r.params.n} d={_frac(r.params.d)}: max |grid - closed| = {r.worst:.3g} "
                  f"(allowed {r.allowed:.3g}) {flag}")
        ok = all(r.within_tolerance and r.feasible for r in rows)
        print("all cells within tolerance" if ok else "tolerance exceeded")
        return 0 if ok else 1
    cap = min(_enumeration_cap(), sequences.HARD_ORDER_LIMIT)
    if not 2 <= args.nmax <= cap:
        raise DomainError(f"nmax {args.nmax} outside [2, {cap}] (set DEGSEQ_MAX_N; "
                          f"the library limit is {sequences.HARD_ORDER_LIMIT})")
    half_order = args.mode == "t1"
    summarize = sequences.half_order_summary if half_order else sequences.window_summary
    rows = []
    for n in range(2, args.nmax + 1):
        s = summarize(n)
        rows.append(s)
        if half_order:
            print(f"n={n}: {s.sequences} sequences, {s.violations} violations, "
                  f"{s.extremal} extremal, {s.mismatches} profile mismatches")
        else:
            print(f"n={n}: {s.cells} (m, d_plus) cells, {s.violations} violations")
    cells, seqs, violations, _, mismatches, bound_failures = map(sum, zip(*rows))
    if half_order:
        print(f"total: {seqs} sequences, {violations} violations "
              f"({mismatches} profile mismatches)")
    else:
        print(f"total: {cells} cells, {violations} violations, "
              f"{bound_failures} empirical-vs-theory failures")
    return 0 if violations == 0 and bound_failures == 0 else 1


def cmd_extremal(args) -> int:
    if args.dplus is None:
        res = extremal.build_split_extremal(args.n, args.m)
    else:
        res = extremal.build_near_extremal(args.n, args.m, args.dplus)
    sys.stdout.write(format_edge_list(res.graph))
    for key in sorted(res.gap_report):
        print(f"gap {key}: {res.gap_report[key]:.6g}", file=sys.stderr)
    return 0


def cmd_peel(args) -> int:
    text = sys.stdin.read() if args.graph == "-" else Path(args.graph).read_text()
    g = parse_edge_list(text)
    steps = sequences.peel_trace(g)
    print("step vertex degree interval")
    for i, st in enumerate(steps, 1):
        print(f"{i} {st.vertex} {st.degree} {st.interval}")
    return 0


def cmd_realize(args) -> int:
    seq = sequences.parse_sequence(args.seq)
    g = sequences.realize(seq)
    sys.stdout.write(format_edge_list(g))
    return 0


def cmd_check_seq(args) -> int:
    seq = sequences.parse_sequence(args.seq)
    if sequences.is_graphical(seq):
        print(f"{sequences.format_sequence(seq)}: graphical")
        return 0
    print(f"{sequences.format_sequence(seq)}: not graphical")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degreeintervals",
        description="Guaranteed vertex-degree windows around the average degree.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        return sp

    sp = add("interval", cmd_interval, "half-order interval and extremal profile")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)

    sp = add("bound", cmd_bound, "window bounds d_minus / ell_min / symmetric d_plus")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dplus", type=_rational)
    sp.add_argument("--dminus", type=_rational)

    sp = add("sweep", cmd_sweep, "CSV of normalized window-length curves")
    sp.add_argument("density", type=float, nargs="*",
                    help="d/n values (default 0.25 0.5 0.81)")
    sp.add_argument("--steps", type=int, default=100)
    sp.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")

    sp = add("opt", cmd_opt, "closed-form optimum cross-checked by the grid oracle")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dplus", type=_rational, required=True)

    sp = add("verify", cmd_verify, "exhaustive and oracle verification suites")
    sp.add_argument("--mode", choices=("t1", "t2", "opt"), required=True)
    sp.add_argument("--nmax", type=int, default=8)
    sp.add_argument("--grid", choices=("default", "quick"), default="default")

    sp = add("extremal", cmd_extremal, "build boundary / near-boundary graphs")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--dplus", type=_rational, default=None)

    sp = add("peel", cmd_peel, "peeling trace of an edge-list graph file")
    sp.add_argument("graph", help="edge list path, or - for stdin")

    sp = add("realize", cmd_realize, "realize a degree sequence as an edge list")
    sp.add_argument("--seq", required=True, help="comma-separated degrees")

    sp = add("check-seq", cmd_check_seq, "test whether a sequence is graphical")
    sp.add_argument("--seq", required=True, help="comma-separated degrees")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
