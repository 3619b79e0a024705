"""One cold pass of a workload, run in a fresh interpreter.

Usage: python3 perfbench/passrun.py PLAN.json RESULT.json

The plan lists the CLI commands of the pass, each run in turn through
`degreeintervals.cli.main(argv)` with stdout and stderr captured.  The
result records, per command, the exit code, the wall time, the sha256 of
stdout and any error; stdout is also saved to a file when the plan asks,
for checks the parent makes.  With `"trace": true` the layer functions
are wrapped first and their counters are added to the result.

A fresh process per pass starts every pass with empty library caches, as
a user's process does, and lets `ru_maxrss` be read for this pass alone.
"""

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import tracer


class CommandTimeout(BaseException):
    """Raised by the alarm; a BaseException so library handlers let it pass."""


def _one(args, kwargs, value):
    return 1


def _length(args, kwargs, value):
    return len(value)


def _edge_lines(args, kwargs, value):
    return value.count("\n") - 1  # the first line is the "n m" header


def _distinct_args():
    seen = set()

    def count(args, kwargs, value):
        key = (args, tuple(sorted(kwargs.items())))
        if key in seen:
            return 0
        seen.add(key)
        return 1
    return count


# (module, function, name of the extra counter, its increment).  `params`
# is left out: its dataclass is built in hot loops, so its cost is part
# of its callers' self time.
LAYERS = (
    ("cli", "main", None, None),
    ("sequences", "enumerate_graphical", "sequences", _one),
    ("sequences", "graphical_sequences", "distinct", _distinct_args()),
    ("sequences", "verify_half_order", None, None),
    ("sequences", "verify_window", None, None),
    ("sequences", "empirical_d_minus", None, None),
    ("sequences", "window_grid", None, None),
    ("sequences", "peel_trace", "steps", _length),
    ("sequences", "realize", None, None),
    ("sequences", "is_graphical", None, None),
    ("bounds", "d_minus_bound", None, None),
    ("bounds", "opt_value", None, None),
    ("bounds", "half_order_interval", None, None),
    ("optim", "solve_grid", None, None),
    ("optim", "closed_form_solution", None, None),
    ("extremal", "build_split_extremal", None, None),
    ("extremal", "build_near_extremal", None, None),
    ("graphs", "parse_edge_list", None, None),
    ("graphs", "format_edge_list", "edges", _edge_lines),
)


def _on_alarm(signum, frame):
    raise CommandTimeout()


def run_command(cli, argv, timeout_s):
    """Run one command; returns (exit code or None, seconds, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CommandTimeout:
        error = f"timed out after {timeout_s} s"
    except Exception as exc:  # any crash is a failed command, not a failed pass
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, seconds, out.getvalue(), error


def main(plan_path, result_path):
    plan = json.loads(Path(plan_path).read_text())
    import degreeintervals
    from degreeintervals import cli

    tr = None
    missing = []
    if plan["trace"]:
        tr = tracer.Tracer()
        missing = tracer.install(tr, [(mod, fn, count) for mod, fn, _, count in LAYERS])

    signal.signal(signal.SIGALRM, _on_alarm)
    commands, saved = [], {}
    for cmd in plan["commands"]:
        code, seconds, stdout, error = run_command(cli, cmd["argv"], plan["timeout_s"])
        commands.append({
            "name": cmd["name"], "code": code, "seconds": seconds, "error": error,
            "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        })
        if cmd.get("save"):
            saved[cmd["name"]] = stdout
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    out_dir = Path(plan["out_dir"])
    for name, text in saved.items():
        (out_dir / f"{name}.out").write_text(text)
    result = {
        "module_file": degreeintervals.__file__,
        "numpy_version": getattr(sys.modules.get("numpy"), "__version__", None),
        "peak_rss_kb": peak_rss_kb,
        "commands": commands,
        "missing": missing,
        "layers": None if tr is None else {
            name: {"calls": st.calls, "self_s": st.self_s, "extra": st.extra}
            for name, st in tr.stats.items()},
    }
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: passrun.py PLAN.json RESULT.json")
    main(sys.argv[1], sys.argv[2])
