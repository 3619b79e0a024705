"""Benchmark of the degreeintervals command line, one cold process per pass.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --record-reference

Run from the root of a source checkout; the package is imported from
`src/`.  Every workload is a closed loop with one client: the next
command starts when the previous one returns, nothing runs concurrently.

  halforder-scan  `verify --mode t1 --nmax 11` with DEGSEQ_MAX_N=11.  The
                  half-order guarantee at the edge of exhaustive checking;
                  enumeration dominates and every (n, m) cell is built once.
  window-check    `verify --mode t2 --nmax 10`, then `verify --mode opt
                  --grid default`.  Each (n, m) sequence matrix is re-read
                  once per d_plus, so enumeration acts as a cache being read.
  constructions   `extremal` split (n=1000) and near (n=400, d_plus=300),
                  `peel` of a G(4000, 0.005) graph and `realize` of the
                  degree sequence of a G(1500, 0.05) graph.  No enumeration.

The random graphs come from `random.Random(seed)` and are generated
before timing starts.  A pass runs the workload's commands in a fresh
interpreter (passrun.py), so every pass starts with empty library caches
and its own `ru_maxrss`.  Before each pass, a probe interpreter that only
runs `import degreeintervals` times the set-up, from its start until the
import is done.  Passes repeat for about `--seconds`; every figure is a
median over the run.  Caches are not dropped and CPUs are not pinned;
children run with OPENBLAS_NUM_THREADS=1.

With `--trace 0` the last line of stdout reports setup_s, pass_s and
peak_rss_mb.  With `--trace 1` untraced and traced passes alternate, and it
reports per-layer call counts, self times and extra counts from the
traced passes, plus the tracing overhead.  Lines before the last give
per-command times, failed_frac and the sha256 of each command's stdout.

A command fails if it exits non-zero, raises, times out or fails its
output check.  Scan and `extremal` output must match reference.json byte
for byte (by sha256); `realize` and `peel` output is checked by checks.py.
`--record-reference` rewrites reference.json from the current program.
"""

import argparse
import functools
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import passrun

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

PROBE = "import degreeintervals, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
COMMAND_TIMEOUT_S = 20.0
# Children are killed so that a run always ends well inside 180 s.
HARD_LIMIT_S = 140.0


@dataclass
class Command:
    name: str
    argv: list
    # Takes the command's stdout and returns a list of problems.  None
    # means the stdout must match the reference digest.
    check: object = None


@dataclass
class Workload:
    env: dict
    commands: list


def gnp_edges(n, p, rng):
    """Edges (u, v), u < v, of a G(n, p) graph by geometric skipping."""
    edges = []
    log_q = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def halforder_scan(seed, work):
    return Workload({"DEGSEQ_MAX_N": "11"},
                    [Command("verify_t1", ["verify", "--mode", "t1", "--nmax", "11"])])


def window_check(seed, work):
    return Workload({"DEGSEQ_MAX_N": "10"}, [
        Command("verify_t2", ["verify", "--mode", "t2", "--nmax", "10"]),
        Command("verify_opt", ["verify", "--mode", "opt", "--grid", "default"]),
    ])


def constructions(seed, work):
    rng = random.Random(seed)
    peel_n, peel_edges = 4000, gnp_edges(4000, 0.005, rng)
    graph_path = work / "peel_graph.txt"
    graph_path.write_text("".join(
        [f"{peel_n} {len(peel_edges)}\n"] + [f"{u} {v}\n" for u, v in peel_edges]))
    real_n = 1500
    degrees = [0] * real_n
    for u, v in gnp_edges(real_n, 0.05, rng):
        degrees[u] += 1
        degrees[v] += 1
    return Workload({}, [
        Command("extremal_split", ["extremal", "--n", "1000", "--m", "249750"]),
        Command("extremal_near", ["extremal", "--n", "400", "--m", "39900", "--dplus", "300"]),
        Command("peel", ["peel", str(graph_path)],
                functools.partial(checks.check_peel, n=peel_n, edges=peel_edges)),
        Command("realize", ["realize", "--seq", ",".join(map(str, degrees))],
                functools.partial(checks.check_realize, degrees=degrees)),
    ])


WORKLOADS = {
    "halforder-scan": halforder_scan,
    "window-check": window_check,
    "constructions": constructions,
}


class Runner:
    """Starts probe and pass interpreters one at a time and checks passes."""

    def __init__(self, workload, work, deadline):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        # Bytecode is cached under .work, as a normal install caches it,
        # whatever the caller's environment says.  The package does no BLAS
        # work, but OpenBLAS starts a spinning thread pool on import; on two
        # cores it contends with the main thread and makes set-up bimodal.
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
                        PYTHONPYCACHEPREFIX=str(BENCH_DIR / ".work" / "pycache"), **workload.env)
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        self.problems = []

    def _timeout(self, wanted):
        return max(1.0, min(wanted, self.deadline - time.perf_counter()))

    def probe(self):
        """Seconds for a fresh interpreter to start and import the package.

        The clock stops when the child reports the import done.  `select`
        returns as soon as the line arrives, where a wait with a timeout
        polls the child and rounds its exit up by as much as 50 ms.
        """
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], env=self.env,
                              stdout=subprocess.PIPE) as proc:
            readable, _, _ = select.select([proc.stdout], [], [], self._timeout(60.0))
            seconds = time.perf_counter() - start
            line = proc.stdout.readline() if readable else b""
            if line != b"ready\n":
                proc.kill()
        if line != b"ready\n" or proc.returncode != 0:
            raise SystemExit("set-up probe failed: degreeintervals did not import")
        return seconds

    def run_pass(self, trace):
        """One pass in a fresh interpreter; a dict per pass, see passrun.py."""
        commands = self.workload.commands
        plan_path, result_path = self.work / "plan.json", self.work / "result.json"
        result_path.unlink(missing_ok=True)
        plan_path.write_text(json.dumps({
            "trace": trace, "timeout_s": COMMAND_TIMEOUT_S, "out_dir": str(self.work),
            "commands": [{"name": c.name, "argv": c.argv, "save": c.check is not None}
                         for c in commands],
        }))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "passrun.py"), str(plan_path), str(result_path)],
                env=self.env, capture_output=True, text=True,
                timeout=self._timeout(COMMAND_TIMEOUT_S * len(commands) + 15.0))
            failure = None if proc.returncode == 0 else proc.stderr.strip()[-500:]
        except subprocess.TimeoutExpired:
            failure = "pass process killed at the run's time limit"
        wall = time.perf_counter() - start
        if failure is not None or not result_path.exists():
            self.problems.append(f"pass failed: {failure}")
            return {"pass_s": wall, "peak_rss_kb": None, "layers": None, "missing": [],
                    "commands": [{"name": c.name, "seconds": None, "sha256": None,
                                  "failed": True} for c in commands]}
        result = json.loads(result_path.read_text())
        if not Path(result["module_file"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"degreeintervals imported from {result['module_file']}, "
                             f"not from {SRC}")
        for cmd, res in zip(commands, result["commands"]):
            res["failed"] = self._failed(cmd, res)
        result["pass_s"] = sum(res["seconds"] for res in result["commands"])
        return result

    def _failed(self, cmd, res):
        problems = []
        if res["error"] is not None:
            problems.append(res["error"])
        elif res["code"] != 0:
            problems.append(f"exit code {res['code']}")
        elif cmd.check is None:
            ref = self.reference.get(cmd.name)
            if ref is None or ref["argv"] != cmd.argv:
                problems.append("no reference digest for this command")
            elif ref["sha256"] != res["sha256"]:
                problems.append("stdout differs from the reference")
        else:
            problems.extend(cmd.check((self.work / f"{cmd.name}.out").read_text()))
        self.problems.extend(f"{cmd.name}: {p}" for p in problems)
        return bool(problems)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def command_stats(passes, names):
    """Per-command median seconds, attempts, failures and distinct digests."""
    stats = {}
    for i, name in enumerate(names):
        runs = [p["commands"][i] for p in passes]
        stats[name] = {
            "seconds": median(r["seconds"] for r in runs if not r["failed"]),
            "attempted": len(runs),
            "failed": sum(r["failed"] for r in runs),
            "digests": sorted({r["sha256"] for r in runs if r["sha256"]}),
        }
    return stats


def layer_metrics(passes):
    """Median per-layer counters over traced passes, keyed by metric name."""
    found = {}
    for mod, fn, extra, _ in passrun.LAYERS:
        name = f"{mod}.{fn}"
        per_pass = [p["layers"][name] for p in passes if p["layers"] and name in p["layers"]]
        if not per_pass:
            continue
        found[f"{name}.calls"] = (median(s["calls"] for s in per_pass), "count")
        found[f"{name}.self_s"] = (median(s["self_s"] for s in per_pass), "s")
        if extra:
            found[f"{name}.{extra}"] = (median(s["extra"] for s in per_pass), "count")
        if extra == "distinct":
            found[f"{name}.reuse_ratio"] = (median(
                1 - s["extra"] / s["calls"] if s["calls"] else 0.0 for s in per_pass), "ratio")
    return found


def measure(workload, work, seconds, trace):
    """Probes and passes until `seconds` are used; the loop stops before an
    iteration that would likely end past them, so runs last about `seconds`."""
    start = time.perf_counter()
    runner = Runner(workload, work, start + HARD_LIMIT_S)
    runner.probe()  # warm-up: compiles bytecode and fills the file cache
    probes, untraced, traced, iterations = [], [], [], []
    while not iterations or time.perf_counter() - start + median(iterations) <= seconds:
        began = time.perf_counter()
        probes.append(runner.probe())
        untraced.append(runner.run_pass(trace=False))
        if trace:
            traced.append(runner.run_pass(trace=True))
        iterations.append(time.perf_counter() - began)
    return runner, probes, untraced, traced


def report(name, seed, workload, runner, probes, untraced, traced):
    names = [c.name for c in workload.commands]
    passes = untraced + traced
    cmd = command_stats(passes, names)
    attempted = sum(s["attempted"] for s in cmd.values())
    failed = sum(s["failed"] for s in cmd.values())
    for cname, s in cmd.items():
        if len(s["digests"]) > 1:
            runner.problems.append(f"{cname}: stdout differs between passes of one seed")

    untraced_cmd = command_stats(untraced, names)
    pass_s = median(p["pass_s"] for p in untraced)
    rss = median(p["peak_rss_kb"] for p in untraced) / 1024
    print(f"{name} seed={seed}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{len(probes)} set-up probes, closed loop with one client")
    rows = [("setup_s", median(probes), "s"), ("pass_s", pass_s, "s")]
    rows += [(f"{c}_s", untraced_cmd[c]["seconds"], "s") for c in names]
    rows += [("peak_rss_mb", rss, "MB"),
             ("failed_frac", failed / attempted, f"ratio ({failed} of {attempted})")]
    for metric, value, unit in rows:
        print(f"  {metric:<16} {value:.6g} {unit}")
    for cname, s in cmd.items():
        print(f"  sha256 {cname} {' '.join(s['digests']) or '-'}")
    numpy_version = next((p["numpy_version"] for p in passes if p.get("numpy_version")), "?")
    print(f"  notes: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy_version} seed={seed}; OPENBLAS_NUM_THREADS=1; "
          "caches not dropped, CPUs not pinned; "
          "RSS read only from this benchmark's own child processes")

    if traced:
        metrics = layer_metrics(traced)
        traced_s = median(p["pass_s"] for p in traced)
        metrics["trace_overhead_frac"] = (traced_s / pass_s - 1 if pass_s else 0.0, "ratio")
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<44} {value:.6g} {unit}")
    else:
        metrics = {"setup_s": (median(probes), "s"), "pass_s": (pass_s, "s"),
                   "peak_rss_mb": (rss, "MB")}
    for m in sorted({m for p in traced for m in p["missing"]}):
        print(f"MISSING traced function {m}; its metrics are left out", file=sys.stderr)
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def record_reference(work):
    reference = {}
    for name, build in WORKLOADS.items():
        workload = build(0, work)
        runner = Runner(workload, work, time.perf_counter() + HARD_LIMIT_S)
        result = runner.run_pass(trace=False)
        for cmd, res in zip(workload.commands, result["commands"]):
            if cmd.check is not None:
                continue
            if res.get("code") != 0:
                raise SystemExit(f"{name}/{cmd.name} failed: {res}")
            reference[cmd.name] = {"argv": cmd.argv, "sha256": res["sha256"]}
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {len(reference)} digests to {REFERENCE}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not (SRC / "degreeintervals" / "__init__.py").is_file():
        sys.exit(f"no package source under {SRC}")
    if not args.record_reference and args.workload is None:
        ap.error("--workload is required")

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=BENCH_DIR / ".work"))
    try:
        if args.record_reference:
            record_reference(work)
            return
        workload = WORKLOADS[args.workload](args.seed, work)
        runner, probes, untraced, traced = measure(workload, work, args.seconds, bool(args.trace))
        report(args.workload, args.seed, workload, runner, probes, untraced, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
