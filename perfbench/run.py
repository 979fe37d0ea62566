"""The torscat benchmark: run the CLI as a user would and check every answer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Load shape: a closed loop with one client.  Each command runs in a fresh
interpreter (perfbench/child.py), one at a time; a pass runs the workload's
commands in order, and passes repeat while one more brings the run's length
closer to ``--seconds`` (at least one always runs).  Every command's output
is parsed and compared with the golden counts in workloads.py; a command
fails if it exits nonzero, raises, times out or prints a count that differs.

With ``--trace 0`` the end-to-end metrics are reported, as medians over the
passes:
  wall_s       time spent inside ``torscat.cli.main``, summed over the
               pass's commands: the time to a verified answer;
  setup_s      ``import torscat.cli`` time in a fresh interpreter (median of
               every import in the run, probes included) times the number of
               commands: what the workload's CLI calls pay before working;
  peak_rss_mb  the largest peak RSS among the pass's commands.
With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of tracer.py are reported, with ``fail_ratio``,
``trace.overhead_ratio`` (traced over untraced wall time, minus one) and
``trace.covered_ratio`` (share of ``main`` inside some layer span).

The last line of standard output is the result; the line before it stamps
the run (git sha, Python and numpy versions, kernel backend, cores, seed).
A fuller record, with each command's counts and the traced call tree, goes
to ``--out`` (default: .perfbench_out/ in the checkout).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 3
RUN_LIMIT_S = 165  # a run must end within 180 s


def git_sha():
    cmd = ["git", f"--git-dir={os.path.join(ROOT, '.git')}", "rev-parse", "HEAD"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Runner:
    """Runs child interpreters and checks their answers; counts attempts and failures."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def child(self, trace, argv):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return {"error": "no time left in the run"}
        cmd = [sys.executable, CHILD, ROOT, "1" if trace else "0", *argv]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return json.loads(lines[-1])

    def command(self, command, argv, trace):
        report = self.child(trace, argv)
        self.attempted += 1
        error = report.get("error")
        if error is None and report["rc"] != 0:
            rc = report["rc"]  # an exit code, or the traceback of an exception
            error = rc if isinstance(rc, str) else f"exit code {rc}"
        counts = command.counts(report.get("stdout", ""))
        if error is None and counts != command.expect:
            error = f"counts {counts} differ from {command.expect}"
        if error:
            self.failed += 1
            print(f"perfbench: FAILED {command.label()}: {error}", file=sys.stderr)
        return {**report, "command": command.label(), "counts": counts, "error": error}

    def rounds(self, commands, argvs, seconds, modes):
        """Passes over the commands, one per trace mode in each round, in as
        many rounds as bring the total nearest ``seconds``; {mode: passes}."""
        out = {mode: [] for mode in modes}
        start = time.monotonic()
        for n in itertools.count(1):
            for mode in modes:
                out[mode].append([self.command(c, a, mode) for c, a in zip(commands, argvs)])
            elapsed = time.monotonic() - start
            mean = elapsed / n
            if elapsed + mean / 2 > seconds or time.monotonic() + mean > self.deadline:
                return out


def _ok(runs):
    return [p for p in runs if not any(r["error"] for r in p)]


def _wall(p):
    return sum(r["main_s"] for r in p)


def end_to_end(runner, commands, argvs, seconds):
    probes = [runner.child(False, []) for _ in range(SETUP_PROBES)]
    runs = runner.rounds(commands, argvs, seconds, modes=(False,))[False]
    imports = [r["import_s"] for r in probes + [r for p in runs for r in p] if "import_s" in r]
    good = _ok(runs)
    metrics = {}
    if imports:
        metrics["setup_s"] = len(commands) * statistics.median(imports)
    if good:
        metrics["wall_s"] = statistics.median(_wall(p) for p in good)
        metrics["peak_rss_mb"] = statistics.median(max(r["rss_kb"] for r in p) for p in good) / 1024
    return metrics, runs


def per_layer(runner, commands, argvs, seconds):
    from tracer import layer_metrics, merge

    runs = runner.rounds(commands, argvs, seconds, modes=(False, True))
    base, traced = runs[False], runs[True]
    per_pass = [layer_metrics(merge(r["trace"] for r in p)) for p in _ok(traced)]
    metrics = {}
    for name in set().union(*per_pass):
        values = [m[name] for m in per_pass if name in m]
        if len(values) == len(per_pass):
            metrics[name] = statistics.median(values)
    if per_pass and _ok(base):
        metrics["trace.overhead_ratio"] = (
            statistics.median(_wall(p) for p in _ok(traced)) / statistics.median(_wall(p) for p in _ok(base)) - 1
        )
    metrics["fail_ratio"] = runner.failed / runner.attempted
    return metrics, base + traced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="where to write the full record (JSON)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "torscat", "cli.py")):
        print(f"perfbench: no torscat sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT_DIR, exist_ok=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the seeded inputs are built with torscat itself
    commands = WORKLOADS[args.workload]
    argvs = [c.resolve(args.seed, OUT_DIR) for c in commands]

    runner = Runner(deadline=time.monotonic() + RUN_LIMIT_S)
    warm = runner.child(False, [])  # byte-compiles and fills the page cache; not timed
    if "error" in warm:
        print(f"perfbench: cannot import torscat: {warm['error']}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    metrics, runs = measure(runner, commands, argvs, args.seconds)

    stamp = {
        "git_sha": git_sha(),
        "python": warm["python"],
        "numpy": warm["numpy"],
        "backend": warm["backend"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: not measured in this run: {', '.join(missing)}", file=sys.stderr)
    result = {
        # a per-layer metric may be absent when the code it wraps is gone
        "correct": runner.failed == 0 and (args.trace == 1 or not missing),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in metrics
        },
    }
    record = {
        "stamp": stamp,
        "result": result,
        "all_metrics": metrics,
        "argv": argvs,
        "absent": sorted({a for p in runs for r in p for a in r.get("trace", {}).get("absent", [])}),
        "passes": [[{k: v for k, v in r.items() if k not in ("stdout", "trace")} for r in p] for p in runs],
    }
    out = args.out or os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
    print("stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
