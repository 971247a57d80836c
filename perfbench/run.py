"""Run one tpminors benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-census --seed 1 --seconds 20 --trace 0

The program is driven the way a user drives it, through tpminors.cli.main
with the global flags before the subcommand, from this single process with
no worker threads: a closed loop of one client running the workload's
operations back to back until --seconds have passed.  Every output is
checked by an oracle in workloads.py that does not use tpminors.

--trace 0 reports the end-to-end metrics (medians over the passes of the
run).  --trace 1 reports the per-layer metrics of layers.py, from traced
passes that alternate with untraced ones so that the tracing overhead is
measured in the same run.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it are the same figures for people, with their units and sample
counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
import refclock
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine():
    """nproc, Python version, CPU model and the git commit, where known."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "git": git_sha()}


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_cli():
    """tpminors.cli.main from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import tpminors.cli

    where = Path(tpminors.cli.__file__).resolve().parent
    if where != (SRC / "tpminors").resolve():
        raise SystemExit("perfbench: imported tpminors from %s, not %s" % (where, SRC))
    return tpminors.cli.main


def probe(mode, workload, seed, workdir):
    """The figures probe.py prints for one fresh process (see there)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), mode, workload.name, str(seed), str(workdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return [float(x) for x in proc.stdout.splitlines()[-1].split()]


# ---------------------------------------------------------------------------
# operations


def run_op(main, op, tracer=None):
    """Run one operation: (Timer, problems, wrong output?).

    A crash, a nonzero exit or a rejected output is a failed operation and
    never ends the run.
    """
    op.out.unlink(missing_ok=True)
    call = main if tracer is None else tracer.span("cli." + op.cmd, main)
    timer = refclock.Timer()
    try:
        with timer:
            code = call(op.argv)
    except SystemExit as e:  # argparse rejects an argument list
        code = e.code
    except Exception:  # a crash in the program is recorded, then counted
        traceback.print_exc()
        return timer, ["%s raised" % op.cmd], False
    if code != 0:
        return timer, ["%s exited with code %r" % (op.cmd, code)], False
    try:
        text = op.out.read_text()
    except OSError as e:
        return timer, ["%s wrote no output: %s" % (op.cmd, e)], True
    problems = op.check(text)
    return timer, problems, bool(problems)


class Pass:
    """One run of every operation of a plan, timed in wall and reference
    seconds."""

    def __init__(self, main, plan, tracer=None):
        self.results = [(op, *run_op(main, op, tracer)) for op in plan.ops]
        timers = [r[1] for r in self.results]
        work = [r[1] for r in self.results if plan.work_cmds is None or r[0].cmd in plan.work_cmds]
        self.wall_s = sum(t.wall for t in timers)
        self.ref_s = sum(t.ref for t in timers)
        self.scale = self.ref_s / self.wall_s  # reference seconds per wall second
        self.work_per_s = plan.work / sum(t.ref for t in work)
        self.raw_work_per_s = plan.work / sum(t.wall for t in work)
        self.failed = sum(1 for r in self.results if r[2])
        self.wrong = sum(1 for r in self.results if r[3])
        for op, _, problems, _ in self.results:
            for p in problems:
                print("! %s: %s" % (op.cmd, p))


def timing_passes(passes):
    """The passes to take timing medians over, and whether there are any.

    Only passes in which every operation succeeded count, since an operation
    that fails early would read as a faster pass.  When no pass is clean the
    figures come from all passes and the run is not correct.
    """
    clean = [p for p in passes if not p.failed]
    return (clean, True) if clean else (passes, False)


def tally(passes):
    attempted = sum(len(p.results) for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": not any(p.wrong for p in passes),
            "attempted": attempted, "failed": failed}


def measure(main, plan, seconds, trace=False):
    """Run passes back to back until ``seconds`` have passed, at least one.

    With ``trace`` each untraced pass is paired with a traced one, and the
    pairs alternate which runs first so that the first pass of the process
    does not bias the overhead.  Returns (untraced passes, [(traced pass, its
    tracer)]).
    """
    untraced, traced = [], []
    t0 = time.perf_counter()
    while not untraced or time.perf_counter() - t0 < seconds:
        kinds = (False, True) if len(untraced) % 2 == 0 else (True, False)
        for with_trace in kinds if trace else (False,):
            if with_trace:
                tracer = layers.Tracer()
                with layers.installed(tracer):
                    traced.append((Pass(main, plan, tracer), tracer))
            else:
                untraced.append(Pass(main, plan))
    return untraced, traced


# ---------------------------------------------------------------------------
# the two kinds of run


def timed_run(workload, seed, seconds, workdir):
    setups = [probe("setup", workload, seed, workdir) for _ in range(SETUP_SAMPLES)]
    [peak_rss_mb] = probe("rss", workload, seed, workdir)
    main = load_cli()
    plan = workload.build(seed, workdir)
    passes, _ = measure(main, plan, seconds)
    timed, clean = timing_passes(passes)
    result = tally(passes)
    result["correct"] = result["correct"] and clean
    result["metrics"] = metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "wall_s": statistics.median(p.ref_s for p in timed),
        "work_per_s": statistics.median(p.work_per_s for p in timed),
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(timed)
    rate = "%s_per_s" % plan.work_unit
    rows = [
        ("setup_s", "s", metrics["setup_s"], "reference seconds, median of %d fresh-process "
         "set-ups; wall %.6g s" % (len(setups), statistics.median(w for w, _ in setups))),
        ("wall_s", "s", metrics["wall_s"], "reference seconds, median of %d passes; wall "
         "%.6g s" % (n, statistics.median(p.wall_s for p in timed))),
        ("work_per_s", "1/s", metrics["work_per_s"], "%s per reference second, median of %d "
         "passes" % (plan.work_unit, n)),
        (rate, "1/s", statistics.median(p.raw_work_per_s for p in timed),
         "%s per wall second, median of %d passes" % (plan.work_unit, n)),
        ("peak_rss_mb", "MB", peak_rss_mb, "ru_maxrss of a fresh process that ran one pass"),
    ]
    for name, unit, value, note in rows:
        print("%-12s %14.6g %-4s (%s)" % (name, value, unit, note))
    print("%-12s %14.6g %-4s (%d of %d operations failed)" % (
        "fail_ratio", result["failed"] / result["attempted"], "ratio",
        result["failed"], result["attempted"]))
    return result


def traced_run(workload, seed, seconds, workdir):
    main = load_cli()
    plan = workload.build(seed, workdir)
    untraced, traced = measure(main, plan, seconds, trace=True)
    # The counting pass is set against the untraced pass just before it.
    neighbour = Pass(main, plan)
    counter = layers.Tracer()
    with layers.installed(counter, counters=True):
        counting_pass = Pass(main, plan, counter)

    counts = {k: v for k, v in layers.span_metrics(counter).items() if k in layers.COUNTS}
    metrics, problems = layers.combine(
        [layers.span_metrics(t, p.scale) for p, t in traced],
        {**counts, **layers.counter_metrics(counter, counting_pass.scale)}, plan.expected)
    diffs = [t.ref_s - u.ref_s for u, (t, _) in zip(untraced, traced)]
    metrics["trace.overhead_s"] = statistics.median(diffs)
    metrics["trace.counters_overhead_s"] = counting_pass.ref_s - neighbour.ref_s

    for p in problems:
        print("! tracer: %s" % p)
    print("%-48s %16s  %s" % ("layer metric (%d traced passes)" % len(traced), "value", "unit"))
    for name, unit, _ in layers.LAYER_METRICS:
        print("%-48s %16.6g  %s" % (name, metrics[name], unit))
    print("# trace.overhead_s: median of %d adjacent-pair differences, which range over "
          "%.3g..%.3g s; the tracer recorded %d spans per pass" % (
              len(diffs), min(diffs), max(diffs), len(traced[0][1].spans)))
    for op in plan.ops:
        if op.cmd == "scan" and op.out.is_file():
            print("%-48s %16s  (a checked output, not a metric)" % (
                "analysis.fitted_slope", workloads.parse_scan(op.out.read_text())[1]))
    result = tally(untraced + [p for p, _ in traced] + [neighbour, counting_pass])
    result["correct"] = result["correct"] and not problems
    result["metrics"] = {name: metrics[name] for name, _, _ in layers.LAYER_METRICS}
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tpminors" / "cli.py").is_file():
        print("perfbench: no tpminors sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d machine=%s" % (
        workload.name, args.seed, args.seconds, args.trace, json.dumps(machine())))
    print("# why: %s" % workload.why)
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds, workdir)
    result["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                         for name, value in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def unit_of(name):
    return dict(END_TO_END).get(name) or layers.UNITS[name]


if __name__ == "__main__":
    sys.exit(main())
