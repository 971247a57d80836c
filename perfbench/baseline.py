"""Repeat the benchmark over seeds and summarise it per workload and metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs perfbench/run.py once per (workload, seed), one run at a time, with the
run length of BENCHMARK.json.  For every end-to-end metric it records the
ten values, their median and quartiles (statistics.quantiles, n=4) and the
spread, the quartile distance as a share of the median, beside the metric's
bound.  With --trace-seed it adds one traced run per workload, whose
per-layer table is stored as printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit("run.py %s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[0]


def summarise(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                   help="inclusive range such as 1-10")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "end_to_end": {}, "operations": {}, "per_layer": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            result, header = run_once(name, seed, spec["run_seconds"], 0)
            runs.append(result)
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
        summary["machine"] = json.loads(header.split("machine=", 1)[1])
        summary["operations"][name] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "all_correct": all(r["correct"] for r in runs)}
        summary["end_to_end"][name] = table = {}
        for metric, bound in bounds.items():
            table[metric] = summarise([r["metrics"][metric]["value"] for r in runs], bound)
            table[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
            row = table[metric]
            print("  %-12s median %-12.6g spread %.4f (bound %.2f, a third %.4f)" % (
                metric, row["median"], row["spread"], bound, bound / 3), flush=True)
        if args.trace_seed is not None:
            result, _ = run_once(name, args.trace_seed, spec["run_seconds"], 1)
            summary["per_layer"][name] = {
                "seed": args.trace_seed, "correct": result["correct"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    text = json.dumps(summary, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
