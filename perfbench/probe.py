"""Measure one fresh-process run of a benchmark workload.

    python3 perfbench/probe.py setup <workload> <seed> <workdir>
    python3 perfbench/probe.py rss <workload> <seed> <workdir>

Both modes import the tpminors CLI from this checkout's sources and generate
and write the workload's input files.  ``setup`` prints the wall and the
reference seconds that took (see refclock.py; the timing module is imported
before the clock starts).  ``rss`` then runs each of the workload's
operations once, with no oracle, and prints the process's peak resident set
size in MB.
"""

import resource
import sys
from pathlib import Path

import refclock

mode, name, seed, workdir = sys.argv[1:]
if mode not in ("setup", "rss"):
    sys.exit("probe.py: mode must be setup or rss, not %r" % mode)
with refclock.Timer() as timer:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import tpminors.cli
    import workloads

    plan = workloads.WORKLOADS[name].build(int(seed), workdir)
if mode == "setup":
    print(timer.wall, timer.ref)
else:
    for op in plan.ops:
        try:
            tpminors.cli.main(op.argv)
        except (Exception, SystemExit):  # failures are counted by run.py's own passes
            pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
