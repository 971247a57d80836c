"""Per-layer tracing of tpminors from outside the program.

The program's modules import names directly (analysis binds
canonicalize_config, assemble_tp_2xn and count_minors_equal; counting binds
det_int; constructions binds verify_tp, verify_tp_contiguous and det), so a
wrapper is installed at every module attribute a caller reads, and removed
again when the traced pass ends.  Each wrapper records a span (name, start,
end, parent) in memory.  The per-minor functions det_int and det get
counters, not spans, and only in a separate counting pass, so their cost
stays out of the span timings.

Spans are timed with refclock.now, which leaves out the speed samples taken
inside them, and are reported in reference seconds: scaled by the ratio of
reference to wall time of the pass they belong to.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import comb

import refclock

SCAN_SIZES = (2, 3, 4, 5)
CLI_CMDS = ("scan", "census", "verify", "rects", "mu")

# (module, attribute read by the caller, span name)
SPAN_SITES = (
    ("exact", "matrix_from_text", "exact.matrix_from_text"),  # cli
    ("exact", "verify_tp", "exact.verify_tp"),  # cli
    ("exact", "verify_tp_contiguous", "exact.verify_tp_contiguous"),  # cli
    ("constructions", "verify_tp", "exact.verify_tp"),  # assemble_tp_2xn
    ("constructions", "verify_tp_contiguous", "exact.verify_tp_contiguous"),
    ("constructions", "check_constraints", "constructions.check_constraints"),
    ("analysis", "elekes_config", "constructions.elekes_config"),
    ("analysis", "canonicalize_config", "constructions.canonicalize_config"),
    ("analysis", "assemble_tp_2xn", "constructions.assemble_tp_2xn"),
    ("counting", "minor_census", "counting.minor_census"),  # cli, count_minors_equal
    ("counting", "census_to_csv", "counting.census_to_csv"),
    ("counting", "unit_rectangles", "counting.unit_rectangles"),
    ("counting", "multiset_diff", "counting.multiset_diff"),
    ("counting", "multiset_prod", "counting.multiset_prod"),
    ("counting", "mu", "counting.mu"),
    ("analysis", "scan_exponent", "analysis.scan_exponent"),  # cli
)


def _census_note(args, result):
    census = result[0] if isinstance(result, tuple) else result
    return sum(census.values()), len(census)


# What a span keeps from its call, read after the span has ended.
NOTES = {
    "constructions.elekes_config": lambda args, result: args[0],  # N
    "constructions.canonicalize_config": lambda args, result: True,  # accepted
    "counting.minor_census": _census_note,  # (minors, distinct values)
    "counting.unit_rectangles": lambda args, result: comb(len(args[0]), 2),  # pairs
}

TIMED = (
    "exact.matrix_from_text", "exact.verify_tp", "exact.verify_tp_contiguous",
    "constructions.elekes_config", "constructions.canonicalize_config",
    "constructions.check_constraints", "counting.minor_census", "counting.census_to_csv",
    "counting.unit_rectangles", "counting.multiset_diff", "counting.multiset_prod",
    "counting.mu", "analysis.scan_exponent",
)

# Every per-layer metric, with its unit and which way is better.
LAYER_METRICS = (
    ("exact.det_int.calls", "count", "lower"),
    ("exact.det_int.order2.calls", "count", "lower"),
    ("exact.det_int.order5.calls", "count", "lower"),
    ("exact.det_int.max_bits", "bits", "lower"),
    ("exact.det.calls", "count", "lower"),
    ("exact.det.s", "s", "lower"),
    ("exact.verify_tp.s", "s", "lower"),
    ("exact.verify_tp_contiguous.s", "s", "lower"),
    ("exact.matrix_from_text.s", "s", "lower"),
    ("constructions.elekes_config.s", "s", "lower"),
    ("constructions.canonicalize_config.s", "s", "lower"),
    ("constructions.canonicalize_config.attempts", "count", "lower"),
    ("constructions.canonicalize_config.accept_ratio", "ratio", "higher"),
    ("constructions.check_constraints.calls", "count", "lower"),
    ("constructions.check_constraints.s", "s", "lower"),
    ("constructions.assemble_tp_2xn.self_s", "s", "lower"),
    ("counting.minor_census.s", "s", "lower"),
    ("counting.minor_census.minors", "count", "lower"),
    ("counting.minor_census.distinct", "count", "lower"),
    ("counting.minor_census.ns_per_minor", "ns", "lower"),
    ("counting.census_to_csv.s", "s", "lower"),
    ("counting.unit_rectangles.s", "s", "lower"),
    ("counting.unit_rectangles.pairs", "count", "lower"),
    ("counting.unit_rectangles.ns_per_pair", "ns", "lower"),
    ("counting.multiset_diff.s", "s", "lower"),
    ("counting.multiset_prod.s", "s", "lower"),
    ("counting.mu.s", "s", "lower"),
    ("analysis.scan_exponent.s", "s", "lower"),
) + tuple(("analysis.scan.N%d.s" % n, "s", "lower") for n in SCAN_SIZES) + tuple(
    ("cli.%s.self_s" % cmd, "s", "lower") for cmd in CLI_CMDS) + (
    ("trace.overhead_s", "s", "lower"),
    ("trace.counters_overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
# Work counters must repeat exactly between passes on the same input.
COUNTS = tuple(name for name, unit, _ in LAYER_METRICS if unit in ("count", "bits"))


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, note]
        self.stack = []
        self.counts = Counter()
        self.det_int_orders = Counter()
        self.max_bits = 0
        self.det_s = 0.0

    def span(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, refclock.now

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def count_det_int(self, fn):
        orders = self.det_int_orders

        def counted(m):
            orders[len(m)] += 1
            bits = max(abs(x).bit_length() for row in m for x in row)
            if bits > self.max_bits:
                self.max_bits = bits
            return fn(m)

        return counted

    def time_det(self, fn):
        clock = refclock.now

        def timed(M):
            t0 = clock()
            try:
                return fn(M)
            finally:
                self.det_s += clock() - t0
                self.counts["exact.det.calls"] += 1

        return timed


@contextmanager
def installed(tracer, counters=False):
    """Wrap every lookup site for the duration of the block.

    ``counters`` adds the per-minor det_int and det counters.  The attempt
    counter (one det_int3 call per canonicalization attempt) is always on:
    it runs at most a few dozen times per pass.
    """
    from tpminors import analysis, constructions, counting, exact

    modules = {"analysis": analysis, "constructions": constructions,
               "counting": counting, "exact": exact}
    sites = [(modules[m], attr, lambda f, n=name: tracer.span(n, f, NOTES.get(n)))
             for m, attr, name in SPAN_SITES]
    sites.append((constructions, "det_int3",
                  lambda f: tracer.count("constructions.canonicalize_config.attempts", f)))
    if counters:
        sites += [(counting, "det_int", tracer.count_det_int),
                  (exact, "det", tracer.time_det),
                  (constructions, "det", tracer.time_det)]
    saved = []
    try:
        for module, attr, wrap in sites:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, wrap(original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def span_metrics(tracer, scale=1.0):
    """Per-layer times and work counts of one traced pass; ``scale`` turns
    the span clock's seconds into reference seconds."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, note in spans:
        if parent is not None:
            covered[parent] += (end - start) * scale
    total, self_time, calls = Counter(), Counter(), Counter()
    notes = defaultdict(list)
    for i, (name, start, end, parent, note) in enumerate(spans):
        total[name] += (end - start) * scale
        self_time[name] += (end - start) * scale - covered[i]
        calls[name] += 1
        if note is not None:
            notes[name].append(note)

    m = {name + ".s": total[name] for name in TIMED}
    attempts = tracer.counts["constructions.canonicalize_config.attempts"]
    accepted = len(notes["constructions.canonicalize_config"])
    m["constructions.canonicalize_config.attempts"] = attempts
    m["constructions.canonicalize_config.accept_ratio"] = accepted / attempts if attempts else 0.0
    m["constructions.check_constraints.calls"] = calls["constructions.check_constraints"]
    m["constructions.assemble_tp_2xn.self_s"] = self_time["constructions.assemble_tp_2xn"]

    minors = sum(n for n, _ in notes["counting.minor_census"])
    m["counting.minor_census.minors"] = minors
    m["counting.minor_census.distinct"] = sum(d for _, d in notes["counting.minor_census"])
    m["counting.minor_census.ns_per_minor"] = (
        total["counting.minor_census"] / minors * 1e9 if minors else 0.0)
    pairs = sum(notes["counting.unit_rectangles"])
    m["counting.unit_rectangles.pairs"] = pairs
    m["counting.unit_rectangles.ns_per_pair"] = (
        total["counting.unit_rectangles"] / pairs * 1e9 if pairs else 0.0)

    # A size's scan time runs from its elekes_config call to the next size's,
    # or to the end of the enclosing scan_exponent.
    for n in SCAN_SIZES:
        m["analysis.scan.N%d.s" % n] = 0.0
    starts = [s for s in spans if s[0] == "constructions.elekes_config"]
    for this, nxt in zip(starts, starts[1:] + [None]):
        if nxt is not None and nxt[3] == this[3]:
            end = nxt[1]
        else:
            end = spans[this[3]][2] if this[3] is not None else this[2]
        key = "analysis.scan.N%d.s" % this[4]
        if key in m:
            m[key] += (end - this[1]) * scale

    for cmd in CLI_CMDS:
        m["cli.%s.self_s" % cmd] = self_time["cli." + cmd]
    return m


def counter_metrics(tracer, scale=1.0):
    """Per-minor counters of the counting pass; ``scale`` as in span_metrics."""
    orders = tracer.det_int_orders
    return {
        "exact.det_int.calls": sum(orders.values()),
        "exact.det_int.order2.calls": orders[2],
        "exact.det_int.order5.calls": orders[5],
        "exact.det_int.max_bits": tracer.max_bits,
        "exact.det.calls": tracer.counts["exact.det.calls"],
        "exact.det.s": tracer.det_s * scale,
    }


def combine(span_passes, counter_pass, expected):
    """Median each timed metric over the span passes and check the counters.

    Returns (metrics, problems).  A counter that differs between passes on
    the same input, or from its closed form in ``expected``, is a tracer
    fault and is reported as a problem.
    """
    problems = []
    metrics = {}
    for name in span_passes[0]:
        values = [p[name] for p in span_passes]
        if name in COUNTS:
            if len(set(values)) > 1:
                problems.append("%s differs between traced passes: %r" % (name, values))
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    for name, value in counter_pass.items():
        if name in COUNTS and name in metrics and metrics[name] != value:
            problems.append("%s: %r in the counting pass, %r in span passes"
                            % (name, value, metrics[name]))
        metrics.setdefault(name, value)
    for name, value in expected.items():
        if metrics.get(name) != value:
            problems.append("%s = %r, closed form %r" % (name, metrics.get(name), value))
    return metrics, problems
