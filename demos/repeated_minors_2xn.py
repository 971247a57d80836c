#!/usr/bin/env python3
"""From an extremal point-line configuration to a 2xn TP matrix with many
repeated minors.

Walks the whole lower-bound pipeline: build the grid-points/low-slope-lines
family, canonicalize it with an exact projective map, attach one mate point
per line, and assemble the slope-sorted 2xn matrix.  Every incidence turns
into a 2x2 minor equal to 1, and the unit-minor count grows like n^(4/3).
"""

from tpminors import (
    RunConfig,
    assemble_tp_2xn,
    canonicalize_config,
    check_constraints,
    count_minors_equal,
    elekes_config,
    point_line_incidences,
    scan_exponent,
    verify_tp,
)

for N in (2, 3, 4):
    cfg = elekes_config(N)
    print("N=%d: %d points, %d lines, %d incidences"
          % (N, len(cfg.points), len(cfg.lines), point_line_incidences(cfg)))

    canonical = canonicalize_config(cfg, seed=7)
    assert check_constraints(canonical) == []
    assert point_line_incidences(canonical) == point_line_incidences(cfg)

    A = assemble_tp_2xn(canonical)
    units = count_minors_equal(A, 2, 1)
    print("  assembled 2x%d matrix, TP: %s, unit 2x2 minors: %d (>= N^4 = %d)"
          % (A.cols, verify_tp(A) is None, units, N ** 4))

print()
print("log-log slope of unit-minor count vs matrix width (expect ~4/3):")
report = scan_exponent(RunConfig("elekes-2xn", (2, 3, 4, 5), seed=42))
for row in report.rows:
    print("  n=%4d  count=%d" % (row.size, row.count))
print("  fitted slope %.4f (reference %.4f)" % (report.fitted_slope, report.bound_slope))
