#!/usr/bin/env python3
"""The grid matrix / rectangle dictionary.

The n x n grid matrix (entries: decreasing row offset + column index) is
TP_2, and each of its 2x2 minors equals the area of an axis-parallel
rectangle in the integer grid [1..n]^2.  So the minor-value census, the
rectangle counter, and the divisor sieve's closed-form counts must all agree
-- and the most repeated minor is driven by the divisor function.
"""

from tpminors import (
    grid_area_counts,
    grid_matrix,
    max_repeated_minor,
    minor_census,
    unit_rectangles,
    verify_tp,
)


def divisor_count(k):
    return sum(k % d == 0 for d in range(1, k + 1))


def best_k(n):
    """The k <= n/2 with the most divisors (the smallest on ties), and that count."""
    k = max(range(1, n // 2 + 1), key=divisor_count)  # max keeps the first maximum
    return k, divisor_count(k)


n = 8
G = grid_matrix(n)
print("grid matrix n=%d, TP_2: %s" % (n, verify_tp(G, 2) is None))

counts, D = minor_census(G, 2)  # the census of x/D: integer entries give D = 1
pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
areas = grid_area_counts(n, (n - 1) ** 2)  # every area a rectangle can have
print("value  census  rectangles  closed-form")
for k in sorted(counts)[:10]:
    print("%5d  %6d  %10d  %11d"
          % (k, counts[k], unit_rectangles(pts, k), areas[k]))

value, count = max_repeated_minor(G, 2)
print("most repeated minor: value %s with multiplicity %d" % (value, count))

print()
print("the divisor function drives the best area:")
for n in (20, 50, 100):
    k, d = best_k(n)
    print("  n=%3d  best k<=n/2 by div: k=%d (div=%d), area-k rectangles: %d"
          % (n, k, d, grid_area_counts(n, k)[k]))
