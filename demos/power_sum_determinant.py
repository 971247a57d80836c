#!/usr/bin/env python3
"""The power-sum determinant identity.

Matrices with entries (b_i + a_j)^(k-1), for increasing positive a and
decreasing positive b, have a fully factored determinant: a product of
binomial coefficients times all pairwise differences.  Every k x k minor of
the larger n x n family is positive, which for k = 2 yields TP_2 matrices.
"""

import random
from fractions import Fraction

from tpminors import (
    det,
    minor_census,
    power_sum_det_closed_form,
    power_sum_matrix,
)

print("worked 3x3 instance:")
A = power_sum_matrix((1, 2, 3), (3, 2, 1), 3)
for row in A.entries:
    print("  ", [int(e) for e in row])
print("det =", det(A), " closed form =", power_sum_det_closed_form((1, 2, 3), (3, 2, 1), 3))

print()
print("random rational instances (exact equality, no tolerance):")
rng = random.Random(0)
for k in range(2, 7):
    vals = set()
    while len(vals) < 2 * k:
        vals.add(Fraction(rng.randint(1, 99), rng.randint(1, 9)))
    vals = sorted(vals)
    a, b = vals[:k], list(reversed(vals[k:]))
    lhs = det(power_sum_matrix(a, b, k))
    rhs = power_sum_det_closed_form(a, b, k)
    print("  k=%d  det == closed form: %s   (value %s)" % (k, lhs == rhs, lhs))

print()
print("minor positivity of the rectangular family (k x k minors, k=3):")
A = power_sum_matrix(range(1, 9), (3, 2, 1), 3)
counts, D = minor_census(A, 3)  # the census of x/D with D > 0: x has the sign of x/D
print("  3x8 matrix: %d minors of order 3, all positive: %s"
      % (sum(counts.values()), all(x > 0 for x in counts)))
