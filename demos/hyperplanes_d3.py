#!/usr/bin/env python3
"""Unit minors of a d x n TP matrix as point-hyperplane incidences (d = 3).

For each (d-1)-tuple I of columns, the cofactor hyperplane at level 1 passes
through exactly those later columns p_k whose d x d minor on I + (k) equals 1.
The family is pairwise distinct and its incidence graph with the columns is
K_{d,2}-free, which is what caps the number of repeated minors.
"""

from itertools import combinations

from tpminors import (
    count_minors_equal,
    hyperplane_family,
    point_hyperplane_incidences,
    power_sum_matrix,
    scale_to_unit,
)


def kd2_free(points, planes):
    """True when no d points lie on two planes of the family."""
    d = planes[0].dim
    incident = [{i for i, p in enumerate(points) if h.contains(p)} for h in planes]
    return all(len(a & b) < d for a, b in combinations(incident, 2))


A = power_sum_matrix(range(1, 9), (3, 2, 1), 3)   # TP 3x8
A = scale_to_unit(A, (1, 2, 3), (1, 2, 3))        # force at least one unit minor

fam = hyperplane_family(A, 1)
print("3x%d TP matrix -> %d cofactor hyperplanes (pairwise distinct)"
      % (A.cols, len(fam)))

pts = list(zip(*A.entries))
ordered = point_hyperplane_incidences(pts, fam)
brute = count_minors_equal(A, 3, 1)
print("ordered incidences at level 1: %d" % ordered)
print("unit 3x3 minors: %d" % brute)
print("equal: %s" % (ordered == brute))

print("incidence graph K_{3,2}-free: %s" % kd2_free(pts, [h for _, h in fam]))
