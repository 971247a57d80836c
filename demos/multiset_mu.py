#!/usr/bin/env python3
"""Difference/product multisets and the maximum multiplicity.

Counting repeated 2x2 minors of a grid-style matrix is the same as asking
how often a value repeats in (A-A)*(B-B) with convolved multiplicities.
This script measures the maximum multiplicity over nonzero elements for
A = B = [1..n] (the zero element is degenerate: it collects all zero-area
rectangles and grows cubically) and compares it with n^(8/3).
"""

from tpminors import mu, multiset_diff, multiset_prod
from tpminors.counting import as_multiset


def mu_nonzero(C):
    """Maximum multiplicity over the nonzero elements of a Counter."""
    return max((m for v, m in C.items() if v != 0), default=0)


d = multiset_diff([1, 2], [1, 2])
print("A = B = {1, 2}: (A-A)*(B-B) =", dict(multiset_prod(d, d)))
print("mu =", mu(multiset_prod(d, d)))
print()
print("   n   mu_nonzero   n^(8/3)   ratio")
for n in (5, 10, 20, 40, 60):
    A = as_multiset(range(1, n + 1))
    S = multiset_prod(multiset_diff(A, A), multiset_diff(A, A))
    m = mu_nonzero(S)
    bound = n ** (8 / 3)
    print("%4d   %10d   %7.0f   %.3f" % (n, m, bound, m / bound))
