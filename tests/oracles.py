"""Reference helpers that only the tests read: slow, obviously correct
checks and small number-theory functions that serve as oracles for the
package's counters.  No CLI command or scan family calls them, so they live
here rather than in ``tpminors``.

- ``dual_line``: the dual line of a point, against which unit 2x2 minors
  are point-line incidences;
- ``verify_no_Kd2``: the K_{d,2}-freeness of a point-hyperplane incidence
  graph, by a pair scan over the planes;
- ``divisor_count``: the divisor function behind the grid rectangle lower
  bound;
- ``grid_area_k_count``: the number of area-k rectangles in the integer
  grid, as one sum over the divisors of k, against which the sieve
  ``grid_area_counts`` is checked area by area.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import isqrt

from tpminors.constructions import Line2, Point2


def dual_line(p: Point2) -> Line2:
    """Dual line of p=(a,b): {(x,y) : a*y - b*x = 1}.

    q lies on it iff det of the 2x2 matrix with columns p, q equals 1.
    Requires both coordinates nonzero (entries of a TP matrix always are).
    """
    if p.x == 0 or p.y == 0:
        raise ValueError("dual line requires both coordinates nonzero: %r" % (p,))
    # a*y - b*x = 1  ->  y = (b/a) x + 1/a
    return Line2(p.y / p.x, Fraction(1, 1) / p.x)


def verify_no_Kd2(points, planes):
    """Check that no d points lie on two planes of the family.

    Returns None when none do, else the witness (point indices, (plane index
    a, b)): the first such pair a < b and the d smallest points on both.
    """
    if not planes:
        return None
    d = planes[0].dim
    incident = [frozenset(i for i, p in enumerate(points) if h.contains(p)) for h in planes]
    for a, b in combinations(range(len(planes)), 2):
        common = incident[a] & incident[b]
        if len(common) >= d:
            return tuple(sorted(common))[:d], (a, b)
    return None


def divisor_count(k: int) -> int:
    """div(k): number of positive divisors, by trial division."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    r = isqrt(k)
    for d in range(1, r + 1):
        if k % d == 0:
            total += 2
    if r * r == k:
        total -= 1
    return total


def grid_area_k_count(n: int, k: int) -> int:
    """Closed form for the number of area-k axis-parallel rectangles in the
    integer grid [1..n]^2: sum over divisor pairs dx*dy = k with dx, dy <=
    n-1 of (n-dx)(n-dy).

    Equals the multiplicity of value k in the 2x2 minor census of
    grid_matrix(n).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    total = 0
    for dx in range(1, min(k, n - 1) + 1):
        if k % dx == 0:
            dy = k // dx
            if dy <= n - 1:
                total += (n - dx) * (n - dy)
    return total
