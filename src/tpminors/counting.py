"""Exact censuses and counters.

Minor-value censuses, point-line and point-hyperplane incidences, unit-area
axis-parallel rectangle counts, the grid closed form with the divisor
function, and the multiset difference/product algebra with maximum
multiplicity.  Counts are exact integers.  A minor census is a pair (counts, D):
counts[x] minors equal x/D, over one common denominator D > 0; or, for the
d x d minors of a d x n matrix cleared by columns, D is None and counts[(p, q)]
minors equal p/q, a reduced pair with q > 0.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations, tee
from math import gcd, lcm, prod

from .exact import RatMatrix, clear_denominators, det_int, rat


def minor_census(A: RatMatrix, k: int):
    """Exact multiset of all k x k minor values of A, as a pair (counts, D).

    The loops read A's one cleared form, whose lines are rows or columns, as
    A's denominators picked: the census of M^T is the census of M, so
    orientation does not matter.  The shape of the cleared lines picks the
    loop:

    - exactly k wide (the d x d minors of a d x n matrix, cleared by
      columns): each minor v/s has its own scale product s, so D is None and
      counts[(p, q)] is the multiplicity of the value p/q, reduced by
      gcd(v, s) with q > 0 (zero is (0, 1)): one streaming pass over C
      iterators, one det_int per minor and no Fraction;
    - wider: each row tuple adds its integer determinants, scaled to one
      common denominator D > 0 (the lcm of the k-subset scale products), to
      one integer Counter, returned as it is; counts[x] is the multiplicity
      of the value x/D, so the keys sort like the values.
    """
    k = operator.index(k)
    if k < 1:
        raise ValueError("minor order must be a positive integer")
    if k > min(A.rows, A.cols):
        raise ValueError("order %d exceeds matrix dimensions %dx%d" % (k, A.rows, A.cols))
    int_rows, scales, _ = A._cleared
    if len(int_rows[0]) == k:
        # v/s as (v // g, s // g), g = gcd(v, s) > 0 since s > 0: one key per value
        dets, dets_ = tee(map(det_int, combinations(int_rows, k)))
        scale, scale_ = tee(map(prod, combinations(scales, k)))
        g, g_ = tee(map(gcd, dets, scale))
        div = operator.floordiv
        return Counter(zip(map(div, dets_, g), map(div, scale_, g_))), None
    D = lcm(*map(prod, combinations(scales, k)))
    census = Counter()
    for I in combinations(range(len(int_rows)), k):
        factor = D // prod(scales[i] for i in I)
        # each column tuple is a transposed k x k submatrix: the same determinant
        dets = map(det_int, combinations(zip(*(int_rows[i] for i in I)), k))
        # factor 1 (every row scale equal, as on integer input) skips a multiply per minor
        census.update(dets if factor == 1 else map(factor.__mul__, dets))
    return census, D


def _by_value(counts, D):
    """The keys of a (counts, D) census in increasing order of value; pairs
    (p, q) sort on floor(p * 2^K / q), K twice the bit length of the largest
    q, Q: distinct values differ by at least 1/Q^2 > 2^-K, so the floors do too."""
    if D is not None:
        return sorted(counts)
    K = 2 * max((q for _, q in counts), default=1).bit_length()
    return sorted(counts, key=lambda pq: (pq[0] << K) // pq[1])


def count_minors_equal(A: RatMatrix, k: int, t) -> int:
    """Number of k x k minors equal to t."""
    t = rat(t)
    counts, D = minor_census(A, k)
    if D is None:
        return counts[t.numerator, t.denominator]
    return counts[t * D]  # a non-integral t*D is no key: 0


def max_repeated_minor(A: RatMatrix, k: int):
    """(value, multiplicity) of the most repeated minor; ties break to the
    smaller value."""
    counts, D = minor_census(A, k)
    x = max(_by_value(counts, D), key=counts.__getitem__)  # the first, so the smallest
    return (Fraction(*x) if D is None else Fraction(x, D)), counts[x]


# ---------------------------------------------------------------------------
# incidences


def point_line_incidences(cfg) -> int:
    """Exact I(P, L) of an IncidenceConfig ``cfg`` (its points and lines), by
    per-line membership tests."""
    return sum(l.contains(p) for l in cfg.lines for p in cfg.points)


def point_hyperplane_incidences(points, family) -> int:
    """Exact count of (point, hyperplane) incidences over the (I, h) pairs of
    ``hyperplane_family``, each h tested on the points after 1-based index
    max(I), all when I is empty: the pairs of d x d minors on columns I + (k)."""
    # x = X/s lies on a.x = b iff (a, b).(X, -s) == 0: one integer dot product
    pts, _ = clear_denominators([(*map(rat, p), -1) for p in points])
    planes, _ = clear_denominators([h.coeffs + (h.offset,) for _, h in family])
    count = 0
    for (I, _), plane in zip(family, planes):
        for P in pts[max(I, default=0):]:
            if len(P) != len(plane):
                raise ValueError("point dimension %d != %d" % (len(P) - 1, len(plane) - 1))
            count += not sum(map(operator.mul, plane, P))
    return count


# ---------------------------------------------------------------------------
# rectangles and the grid closed form

RECTANGLE_MODES = ("diagonal", "both-diagonals")


def unit_rectangles(points, area, mode: str = "diagonal") -> int:
    """Count axis-parallel rectangles of the given area spanned by point pairs.

    diagonal mode: ordered pairs (p, q) with q strictly up-right of p and
    (q.x - p.x)(q.y - p.y) = area.  both-diagonals additionally counts
    anti-diagonal pairs (dx * dy < 0 with |dx * dy| = area).  With
    denominators cleared the test is dx * dy == T: points are bucketed into
    columns on the axis with fewer distinct values (the count is symmetric in
    x and y); for columns x1 < x2 whose gap dx divides T, each y of x1 is
    looked up as y + T/dx (anti-diagonals: y - T/dx) in x2.  Cost: the column
    pairs at most T apart, plus those lookups; no pair of points is visited.
    """
    if mode not in RECTANGLE_MODES:
        raise ValueError("unknown mode %r" % (mode,))
    area = rat(area)
    if area <= 0:
        raise ValueError("area must be positive")
    points = list(points)
    xs, ys, Lx, Ly = [x for x, _ in points], [y for _, y in points], 1, 1
    if not {*map(type, xs), *map(type, ys)} <= {int}:  # int points are already cleared
        (xs, ys), (Lx, Ly) = clear_denominators(zip(*[(rat(x), rat(y)) for x, y in points]))
    if len(set(zip(xs, ys))) != len(points):
        raise ValueError("points must be distinct")
    # (dx/Lx)(dy/Ly) == area  <=>  dx * dy == area * Lx * Ly
    target, rem = divmod(area.numerator * Lx * Ly, area.denominator)
    if rem:
        return 0
    xs, ys = sorted((xs, ys), key=lambda axis: len(set(axis)))  # x on a tie
    columns = {}
    for x, y in zip(xs, ys):
        columns.setdefault(x, set()).add(y)
    keys = sorted(columns)
    anti = mode == "both-diagonals"
    count = 0
    for i, x1 in enumerate(keys):
        col1 = columns[x1]
        for x2 in keys[i + 1:]:
            dx = x2 - x1
            if dx > target:
                break
            if target % dx:
                continue
            dy = target // dx
            col2 = columns[x2]
            count += sum(y + dy in col2 for y in col1)
            if anti:
                count += sum(y - dy in col2 for y in col1)
    return count


def grid_area_counts(n: int, k: int) -> list:
    """[c_0, ..., c_k]: c_v is the number of area-v axis-parallel rectangles in
    the integer grid [1..n]^2, by one divisor sieve: sides dx, dy <= n-1 with
    dx*dy <= k add (n-dx)(n-dy) placements to c_{dx*dy}; O(k log k) steps.

    c_v equals the multiplicity of value v in the 2x2 minor census of
    grid_matrix(n).
    """
    n, k = operator.index(n), operator.index(k)
    if n < 2:
        raise ValueError("n must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = [0] * (k + 1)
    for dx in range(1, min(k, n - 1) + 1):
        for dy in range(1, min(k // dx, n - 1) + 1):
            counts[dx * dy] += (n - dx) * (n - dy)
    return counts


# ---------------------------------------------------------------------------
# multiset algebra


def as_multiset(values) -> Counter:
    """Embed an iterable of values (multiplicity 1 each unless repeated) or a
    mapping of value to integer multiplicity >= 0 into a rational-keyed multiset;
    a key of multiplicity 0 is still checked, and equal keys ("1/2", "2/4") add up,
    placed where the first of them with a nonzero multiplicity occurs."""
    if not isinstance(values, Mapping):
        return Counter(map(rat, values))
    out = Counter()
    for v, m in values.items():
        i = operator.index(m)
        if i < 0:
            raise ValueError("multiplicity of %s is negative: %d" % (v, i))
        v = rat(v)
        if i:
            out[v] += i
    return out


def _convolve_ints(C, D, op) -> dict:
    """{op(c, d): sum of m(c) m(d)} over (int key, multiplicity) pairs; D is re-read."""
    out = {}  # a plain dict: 3.11 specializes subscripts on exact dicts only
    get = out.get
    for a, mc in C:
        for b, md in D:
            v = op(a, b)
            out[v] = get(v, 0) + mc * md
    return out


def _convolve(C, D, op):
    """(op(C, D) with int keys, L): keys convolved as integers over one common
    denominator L, so a key v stands for v/L in a difference, v/L^2 in a product.
    C and D are multisets as_multiset has already made."""
    (keys,), (L,) = clear_denominators([list(C) + list(D)])
    return _convolve_ints(zip(keys, C.values()), list(zip(keys[len(C):], D.values())), op), L


def multiset_diff(C, D) -> Counter:
    """C - D with convolved multiplicities m(s) = sum m(c) m(d) over c-d=s."""
    out, L = _convolve(as_multiset(C), as_multiset(D), operator.sub)
    return Counter({Fraction(v, L): m for v, m in out.items()})


def multiset_prod(C, D) -> Counter:
    """C * D with convolved multiplicities m(s) = sum m(c) m(d) over c*d=s."""
    out, L = _convolve(as_multiset(C), as_multiset(D), operator.mul)
    return Counter({Fraction(v, L * L): m for v, m in out.items()})


def mu_diff_prod(A, B) -> int:
    """mu((A - A)(B - B)) with no Fraction per key: A - A and B - B stay integer-keyed
    over L_A and L_B, and the product keys are the values times L_A L_B, a bijection."""
    A, B = as_multiset(A), as_multiset(B)  # one rat per token, A's first
    (dA, _), (dB, _) = _convolve(A, A, operator.sub), _convolve(B, B, operator.sub)
    return max(_convolve_ints(dA.items(), dB.items(), operator.mul).values(), default=0)


def mu(C) -> int:
    """Maximum multiplicity of any element; 0 for the empty multiset."""
    C = as_multiset(C)
    return max(C.values(), default=0)


# ---------------------------------------------------------------------------
# census serialization: rows "value,multiplicity" sorted by value


def _census_rows(census):
    """(value text, multiplicity) rows of a (counts, D) census, yielded in
    order of value: p/q, or p when q = 1, with x/D reduced by gcd(x, D)."""
    counts, D = census
    for x in _by_value(counts, D):
        if D is None:
            p, q = x
        else:
            g = gcd(x, D)
            p, q = x // g, D // g
        yield (str(p) if q == 1 else "%d/%d" % (p, q)), counts[x]


def census_to_csv(census, fh) -> None:
    """Write the census to the text file fh, one "value,multiplicity" line per row."""
    for row in _census_rows(census):
        fh.write("%s,%d\n" % row)


def census_to_json(census, fh) -> None:
    """Write the census to fh as json.dumps({"census": rows}) would, row by row:
    a value text holds only digits, "-" and "/", so none needs escaping."""
    fh.write('{"census": [')
    for i, row in enumerate(_census_rows(census)):
        fh.write((', ["%s", %d]' if i else '["%s", %d]') % row)
    fh.write("]}")
