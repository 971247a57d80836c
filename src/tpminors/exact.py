"""Exact rational matrices: determinants, minors, and total-positivity checks.

Every scalar is a reduced ``fractions.Fraction``, so equality of minor values
is a genuine exact predicate.  A matrix holds only its integer lines, cleared
once on the axis its denominators pick; determinants, censuses and minors
read them, and entries are Fractions built on each read.  Floats are rejected.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import accumulate, combinations
from math import gcd, lcm, prod

# the one text form of a rational: an integer or p/q with q != 0, optionally signed
_ENTRY = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def rat(value) -> Fraction:
    """Coerce an int, string ``p/q`` or integer, or Fraction (returned as itself:
    it is immutable) to an exact rational.  Floats and bools are a TypeError;
    decimal, exponent, p/0 and other strings are a ValueError naming the token."""
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        match = _ENTRY.fullmatch(value)
        if match is None:
            raise ValueError("%r is not an integer or p/q" % (value,))
        p, q = match.groups()
        # one argument skips the gcd normalization an integer does not need
        return Fraction(int(p)) if q is None else Fraction(int(p), int(q))
    if isinstance(value, (float, bool)):
        raise TypeError("floating point and bools are not allowed in exact paths: %r" % (value,))
    return Fraction(value)


class RatMatrix:
    """Immutable dense matrix of exact rationals, held only as ``_cleared`` =
    (int lines, scales, by_cols): its rows cleared once, or its columns if a row's
    lcm of denominators exceeds every column's; ``entries`` builds Fractions on read."""

    __slots__ = ("_cleared",)

    def __init__(self, rows):
        data = tuple(tuple(rat(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(data[0])
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        # by_cols iff the largest row lcm exceeds the largest column lcm: full lcms on the
        # shorter lines, running lcms on the longer until one passes (tall: reaches) them
        dens = [[e.denominator for e in r] for r in data]
        tall = len(data) > width
        top = max(lcm(*d) for d in (dens if tall else zip(*dens)))
        by_cols = tall != any(m > top - tall for d in (zip(*dens) if tall else dens)
                              for m in accumulate(d, lcm))
        self._cleared = (*clear_denominators(zip(*data) if by_cols else data), by_cols)

    @classmethod
    def _of(cls, lines, scales, by_cols):
        """The matrix whose cleared form is (lines, scales, by_cols), taken as given."""
        A = cls.__new__(cls)
        A._cleared = lines, scales, by_cols
        return A

    @property
    def rows(self):
        return len(self._cleared[0][0] if self._cleared[2] else self._cleared[0])

    @property
    def cols(self):
        return len(self._cleared[0] if self._cleared[2] else self._cleared[0][0])

    @property
    def entries(self):
        lines, scales, by_cols = self._cleared
        fracs = tuple(tuple(Fraction(v, s) for v in line) for line, s in zip(lines, scales))
        return tuple(zip(*fracs)) if by_cols else fracs

    def _select(self, I, J):
        """A_{I,J} for index tuples already known to be valid."""
        # a line keeps its scale, perhaps above the lcm of the selected entries
        lines, scales, by_cols = self._cleared
        I, J = (J, I) if by_cols else (I, J)
        return RatMatrix._of([[lines[i - 1][j - 1] for j in J] for i in I],
                             [scales[i - 1] for i in I], by_cols)

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "RatMatrix(%r)" % (
            [[str(e) for e in row] for row in self.entries],
        )


# ---------------------------------------------------------------------------
# determinants


def clear_denominators(rows):
    """Scale each row to integers; return (int rows, per-row scale factors)."""
    int_rows = []
    scales = []
    for row in rows:
        m = lcm(*(e.denominator for e in row))
        int_rows.append([e.numerator * (m // e.denominator) for e in row])
        scales.append(m)
    return int_rows, scales


def reduced(p, q):
    """p/q, q != 0, in lowest terms: (p/g, q/g), g = gcd(p, q) signed like q."""
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return p // g, q // g


def _det1(m):
    return m[0][0]


def _det3(m):
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _det4(m):
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    return ((a0*b1 - a1*b0) * (c2*d3 - c3*d2) - (a0*b2 - a2*b0) * (c1*d3 - c3*d1)
            + (a0*b3 - a3*b0) * (c1*d2 - c2*d1) + (a1*b2 - a2*b1) * (c0*d3 - c3*d0)
            - (a1*b3 - a3*b1) * (c0*d2 - c2*d0) + (a2*b3 - a3*b2) * (c0*d1 - c1*d0))


def _det5(m):
    (a0, a1, a2, a3, a4), (b0, b1, b2, b3, b4), (c0, c1, c2, c3, c4), \
        (d0, d1, d2, d3, d4), (e0, e1, e2, e3, e4) = m
    t01, t02, t03, t04 = d0*e1 - d1*e0, d0*e2 - d2*e0, d0*e3 - d3*e0, d0*e4 - d4*e0
    t12, t13, t14, t23 = d1*e2 - d2*e1, d1*e3 - d3*e1, d1*e4 - d4*e1, d2*e3 - d3*e2
    t24, t34 = d2*e4 - d4*e2, d3*e4 - d4*e3
    return ((a0*b1 - a1*b0) * (c2*t34 - c3*t24 + c4*t23)
            - (a0*b2 - a2*b0) * (c1*t34 - c3*t14 + c4*t13)
            + (a0*b3 - a3*b0) * (c1*t24 - c2*t14 + c4*t12)
            - (a0*b4 - a4*b0) * (c1*t23 - c2*t13 + c3*t12)
            + (a1*b2 - a2*b1) * (c0*t34 - c3*t04 + c4*t03)
            - (a1*b3 - a3*b1) * (c0*t24 - c2*t04 + c4*t02)
            + (a1*b4 - a4*b1) * (c0*t23 - c2*t03 + c3*t02)
            + (a2*b3 - a3*b2) * (c0*t14 - c1*t04 + c4*t01)
            - (a2*b4 - a4*b2) * (c0*t13 - c1*t03 + c3*t01)
            + (a3*b4 - a4*b3) * (c0*t12 - c1*t02 + c2*t01))


def _det_bareiss(m):
    n = len(m)
    a = [list(row) for row in m]
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        top = a[k]
        p = top[k]
        # column k below the pivot is never read again, so it is not zeroed
        for i in range(k + 1, n):
            row = a[i]
            r = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - r * top[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


# det_int's kernels: orders 4 and 5 by Laplace along rows 1-2, Bareiss beyond 5
_DET_BY_ORDER = {1: _det1, 3: _det3, 4: _det4, 5: _det5}


def det_int(m):
    """Exact determinant of a square integer matrix, in integers throughout.
    Order 2 is computed here, any other by its own kernel: no order-2 minor pays
    for the locals of another order."""
    if len(m) == 2:
        (a, b), (c, d) = m
        return a * d - b * c
    return _DET_BY_ORDER.get(len(m), _det_bareiss)(m)


def det(M: RatMatrix) -> Fraction:
    """Exact determinant of a square rational matrix, from its cleared rows or columns."""
    lines, scales, _ = M._cleared
    if len(lines) != len(lines[0]):
        raise ValueError("determinant requires a square matrix, got %dx%d" % (M.rows, M.cols))
    return Fraction(det_int(lines), prod(scales))


def minor(A: RatMatrix, I, J) -> Fraction:
    """The minor det(A_{I,J}) for 1-based strictly increasing I, J of equal size."""
    tuples = []
    for name, t, bound in (("row tuple", I, A.rows), ("column tuple", J, A.cols)):
        t = tuple(map(operator.index, t))
        if not t:
            raise ValueError("%s must be nonempty (order-0 minors are not defined)" % name)
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("%s must be strictly increasing: %r" % (name, t))
        if t[0] < 1 or t[-1] > bound:
            raise ValueError("%s out of range 1..%d: %r" % (name, bound, t))
        tuples.append(t)
    I, J = tuples
    if len(I) != len(J):
        raise ValueError("row and column tuples must have equal size: %r vs %r" % (I, J))
    return det(A._select(I, J))


# ---------------------------------------------------------------------------
# total positivity


def _first_nonpositive(A: RatMatrix, orders):
    """The lexicographically first non-positive minor of the given orders, as
    ``(order, I, J, value)``; None when there is none."""
    rows, cols = range(1, A.rows + 1), range(1, A.cols + 1)
    for k in orders:
        for I in combinations(rows, k):
            for J in combinations(cols, k):
                v = det(A._select(I, J))  # subsets of valid ranges: no re-check
                if v <= 0:
                    return k, I, J, v
    return None


def verify_tp(A: RatMatrix, max_order=None):
    """Exhaustively check that all minors of orders 1..max_order are positive.

    max_order defaults to min(rows, cols) (full TP), and may not exceed it.
    Returns None when they are, else the witness ``(order, I, J, value)``: the
    first non-positive minor in lexicographic (order, I, J) order.
    """
    if max_order is None:
        max_order = min(A.rows, A.cols)
    if max_order < 1:
        raise ValueError("max_order must be >= 1, got %d" % max_order)
    if max_order > min(A.rows, A.cols):
        raise ValueError("order %d exceeds matrix dimensions %dx%d" % (max_order, A.rows, A.cols))
    return _first_nonpositive(A, range(1, max_order + 1))


def verify_tp_contiguous(A: RatMatrix):
    """Full total-positivity check that certifies by contiguous (solid) minors.

    By Fekete's solid-minor criterion, positivity of all minors of orders
    1..k on consecutive row and column windows implies that every minor of
    order at most k is positive.  The solid minors are scanned on the cleared
    integer lines of A, whose scales are positive: each has the sign of its
    integer determinant.  When a solid minor of order k fails, every minor
    below order k is positive, and a scan of order k alone names the witness
    verify_tp names: the two results are equal.
    """
    lines = A._cleared[0]
    for k in range(1, min(len(lines), len(lines[0])) + 1):
        if any(det_int([line[s:s + k] for line in lines[r:r + k]]) <= 0
               for r in range(len(lines) - k + 1) for s in range(len(lines[0]) - k + 1)):
            return _first_nonpositive(A, (k,))
    return None


def scale_to_unit(A: RatMatrix, I0, J0) -> RatMatrix:
    """Rescale row 1 so that the designated full-height minor becomes 1.

    Requires |I0| = number of rows and minor(A, I0, J0) > 0; every full-height
    minor scales by the same factor, so TP status is preserved.
    """
    if len(I0) != A.rows:  # minor validates I0 and J0
        raise ValueError("designated minor must be full height (|I0| = rows)")
    m0 = minor(A, I0, J0)
    if m0 <= 0:
        raise ValueError("designated minor must be positive, got %s" % m0)
    first, *rest = A.entries
    return RatMatrix([[e / m0 for e in first], *rest])


# ---------------------------------------------------------------------------
# text format: first line "rows cols", then rows of whitespace-separated
# rationals written as p/q or bare integers; round-trips exactly.


def matrix_to_text(A: RatMatrix) -> str:
    lines = ["%d %d" % (A.rows, A.cols)] + [" ".join(map(str, row)) for row in A.entries]
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> RatMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("first line must be 'rows cols'")
    if not all(t.isascii() and t.isdigit() for t in head):
        raise ValueError("first line must be 'rows cols' as unsigned integers, got %r"
                         % lines[0].strip())
    r, c = int(head[0]), int(head[1])
    if len(lines) != r + 1:
        raise ValueError("expected %d data rows, got %d" % (r, len(lines) - 1))
    rows = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != c:
            raise ValueError("expected %d entries per row, got %d" % (c, len(toks)))
        rows.append(toks)
    return RatMatrix(rows)
