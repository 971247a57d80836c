"""Builders for the extremal objects: mate points, incidence
configurations and their canonicalization, the assembled 2xn TP matrix,
power-sum matrices with a closed-form determinant, grid matrices, and
cofactor hyperplane families.

Everything here is exact; configurations carry non-vertical lines in
slope-intercept form (vertical lines are excluded by construction and
eliminated during canonicalization).
"""

from __future__ import annotations

import json
import operator
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, combinations
from math import comb

from .exact import RatMatrix, clear_denominators, det, rat, reduced, verify_tp_contiguous
# verify_tp is not called here; perfbench/layers.py wraps it at this lookup site
from .exact import verify_tp  # noqa: F401
# canonicalize_config calls det_int3 once per attempt (its singularity test);
# perfbench/layers.py wraps this name to count the attempts
from .exact import det_int as det_int3

# orders integer pairs (p, q), q > 0, as the rationals p/q, by cross-multiplication
_BY_RATIO = cmp_to_key(lambda a, b: a[0] * b[1] - b[0] * a[1])


@dataclass(frozen=True)
class Point2:
    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", rat(self.x))
        object.__setattr__(self, "y", rat(self.y))


@dataclass(frozen=True)
class Line2:
    """Non-vertical line y = m*x + c."""

    m: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "m", rat(self.m))
        object.__setattr__(self, "c", rat(self.c))

    def contains(self, p: Point2) -> bool:
        return p.y == self.m * p.x + self.c


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane sum_j coeffs[j] * x_j = offset."""

    coeffs: tuple
    offset: Fraction

    def __post_init__(self):
        cs = tuple(rat(c) for c in self.coeffs)
        if all(c == 0 for c in cs):
            raise ValueError("hyperplane coefficients must not all be zero")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "offset", rat(self.offset))

    @property
    def dim(self):
        return len(self.coeffs)

    def contains(self, point) -> bool:
        if len(point) != self.dim:
            raise ValueError("point dimension %d != %d" % (len(point), self.dim))
        return sum(c * rat(x) for c, x in zip(self.coeffs, point)) == self.offset


@dataclass(frozen=True)
class IncidenceConfig:
    points: tuple
    lines: tuple

    def __post_init__(self):
        pts = tuple(self.points)
        lns = tuple(self.lines)
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if len(set(lns)) != len(lns):
            raise ValueError("lines must be distinct")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "lines", lns)


class CanonicalizationError(RuntimeError):
    def __init__(self, message, last_report=None):
        super().__init__(message)
        self.last_report = last_report


# ---------------------------------------------------------------------------
# mate points


def mate_point(l: Line2) -> Point2:
    """The point (1/c, m/c) paired with line l: y = m*x + c.

    It sits on the parallel of l through the origin at distance 1/d from the
    origin (d = distance of l from the origin); the square roots in that
    description cancel, leaving an exact rational point.  For every point p on
    l, det(mate, p) = 1.
    """
    if l.m <= 0 or l.c <= 0:
        raise ValueError("mate point needs positive slope and intercept: %r" % (l,))
    return Point2(Fraction(1, 1) / l.c, l.m / l.c)


# ---------------------------------------------------------------------------
# the extremal point-line family


def elekes_config(N: int) -> IncidenceConfig:
    """Grid points [1..N] x [1..2N^2] against lines y=ax+b, a in [1..N],
    b in [1..N^2]: 2N^3 points, N^3 lines, every line meeting exactly N
    points, N^4 incidences in total."""
    if N < 1:
        raise ValueError("N must be >= 1")
    points = tuple(Point2(i, j) for i in range(1, N + 1) for j in range(1, 2 * N * N + 1))
    lines = tuple(Line2(a, b) for a in range(1, N + 1) for b in range(1, N * N + 1))
    return IncidenceConfig(points, lines)


def check_constraints(cfg: IncidenceConfig) -> list:
    """Test the six canonical-form constraints exactly; return the violations
    as (constraint id, indices), in constraint order ([] when canonical).

    1 no two lines parallel; 2 slopes positive; 3 intercepts positive;
    4 every two points linearly independent; 5 no origin-parallel translate of
    a line passes through a point; 6 all points strictly in the first quadrant.

    Constraints 1, 4 and 5 are found by grouping on exact integer keys (line
    slopes and point directions y/x from the origin, as reduced (p, q), q > 0),
    so only colliding groups are enumerated; each lists its pairs in order.
    """
    violations = []
    lines = cfg.lines
    points = cfg.points
    by_slope = defaultdict(list)
    for i, l in enumerate(lines):
        by_slope[l.m.numerator, l.m.denominator].append(i)
    parallel = sorted(pair for group in by_slope.values() for pair in combinations(group, 2))
    violations += [(1, pair) for pair in parallel]
    for i, l in enumerate(lines):
        if l.m.numerator <= 0:
            violations.append((2, (i,)))
        if l.c.numerator <= 0:
            violations.append((3, (i,)))
    # the origin is dependent on every point and lies on every origin-parallel
    # line; any other point is keyed by its direction, None for x = 0
    origins = []
    by_direction = defaultdict(list)
    for j, p in enumerate(points):
        if p.x.numerator:
            by_direction[reduced(p.y.numerator * p.x.denominator,
                                 p.x.numerator * p.y.denominator)].append(j)
        elif p.y.numerator:
            by_direction[None].append(j)
        else:
            origins.append(j)
    dependent = {pair for group in by_direction.values() for pair in combinations(group, 2)}
    for o in origins:
        dependent.update((min(o, j), max(o, j)) for j in range(len(points)) if j != o)
    violations += [(4, pair) for pair in sorted(dependent)]
    for i, l in enumerate(lines):
        for j in sorted(by_direction.get((l.m.numerator, l.m.denominator), []) + origins):
            violations.append((5, (i, j)))
    for j, p in enumerate(points):
        if p.x.numerator <= 0 or p.y.numerator <= 0:
            violations.append((6, (j,)))
    return violations


def _place(point_vecs, M, line_imgs) -> IncidenceConfig:
    """Map the integer points (X, Y, Z) by M, then shear and translate them and the
    line images Ax + By + C = 0 into the first quadrant with positive slopes and
    intercepts, all in integers; each placed coordinate is one Fraction."""
    (a, b, c), (d, e, f), (g, h, k) = M
    imgs = ((a * X + b * Y + c * Z, d * X + e * Y + f * Z, g * X + h * Y + k * Z)
            for X, Y, Z in point_vecs)
    # (x, y, Z): the point (x/Z, y/Z); (m, n, B): slope m/B, intercept n/B; Z, B > 0
    pts = [(X, Y, Z) if Z > 0 else (-X, -Y, -Z) for X, Y, Z in imgs]
    lines = [(-A, -C, B) if B > 0 else (A, C, -B) for A, B, C in line_imgs]
    # shear y -> y + t*x pushes every slope above zero, then translate by
    # (u, v) into the first quadrant with positive intercepts
    p, q = min(((m, B) for m, _, B in lines), key=_BY_RATIO, default=(1, 1))
    tn, td = (q - p, q) if p <= 0 else (0, 1)
    pts = [(x * td, y * td + tn * x, Z * td) for x, y, Z in pts]
    lines = [(m * td + tn * B, n * td, B * td) for m, n, B in lines]
    p, q = min(((x, Z) for x, _, Z in pts), key=_BY_RATIO, default=(1, 1))
    un, ud = (q - p, q) if p <= 0 else (0, 1)
    # v = 1 + max(-(least y), m*u - n over the lines)
    p, q = min([min(((y, Z) for _, y, Z in pts), key=_BY_RATIO, default=(1, 1))]
               + [(n * ud - m * un, B * ud) for m, n, B in lines], key=_BY_RATIO)
    vn, vd = q - p, q
    # a nonsingular map, shear and translation keep points and lines distinct
    return IncidenceConfig(
        tuple(Point2(Fraction(x * ud + un * Z, Z * ud), Fraction(y * vd + vn * Z, Z * vd))
              for x, y, Z in pts),
        tuple(Line2(Fraction(m, B), Fraction((n * ud - m * un) * vd + vn * B * ud, B * ud * vd))
              for m, n, B in lines),
    )


def canonicalize_config(cfg: IncidenceConfig, seed: int, budget: int = 64) -> IncidenceConfig:
    """Relabel cfg by an exact projective-then-affine map into canonical form.

    The incidence graph is preserved bijectively and the result passes
    check_constraints with no violations.  Points (x, y, 1) and lines
    (-m, 1, -c) are cleared once to integer homogeneous vectors.  Each
    attempt draws a random integer 3x3 map M, and lines map by its adjugate.
    In integers, an attempt is rejected if M is singular, if its vanishing
    line meets a point, if a line comes out vertical, or if two lines come
    out parallel (constraint 1).  Only then does _place map the points, shear
    and translate; check_constraints is the one full test of that candidate,
    and a violation triggers a retry.  Deterministic given (cfg, seed); raises
    after ``budget`` attempts, with the violations of the last attempt that
    got past the vertical-line test as ``last_report``.
    """
    rng = random.Random(seed)
    point_vecs, _ = clear_denominators((p.x, p.y, 1) for p in cfg.points)
    line_vecs, _ = clear_denominators((-l.m, 1, -l.c) for l in cfg.lines)
    last = None  # the map and line images of the last attempt past the vertical-line test
    for _ in range(budget):
        M = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        if det_int3(M) == 0:
            continue
        (a, b, c), (d, e, f), (g, h, k) = M
        # vanishing-line test: nothing we care about may map to infinity
        if any(g * X + h * Y + k * Z == 0 for X, Y, Z in point_vecs):
            continue
        # lines map by the adjugate of M (its inverse up to scale): v -> cof(M) v
        (A0, A1, A2), (B0, B1, B2), (C0, C1, C2) = (
            (e * k - f * h, f * g - d * k, d * h - e * g),
            (c * h - b * k, a * k - c * g, b * g - a * h),
            (b * f - c * e, c * d - a * f, a * e - b * d))
        line_imgs = [(A0 * P + A1 * Q + A2 * R, B0 * P + B1 * Q + B2 * R,
                      C0 * P + C1 * Q + C2 * R) for P, Q, R in line_vecs]
        if any(B == 0 for _, B, _ in line_imgs):
            continue
        last = M, line_imgs
        # parallel lines (constraint 1) stay parallel under the shear and
        # translation: equal slopes -A/B, keyed by (A, B) reduced with B > 0
        slopes = {reduced(A, B) for A, B, _ in line_imgs}
        if len(slopes) < len(line_imgs):
            continue
        candidate = _place(point_vecs, M, line_imgs)
        if not check_constraints(candidate):
            return candidate
    raise CanonicalizationError(
        "canonicalization failed after %d attempts" % budget,
        last_report=None if last is None else check_constraints(_place(point_vecs, *last)),
    )


def assemble_tp_2xn(cfg: IncidenceConfig) -> RatMatrix:
    """Assemble the 2x|Q| TP matrix from a canonical configuration.

    Q is the point set together with one mate point per line; its (x, y) are
    cleared once to integer columns (X, Y), sorted by the slope Y/X, which the
    constraints make distinct.  The count of 2x2 minors equal to 1 is at least
    the incidence count of cfg, one unit minor per incidence via the mate-point
    identity.  Total positivity is certified in integers by the solid-minor
    criterion (verify_tp_contiguous: the 2n entries and the n-1 adjacent-column
    2x2 minors), whose witness equals the exhaustive verify_tp's.
    """
    violations = check_constraints(cfg)
    if violations:
        raise ValueError(
            "configuration violates canonical constraints: %r" % violations[:5]
        )
    Q = list(cfg.points) + [mate_point(l) for l in cfg.lines]
    if not Q:
        raise ValueError("matrix must have at least one row and one column")
    cols, scales = clear_denominators((p.x, p.y) for p in Q)
    order = sorted(range(len(Q)), key=lambda j: _BY_RATIO((cols[j][1], cols[j][0])))
    A = RatMatrix._of([cols[j] for j in order], [scales[j] for j in order], True)
    witness = verify_tp_contiguous(A)
    if witness is not None:
        raise AssertionError("assembled matrix unexpectedly not TP: %r" % (witness,))
    return A


# ---------------------------------------------------------------------------
# power-sum and grid matrices


def _validate_power_sum_params(a, b, k):
    a = tuple(rat(x) for x in a)
    b = tuple(rat(x) for x in b)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("need at least two a's and two b's")
    k = operator.index(k)
    if k < 2:
        raise ValueError("k must be an integer >= 2")
    if any(x <= 0 for x in a) or any(x <= 0 for x in b):
        raise ValueError("all a_j and b_i must be positive")
    if any(y <= x for x, y in zip(a, a[1:])):
        raise ValueError("a must be strictly increasing")
    if any(y >= x for x, y in zip(b, b[1:])):
        raise ValueError("b must be strictly decreasing")
    return a, b, k


def power_sum_matrix(a, b, k) -> RatMatrix:
    """Matrix with entries (b_i + a_j)^(k-1) for increasing positive a and
    decreasing positive b; every k x k minor is positive.  Rectangular shapes
    (|b| rows by |a| columns) are allowed."""
    a, b, k = _validate_power_sum_params(a, b, k)
    return RatMatrix([[(bi + aj) ** (k - 1) for aj in a] for bi in b])


def power_sum_det_closed_form(a, b, k) -> Fraction:
    """Closed-form determinant of the square k x k power-sum matrix:
    product of binomials C(k-1, i) times all pairwise differences of the a's
    and (reversed) b's."""
    a, b, k = _validate_power_sum_params(a, b, k)
    if len(a) != k or len(b) != k:
        raise ValueError("closed form needs |a| = |b| = k")
    value = Fraction(1)
    for i in range(k):
        value *= comb(k - 1, i)
    for t in range(k):
        for u in range(t + 1, k):
            value *= (a[u] - a[t]) * (b[t] - b[u])
    return value


def grid_matrix(n: int) -> RatMatrix:
    """The n x n TP_2 grid matrix A_{i,j} = (n-i+1) + j, the k = 2 power-sum matrix.

    Rows are ordered so the row offsets decrease; the 2x2 minor on rows i<j,
    cols k<l equals (l-k)(j-i), the area of the matching grid rectangle.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return power_sum_matrix(range(1, n + 1), range(n, 0, -1), 2)


# ---------------------------------------------------------------------------
# hyperplane families


def hyperplane_family(A: RatMatrix, t) -> list:
    """All cofactor hyperplanes of a TP d x n matrix at level t != 0.

    For each (d-1)-tuple I of column indices, the hyperplane
    sum_j c_j x_j = t whose coefficients are the last-column cofactors of the
    d x d determinant with columns A_{.,I} and a variable column.  A point p_k
    with k > max(I) lies on the member for I iff the d x d minor on columns
    I + (k) equals t.  Members are verified pairwise non-proportional.
    """
    t = rat(t)
    if t == 0:
        raise ValueError("t must be nonzero")
    d = A.rows
    if A.cols < d - 1:
        raise ValueError("need at least d-1 columns")
    if d == 1:
        return [((), Hyperplane((Fraction(1),), t))]
    # the cofactor of row j drops row j; its sign (-1)^(j+d) is - at j = d-1, d-3, ...
    drops = [tuple(r for r in range(1, d + 1) if r != j) for j in range(1, d + 1)]
    out, seen = [], {}
    for I in combinations(range(1, A.cols + 1), d - 1):
        coeffs = [det(A._select(rows, I)) for rows in drops]  # valid tuples: no re-check
        coeffs[d - 2::-2] = [-c for c in coeffs[d - 2::-2]]
        coeffs = tuple(coeffs)
        if not any(coeffs):
            raise ValueError("columns %r are dependent; matrix is not TP" % (I,))
        # every member has offset t != 0, so proportional members have equal coefficients
        first = seen.setdefault(coeffs, I)  # one tuple hash per member
        if first is not I:
            raise ValueError("hyperplanes for %r and %r are proportional" % (first, I))
        out.append((I, Hyperplane(coeffs, t)))
    return out


# ---------------------------------------------------------------------------
# JSON interchange for configurations and point sets


def config_to_json(cfg: IncidenceConfig) -> str:
    doc = {
        "points": [[str(p.x), str(p.y)] for p in cfg.points],
        "lines": [{"m": str(l.m), "c": str(l.c)} for l in cfg.lines],
    }
    return json.dumps(doc)


def json_array(value, name, length=None):
    """``value`` if it is a JSON array (of ``length`` items when given), else a
    ValueError naming ``name``; a JSON string would read as its characters."""
    if not isinstance(value, list) or (length is not None and len(value) != length):
        size = "" if length is None else "%d-element " % length
        raise ValueError("%s must be a %sJSON array, got %s" % (name, size, json.dumps(value)))
    return value


def check_rationals(items):
    """A ValueError naming the first of the JSON ``items`` that is not an
    integer or a string, the forms rat reads (true, null, an array, an object)."""
    for v in items:
        if type(v) is not int and type(v) is not str:  # type(True) is bool
            raise ValueError("%r is not an integer or p/q" % json.dumps(v))


def load_json(text, name):
    """The JSON object in ``text``.  A number that is not an integer (1.5, 1e3,
    NaN, Infinity) stays the string it was written as, so rat rejects it by name."""
    doc = json.loads(text, parse_float=str, parse_constant=str)
    if not isinstance(doc, dict):
        raise ValueError("%s must be a JSON object, got %s" % (name, json.dumps(doc)))
    return doc


def points_from_json(text: str):
    """The JSON point set, cleared per axis: ([(X, Y), ...], (Lx, Ly)) for the (X/Lx, Y/Ly)."""
    points = load_json(text, "the point set").get("points")
    points = [json_array(p, "each point", 2) for p in json_array(points, "points")]
    check_rationals(chain.from_iterable(points))
    # one rat per distinct token, in point order, so the first bad one raises
    value = {v: rat(v) for v in dict.fromkeys(chain.from_iterable(points))}
    tokens = [dict.fromkeys(axis) for axis in zip(*points)] or [{}, {}]  # distinct per axis
    ints, scales = clear_denominators([value[t] for t in axis] for axis in tokens)
    X, Y = (dict(zip(axis, line)) for axis, line in zip(tokens, ints))
    return [(X[x], Y[y]) for x, y in points], tuple(scales)
