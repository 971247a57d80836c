import io
import json
import operator
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import combinations
from math import comb, gcd, prod
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings, strategies as st

from tpminors import (
    Hyperplane,
    IncidenceConfig,
    Line2,
    Point2,
    RatMatrix,
    assemble_tp_2xn,
    canonicalize_config,
    count_minors_equal,
    det,
    elekes_config,
    grid_area_counts,
    grid_matrix,
    hyperplane_family,
    max_repeated_minor,
    minor_census,
    mu,
    multiset_diff,
    multiset_prod,
    point_hyperplane_incidences,
    point_line_incidences,
    power_sum_matrix,
    unit_rectangles,
    verify_tp,
)
from tpminors import counting, exact
from tpminors.counting import census_to_csv, census_to_json
from tpminors.exact import clear_denominators, det_int, rat

from oracles import divisor_count, dual_line, grid_area_k_count, verify_no_Kd2


def fraction_census(census):
    """The {Fraction(x, D): m} multiset of a (counts, D) census, or
    {Fraction(p, q): m} of a full-height census (D None, reduced pair keys),
    for comparing with the oracles value by value."""
    counts, D = census
    if D is None:
        assert all(type(p) is int and type(q) is int and q > 0 and gcd(p, q) == 1
                   for p, q in counts)
        return Counter({F(p, q): m for (p, q), m in counts.items()})
    assert type(D) is int and D > 0
    return Counter({F(x, D): m for x, m in counts.items()})


def csv_text(census):
    out = io.StringIO()
    census_to_csv(census, out)
    return out.getvalue()


def json_text(census):
    out = io.StringIO()
    census_to_json(census, out)
    return out.getvalue()


def incidence_pairs(cfg):
    """The (point index, line index) pairs of the incidences of cfg, in
    line-major order: the pairs point_line_incidences counts."""
    return [(pi, li) for li, l in enumerate(cfg.lines)
            for pi, p in enumerate(cfg.points) if l.contains(p)]


def census_oracle(A, k):
    """The per-minor census: denominators cleared per row, one Fraction and
    one Counter update per minor."""
    int_rows, scales = clear_denominators(A.entries)
    census = Counter()
    for I in combinations(range(A.rows), k):
        denom = prod(scales[i] for i in I)
        sel = [int_rows[i] for i in I]
        for J in combinations(range(A.cols), k):
            census[F(det_int([[r[j] for j in J] for r in sel]), denom)] += 1
    return census


def rectangles_oracle(points, area, mode):
    """The O(n^2) pair scan: every pair of distinct points, dx * dy on
    cleared integers compared with the cleared area."""
    (xs, ys), (Lx, Ly) = clear_denominators([[x for x, _ in points], [y for _, y in points]])
    ipts = list(zip(xs, ys))
    # (dx*dy) == area  <=>  (Lx*dx)(Ly*dy) * area.den == area.num * Lx * Ly
    target = area.numerator * Lx * Ly
    aden = area.denominator
    count = 0
    anti = mode == "both-diagonals"
    n = len(ipts)
    for i in range(n):
        xi, yi = ipts[i]
        for j in range(i + 1, n):
            prod = (ipts[j][0] - xi) * (ipts[j][1] - yi)
            if prod > 0:
                if prod * aden == target:
                    count += 1
            elif anti and prod < 0:
                if -prod * aden == target:
                    count += 1
    return count


@st.composite
def rectangle_inputs(draw):
    """Distinct rational points on a few x and a few y values, so columns and
    rows repeat; coordinates are negative, zero or positive and the two axes
    have independent numbers of distinct values, so either can be bucketed.
    The area is one spanned by two of the points (at least one hit) or any
    small fraction (often one whose cleared target has a remainder)."""
    coords = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4)))
    xs = draw(st.lists(coords, min_size=2, max_size=7, unique=True))
    ys = draw(st.lists(coords, min_size=1, max_size=7, unique=True))
    cells = draw(st.lists(st.tuples(st.sampled_from(xs), st.sampled_from(ys)),
                          min_size=2, max_size=30, unique=True))
    spanned = st.tuples(st.sampled_from(cells), st.sampled_from(cells)).map(
        lambda pq: abs((pq[0][0] - pq[1][0]) * (pq[0][1] - pq[1][1])))
    area = draw(st.one_of(spanned, st.builds(F, st.integers(0, 40), st.integers(1, 12)))
                .filter(lambda a: a > 0))
    return cells, area


@st.composite
def census_matrices(draw):
    """Up to 4x6 rational matrices whose denominators follow the rows, the
    columns, both, or each entry, so either axis can be the narrower one and
    integer matrices tie; numerators include zero and negatives."""
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("row", "column", "both", "entry")))
    dens = st.integers(1, 60)

    def axis_dens(n, kinds):
        return draw(st.lists(dens, min_size=n, max_size=n)) if kind in kinds else [1] * n

    row_d, col_d = axis_dens(r, ("row", "both")), axis_dens(c, ("column", "both"))
    rows = []
    for i in range(r):
        row = []
        for j in range(c):
            d = draw(dens) if kind == "entry" else row_d[i] * col_d[j]
            row.append(F(draw(st.integers(-30, 30)), d))
        rows.append(row)
    return RatMatrix(rows)


@st.composite
def wide_matrices(draw):
    """d x n matrices, d = 1..3, whose denominators follow the columns, so
    the columns are cleared and every d-subset of them is one minor.  Small
    numerators and the denominators 1, 2, 3, 4, 6 give zero and negative
    minors and equal values over different scale products (1/2 and 2/4)."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 8))
    dens = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=n, max_size=n))
    return RatMatrix([[F(draw(st.integers(-6, 6)), dens[j]) for j in range(n)]
                      for _ in range(d)])


class TestMinorCensus:
    def test_grid3_all_pairs(self):
        assert fraction_census(minor_census(grid_matrix(3), 2)) == {F(1): 4, F(2): 4, F(4): 1}

    def test_columns_only(self):
        A = RatMatrix([[1, 2, 1], [1, 3, 2]])
        assert fraction_census(minor_census(A, 2)) == {F(1): 3}

    def test_order_one_is_entries(self):
        A = RatMatrix([[F(1, 2), 3], [3, F(1, 2)]])
        assert fraction_census(minor_census(A, 1)) == {F(1, 2): 2, F(3): 2}

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            minor_census(grid_matrix(3), 4)

    def test_float_order_rejected(self):
        with pytest.raises(TypeError):
            minor_census(grid_matrix(3), 2.0)

    def test_total_mass(self):
        from math import comb
        A = power_sum_matrix(range(1, 6), range(5, 0, -1), 2)
        counts, _ = minor_census(A, 2)
        assert sum(counts.values()) == comb(5, 2) ** 2


class TestCensusAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(census_matrices())
    def test_every_order(self, A):
        for k in range(1, min(A.rows, A.cols) + 1):
            assert fraction_census(minor_census(A, k)) == census_oracle(A, k)

    @staticmethod
    def det_int_widths(monkeypatch):
        """The list to which every det_int call, from the census or from det,
        appends the bit length of its widest operand."""
        widths = []

        def recording(m):
            widths.append(max(abs(x).bit_length() for row in m for x in row))
            return det_int(m)

        monkeypatch.setattr(counting, "det_int", recording)
        monkeypatch.setattr(exact, "det_int", recording)
        return widths

    # column denominators 7, 11, 13: per column the integers stay below 16,
    # per row they are multiplied by up to 13 * 11
    COLS = [[F(1, 7), F(2, 11), F(3, 13), F(4, 11)],
            [F(2, 7), F(5, 11), F(9, 13), F(1, 11)],
            [F(3, 7), F(1, 11), F(4, 13), F(7, 11)]]

    @pytest.mark.parametrize("transpose", [False, True], ids=["column-axis", "row-axis"])
    def test_one_cleared_form_on_the_lcm_picked_axis(self, monkeypatch, transpose):
        """The census, det on every square submatrix and verify_tp all read
        the one cleared form.  A row's lcm of denominators (1001) exceeds every
        column's, so the columns are cleared, and the rows of the transpose."""
        rows = [list(r) for r in zip(*self.COLS)] if transpose else self.COLS
        A = RatMatrix(rows)
        widths = self.det_int_widths(monkeypatch)
        first_nonpositive = None
        for k in (1, 2, 3):
            assert fraction_census(minor_census(A, k)) == census_oracle(A, k)
            by_det = Counter()
            for I in combinations(range(1, A.rows + 1), k):
                for J in combinations(range(1, A.cols + 1), k):
                    v = det(A._select(I, J))
                    by_det[v] += 1
                    if v <= 0 and first_nonpositive is None:
                        first_nonpositive = (k, I, J, v)
            assert by_det == census_oracle(A, k)
        assert first_nonpositive is not None
        assert verify_tp(A) == first_nonpositive
        assert widths and max(widths) <= 4  # the integers 1..9, never scaled by another axis

    @settings(max_examples=200, deadline=None)
    @given(wide_matrices())
    def test_full_height_minors(self, A):
        assert fraction_census(minor_census(A, A.rows)) == census_oracle(A, A.rows)

    @settings(max_examples=200, deadline=None)
    @given(wide_matrices())
    def test_full_height_keys_are_reduced_pairs(self, A):
        """Each value has one key: (p, q) with q > 0 and gcd(p, q) = 1, so
        zero is (0, 1) and no two keys are equal values."""
        counts, D = minor_census(A, A.rows)
        assume(D is None)  # rows no wider than columns (a tie on integer entries): wide path
        for p, q in counts:
            assert type(p) is int and type(q) is int
            assert q > 0 and gcd(p, q) == 1
            assert p != 0 or q == 1
        assert len({F(p, q) for p, q in counts}) == len(counts)

    # 2 x 5 over column denominators 2, 4, 1, 3, 6: the minors include 0,
    # negatives, and equal values over different scale products
    WIDE = [[F(1, 2), F(3, 4), F(1), F(2, 3), F(-1, 6)],
            [F(1, 2), F(5, 4), F(1), F(-1, 3), F(5, 6)]]

    @pytest.mark.parametrize("rows", [
        [WIDE[0]],  # 1 x 5
        WIDE,  # 2 x 5
        WIDE + [[F(0), F(1, 4), F(2), F(1, 3), F(1, 6)]],  # 3 x 5
        [r[:3] for r in WIDE] + [[F(1, 2), F(1, 4), F(1, 3)]],  # square 3 x 3
        [r[:2] for r in WIDE],  # square 2 x 2
    ], ids=["1x5", "2x5", "3x5", "3x3", "2x2"])
    def test_one_det_int_call_per_minor(self, monkeypatch, rows):
        """The full-height census calls counting.det_int once per minor, on a
        d x d matrix of integers cleared by column (at most 3 bits wide)."""
        A = RatMatrix(rows)
        d, n = A.rows, A.cols
        calls = []

        def recording(m):
            calls.append(m)
            return det_int(m)

        monkeypatch.setattr(counting, "det_int", recording)
        assert fraction_census(minor_census(A, d)) == census_oracle(A, d)
        assert len(calls) == comb(n, d)
        assert all(len(m) == d and all(len(r) == d for r in m) for m in calls)
        assert max(abs(x).bit_length() for m in calls for r in m for x in r) <= 3

    def test_equal_values_from_different_scales(self):
        # -1/2 is -3/(2*3) and -2/(4*1); 1/2 is 6/(2*6) and 9/(3*6)
        assert fraction_census(minor_census(RatMatrix(self.WIDE), 2)) == {
            F(1, 4): 1, F(0): 1, F(-1, 2): 2, F(1, 2): 2, F(-13, 12): 1,
            F(5, 6): 1, F(-1): 1, F(1): 1}

    @pytest.mark.parametrize("kind", ["integer", "row-rational"])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("shape", [(3, 4), (4, 4), (4, 6)], ids=["3x4", "4x4", "4x6"])
    def test_wide_one_det_int_call_per_minor(self, monkeypatch, shape, k, kind):
        """The wider census calls counting.det_int once per minor, C(m,k) C(n,k)
        times, each on a k x k matrix: the count perfbench reads."""
        m, n = shape
        A = RatMatrix([[F((3 * i + 5 * j + i * j) % 11 - 4, i + 2 if kind == "row-rational" else 1)
                        for j in range(n)] for i in range(m)])
        calls = []

        def recording(M):
            calls.append(M)
            return det_int(M)

        monkeypatch.setattr(counting, "det_int", recording)
        assert fraction_census(minor_census(A, k)) == census_oracle(A, k)
        assert len(calls) == comb(m, k) * comb(n, k)
        assert all(len(M) == k and all(len(r) == k for r in M) for M in calls)

    # 4 x 4 over row denominators 1, 2, 2, 3: row pairs have scale products
    # 2, 2, 3, 4, 6, 6, so the common denominator is 12
    ROWS = [[1, 2, 3, 5],
            [F(1, 2), F(2, 2), F(3, 2), F(1, 2)],
            [F(1, 2), F(3, 2), F(1, 2), F(5, 2)],
            [F(1, 3), F(2, 3), F(4, 3), F(2, 3)]]

    def test_wide_equal_values_from_different_scales(self):
        # -1/2 is -2/4 and -3/6; 1/2 is 1/2 and 3/6; 1/3 is 1/3 and 2/6 (three
        # times); 0 is 0/2, 0/3 and 0/6
        census = minor_census(RatMatrix(self.ROWS), 2)
        assert csv_text(census) == (
            "-6,1\n-14/3,1\n-4,1\n-7/2,1\n-3,1\n-5/2,1\n-2,2\n-7/4,1\n-1,2\n"
            "-2/3,1\n-1/2,2\n-1/6,1\n0,6\n1/6,2\n1/4,1\n1/3,4\n1/2,2\n2/3,1\n"
            "1,1\n5/3,1\n7/4,1\n7/2,1\n5,1\n")
        assert fraction_census(census) == census_oracle(RatMatrix(self.ROWS), 2)


class TestCensusOutputOrder:
    values = st.fractions(min_value=-10 ** 6, max_value=10 ** 6) | st.builds(
        F, st.integers(-10 ** 40, 10 ** 40),
        st.sampled_from((1, 2, 3, 10 ** 9 + 7, 2 ** 61 - 1, 998244353 * 10 ** 9 + 9)))

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(values, st.integers(1, 10 ** 6), max_size=40))
    def test_sorted_by_value(self, items):
        rows = sorted(items.items())
        csv = "".join("%s,%d\n" % (v, m) for v, m in rows)
        js = json.dumps({"census": [[str(v), m] for v, m in rows]})
        # the same values as reduced pairs over None and as integers over their lcm
        pairs = Counter({(v.numerator, v.denominator): m for v, m in items.items()})
        (keys,), (L,) = clear_denominators([list(items)])
        for census in ((pairs, None), (Counter(dict(zip(keys, items.values()))), L)):
            assert csv_text(census) == csv
            assert json_text(census) == js

    def test_empty_and_zero(self):
        assert csv_text((Counter(), 1)) == ""
        assert csv_text((Counter(), None)) == ""
        assert json_text((Counter(), 6)) == '{"census": []}'
        census = Counter({(0, 1): 2, (-1, 3): 1, (1, 3): 4})
        assert csv_text((census, None)) == "-1/3,1\n0,2\n1/3,4\n"
        assert csv_text((Counter({0: 2, -2: 1, 2: 4, 6: 1}), 6)) == "-1/3,1\n0,2\n1/3,4\n1,1\n"


class _Discard:
    def write(self, text):
        pass


class TestCensusStreaming:
    """The census writers stream: their peak allocation grows by a few bytes
    per census key (the sorted key list, and the sort keys of a (p, q)
    census), not by a list of rows or one joined text (over 200 B per key)."""

    @pytest.mark.parametrize("write", [census_to_csv, census_to_json])
    @pytest.mark.parametrize("full_height", [False, True])
    def test_peak_allocation_per_key(self, full_height, write):
        rng = random.Random(24)
        if full_height:  # 2 x 210 over column denominators up to 1000: a (p, q) census
            dens = [rng.randint(1, 1000) for _ in range(210)]
            rows = [[F(rng.randint(1, 10 ** 9), d) for d in dens] for _ in range(2)]
        else:  # 8 x 40 over row denominators 1..8: a (counts, D) census
            rows = [[F(rng.randint(1, 10 ** 9), d) for _ in range(40)] for d in range(1, 9)]
        census = minor_census(RatMatrix(rows), 2)
        assert len(census[0]) >= 20000 and (census[1] is None) == full_height
        tracemalloc.start()
        try:
            write(census, _Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100 * len(census[0])


class TestCountersOverCensus:
    def test_count_equal_grid(self):
        assert count_minors_equal(grid_matrix(4), 2, 2) == 12
        assert count_minors_equal(grid_matrix(4), 2, 2) == grid_area_counts(4, 2)[2]

    def test_count_equal_assembled(self):
        A = RatMatrix([[1, 2, 1], [1, 3, 2]])
        assert count_minors_equal(A, 2, 1) == 3

    def test_zero_absent_in_tp(self):
        A = power_sum_matrix(range(1, 5), range(4, 0, -1), 2)
        assert count_minors_equal(A, 2, 0) == 0

    def test_count_equal_off_the_common_denominator(self):
        A = RatMatrix(TestCensusAgainstOracle.ROWS)
        assert minor_census(A, 2)[1] == 12
        assert count_minors_equal(A, 2, F(1, 3)) == 4
        assert count_minors_equal(A, 2, F(-14, 3)) == 1
        # t * 12 is not an integer: no minor can equal t
        assert count_minors_equal(A, 2, F(1, 5)) == 0
        assert count_minors_equal(A, 2, F(1, 24)) == 0

    def test_bad_value_reported_before_the_census(self):
        # order 9 exceeds the 2x2 matrix, but the value token is read first
        with pytest.raises(ValueError, match=re.escape("'1.5' is not an integer or p/q")):
            count_minors_equal(RatMatrix([[1, 2], [3, 4]]), 9, "1.5")

    def test_count_equal_full_height(self):
        A = RatMatrix(TestCensusAgainstOracle.WIDE)
        assert minor_census(A, 2)[1] is None
        assert count_minors_equal(A, 2, F(-1, 2)) == 2
        assert count_minors_equal(A, 2, "-13/12") == 1
        assert count_minors_equal(A, 2, F(1, 3)) == 0
        # the value is read as a reduced rational, so 2/4 finds the key (1, 2)
        assert count_minors_equal(A, 2, "2/4") == 2
        assert count_minors_equal(A, 2, "-2/4") == 2
        assert count_minors_equal(A, 2, 0) == 1

    @pytest.mark.parametrize("rows, D", [
        # columns cleared (scales 2, 3, 1), wider than k = 1: integer keys over D = 6
        ([[F(-1, 2), F(-1, 3), 1], [F(-1, 2), F(-1, 3), 5]], 6),
        # one row cleared column by column (its lcm 30 exceeds every column's), exactly
        # k = 1 wide: reduced pair keys, D None
        ([[F(-1, 2), F(-1, 3), F(-1, 2), F(-1, 3), F(1, 5)]], None),
    ], ids=["wide", "full-height"])
    def test_max_repeated_negative_tie(self, rows, D):
        A = RatMatrix(rows)
        assert minor_census(A, 1)[1] == D
        # -1/2 and -1/3 both appear twice: the tie breaks to the smaller value
        assert max_repeated_minor(A, 1) == (F(-1, 2), 2)

    def test_max_repeated_tie_on_pair_keys(self):
        # a 2 x 4 matrix cleared by columns: six 2x2 minors, each value once
        A = RatMatrix([[F(1, 2), F(1, 3), F(1, 5), F(1, 7)], [1, 1, 1, 1]])
        counts, D = minor_census(A, 2)
        assert D is None and len(counts) == 6 and set(counts.values()) == {1}
        # the six-way tie breaks to the smallest value, 1/5 - 1/7 = 2/35
        assert max_repeated_minor(A, 2) == (F(2, 35), 1)

    def test_max_repeated(self):
        assert max_repeated_minor(grid_matrix(4), 2) == (F(2), 12)
        # tie between values 1 and 2 breaks to the smaller value
        assert max_repeated_minor(grid_matrix(3), 2) == (F(1), 4)
        assert max_repeated_minor(RatMatrix([[3, 4], [2, 3]]), 2) == (F(1), 1)

    def test_distinct_counts(self):
        assert len(minor_census(grid_matrix(3), 2)[0]) == 3
        assert len(minor_census(RatMatrix([[3, 4], [2, 3]]), 2)[0]) == 1

    def test_distinct_power_sum_matches_products(self):
        a, b = (1, 2, 3), (3, 2, 1)
        A = power_sum_matrix(a, b, 2)
        values = set()
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    for l in range(k + 1, 3):
                        values.add(F((a[l] - a[k]) * (b[i] - b[j])))
        assert len(minor_census(A, 2)[0]) == len(values)


def increasing_rationals(size):
    """Strictly increasing positive rationals p/q, 2..size of them, p <= 24 and q <= 4."""
    values = st.builds(F, st.integers(1, 24), st.integers(1, 4))
    return st.sets(values, min_size=2, max_size=size).map(sorted)


class TestRectangleIdentity:
    """The paper's step from repeated minors to rectangles: for increasing a
    and decreasing b, the 2x2 minor of power_sum_matrix(a, b, 2) on rows
    i < j and columns k < l is (a_l - a_k)(b_i - b_j).  So three counters give
    one number at every value t: the order-2 census, the area-t rectangles
    among the points A x B in diagonal mode, and half the multiplicity of t
    in (A - A)(B - B), whose negative-times-negative products count each
    rectangle a second time."""

    @settings(max_examples=100, deadline=None)
    @given(increasing_rationals(12), increasing_rationals(12))
    def test_census_rectangles_and_products_agree(self, a, b):
        # count_minors_equal builds the whole census for each value: cap A x B at
        # 48 points (12 x 4, 4 x 12, 7 x 6, ...), at most 420 minors
        assume(len(a) * len(b) <= 48)
        b = b[::-1]
        A = power_sum_matrix(a, b, 2)
        census = fraction_census(minor_census(A, 2))
        points = [(x, y) for x in a for y in b]
        products = multiset_prod(multiset_diff(a, a), multiset_diff(b, b))
        absent = min(census) / 2  # every minor is positive: below the least of them
        assert absent not in census
        for t in [*census, absent]:
            counts = (count_minors_equal(A, 2, t), unit_rectangles(points, t, "diagonal"),
                      F(products[t], 2))
            assert counts == (census[t],) * 3, t


class TestIncidences:
    def test_elekes(self):
        assert point_line_incidences(elekes_config(2)) == 16

    def test_single(self):
        cfg = IncidenceConfig((Point2(1, 2),), (Line2(1, 1),))
        assert point_line_incidences(cfg) == 1 and incidence_pairs(cfg) == [(0, 0)]

    def test_projective_invariance(self):
        cfg = elekes_config(3)
        can = canonicalize_config(cfg, seed=13)
        assert point_line_incidences(can) == point_line_incidences(cfg)

    def test_d2_reduction_to_dual_lines(self):
        pts = [Point2(1, 1), Point2(1, 2), Point2(2, 3), Point2(F(1, 2), 3)]
        duals = [dual_line(p) for p in pts]
        cfg = IncidenceConfig(tuple(pts), tuple(duals))
        family = [((), Hyperplane((-p.y, p.x), 1)) for p in pts]  # I = (): every point
        assert point_hyperplane_incidences([(p.x, p.y) for p in pts], family) == \
            point_line_incidences(cfg)

    def test_empty_planes(self):
        assert point_hyperplane_incidences([(1, 2)], []) == 0

    def test_scaled_family_count_matches_unit_minor_count(self):
        from tpminors import scale_to_unit
        rng = random.Random(3)
        for _ in range(5):
            n = rng.randint(4, 8)
            a = sorted(rng.sample(range(1, 40), n))
            A = scale_to_unit(
                power_sum_matrix(a, (5, 3, 1), 3), (1, 2, 3), (1, 2, 3)
            )
            assert family_count(A, 1) == count_minors_equal(A, 3, 1)


def family_count(A, t):
    """The incidences of A's columns with A's cofactor hyperplanes at level t."""
    return point_hyperplane_incidences(list(zip(*A.entries)), hyperplane_family(A, t))


@pytest.fixture(scope="module")
def power_sum_24():
    """The 3x24 power-sum matrix, its most repeated 3x3 value t and
    multiplicity m, and its cofactor family at level t."""
    A = power_sum_matrix(range(1, 25), (3, 2, 1), 3)
    t, m = max_repeated_minor(A, 3)
    return A, t, m, hyperplane_family(A, t)


class TestHyperplaneIdentity:
    """The d x d minors of a d x n TP matrix equal to t are the ordered
    incidences of its columns with its cofactor hyperplanes at level t."""

    def test_most_repeated_value(self, power_sum_24):
        A, t, m, fam = power_sum_24
        assert m >= 30
        assert point_hyperplane_incidences(list(zip(*A.entries)), fam) == \
            count_minors_equal(A, 3, t) == m

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_rational_power_sums(self, data):
        rationals = st.builds(F, st.integers(1, 40), st.integers(1, 4))
        a = sorted(data.draw(st.sets(rationals, min_size=3, max_size=40)))
        b = sorted(data.draw(st.sets(rationals, min_size=3, max_size=3)), reverse=True)
        A = power_sum_matrix(a, b, 3)
        t, m = max_repeated_minor(A, 3)
        assert family_count(A, t) == count_minors_equal(A, 3, t) == m

    def test_four_rows(self):
        # d = 4: the 4x24 power-sum matrix at its most repeated 4x4 value
        A = power_sum_matrix(range(1, 25), (4, 3, 2, 1), 4)
        t, m = max_repeated_minor(A, 4)
        assert family_count(A, t) == count_minors_equal(A, 4, t) == m == 126

    def test_one_row(self):
        # d = 1: the one member x_1 = t is tested on every point (I is empty)
        A = RatMatrix([[2, 3, 5, 3]])
        assert family_count(A, 3) == count_minors_equal(A, 1, 3) == 2

    def test_two_rows(self):
        # the `--seed 0 construct tp2xn --N 2` matrix: unit minors of the Elekes pipeline
        A = assemble_tp_2xn(canonicalize_config(elekes_config(2), seed=0))
        assert family_count(A, 1) == count_minors_equal(A, 2, 1) == 16

    def test_count_calls_no_membership_test(self, monkeypatch, power_sum_24):
        A, t, m, fam = power_sum_24

        def refuse(self, point):
            raise AssertionError("Hyperplane.contains called")

        monkeypatch.setattr(Hyperplane, "contains", refuse)
        assert point_hyperplane_incidences(list(zip(*A.entries)), fam) == m


class TestNoKd2:
    def test_duplicate_plane_with_d_points(self):
        h = Hyperplane((0, 0, 1), 1)  # z = 1
        pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (5, 5, 5)]
        witness = verify_no_Kd2(pts, [h, h])
        assert witness == ((0, 1, 2), (0, 1))

    def test_d_minus_1_shared_points_fine(self):
        h1 = Hyperplane((0, 0, 1), 1)
        h2 = Hyperplane((1, 0, 0), 0)  # x = 0; intersection holds 2 of the points
        pts = [(0, 0, 1), (0, 1, 1), (7, 3, 1)]
        assert verify_no_Kd2(pts, [h1, h2]) is None

    def test_empty(self):
        assert verify_no_Kd2([(1, 2)], []) is None

    def test_family_of_a_tp_matrix(self, power_sum_24):
        A, _, _, fam = power_sum_24
        assert verify_no_Kd2(list(zip(*A.entries)), [h for _, h in fam]) is None

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 3), st.data())
    def test_matches_brute_force(self, d, data):
        small = st.integers(-2, 2)
        points = data.draw(st.lists(st.tuples(*[small] * d), max_size=8))
        coeffs = st.tuples(*[small] * d).filter(any)  # not all zero
        planes = data.draw(st.lists(st.builds(Hyperplane, coeffs, small), max_size=6))
        assert verify_no_Kd2(points, planes) == no_Kd2_oracle(points, planes)


def no_Kd2_oracle(points, planes):
    """Slow oracle for verify_no_Kd2: the first plane pair (a, b) in
    combinations order on which at least d points lie, with the d smallest
    such point indices; None when no pair qualifies."""
    for a, b in combinations(range(len(planes)), 2):
        shared = [i for i, p in enumerate(points)
                  if planes[a].contains(p) and planes[b].contains(p)]
        d = planes[a].dim
        if len(shared) >= d:
            return tuple(shared[:d]), (a, b)
    return None


class TestUnitRectangles:
    def test_small_example(self):
        pts = [(0, 0), (1, 1), (2, 0), (3, 1)]
        assert unit_rectangles(pts, 1) == 2

    def test_grid_corners(self):
        pts = [(x, y) for x in range(1, 5) for y in range(1, 5)]
        assert unit_rectangles(pts, 1) == 9
        assert unit_rectangles(pts, 1) == grid_area_counts(4, 1)[1]

    def test_single_point(self):
        assert unit_rectangles([(2, 2)], 1) == 0

    def test_both_diagonals(self):
        pts = [(0, 0), (1, 1), (0, 1), (1, 0)]
        assert unit_rectangles(pts, 1, "diagonal") == 1
        assert unit_rectangles(pts, 1, "both-diagonals") == 2

    def test_fractional_area(self):
        pts = [(0, 0), (F(1, 2), F(1, 2))]
        assert unit_rectangles(pts, F(1, 4)) == 1
        assert unit_rectangles(pts, F(1, 3)) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            unit_rectangles([(0, 0)], 0)
        with pytest.raises(ValueError):
            unit_rectangles([(0, 0), (0, 0)], 1)

    def test_duplicates_rejected_before_a_zero_count(self):
        # x clears by 2, so area 1/7 clears to 2/7, which no integer dx * dy equals
        pts = [(F(1, 2), 0), (1, 1), (F(2, 4), 0)]
        with pytest.raises(ValueError, match="points must be distinct"):
            unit_rectangles(pts, F(1, 7))
        assert unit_rectangles(pts[:2], F(1, 7)) == 0

    @pytest.mark.parametrize("mode", ["diagonal", "both-diagonals"])
    @settings(max_examples=150, deadline=None)
    @given(rectangle_inputs())
    def test_matches_pair_scan(self, mode, case):
        pts, area = case
        expected = rectangles_oracle(pts, area, mode)
        assert unit_rectangles(pts, area, mode) == expected
        # the transposed set has the same count and buckets on the other axis
        assert unit_rectangles([(y, x) for x, y in pts], area, mode) == expected
        # both axes spread by 10^9: each column's y span is too wide for bitmasks,
        # so the columns are sets (scaling only y leaves y the column axis at times)
        big, big_area = [(x * 10**9, y * 10**9) for x, y in pts], area * 10**18
        assert unit_rectangles(big, big_area, mode) == rectangles_oracle(big, big_area, mode) == expected

    @pytest.mark.parametrize("mode", ["diagonal", "both-diagonals"])
    def test_shift_past_the_span_skipped(self, mode):
        # a 2x3 unit grid and (10^40, 1): x and y tie on 3 values, so the columns
        # are x, as bitmasks over a y span of 2.  Columns 0 and 1 need T/dx = 10^40
        # rows, which a left shift would build as a 10^40-bit int; only the
        # 10^40-wide pairs count: (0, 0) up-right and (0, 2) down-right.
        pts = [(x, y) for x in (0, 1) for y in range(3)] + [(10**40, 1)]
        expected = rectangles_oracle(pts, 10**40, mode)
        assert expected == (1 if mode == "diagonal" else 2)
        assert unit_rectangles(pts, 10**40, mode) == expected

    @pytest.mark.parametrize("mode", ["diagonal", "both-diagonals"])
    def test_every_x_distinct(self, mode):
        # one point per column: every column pair at most T apart is a candidate
        rng = random.Random(11)
        pts = [(F(x, 2), F(rng.randint(-40, 40), 3)) for x in range(-150, 150)]
        for area in (F(1), F(5, 2), F(12), F(1, 6)):
            assert unit_rectangles(pts, area, mode) == rectangles_oracle(pts, area, mode)


class TestGridClosedForm:
    def test_examples(self):
        assert grid_area_counts(4, 1)[1] == 9
        assert grid_area_counts(4, 2)[2] == 12
        assert grid_area_counts(4, 10)[10] == 0  # no divisor pair fits in 3x3 spans

    def test_bridge_small(self):
        for n in range(2, 12):
            census = fraction_census(minor_census(grid_matrix(n), 2))
            for v, m in census.items():
                assert v.denominator == 1
                assert m == grid_area_counts(n, v.numerator)[v.numerator]
            # values absent from the census have zero closed-form count
            for k in range(1, (n - 1) ** 2 + 2):
                if F(k) not in census:
                    assert grid_area_counts(n, k)[k] == 0

    def test_matches_rect_counter(self):
        for n in (3, 5, 7):
            pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
            for k in (1, 2, 6):
                assert unit_rectangles(pts, k) == grid_area_counts(n, k)[k]

    def test_divisor_lower_bound_sample(self):
        for n in (20, 50):
            for k in range(1, n // 2 + 1):
                assert grid_area_counts(n, k)[k] >= F(n * n, 4) * divisor_count(k)

    def test_sieve_matches_per_k_oracle(self):
        # every area a rectangle of [1..n]^2 can have, then the scan's areas k <= n/2
        cases = [(n, (n - 1) ** 2) for n in range(2, 41)] + [(n, n // 2) for n in (50, 200, 801)]
        for n, k in cases:
            counts = grid_area_counts(n, k)
            assert len(counts) == k + 1 and counts[0] == 0
            assert counts[1:] == [grid_area_k_count(n, v) for v in range(1, k + 1)]


class TestDivisors:
    def test_examples(self):
        assert divisor_count(12) == 6
        assert divisor_count(1) == 1
        assert divisor_count(36) == 9

    def test_brute_force_agreement(self):
        for k in range(1, 200):
            assert divisor_count(k) == sum(1 for d in range(1, k + 1) if k % d == 0)


def multiset_diff_oracle(C, D):
    """The Fraction convolution: one rational subtraction per key pair."""
    C, D = counting.as_multiset(C), counting.as_multiset(D)
    out = Counter()
    for c, mc in C.items():
        for d, md in D.items():
            out[c - d] += mc * md
    return out


def multiset_prod_oracle(C, D):
    """The Fraction convolution: one rational product per key pair."""
    C, D = counting.as_multiset(C), counting.as_multiset(D)
    out = Counter()
    for c, mc in C.items():
        for d, md in D.items():
            out[c * d] += mc * md
    return out


def as_multiset_oracle(C):
    """The per-key loop over a Counter: each key with a nonzero multiplicity
    through rat, added with its multiplicity after operator.index and the
    sign check; keys of multiplicity 0 are never read."""
    out = Counter()
    for v, m in C.items():
        m = operator.index(m)
        if m < 0:
            raise ValueError("multiplicity of %s is negative: %d" % (v, m))
        if m:
            out[rat(v)] += m
    return out


@st.composite
def mixed_mappings(draw, invalid=True):
    """Counters and dicts over int, Fraction and p/q string keys, equal values
    spelled apart ("1/2", "2/4", F(1, 2)), multiplicities from 0 up, and, when
    ``invalid``, at times one negative or non-integer multiplicity."""
    keys = st.one_of(
        st.integers(-4, 4),
        st.builds(F, st.integers(-4, 4), st.sampled_from((1, 2, 3))),
        st.builds("{}/{}".format, st.integers(-8, 8), st.sampled_from((1, 2, 4, 6))),
        st.integers(-4, 4).map(str),
    )
    values = draw(st.dictionaries(keys, st.integers(0, 3), max_size=10))
    bad = draw(st.sampled_from((None, None, None, -1, -3, 2.5, F(3, 2), True) if invalid
                               else (None,)))
    if values and bad is not None:
        values[draw(st.sampled_from(sorted(values, key=repr)))] = bad
    return draw(st.sampled_from((Counter, dict)))(values)


small_multisets = st.dictionaries(
    st.fractions(min_value=-6, max_value=6, max_denominator=4),
    st.integers(min_value=1, max_value=4),
    max_size=6,
)


class TestMultisets:
    def test_worked_example(self):
        d = multiset_diff([1, 2], [1, 2])
        assert d == Counter({F(0): 2, F(1): 1, F(-1): 1})
        prod = multiset_prod(d, d)
        assert mu(prod) == 12
        assert prod[F(0)] == 12

    def test_diff_diagonal(self):
        C = [F(1), F(5, 2), F(7)]
        assert multiset_diff(C, C)[F(0)] == 3

    def test_prod_with_zero_singleton(self):
        C = Counter({F(2): 3, F(-1): 1})
        out = multiset_prod(C, Counter({F(0): 1}))
        assert out == Counter({F(0): 4})

    def test_mu_empty(self):
        assert mu([]) == 0

    def test_counter_equal_keys_add_up(self):
        # "1/2" and "2/4" are one rational: their multiplicities add, as in a list
        assert mu(Counter({"1/2": 1, "2/4": 3})) == mu(["1/2"] + ["2/4"] * 3) == 4
        assert multiset_diff(Counter({"1/2": 1, "2/4": 1}), [0]) == {F(1, 2): 2}

    def test_counter_multiplicity_must_be_an_integer(self):
        with pytest.raises(TypeError):
            mu(Counter({1: 2.5}))

    def test_counter_negative_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="^multiplicity of 1 is negative: -2$"):
            mu(Counter({1: -2, 2: -5}))

    def test_mapping_read_as_multiplicities(self):
        assert mu({F(1, 2): 3}) == mu(Counter({F(1, 2): 3})) == 3
        assert mu(MappingProxyType({"1/2": 2, "2/4": 2})) == 4
        assert multiset_diff({"1/2": 2, F(1, 2): 1}, [0]) == {F(1, 2): 3}

    def test_zero_multiplicity_key_still_checked(self):
        with pytest.raises(ValueError, match="^'x' is not an integer or p/q$"):
            mu(Counter({"x": 0}))
        assert counting.as_multiset(Counter({"1/2": 0, F(2): 0, 1: 2})) == {F(1): 2}

    def test_mapping_keys_in_first_occurrence_order(self):
        # each value sits where its first spelling with a nonzero multiplicity does
        values = {"2/4": 0, 3: 1, F(1, 2): 2, "6/2": 1, "1/2": 1, -1: 0, "0": 4}
        out = counting.as_multiset(values)
        assert list(out.items()) == [(F(3), 2), (F(1, 2), 3), (F(0), 4)]

    def test_mu_diff_prod_coerces_each_input_once(self, monkeypatch):
        A, B = ["1/2", 3, F(3, 2)], Counter({"1/3": 2, 1: 1, "2/6": 0})
        calls = []
        real = counting.as_multiset
        monkeypatch.setattr(counting, "as_multiset", lambda v: calls.append(v) or real(v))
        assert counting.mu_diff_prod(A, B) == 57
        assert len(calls) == 2 and calls[0] is A and calls[1] is B

    @settings(max_examples=150, deadline=None)
    @given(mixed_mappings(invalid=False), mixed_mappings(invalid=False))
    def test_mu_diff_prod_matches_fraction_pipeline(self, A, B):
        assert counting.mu_diff_prod(A, B) == \
            mu(multiset_prod(multiset_diff(A, A), multiset_diff(B, B)))

    @settings(max_examples=300, deadline=None)
    @given(mixed_mappings())
    def test_as_multiset_matches_per_key_loop(self, values):
        # a dict is read as the Counter it would make: the loop saw only its keys
        try:
            expected = as_multiset_oracle(Counter(values))
        except (TypeError, ValueError) as e:
            with pytest.raises(type(e), match="^%s$" % re.escape(str(e))):
                counting.as_multiset(values)
            return
        out = counting.as_multiset(values)
        assert out == expected
        assert all(type(v) is F and type(m) is int and m > 0 for v, m in out.items())

    # keys negative, zero and positive over mixed denominators; Counters with
    # multiplicities, or plain lists whose repeats are the multiplicities
    keys = st.builds(F, st.integers(-40, 40), st.sampled_from((1, 2, 3, 5, 6, 12, 35)))
    multisets = (st.dictionaries(keys, st.integers(1, 5), max_size=8).map(Counter)
                 | st.lists(keys, max_size=8))

    @settings(max_examples=200, deadline=None)
    @given(multisets, multisets)
    def test_convolutions_match_fraction_oracle(self, C, D):
        assert multiset_diff(C, D) == multiset_diff_oracle(C, D)
        assert multiset_prod(C, D) == multiset_prod_oracle(C, D)

    def test_convolution_keys_are_reduced(self):
        C, D = [F(1, 2), F(3, 4)], Counter({F(1, 4): 2, F(-2, 3): 1})
        for out in (multiset_diff(C, D), multiset_prod(C, D)):
            assert all(type(v) is F for v in out)
        assert multiset_diff(C, D) == {F(1, 4): 2, F(1, 2): 2, F(7, 6): 1, F(17, 12): 1}
        assert multiset_prod(C, D) == {F(1, 8): 2, F(3, 16): 2, F(-1, 3): 1, F(-1, 2): 1}

    @settings(max_examples=60, deadline=None)
    @given(small_multisets, small_multisets)
    def test_mass_multiplicative(self, C, D):
        C, D = Counter(C), Counter(D)
        assert multiset_prod(C, D).total() == C.total() * D.total()
        assert multiset_diff(C, D).total() == C.total() * D.total()


@pytest.mark.parametrize("call, message", [
    (lambda: point_hyperplane_incidences([(1, 2)], [((), Hyperplane((1, 1, 1), 3))]),
     "point dimension 2 != 3"),
    # the first max(I) points are never tested against the plane, but still checked
    (lambda: point_hyperplane_incidences([(1, 2, 3, 4), (1, 1, 1), (1, 2, 0)],
                                         [((1, 2), Hyperplane((1, 1, 1), 3))]),
     "point dimension 4 != 3"),
    (lambda: unit_rectangles([(1, 2), (2, 3)], 1, mode="anti-diagonal"),
     "unknown mode 'anti-diagonal'"),
    (lambda: divisor_count(0), "k must be >= 1"),
    (lambda: grid_area_k_count(1, 1), "n must be >= 2"),
    (lambda: grid_area_counts(1, 1)[1], "n must be >= 2"),
    (lambda: grid_area_counts(4, 0)[0], "k must be >= 1"),
    (lambda: grid_area_counts(1, 0), "n must be >= 2"),  # n is checked first
])
def test_boundary_checks(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()


@pytest.mark.parametrize("n, k", [(4, 2.0), (4.0, 2)], ids=["k", "n"])
def test_grid_area_counts_reads_integers_by_index(n, k):
    """n and k are read with operator.index: a float, even 2.0, is a TypeError."""
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        grid_area_counts(n, k)
