import random
import re
import sys
from fractions import Fraction as F
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

from tpminors import (
    RatMatrix,
    det,
    matrix_from_text,
    matrix_to_text,
    minor,
    scale_to_unit,
    verify_tp,
    verify_tp_contiguous,
)
from tpminors import exact
from tpminors.constructions import (
    assemble_tp_2xn,
    canonicalize_config,
    elekes_config,
    grid_matrix,
    power_sum_matrix,
)
from tpminors.exact import clear_denominators, det_int, rat


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=8
)


def rand_matrix(draw_rows):
    return RatMatrix(draw_rows)


def cof_det(m):
    """Cofactor expansion along the first row: the slow determinant oracle."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = F(0)
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cof_det(sub)
    return total


class TestDet:
    def test_hand_2x2(self):
        assert det(RatMatrix([[3, 4], [2, 3]])) == 1

    def test_identity(self):
        assert det(RatMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 1

    def test_hand_3x3_power_sum(self):
        assert det(RatMatrix([[16, 25, 36], [9, 16, 25], [4, 9, 16]])) == 8

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(RatMatrix([[1, 2, 3], [4, 5, 6]]))

    def test_bareiss_path_matches_expansion(self):
        # 7x7 exercises the fraction-free elimination branch (closed forms stop
        # at order 5); the diagonal term keeps the matrix nonsingular
        rows = [[F(i * j + i + 2 * j + 1 + (i == j), 1 + (i + j) % 3) for j in range(7)]
                for i in range(7)]
        A = RatMatrix(rows)
        assert det(A) == cof_det([list(r) for r in A.entries]) != 0

    @staticmethod
    def bareiss_on_inherited_scales(transpose):
        # columns 2 and 5 of the 9x9 carry denominator 7 and row i carries P[i]
        # elsewhere, so no row's lcm (lcm(7, P[i]), at most 35) exceeds the
        # largest column lcm (210) and rows are cleared; the 7x7 submatrix drops
        # columns 2 and 5 but inherits row scales that still hold the 7, so
        # Bareiss runs on lines that are not the minimal ones.  Transposed, the
        # same holds for inherited column scales.
        P = (1, 2, 3, 5, 7, 2, 3, 5, 1)
        rows = [[F(i * j + i + 2 * j + 1 + (i == j), 7 if j in (1, 4) else P[i])
                 for j in range(9)] for i in range(9)]
        I, J = (1, 2, 3, 5, 6, 8, 9), (1, 3, 4, 6, 7, 8, 9)
        if transpose:
            rows, I, J = [list(r) for r in zip(*rows)], J, I
        sub = RatMatrix(rows)._select(I, J)
        value = det(sub)
        _, scales, by_cols = sub._cleared
        assert by_cols is transpose
        assert scales != clear_denominators(zip(*sub.entries) if by_cols else sub.entries)[1]
        assert value == cof_det([list(r) for r in sub.entries]) != 0

    def test_bareiss_on_inherited_row_scales(self):
        self.bareiss_on_inherited_scales(transpose=False)

    def test_bareiss_on_inherited_column_scales(self):
        self.bareiss_on_inherited_scales(transpose=True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3),
        st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
    )
    def test_row_scaling_scales_det(self, rows, c):
        A = RatMatrix(rows)
        assert det(RatMatrix([[c * e for e in rows[0]], *rows[1:]])) == c * det(A)


class TestDetIntAgainstSympy:
    """det_int against an outside exact determinant: closed forms for
    orders <= 5, Bareiss elimination beyond."""

    @staticmethod
    def sympy_det(m):
        sympy = pytest.importorskip("sympy")
        return int(sympy.Matrix(m).det(method="berkowitz"))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2**40, max_value=2**40), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ))
    def test_random(self, m):
        assert det_int(m) == self.sympy_det(m)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=4, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 2**40 + 1)), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ))
    def test_sparse_zero_pivots(self, m):
        # mostly zero entries: pivots vanish mid-elimination and rows swap
        assert det_int(m) == self.sympy_det(m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=6, max_value=7).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 2**40 + 1)), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ))
    def test_sparse_zero_pivots_bareiss(self, m):
        # the same alphabet at orders 6-7, which reach Bareiss: row swaps there
        assert det_int(m) == self.sympy_det(m)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=4, max_value=5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2**200, max_value=2**200), min_size=n, max_size=n),
            min_size=n, max_size=n,
        )
    ))
    def test_closed_forms_wide_operands(self, m):
        assert det_int(m) == self.sympy_det(m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_pivot_swaps(self, n):
        anti = [[int(i + j == n - 1) for j in range(n)] for i in range(n)]
        assert det_int(anti) == self.sympy_det(anti)
        # a singular leading 2x2 block: the second pivot vanishes mid-elimination
        m = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(n)] for i in range(n)]
        if n >= 2:
            m[0][:2], m[1][:2] = [1, 2], [2, 4]
        assert det_int(m) == self.sympy_det(m)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_singular(self, n):
        m = [[i * n + j + 1 for j in range(n)] for i in range(n)]
        m[-1] = list(m[0])  # repeated row
        assert det_int(m) == self.sympy_det(m) == 0
        zero_col = [[0] + row[1:] for row in m]
        assert det_int(zero_col) == self.sympy_det(zero_col) == 0


class TestDetIntShape:
    """det_int's frame holds only the order-2 closed form.  CPython sets up
    and clears every local slot of a frame on each call, so each local of
    det_int is paid by every order-2 minor of a census, whatever order it
    serves; every other order is one kernel call below det_int."""

    def test_at_most_five_locals(self):
        # m and the four entries (a, b), (c, d) of an order-2 matrix
        assert det_int.__code__.co_nlocals <= 5

    @staticmethod
    def python_calls(m):
        calls = []
        sys.setprofile(lambda frame, event, arg: event == "call" and calls.append(frame))
        try:
            det_int(m)
        finally:
            sys.setprofile(None)
        return [frame.f_code.co_name for frame in calls]

    def test_order_2_is_one_call(self):
        assert self.python_calls([[1, 2], [3, 4]]) == ["det_int"]

    @pytest.mark.parametrize("n", [1, 3, 4, 5])
    def test_other_closed_forms_are_one_kernel_below(self, n):
        # no order-5 minor of the power-sum census pays a second hop
        calls = self.python_calls([[i * n + j + 1 for j in range(n)] for i in range(n)])
        assert len(calls) == 2 and calls[0] == "det_int"


class TestReduced:
    """reduced(p, q) is p/q in lowest terms with a positive second entry: the
    (numerator, denominator) of Fraction(p, q)."""

    ints = st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 40, 10 ** 40)

    @settings(max_examples=500, deadline=None)
    @given(ints, ints.filter(bool), st.integers(1, 10 ** 40))
    def test_matches_fraction(self, p, q, g):
        for p, q in ((p, q), (p * g, q * g), (0, q), (-p, -q)):
            v = F(p, q)
            assert exact.reduced(p, q) == (v.numerator, v.denominator)

    @pytest.mark.parametrize("p, q, want", [
        (0, 5, (0, 1)), (0, -5, (0, 1)), (6, -4, (-3, 2)), (-6, -4, (3, 2)),
        (7, 1, (7, 1)), (10 ** 40, -(2 * 10 ** 40), (-1, 2)),
    ])
    def test_signs_and_zero(self, p, q, want):
        assert exact.reduced(p, q) == want


class TestMinor:
    def test_2x2_selection(self):
        A = RatMatrix([[1, 2, 1], [1, 3, 2]])
        assert minor(A, (1, 2), (2, 3)) == 1

    def test_1x1_is_entry(self):
        A = RatMatrix([[F(5, 7), 2], [3, 4]])
        assert minor(A, (1,), (1,)) == F(5, 7)

    def test_grid_minor_closed_form(self):
        assert minor(grid_matrix(3), (1, 3), (1, 3)) == 4

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            minor(RatMatrix([[1, 2], [3, 4]]), (1, 2), (1,))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            minor(RatMatrix([[1, 2], [3, 4]]), (1, 3), (1, 2))

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError):
            minor(RatMatrix([[1, 2], [3, 4]]), (), ())

    def test_float_index_rejected(self):
        with pytest.raises(TypeError):
            minor(RatMatrix([[1, 2], [3, 4]]), (1.9,), (2.2,))


class TestVerifyTp:
    def test_small_tp(self):
        assert verify_tp(RatMatrix([[1, 2], [1, 3]])) is None

    def test_witness_is_first_lexicographic(self):
        witness = verify_tp(RatMatrix([[1, 2], [2, 1]]))
        assert witness == (2, (1, 2), (1, 2), F(-3))

    def test_assembled_example(self):
        assert verify_tp(RatMatrix([[1, 2, 1], [1, 3, 2]])) is None

    def test_one_row_matrix(self):
        assert verify_tp(RatMatrix([[1, 5, F(1, 3)]])) is None
        assert verify_tp(RatMatrix([[1, -5, 3]])) is not None

    def test_max_order_cutoff(self):
        # positive entries but a negative 2x2 minor: TP_1 holds, TP_2 fails
        A = RatMatrix([[1, 2], [2, 1]])
        assert verify_tp(A, max_order=1) is None
        assert verify_tp(A, max_order=2) is not None

    @pytest.mark.parametrize("order", [0, -1])
    def test_max_order_below_one_rejected(self, order):
        with pytest.raises(ValueError):
            verify_tp(RatMatrix([[-1, 2], [3, -4]]), max_order=order)

    def test_max_order_above_dimensions_rejected(self):
        # rejected before the scan, although the order-1 minor at (1, 1) fails
        with pytest.raises(ValueError, match=re.escape("order 3 exceeds matrix dimensions 2x4")):
            verify_tp(RatMatrix([[-1, 2, 3, 4], [1, 3, 5, 7]]), max_order=3)
        assert verify_tp(RatMatrix([[1, 2, 3, 4], [1, 3, 5, 7]]), max_order=2) is None

    def test_exhaustive_scan_calls_det_once_per_minor(self, monkeypatch):
        # the 8x8 power-sum matrix with k = 5 is TP_5, so verify_tp(A, 5) reads
        # every minor of orders 1..5 through det: sum of C(8, r)^2 = 12,020 calls
        A = power_sum_matrix([F(j, 2) for j in range(1, 9)], [F(9 - i, 3) for i in range(8)], 5)
        calls = 0

        def counted_det(M, det=exact.det):
            nonlocal calls
            calls += 1
            return det(M)

        monkeypatch.setattr(exact, "det", counted_det)
        assert verify_tp(A, 5) is None
        assert calls == sum(comb(8, r) ** 2 for r in range(1, 6)) == 12020

    def test_ok_implies_sampled_minors_positive(self):
        # the k=2 power-sum matrix is TP_2; spot-check individual 2x2 minors
        A = power_sum_matrix(range(1, 6), range(5, 0, -1), 2)
        assert verify_tp(A, max_order=2) is None
        assert minor(A, (2, 4), (1, 5)) > 0
        assert minor(A, (1, 3), (2, 4)) > 0


class TestContiguousCriterion:
    def test_small_cases(self):
        assert verify_tp_contiguous(RatMatrix([[1, 2], [1, 3]])) is None
        assert verify_tp_contiguous(RatMatrix([[1, 2], [2, 1]])) is not None

    def test_power_sum_4x4(self):
        for shift in range(3):
            a = [F(i + 1) + F(shift, 3) for i in range(4)]
            b = [F(5 - i) + F(shift, 5) for i in range(4)]
            A = power_sum_matrix(a, b, 2)
            assert (verify_tp_contiguous(A) is None) == (verify_tp(A) is None)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.data(),
    )
    def test_agrees_with_exhaustive(self, r, c, data):
        rows = data.draw(
            st.lists(
                st.lists(
                    st.fractions(min_value=F(1, 4), max_value=9, max_denominator=4),
                    min_size=c,
                    max_size=c,
                ),
                min_size=r,
                max_size=r,
            )
        )
        A = RatMatrix(rows)
        assert verify_tp_contiguous(A) == verify_tp(A)

    def test_witness_scan_skips_lower_orders(self, monkeypatch):
        # a 9x9 Vandermonde with entry (9, 1) nudged: TP_3, and the first failing
        # solid minor of order 4, rows 6-9, is not the lexicographic witness
        rows = [[F(x) ** e for e in range(9)] for x in range(1, 10)]
        rows[8][0] *= F(11, 10)
        A = RatMatrix(rows)
        want = verify_tp(A)
        orders = []

        def counted_det_int(m, det_int=exact.det_int):
            orders.append(len(m))
            return det_int(m)

        # the solid scan and the witness scan's det both evaluate through det_int
        monkeypatch.setattr(exact, "det_int", counted_det_int)
        assert verify_tp_contiguous(A) == want and want[0] == 4
        # below order 4 only the solid minors, (10 - r)^2 of order r, are
        # evaluated (194 where an exhaustive scan takes 8,433), and none after order 4
        assert sum(r < 4 for r in orders) == sum((10 - r) ** 2 for r in range(1, 4))
        assert orders == sorted(orders)
        # the Vandermonde itself is TP, and is certified on its cleared
        # integers alone: no det call
        dets = []
        monkeypatch.setattr(exact, "det", lambda M, det=exact.det: dets.append(M) or det(M))
        rows[8][0] = F(1)
        assert verify_tp_contiguous(RatMatrix(rows)) is None and dets == []


class TestContiguousOnSlopeSorted:
    """The certificate of assemble_tp_2xn on the matrices it is given: a
    positive 2 x n matrix with columns sorted by slope, which is TP exactly
    when the slopes increase strictly.  An injected tie or one swapped
    adjacent pair must fail both checks."""

    positive = st.fractions(min_value=F(1, 8), max_value=20, max_denominator=8)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(positive, positive), min_size=2, max_size=12),
        st.sampled_from(("sorted", "tie", "swap")),
        st.data(),
    )
    def test_agrees_with_exhaustive(self, cols, defect, data):
        cols.sort(key=lambda p: p[1] / p[0])
        i = data.draw(st.integers(min_value=0, max_value=len(cols) - 2))
        if defect == "tie":
            c = data.draw(self.positive)
            cols[i + 1] = (c * cols[i][0], c * cols[i][1])
        elif defect == "swap":
            cols[i], cols[i + 1] = cols[i + 1], cols[i]
        A = RatMatrix([[x for x, _ in cols], [y for _, y in cols]])
        slopes = [y / x for x, y in cols]
        assert (verify_tp(A) is None) == all(a < b for a, b in zip(slopes, slopes[1:]))
        assert verify_tp_contiguous(A) == verify_tp(A)


class TestSubmatrix:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.data())
    def test_equals_and_hashes_like_constructed(self, r, c, data):
        A = RatMatrix(data.draw(st.lists(st.lists(rationals, min_size=c, max_size=c),
                                         min_size=r, max_size=r)))
        idx = lambda n: tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
        I, J = idx(r), idx(c)
        sub = A._select(I, J)
        built = RatMatrix([[A.entries[i - 1][j - 1] for j in J] for i in I])
        assert sub == built and hash(sub) == hash(built)
        assert (sub.rows, sub.cols) == (len(I), len(J))
        assert sub._select((1,), (1,)) == RatMatrix([[A.entries[I[0] - 1][J[0] - 1]]])

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_nested_selection_matches_fresh_build(self, r, c, data):
        """A chain of one to three _select calls, each inheriting the cleared
        lines, line scales and axis of the one before, reads like a RatMatrix
        built from the same entries: its det (before its entries are read),
        entries, shape, repr, == and hash.  Chains run from the drawn parent
        and from its transpose, so one parent is held by rows and the other by
        columns, unless the largest lcm of a row's denominators equals that of
        a column's."""
        entry = st.one_of(st.just(F(0)), rationals)
        rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                  min_size=r, max_size=r))

        def top(m):
            return max(lcm(*(e.denominator for e in line)) for line in m)

        axes = set()
        for parent in (rows, [list(col) for col in zip(*rows)]):
            sub, plain = RatMatrix(parent), parent
            by_cols = sub._cleared[2]
            assert by_cols is (top(parent) > top(zip(*parent)))
            axes.add(by_cols)
            for _ in range(data.draw(st.integers(1, 3))):
                I = sorted(data.draw(st.sets(st.integers(1, len(plain)), min_size=1)))
                J = sorted(data.draw(st.sets(st.integers(1, len(plain[0])), min_size=1)))
                sub = sub._select(I, J)
                plain = [[plain[i - 1][j - 1] for j in J] for i in I]
            assert sub._cleared[2] is by_cols
            built = RatMatrix(plain)
            if len(plain) == len(plain[0]):
                assert det(sub) == det(built) == cof_det(plain)
            else:
                shape = "%dx%d" % (len(plain), len(plain[0]))
                for M in (sub, built):
                    with pytest.raises(ValueError, match="^determinant requires a square "
                                                         "matrix, got %s$" % shape):
                        det(M)
            assert sub.entries == built.entries == tuple(map(tuple, plain))
            assert (sub.rows, sub.cols) == (built.rows, built.cols)
            assert repr(sub) == repr(built)
            assert sub == built and built == sub and hash(sub) == hash(built)
        assert axes == {False, True} or top(rows) == top(zip(*rows))

    def test_shape_read_builds_no_fraction(self, monkeypatch):
        """A matrix holds only its cleared lines: the shape of a submatrix is
        read from them, while its entries are built afresh on every read."""
        # rows clear to narrower integers than columns; the transpose is held by columns
        rows = [[F(1, 2), F(3, 2), 5], [F(7, 3), 1, F(2, 3)], [4, F(9, 5), F(1, 5)]]
        parents = [RatMatrix(rows), RatMatrix(list(zip(*rows)))]
        assert [A._cleared[2] for A in parents] == [False, True]
        subs = [A._select(I, J) for A in parents for I, J in [((1, 3), (2, 3)), ((2,), (1, 2, 3))]]
        assert RatMatrix.__slots__ == ("_cleared",)
        built = []
        monkeypatch.setattr(exact, "Fraction", lambda *args: built.append(args) or F(*args))
        assert [(sub.rows, sub.cols) for sub in subs] == [(2, 2), (1, 3)] * 2
        assert built == []
        for sub in subs:
            assert sub.entries == sub.entries
        assert len(built) == 2 * (4 + 3) * 2


class TestClearingAxis:
    """RatMatrix(rows) picks its axis from the denominators and clears only
    that axis: the rows, unless some row's lcm exceeds every column's."""

    # a row's lcm is 12, past the largest column lcm (6)
    WIDE = [[F(1, 2), F(3, 4), F(1), F(2, 3), F(-1, 6)],
            [F(1, 2), F(5, 4), F(1), F(-1, 3), F(5, 6)]]

    @staticmethod
    def tp2xn_rows():
        """The rows of a matrix as ``construct tp2xn`` prints it: each column
        (X, Y) has its own small denominator, while a row's lcm covers all."""
        A = assemble_tp_2xn(canonicalize_config(elekes_config(3), seed=3))
        return [list(row) for row in matrix_from_text(matrix_to_text(A)).entries]

    @pytest.mark.parametrize("kind, by_cols", [
        ("wide", True), ("wide-transposed", False), ("integer", False),
        ("tp2xn", True), ("tp2xn-transposed", False),
    ])
    def test_one_clearing_on_the_chosen_axis(self, monkeypatch, kind, by_cols):
        rows = {"wide": self.WIDE, "integer": [[1, 2, 3], [4, 5, 6]],
                "tp2xn": self.tp2xn_rows()}[kind.removesuffix("-transposed")]
        if kind.endswith("-transposed"):
            rows = [list(col) for col in zip(*rows)]
        cleared = []

        def recording(lines):
            lines = [tuple(line) for line in lines]
            cleared.append(lines)
            return clear_denominators(lines)

        monkeypatch.setattr(exact, "clear_denominators", recording)
        A = RatMatrix(rows)
        assert len(cleared) == 1
        assert A._cleared[2] is by_cols
        assert cleared[0] == (list(zip(*rows)) if by_cols else [tuple(r) for r in rows])
        assert A.entries == tuple(map(tuple, rows))

    @pytest.mark.parametrize("r, c", [(1, 1), (5, 5), (9, 2), (40, 3), (7, 1),
                                      (2, 9), (3, 40), (1, 7)])
    def test_axis_rule_by_brute_force(self, r, c):
        """Tall, wide and square: by_cols exactly when the largest row lcm
        exceeds the largest column lcm, although only the shorter lines' lcms
        are taken in full.  Small denominators make ties common; a row or a
        column of larger ones tips the rule either way."""
        rng = random.Random(r * 100 + c)
        entry = lambda dens: F(rng.randint(-9, 9), rng.choice(dens))

        def top(lines):
            return max(lcm(*(e.denominator for e in line)) for line in lines)

        seen = set()
        for _ in range(300):
            rows = [[entry((1, 2, 3)) for _ in range(c)] for _ in range(r)]
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5:
                    rows[rng.randrange(r)] = [entry((4, 5, 7, 11)) for _ in range(c)]
                else:
                    j = rng.randrange(c)
                    for row in rows:
                        row[j] = entry((4, 5, 7, 11))
            rule = top(rows) > top(zip(*rows))
            assert RatMatrix(rows)._cleared[2] is rule
            seen.add("tie" if top(rows) == top(zip(*rows)) else rule)
        # a one-column matrix never clears by columns, a one-row one never by rows
        assert seen == {"tie", *([True] if c > 1 else []), *([False] if r > 1 else [])}


class TestScaleToUnit:
    def test_scale_row(self):
        A = scale_to_unit(RatMatrix([[2, 4], [1, 3]]), (1, 2), (1, 2))
        assert A == RatMatrix([[1, 2], [1, 3]])

    def test_unit_minor_noop(self):
        A = RatMatrix([[1, 2], [1, 3]])
        assert scale_to_unit(A, (1, 2), (1, 2)) == A

    def test_designated_minor_becomes_one(self):
        A = power_sum_matrix(range(1, 6), (2, 1), 2)._select((1, 2), (1, 2, 3, 4, 5))
        for J in [(1, 2), (2, 4), (3, 5)]:
            B = scale_to_unit(A, (1, 2), J)
            assert minor(B, (1, 2), J) == 1

    def test_nonpositive_minor_rejected(self):
        with pytest.raises(ValueError):
            scale_to_unit(RatMatrix([[1, 2], [2, 1]]), (1, 2), (1, 2))

    def test_tp_preserved(self):
        A = RatMatrix([[2, 4, 3], [1, 3, 4]])
        assert verify_tp(A) is None
        assert verify_tp(scale_to_unit(A, (1, 2), (1, 2))) is None


class TestTextFormat:
    def test_round_trip(self):
        A = RatMatrix([[F(1, 3), 2], [F(-7, 2), F(5)]])
        assert matrix_from_text(matrix_to_text(A)) == A

    def test_explicit_form(self):
        text = "2 2\n1/3 2\n-7/2 5\n"
        A = matrix_from_text(text)
        assert A.entries[0][0] == F(1, 3)
        assert matrix_to_text(A) == text

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            matrix_from_text("2 2\n1 2\n3\n")

    @pytest.mark.parametrize("token", ["1.5", "1e3", "0x10", "1/2.0", "inf", "nan", "1//2"])
    def test_non_rational_token_rejected(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            matrix_from_text("2 2\n1 %s\n1 2\n" % token)

    def test_signed_tokens_accepted(self):
        A = matrix_from_text("1 3\n-3/4 +2 -7\n")
        assert A.entries == ((F(-3, 4), F(2), F(-7)),)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RatMatrix([[0.5]])


class TestRatParser:
    """``rat`` on strings agrees with ``Fraction(token)`` on every token made
    of ASCII digits, signs and one slash, and rejects every other string."""

    digits = st.text("0123456789", min_size=1, max_size=40)  # leading zeros too
    tokens = st.builds(
        lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
        st.sampled_from(("", "+", "-")), digits, st.none() | digits)

    @staticmethod
    def outcome(parse, token):
        """The value, or ValueError: a zero denominator is one more token rat
        rejects by name, where Fraction raises ZeroDivisionError."""
        try:
            return parse(token)
        except (ValueError, ZeroDivisionError):
            return ValueError

    @settings(max_examples=300, deadline=None)
    @given(tokens)
    def test_integer_and_fraction_tokens(self, token):
        got = self.outcome(rat, token)
        assert got == self.outcome(F, token)
        assert got is ValueError or type(got) is F

    @pytest.mark.parametrize("token, value", [
        ("-0", F(0)), ("+0", F(0)), ("0/5", F(0)), ("-0/7", F(0)), ("007", F(7)),
        ("-04/006", F(-2, 3)), ("+12/1", F(12)), ("2/4", F(1, 2)),
        ("9" * 60, F(int("9" * 60))), ("-" + "1" * 50 + "/3", F(-int("1" * 50), 3)),
    ])
    def test_examples(self, token, value):
        assert rat(token) == value

    def test_fraction_returned_as_itself(self):
        x = F(3, 4)
        assert rat(x) is x

    def test_fraction_subclass_made_a_fraction(self):
        class Half(F):
            pass
        got = rat(Half(1, 2))
        assert type(got) is F and got == F(1, 2)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_rejected(self, value):
        with pytest.raises(TypeError):  # as a float is, not read as 1 or 0
            rat(value)

    @settings(max_examples=300, deadline=None)
    @given(st.text("0123456789+-/ .e_\u0661\u0660x", max_size=8))
    def test_other_strings_rejected(self, token):
        if set(token) <= set("0123456789+-/"):
            assert self.outcome(rat, token) == self.outcome(F, token)
        else:
            with pytest.raises(ValueError, match=re.escape(repr(token))):
                rat(token)

    @pytest.mark.parametrize("token", [
        "", " ", " 1", "1 ", "1 /2", "1.5", "1e3", "1/-2", "1/+2", "--1", "+-1", "1/",
        "/2", "1/2/3", "1_000", "\u0661", "1\u0662", "\uff11", "1\n", "1/0", "-3/000", "0/0",
    ])
    def test_rejected(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            rat(token)


@pytest.mark.parametrize("call, message", [
    (lambda: minor(RatMatrix([[1, 2], [3, 4]]), (2, 1), (1, 2)),
     "row tuple must be strictly increasing: (2, 1)"),
    (lambda: minor(RatMatrix([[1, 2], [3, 4]]), (1, 2), (2, 2)),
     "column tuple must be strictly increasing: (2, 2)"),
    (lambda: RatMatrix([]), "matrix must have at least one row and one column"),
    (lambda: RatMatrix([[]]), "matrix must have at least one row and one column"),
    (lambda: RatMatrix([[1, 2], [3]]), "ragged rows"),
    (lambda: scale_to_unit(RatMatrix([[1, 2], [1, 3], [1, 4]]), (1, 2), (1, 2)),
     "designated minor must be full height (|I0| = rows)"),
    (lambda: matrix_from_text(" \n\n"), "empty matrix text"),
    (lambda: matrix_from_text("2 2\n1 2\n"), "expected 2 data rows, got 1"),
    (lambda: matrix_from_text("1 2\n1 2\n3 4\n"), "expected 1 data rows, got 2"),
    # int() reads each of these headers; none is an unsigned decimal integer pair
    (lambda: matrix_from_text("+1 2\n1 2\n"),
     "first line must be 'rows cols' as unsigned integers, got '+1 2'"),
    (lambda: matrix_from_text("1 0_2\n1 2\n"),
     "first line must be 'rows cols' as unsigned integers, got '1 0_2'"),
    (lambda: matrix_from_text(" \u0661 2\n1 2\n"),
     "first line must be 'rows cols' as unsigned integers, got '\u0661 2'"),
])
def test_boundary_checks(call, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
