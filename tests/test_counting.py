import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tpminors import (
    Hyperplane,
    IncidenceConfig,
    Line2,
    Point2,
    RatMatrix,
    best_k,
    canonicalize_config,
    count_minors_equal,
    distinct_minor_count,
    divisor_count,
    dual_line,
    elekes_config,
    grid_area_k_count,
    grid_matrix,
    max_repeated_minor,
    minor_census,
    mu,
    multiset_diff,
    multiset_mass,
    multiset_prod,
    point_hyperplane_incidences,
    point_line_incidences,
    power_sum_matrix,
    unit_rectangles,
    verify_no_Kd2,
)


class TestMinorCensus:
    def test_grid3_all_pairs(self):
        assert minor_census(grid_matrix(3), 2) == {F(1): 4, F(2): 4, F(4): 1}

    def test_columns_only(self):
        A = RatMatrix([[1, 2, 1], [1, 3, 2]])
        assert minor_census(A, 2) == {F(1): 3}

    def test_order_one_is_entries(self):
        A = RatMatrix([[F(1, 2), 3], [3, F(1, 2)]])
        assert minor_census(A, 1) == {F(1, 2): 2, F(3): 2}

    def test_scope_validation(self):
        with pytest.raises(ValueError):
            minor_census(grid_matrix(3), 4)

    def test_total_mass(self):
        from math import comb
        A = power_sum_matrix(range(1, 6), range(5, 0, -1), 2)
        census = minor_census(A, 2)
        assert sum(census.values()) == comb(5, 2) ** 2


class TestCountersOverCensus:
    def test_count_equal_grid(self):
        assert count_minors_equal(grid_matrix(4), 2, 2) == 12
        assert count_minors_equal(grid_matrix(4), 2, 2) == grid_area_k_count(4, 2)

    def test_count_equal_assembled(self):
        A = RatMatrix([[1, 2, 1], [1, 3, 2]])
        assert count_minors_equal(A, 2, 1) == 3

    def test_zero_absent_in_tp(self):
        A = power_sum_matrix(range(1, 5), range(4, 0, -1), 2)
        assert count_minors_equal(A, 2, 0) == 0

    def test_max_repeated(self):
        assert max_repeated_minor(grid_matrix(4), 2) == (F(2), 12)
        # tie between values 1 and 2 breaks to the smaller value
        assert max_repeated_minor(grid_matrix(3), 2) == (F(1), 4)
        assert max_repeated_minor(RatMatrix([[3, 4], [2, 3]]), 2) == (F(1), 1)

    def test_distinct_counts(self):
        assert distinct_minor_count(grid_matrix(3), 2) == 3
        assert distinct_minor_count(RatMatrix([[3, 4], [2, 3]]), 2) == 1

    def test_distinct_power_sum_matches_products(self):
        a, b = (1, 2, 3), (3, 2, 1)
        A = power_sum_matrix(a, b, 2)
        values = set()
        for i in range(3):
            for j in range(i + 1, 3):
                for k in range(3):
                    for l in range(k + 1, 3):
                        values.add(F((a[l] - a[k]) * (b[i] - b[j])))
        assert distinct_minor_count(A, 2) == len(values)


class TestIncidences:
    def test_elekes(self):
        assert point_line_incidences(elekes_config(2)) == 16

    def test_single(self):
        cfg = IncidenceConfig((Point2(1, 2),), (Line2(1, 1),))
        count, pairs = point_line_incidences(cfg, return_pairs=True)
        assert count == 1 and pairs == [(0, 0)]

    def test_projective_invariance(self):
        cfg = elekes_config(3)
        can = canonicalize_config(cfg, seed=13)
        assert point_line_incidences(can) == point_line_incidences(cfg)

    def test_d2_reduction_to_dual_lines(self):
        pts = [Point2(1, 1), Point2(1, 2), Point2(2, 3), Point2(F(1, 2), 3)]
        duals = [dual_line(p) for p in pts]
        cfg = IncidenceConfig(tuple(pts), tuple(duals))
        planes = [Hyperplane((-p.y, p.x), 1) for p in pts]
        assert point_hyperplane_incidences([(p.x, p.y) for p in pts], planes) == \
            point_line_incidences(cfg)

    def test_empty_planes(self):
        assert point_hyperplane_incidences([(1, 2)], []) == 0

    def test_ordered_restriction_matches_unit_minor_count(self):
        from tpminors import hyperplane_family, scale_to_unit
        rng = random.Random(3)
        for _ in range(5):
            n = rng.randint(4, 8)
            a = sorted(rng.sample(range(1, 40), n))
            A = scale_to_unit(
                power_sum_matrix(a, (5, 3, 1), 3), (1, 2, 3), (1, 2, 3)
            )
            fam = hyperplane_family(A, 1)
            pts = [A.column(j) for j in range(1, A.cols + 1)]
            got = point_hyperplane_incidences(
                pts, [h for _, h in fam], [I for I, _ in fam]
            )
            assert got == count_minors_equal(A, 3, 1)


class TestNoKd2:
    def test_duplicate_plane_with_d_points(self):
        h = Hyperplane((0, 0, 1), 1)  # z = 1
        pts = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (5, 5, 5)]
        ok, witness = verify_no_Kd2(pts, [h, h])
        assert not ok
        assert witness == ((0, 1, 2), (0, 1))

    def test_d_minus_1_shared_points_fine(self):
        h1 = Hyperplane((0, 0, 1), 1)
        h2 = Hyperplane((1, 0, 0), 0)  # x = 0; intersection holds 2 of the points
        pts = [(0, 0, 1), (0, 1, 1), (7, 3, 1)]
        ok, _ = verify_no_Kd2(pts, [h1, h2])
        assert ok

    def test_empty(self):
        assert verify_no_Kd2([(1, 2)], []) == (True, None)


class TestUnitRectangles:
    def test_small_example(self):
        pts = [Point2(0, 0), Point2(1, 1), Point2(2, 0), Point2(3, 1)]
        assert unit_rectangles(pts, 1) == 2

    def test_grid_corners(self):
        pts = [Point2(x, y) for x in range(1, 5) for y in range(1, 5)]
        assert unit_rectangles(pts, 1) == 9
        assert unit_rectangles(pts, 1) == grid_area_k_count(4, 1)

    def test_single_point(self):
        assert unit_rectangles([Point2(2, 2)], 1) == 0

    def test_both_diagonals(self):
        pts = [Point2(0, 0), Point2(1, 1), Point2(0, 1), Point2(1, 0)]
        assert unit_rectangles(pts, 1, "diagonal") == 1
        assert unit_rectangles(pts, 1, "both-diagonals") == 2

    def test_fractional_area(self):
        pts = [Point2(0, 0), Point2(F(1, 2), F(1, 2))]
        assert unit_rectangles(pts, F(1, 4)) == 1
        assert unit_rectangles(pts, F(1, 3)) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            unit_rectangles([Point2(0, 0)], 0)
        with pytest.raises(ValueError):
            unit_rectangles([Point2(0, 0), Point2(0, 0)], 1)


class TestGridClosedForm:
    def test_examples(self):
        assert grid_area_k_count(4, 1) == 9
        assert grid_area_k_count(4, 2) == 12
        assert grid_area_k_count(4, 10) == 0  # no divisor pair fits in 3x3 spans

    def test_bridge_small(self):
        for n in range(2, 12):
            census = minor_census(grid_matrix(n), 2)
            for v, m in census.items():
                assert v.denominator == 1
                assert m == grid_area_k_count(n, v.numerator)
            # values absent from the census have zero closed-form count
            for k in range(1, (n - 1) ** 2 + 2):
                if F(k) not in census:
                    assert grid_area_k_count(n, k) == 0

    def test_matches_rect_counter(self):
        for n in (3, 5, 7):
            pts = [Point2(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
            for k in (1, 2, 6):
                assert unit_rectangles(pts, k) == grid_area_k_count(n, k)

    def test_divisor_lower_bound_sample(self):
        for n in (20, 50):
            for k in range(1, n // 2 + 1):
                assert grid_area_k_count(n, k) >= F(n * n, 4) * divisor_count(k)


class TestDivisors:
    def test_examples(self):
        assert divisor_count(12) == 6
        assert divisor_count(1) == 1
        assert divisor_count(36) == 9

    def test_best_k(self):
        assert best_k(24) == (12, 6)
        assert best_k(2) == (1, 1)

    def test_brute_force_agreement(self):
        for k in range(1, 200):
            assert divisor_count(k) == sum(1 for d in range(1, k + 1) if k % d == 0)


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

    @settings(max_examples=60, deadline=None)
    @given(small_multisets, small_multisets)
    def test_mass_multiplicative(self, C, D):
        C, D = Counter(C), Counter(D)
        assert multiset_mass(multiset_prod(C, D)) == multiset_mass(C) * multiset_mass(D)
        assert multiset_mass(multiset_diff(C, D)) == multiset_mass(C) * multiset_mass(D)
