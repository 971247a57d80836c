"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
from fractions import Fraction as F

import pytest

from tpminors import (
    RunConfig,
    assemble_tp_2xn,
    canonicalize_config,
    count_minors_equal,
    det,
    elekes_config,
    grid_area_counts,
    grid_matrix,
    hyperplane_family,
    minor_census,
    mu,
    multiset_diff,
    multiset_prod,
    point_hyperplane_incidences,
    point_line_incidences,
    power_sum_det_closed_form,
    power_sum_matrix,
    scale_to_unit,
    scan_exponent,
    st_bound_check,
    unit_rectangles,
    verify_tp,
)
from tpminors.counting import as_multiset

from oracles import divisor_count, verify_no_Kd2
from test_counting import fraction_census


def _report(name, ok):
    print("ACCEPTANCE %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok


def _random_increasing(rng, count, hi=60, max_den=6):
    vals = set()
    while len(vals) < count:
        vals.add(F(rng.randint(1, hi), rng.randint(1, max_den)))
    return sorted(vals)


@pytest.fixture(scope="module")
def pipeline():
    """Canonicalized configurations and assembled matrices for N = 2..5."""
    out = {}
    for N in range(2, 6):
        cfg = elekes_config(N)
        can = canonicalize_config(cfg, seed=100 + N)
        out[N] = (cfg, can, assemble_tp_2xn(can))
    return out


def test_criterion_1_power_sum_determinant_identity():
    rng = random.Random(1001)
    ok = True
    for _ in range(200):
        k = rng.randint(2, 6)
        a = _random_increasing(rng, k)
        b = list(reversed(_random_increasing(rng, k)))
        ok = ok and det(power_sum_matrix(a, b, k)) == power_sum_det_closed_form(a, b, k)
    ok = ok and det(power_sum_matrix((1, 2, 3), (3, 2, 1), 3)) == 8
    _report("1 determinant identity", ok)


def test_criterion_2_all_kxk_minors_positive():
    rng = random.Random(1002)
    ok = True
    for _ in range(50):
        n = rng.randint(2, 8)
        k = rng.randint(2, min(4, n))
        a = _random_increasing(rng, n)
        b = list(reversed(_random_increasing(rng, n)))
        census = fraction_census(minor_census(power_sum_matrix(a, b, k), k))
        ok = ok and all(v > 0 for v in census)
    _report("2 corollary minor positivity", ok)


def test_criterion_3_lower_bound_pipeline(pipeline):
    ok = True
    for N, (cfg, can, A) in pipeline.items():
        ok = ok and A.rows == 2 and A.cols == 3 * N ** 3
        ok = ok and verify_tp(A) is None
        units = count_minors_equal(A, 2, 1)
        ok = ok and units >= N ** 4
        ok = ok and point_line_incidences(can) == N ** 4
    _report("3 lower-bound pipeline", ok)


def test_criterion_4_exponent_recovery():
    report = scan_exponent(RunConfig("elekes-2xn", (2, 3, 4, 5, 6), seed=42))
    ok = report.partial_error is None and abs(report.fitted_slope - 4 / 3) <= 0.1
    print("  fitted slope = %r" % report.fitted_slope)
    _report("4 exponent recovery", ok)


def test_criterion_5_grid_census_bridge():
    ok = True
    for n in range(2, 31):
        census = fraction_census(minor_census(grid_matrix(n), 2))
        for v, m in census.items():
            ok = ok and v.denominator == 1 and m == grid_area_counts(n, v.numerator)[v.numerator]
        ok = ok and sum(census.values()) == (n * (n - 1) // 2) ** 2
    ok = ok and fraction_census(minor_census(grid_matrix(4), 2)) == {
        F(1): 9, F(2): 12, F(3): 6, F(4): 4, F(6): 4, F(9): 1
    }
    _report("5 grid census bridge", ok)


def test_criterion_6_divisor_lower_bound():
    ok = True
    for n in (20, 50, 100, 200):
        for k in range(1, n // 2 + 1):
            if grid_area_counts(n, k)[k] < F(n * n, 4) * divisor_count(k):
                ok = False
    _report("6 divisor lower bound", ok)


def test_criterion_7_hyperplane_equivalence_d3():
    rng = random.Random(1007)
    ok = True
    for _ in range(30):
        n = rng.randint(4, 10)
        a = _random_increasing(rng, n, hi=40, max_den=4)
        b = list(reversed(_random_increasing(rng, 3, hi=20, max_den=4)))
        A = power_sum_matrix(a, b, 3)
        A = scale_to_unit(A, (1, 2, 3), (1, 2, 3))
        fam = hyperplane_family(A, 1)  # raises if any pair proportional
        pts = list(zip(*A.entries))
        got = point_hyperplane_incidences(pts, fam)
        want = count_minors_equal(A, 3, 1)
        ok = ok and got == want and want >= 1
        ok = ok and verify_no_Kd2(pts, [h for _, h in fam]) is None
    _report("7 hyperplane equivalence d=3", ok)


def test_criterion_8_rectangle_oracle():
    rng = random.Random(1008)
    ok = True
    for _ in range(100):
        g = 45
        cells = [(x, y) for x in range(g) for y in range(g)]
        pts = rng.sample(cells, 200)
        area = rng.choice([1, 2, 4])
        # independent oracle: direct transcription of the geometric definition
        diag = 0
        anti = 0
        for i, (px, py) in enumerate(pts):
            for qx, qy in pts[i + 1:]:
                dx, dy = qx - px, qy - py
                if (dx > 0 and dy > 0) or (dx < 0 and dy < 0):
                    if abs(dx) * abs(dy) == area:
                        diag += 1
                elif dx != 0 and dy != 0:
                    if abs(dx) * abs(dy) == area:
                        anti += 1
        ok = ok and unit_rectangles(pts, area, "diagonal") == diag
        ok = ok and unit_rectangles(pts, area, "both-diagonals") == diag + anti
    _report("8 rectangle oracle", ok)


def test_criterion_9_multiset_algebra():
    d = multiset_diff([1, 2], [1, 2])
    ok = mu(multiset_prod(d, d)) == 12
    rng = random.Random(1009)
    for _ in range(100):
        C = as_multiset(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 8)))
        D = as_multiset(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 8)))
        ok = ok and multiset_prod(C, D).total() == C.total() * D.total()
    # growth sanity against the unit-area bound: the element 0 corresponds to
    # degenerate (zero-area) rectangles and trivially has ~2n^3 multiplicity,
    # so the measurement is over nonzero elements; comparison is exact (cubed).
    for n in range(2, 61):
        A = as_multiset(range(1, n + 1))
        S = multiset_prod(multiset_diff(A, A), multiset_diff(A, A))
        m = max(mult for v, mult in S.items() if v != 0)
        ok = ok and m ** 3 <= F(125, 8) * n ** 8
    _report("9 multiset algebra", ok)


def test_criterion_10_st_sanity(pipeline):
    ok = True
    for N in range(1, 7):
        cfg = elekes_config(N)
        ok = ok and st_bound_check(
            len(cfg.points), len(cfg.lines), point_line_incidences(cfg), F(5, 2)
        )
    for N, (cfg, can, A) in pipeline.items():
        ok = ok and st_bound_check(
            len(can.points), len(can.lines), point_line_incidences(can), F(5, 2)
        )
    _report("10 ST sanity", ok)
