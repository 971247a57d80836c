import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from tpminors import (
    RunConfig,
    fit_power_law,
    grid_matrix,
    max_repeated_minor,
    scan_exponent,
    st_bound_check,
    unit_rectangles,
)
from tpminors import analysis
from tpminors.analysis import report_to_csv, report_to_json

from oracles import grid_area_k_count


class TestFit:
    def test_exact_power_law_recovered(self):
        sizes = [10, 20, 40, 80, 160]
        for alpha, c in [(1.5, 3.0), (4 / 3, 0.7), (0.0, 5.0)]:
            counts = [c * s ** alpha for s in sizes]
            slope, intercept = fit_power_law(sizes, counts)
            assert abs(slope - alpha) < 1e-9
            assert abs(intercept - math.log(c)) < 1e-9

    def test_constant_series_slope_zero(self):
        slope, _ = fit_power_law([3, 9, 27, 81], [7, 7, 7, 7])
        assert abs(slope) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6)),
                    min_size=3, max_size=12, unique_by=lambda row: row[0]))
    @example(list(zip((22, 134, 217, 250, 263, 390),
                      (424605, 962839, 821873, 870164, 318047, 499749))))
    def test_row_order_leaves_fit_bit_identical(self, rows):
        fit = fit_power_law(*zip(*rows))
        reversed_fit = fit_power_law(*zip(*rows[::-1]))
        assert [v.hex() for v in reversed_fit] == [v.hex() for v in fit]

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2])


class TestScan:
    def test_elekes_slope_near_four_thirds(self):
        report = scan_exponent(RunConfig("elekes-2xn", (2, 3, 4, 5), seed=7))
        assert [r.count for r in report.rows] == [N ** 4 for N in (2, 3, 4, 5)] or all(
            r.count >= N ** 4 for r, N in zip(report.rows, (2, 3, 4, 5))
        )
        assert abs(report.fitted_slope - 4 / 3) <= 0.1
        assert report.bound_slope == pytest.approx(4 / 3)

    def test_grid_slope_above_two(self):
        report = scan_exponent(RunConfig("grid", (50, 100, 200), seed=0))
        assert report.fitted_slope > 2.0

    def test_grid_rows_match_rect_counter(self):
        sizes = tuple(range(2, 31))
        report = scan_exponent(RunConfig("grid", sizes, seed=0))
        assert report.partial_error is None and [r.size for r in report.rows] == list(sizes)
        for r in report.rows:
            n, k = r.size, dict(r.aux)["k"]
            # k is the area <= n/2 of the most rectangles, the smallest on ties
            per_k = [grid_area_k_count(n, v) for v in range(1, n // 2 + 1)]
            assert k == 1 + per_k.index(max(per_k))
            pts = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
            assert r.count == unit_rectangles(pts, k)

    def test_grid_rows_at_paper_scale_match_oracle(self):
        report = scan_exponent(RunConfig("grid", (1000, 10000, 100000), seed=0))
        assert report.partial_error is None and len(report.rows) == 3
        for r in report.rows:
            assert r.count == grid_area_k_count(r.size, dict(r.aux)["k"])

    @pytest.mark.parametrize("family, aux", [("grid", (("k", 2),)),
                                             ("power-sum", (("value", "2"),))])
    def test_grid_tie_takes_the_smallest_k(self, monkeypatch, family, aux):
        # grid_area_counts(n, n // 2) has a unique largest entry for every n
        # in 2..1499, so the tie rule is pinned on a made-up count list (over
        # every area, power-sum's counts also tie at n = 3 and 30)
        monkeypatch.setattr(analysis, "grid_area_counts", lambda n, k: [0, 5, 7, 7])
        report = scan_exponent(RunConfig(family, (4, 8, 16)))
        assert [(r.count, r.aux) for r in report.rows] == [(7, aux)] * 3

    def test_power_sum_family(self):
        report = scan_exponent(RunConfig("power-sum", (6, 10, 16, 24), seed=0))
        assert report.fitted_slope > 2.0

    def test_power_sum_counts_match_closed_form(self):
        # power_sum_matrix(1..n, n..1, 2) is grid_matrix(n), so the most
        # repeated 2x2 minor is the most frequent rectangle area, over all areas
        report = scan_exponent(RunConfig("power-sum", (4, 8, 16), seed=0))
        assert [(r.size, r.count, r.aux) for r in report.rows] == [
            (4, 12, (("value", "2"),)), (8, 92, (("value", "4"),)),
            (16, 712, (("value", "12"),))]
        # the row is read from the sieve; the full order-2 census is its oracle
        sizes = tuple(range(2, 31)) + (40,)
        report = scan_exponent(RunConfig("power-sum", sizes, seed=0))
        assert report.partial_error is None and [r.size for r in report.rows] == list(sizes)
        for r in report.rows:
            value, count = max_repeated_minor(grid_matrix(r.size), 2)
            assert (r.count, r.aux) == (count, (("value", str(value)),))
        # the grid family's k <= n/2 misses area 12 at n = 16
        assert scan_exponent(RunConfig("grid", (4, 8, 16))).rows[-1].count == 664

    def test_random_points_family_runs(self):
        report = scan_exponent(RunConfig("random-points", (40, 80, 160), seed=2))
        assert len(report.rows) == 3
        assert report.partial_error is None

    def test_generator_failure_flags_partial(self):
        report = scan_exponent(RunConfig("grid", (1, 2, 3, 4), seed=0))
        assert report.partial_error == "size 1 failed: n must be >= 2"
        assert report.rows == []

    def test_assembly_assertion_propagates(self, monkeypatch):
        def broken(cfg):
            raise AssertionError("assembled matrix unexpectedly not TP")

        monkeypatch.setattr("tpminors.analysis.assemble_tp_2xn", broken)
        with pytest.raises(AssertionError, match="unexpectedly not TP"):
            scan_exponent(RunConfig("elekes-2xn", (2, 3, 4), seed=0))

    def test_deterministic_reports(self):
        cfg = RunConfig("elekes-2xn", (2, 3, 4), seed=5)
        a = report_to_csv(scan_exponent(cfg))
        b = report_to_csv(scan_exponent(cfg))
        assert a == b

    def test_sizes_validation(self):
        with pytest.raises(ValueError):
            RunConfig("grid", (10, 10, 20))
        with pytest.raises(ValueError):
            RunConfig("nope", (1, 2, 3))
        with pytest.raises(ValueError):
            scan_exponent(RunConfig("grid", (10, 20)))

    @pytest.mark.parametrize("kwargs, message", [
        ({"mode": "bogus"}, "unknown mode 'bogus'"),
        ({"area": 0}, "area must be positive"),
        ({"area": "-1/2"}, "area must be positive"),
    ])
    def test_rectangle_options_checked_when_stored(self, kwargs, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            RunConfig("random-points", (10, 20, 40), **kwargs)

    @pytest.mark.parametrize("sizes", [(4.7, 6, 8), (4, 6.0, 8), ("4", 6, 8)])
    def test_non_integer_size_rejected(self, sizes):
        # read like minor_census reads its order: never truncated to n = 4
        with pytest.raises(TypeError):
            RunConfig("grid", sizes)


class TestReportFormats:
    def test_csv_trailer(self):
        report = scan_exponent(RunConfig("grid", (20, 40, 80), seed=0))
        text = report_to_csv(report)
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[-1].startswith("# slope=")
        assert "bound=" in lines[-1]
        size, count = lines[0].split(",")[:2]
        assert int(size) == 20 and int(count) >= 1

    def test_json_fields(self):
        import json
        report = scan_exponent(RunConfig("grid", (20, 40, 80), seed=0))
        doc = json.loads(report_to_json(report))
        assert {"rows", "slope", "intercept", "bound", "partial"} <= set(doc)
        assert doc["rows"][0]["size"] == 20


class TestStBound:
    def test_tiny_instance(self):
        assert st_bound_check(16, 16, 16, F(5, 2))

    def test_elekes_counts(self):
        assert st_bound_check(54, 27, 81, F(5, 2))

    def test_absurd_incidences_fail(self):
        assert not st_bound_check(1000, 1000, 1000 * 1000, F(1, 10))

    def test_exact_threshold(self):
        # with m=n=0 the bound is 0, so any positive I fails
        assert st_bound_check(0, 0, 0, F(5, 2))
        assert not st_bound_check(0, 0, 1, F(5, 2))

    @pytest.mark.parametrize("m, n, I", [(1.5, 2, 3), (2, 2.0, 3), (2, 2, 3.0), (2, 2, F(3))])
    def test_non_integer_counts_rejected(self, m, n, I):
        # no float (or Fraction) reaches the exact comparison
        with pytest.raises(TypeError):
            st_bound_check(m, n, I, "5/2")

    def test_rational_constant(self):
        # I/c - m - n positive branch exercises the cubed comparison
        assert st_bound_check(8, 8, 64, 2)
        assert not st_bound_check(8, 8, 65, F(1, 100))
