"""Scan orchestration and power-law diagnostics.

Runs a construction/counter pair over a range of sizes, fits a slope on the
log-log series, and compares against the theoretical reference exponent.
Counts stay exact; floating point appears only in the fitted slope and
intercept, which are diagnostics.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .constructions import (
    CanonicalizationError,
    assemble_tp_2xn,
    canonicalize_config,
    elekes_config,
)
from .counting import (
    RECTANGLE_MODES,
    count_minors_equal,
    grid_area_counts,
    unit_rectangles,
)
from .exact import rat

# the scan families, each with the exponent of its theoretical bound
_BOUND_SLOPES = {
    "elekes-2xn": 4.0 / 3.0,
    "grid": 2.0,
    "power-sum": 2.0,
    "random-points": 4.0 / 3.0,
}
FAMILIES = tuple(_BOUND_SLOPES)


@dataclass(frozen=True)
class ScanRow:
    size: int
    count: int
    aux: tuple = ()  # optional named counts, as (name, value) pairs


@dataclass
class ScanReport:
    rows: list = field(default_factory=list)
    fitted_slope: Optional[float] = None
    fitted_intercept: Optional[float] = None
    bound_slope: Optional[float] = None
    partial_error: Optional[str] = None


@dataclass(frozen=True)
class RunConfig:
    family: str
    sizes: tuple
    seed: int = 0
    mode: str = "diagonal"  # rectangle mode for random-points
    area: Fraction = Fraction(1)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError("unknown family %r (choose from %r)" % (self.family, FAMILIES))
        if self.mode not in RECTANGLE_MODES:
            raise ValueError("unknown mode %r" % (self.mode,))
        area = rat(self.area)
        if area <= 0:
            raise ValueError("area must be positive")
        sizes = tuple(map(operator.index, self.sizes))  # a float size is a TypeError
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "area", area)


def fit_power_law(sizes, counts):
    """Least-squares slope/intercept of ln(count) against ln(size)."""
    if len(sizes) < 3:
        raise ValueError("need at least 3 data points for a fit")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(c) for c in counts]
    n = len(xs)
    # fsum is correctly rounded, so the fit depends neither on the order of the
    # rows nor on the Python version (built-in sum is compensated from 3.12 on)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def _measure(cfg: RunConfig, size: int):
    """One scan row for the configured family; returns (recorded size, count, aux)."""
    if cfg.family == "elekes-2xn":
        base = elekes_config(size)
        canonical = canonicalize_config(base, seed=cfg.seed * 1000 + size)
        A = assemble_tp_2xn(canonical)
        count = count_minors_equal(A, 2, 1)
        return A.cols, count, (("N", size),)
    if cfg.family in ("grid", "power-sum"):
        # c_v counts the 2x2 minors of grid_matrix(size) equal to v: the grid
        # family reads the areas v <= size/2, power-sum every area
        grid = cfg.family == "grid"
        counts = grid_area_counts(size, size // 2 if grid else (size - 1) ** 2)
        k = counts.index(max(counts))  # the largest count, the smallest area on ties
        return size, counts[k], (("k", k) if grid else ("value", str(k)),)
    if cfg.family == "random-points":
        rng = random.Random(cfg.seed * 100003 + size)
        g = max(2, math.isqrt(4 * size) + 1)
        pts = [(c // g + 1, c % g + 1) for c in rng.sample(range(g * g), size)]
        return size, unit_rectangles(pts, cfg.area, mode=cfg.mode), ()
    raise AssertionError(cfg.family)


def scan_exponent(cfg: RunConfig) -> ScanReport:
    """Construct each size, run the family's counter, fit the log-log slope.

    Deterministic given cfg.  A generator failure aborts the scan with the
    partial rows flagged; zero-count rows are dropped from the fit.
    """
    if len(cfg.sizes) < 3:
        raise ValueError("need at least 3 sizes")
    report = ScanReport(bound_slope=_BOUND_SLOPES[cfg.family])
    for size in cfg.sizes:
        try:
            recorded, count, aux = _measure(cfg, size)
        except (ValueError, CanonicalizationError) as e:  # abort, partial rows flagged
            report.partial_error = "size %d failed: %s" % (size, e)
            break
        report.rows.append(ScanRow(recorded, count, aux))
    fit_rows = [r for r in report.rows if r.count >= 1]
    if len(fit_rows) >= 3:
        report.fitted_slope, report.fitted_intercept = fit_power_law(
            [r.size for r in fit_rows], [r.count for r in fit_rows]
        )
    return report


def st_bound_check(m: int, n: int, I: int, constant) -> bool:
    """Exact check that I <= constant * (m^(2/3) n^(2/3) + m + n).

    Rearranged to (I/constant - m - n)^3 <= (m n)^2 so the fractional powers
    disappear and the comparison is pure rational arithmetic.
    """
    c = rat(constant)
    m, n, I = operator.index(m), operator.index(n), operator.index(I)
    if m < 0 or n < 0 or I < 0:
        raise ValueError("m, n, I must be nonnegative")
    if c <= 0:
        raise ValueError("constant must be positive")
    lhs = Fraction(I) / c - m - n
    if lhs <= 0:
        return True
    return lhs ** 3 <= Fraction(m * n) ** 2


# ---------------------------------------------------------------------------
# report serialization: CSV rows `size,count[,aux...]` plus a trailer comment


def report_to_csv(report: ScanReport) -> str:
    lines = []
    for r in report.rows:
        cells = [str(r.size), str(r.count)] + ["%s=%s" % kv for kv in r.aux]
        lines.append(",".join(cells))
    slope = "nan" if report.fitted_slope is None else repr(report.fitted_slope)
    intercept = "nan" if report.fitted_intercept is None else repr(report.fitted_intercept)
    lines.append("# slope=%s intercept=%s bound=%r" % (slope, intercept, report.bound_slope))
    if report.partial_error:
        lines.append("# partial: %s" % report.partial_error)
    return "\n".join(lines) + "\n"


def report_to_json(report: ScanReport) -> str:
    return json.dumps(
        {
            "rows": [
                {"size": r.size, "count": r.count, "aux": dict(r.aux)} for r in report.rows
            ],
            "slope": report.fitted_slope,
            "intercept": report.fitted_intercept,
            "bound": report.bound_slope,
            "partial": report.partial_error,
        }
    )
