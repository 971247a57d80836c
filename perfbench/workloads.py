"""The four benchmark workloads: seeded inputs, the CLI operations that run
on them, closed-form work counts and independent output oracles.

Nothing here imports tpminors.  Inputs are generated and outputs are checked
with the standard library alone, so a defect in the program cannot hide in
its own oracle.  Every oracle returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

# The scan seed is pinned.  Across scan seeds the elekes-scan time varies with
# a coefficient of variation of about 18% (canonicalization attempts and the
# bit width of the accepted map both depend on it), and 11 of the scan seeds
# 0..199 exhaust the 64-attempt canonicalization budget at N = 4 or 5.  A
# seed-derived scan would make the workload neither steady nor failure-free;
# 42 is the seed whose per-layer figures the workload definition quotes.
SCAN_SEED = 42
SCAN_SIZES = (2, 3, 4, 5)
SCAN_SLOPE, SCAN_SLOPE_TOL = Fraction(4, 3), 0.05

GRID_N = 40

POWER_N, POWER_K, VERIFY_N = 10, 5, 8
# A fixed multiset of denominators keeps every row's lcm at 420, so the entry
# width (30-46 bits) and the census cost do not drift with the seed.
POWER_DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 5, 6, 7)

RECT_POINTS = 4000
RECT_SIDE = 160  # coordinates are k/2 for k in 1..RECT_SIDE
RECT_AREAS = (Fraction(6), Fraction(15, 2), Fraction(12))
RECT_MODES = ("diagonal", "both-diagonals")
MU_SIZE = 40


@dataclass
class Op:
    """One CLI invocation.  ``argv`` puts the global flags before the
    subcommand; ``check`` maps the output text to a list of problems."""

    cmd: str
    argv: list
    out: Path
    check: object


@dataclass
class Plan:
    """A workload instantiated for one seed."""

    ops: list
    work: int  # exact work items of one pass, a closed form
    work_unit: str  # what the items are: "minors" or "pairs"
    work_cmds: tuple = None  # operations whose time the work is divided by; None: all
    expected: dict = field(default_factory=dict)  # traced counters, closed forms


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: object  # (seed, workdir) -> Plan; writes the input files


def _globals(seed, out):
    return ["--seed", str(seed), "--out", str(out)]


# ---------------------------------------------------------------------------
# elekes-scan


def scan_minors(sizes=SCAN_SIZES):
    """Columns-only 2x2 minors of the assembled 2 x 3N^3 matrices."""
    return sum(comb(3 * n ** 3, 2) for n in sizes)


def parse_scan(text):
    """(rows {cols: (count, aux)}, slope or None, partial lines)."""
    rows, slope, partial = {}, None, []
    for line in text.splitlines():
        if line.startswith("# partial:"):
            partial.append(line)
        elif line.startswith("# slope="):
            slope = float(line.split()[1].split("=", 1)[1])
        elif line.strip():
            cells = line.split(",")
            rows[int(cells[0])] = (int(cells[1]), cells[2:])
    return rows, slope, partial


def check_scan(text, sizes=SCAN_SIZES):
    rows, slope, partial = parse_scan(text)
    problems = list(partial)
    if len(rows) != len(sizes):
        problems.append("expected %d rows, got %d" % (len(sizes), len(rows)))
    for n in sizes:
        cols = 3 * n ** 3
        if cols not in rows:
            problems.append("no row with %d columns for N=%d" % (cols, n))
            continue
        count, aux = rows[cols]
        if aux != ["N=%d" % n]:
            problems.append("row %d: aux %r, expected N=%d" % (cols, aux, n))
        if count < n ** 4:
            problems.append("N=%d: %d unit minors < N^4 = %d" % (n, count, n ** 4))
    if slope is None or not abs(slope - float(SCAN_SLOPE)) <= SCAN_SLOPE_TOL:
        problems.append("slope %r is not within %s of 4/3" % (slope, SCAN_SLOPE_TOL))
    return problems


def build_elekes_scan(seed, workdir):
    out = Path(workdir) / "scan.csv"
    argv = _globals(SCAN_SEED, out) + [
        "scan", "--family", "elekes-2xn", "--sizes", ",".join(map(str, SCAN_SIZES))]
    minors = scan_minors()
    return Plan([Op("scan", argv, out, check_scan)], minors, "minors",
                expected={"exact.det_int.calls": minors,
                          "exact.det_int.order2.calls": minors,
                          "counting.minor_census.minors": minors})


# ---------------------------------------------------------------------------
# grid-census


def grid_text(n):
    """grid_matrix(n) in the matrix text format: A_ij = (n - i + 1) + j."""
    rows = [" ".join(str(n - i + 1 + j) for j in range(1, n + 1)) for i in range(1, n + 1)]
    return "%d %d\n" % (n, n) + "\n".join(rows) + "\n"


def parse_census(text):
    """Counter {value: multiplicity} and a list of malformed or repeated rows."""
    census, problems = Counter(), []
    for line in text.splitlines():
        try:
            v, m = line.split(",")
            value, mult = Fraction(v), int(m)
        except ValueError:
            problems.append("malformed census row %r" % line)
            continue
        if value in census:
            problems.append("value %s listed twice" % v)
        census[value] = mult
    return census, problems


def grid_rectangles(n):
    """Area-v rectangles in the n x n grid: sum over dx*dy = v of (n-dx)(n-dy)."""
    expected = Counter()
    for dx in range(1, n):
        for dy in range(1, n):
            expected[Fraction(dx * dy)] += (n - dx) * (n - dy)
    return expected


def check_grid_census(text, n=GRID_N):
    census, problems = parse_census(text)
    expected = grid_rectangles(n)
    total = comb(n, 2) ** 2
    if sum(census.values()) != total:
        problems.append("census total %d != C(%d,2)^2 = %d" % (sum(census.values()), n, total))
    wrong = [v for v in set(census) | set(expected) if census[v] != expected[v]]
    for v in sorted(wrong)[:5]:
        problems.append("value %s: multiplicity %d, divisor sum %d" % (v, census[v], expected[v]))
    return problems


def build_grid_census(seed, workdir):
    workdir = Path(workdir)
    matrix, out = workdir / "grid.txt", workdir / "grid-census.csv"
    matrix.write_text(grid_text(GRID_N))
    argv = _globals(seed, out) + ["census", "--order", "2", "--input", str(matrix)]
    minors = comb(GRID_N, 2) ** 2
    return Plan([Op("census", argv, out, check_grid_census)], minors, "minors",
                expected={"exact.det_int.calls": minors,
                          "exact.det_int.order2.calls": minors,
                          "counting.minor_census.minors": minors})


# ---------------------------------------------------------------------------
# power-census


def power_params(seed):
    """Increasing a and decreasing b: distinct positive p/q with q <= 7."""
    rng = random.Random("power-census/%d" % seed)

    def draw():
        vals = set()
        while len(vals) < POWER_N:
            q = POWER_DENOMINATORS[len(vals)]
            v = Fraction(rng.randint(1, 2 * q), q)
            if v.denominator == q:
                vals.add(v)
        return sorted(vals)

    a = draw()
    b = sorted(draw(), reverse=True)
    return a, b


def power_text(a, b, k):
    """The power-sum matrix (b_i + a_j)^(k-1) in the matrix text format."""
    rows = [" ".join(str((bi + aj) ** (k - 1)) for aj in a) for bi in b]
    return "%d %d\n" % (len(b), len(a)) + "\n".join(rows) + "\n"


def power_det(a, b, k):
    """Factored determinant of the k x k power-sum matrix on a[:k], b[:k]."""
    value = Fraction(1)
    for i in range(k):
        value *= comb(k - 1, i)
    for t in range(k):
        for u in range(t + 1, k):
            value *= (a[u] - a[t]) * (b[t] - b[u])
    return value


def check_power_census(text, a, b, k=POWER_K):
    census, problems = parse_census(text)
    expect = comb(len(a), k) * comb(len(b), k)
    if sum(census.values()) != expect:
        problems.append("census total %d != %d" % (sum(census.values()), expect))
    problems += ["non-positive minor %s" % v for v in sorted(census) if v <= 0][:5]
    lead = power_det(a, b, k)
    if lead not in census:
        problems.append("factored determinant %s of the leading minor is missing" % lead)
    return problems


def check_verify(text, n=VERIFY_N):
    want = "TP ok (%dx%d)\n" % (n, n)
    return [] if text == want else ["verify printed %r, expected %r" % (text, want)]


def build_power_census(seed, workdir):
    workdir = Path(workdir)
    a, b = power_params(seed)
    big, small = workdir / "power10.txt", workdir / "power8.txt"
    big.write_text(power_text(a, b, POWER_K))
    small.write_text(power_text(a[:VERIFY_N], b[:VERIFY_N], POWER_K))
    census_out, verify_out = workdir / "power-census.csv", workdir / "power-verify.txt"
    census_minors = comb(POWER_N, POWER_K) ** 2
    verify_dets = sum(comb(VERIFY_N, r) ** 2 for r in range(1, POWER_K + 1))
    ops = [
        Op("census", _globals(seed, census_out) + [
            "census", "--order", str(POWER_K), "--input", str(big)], census_out,
           lambda text: check_power_census(text, a, b)),
        Op("verify", _globals(seed, verify_out) + [
            "verify", "--order", str(POWER_K), "--input", str(small)], verify_out,
           check_verify),
    ]
    return Plan(ops, census_minors + verify_dets, "minors",
                expected={"exact.det_int.calls": census_minors,
                          "exact.det_int.order5.calls": census_minors,
                          "exact.det.calls": verify_dets,
                          "counting.minor_census.minors": census_minors})


# ---------------------------------------------------------------------------
# rects-mu


def rect_params(seed):
    """Distinct half-integer points (as doubled integer pairs) and an area."""
    rng = random.Random("rects-mu/%d" % seed)
    cells = rng.sample(range(RECT_SIDE * RECT_SIDE), RECT_POINTS)
    points = [(c // RECT_SIDE + 1, c % RECT_SIDE + 1) for c in cells]
    return points, rng.choice(RECT_AREAS)


def rect_count(points, area, mode):
    """Rectangle count by hash lookup over the divisor pairs of the area,
    O(n * div(4 * area)) against the program's O(n^2) pair scan."""
    target = 4 * area  # dx * dy = area  <=>  (2dx)(2dy) = 4 * area
    if target.denominator != 1:
        raise ValueError("area must be a multiple of 1/4")
    target = int(target)
    steps = [(d, target // d) for d in range(1, target + 1) if target % d == 0]
    present = set(points)
    count = 0
    for x, y in points:
        for dx, dy in steps:
            count += (x + dx, y + dy) in present
            if mode == "both-diagonals":
                count += (x + dx, y - dy) in present
    return count


def check_count(text, expected):
    try:
        got = int(text)
    except ValueError:
        return ["output %r is not a count" % text]
    return [] if got == expected else ["count %d, expected %d" % (got, expected)]


def mu_params(seed):
    """A: 40 distinct sixths k/6, 1 <= k <= 60; B: 40 distinct integers in 1..45.

    Drawing from dense ranges makes nearly every difference appear, so the
    sizes of A - A, B - B and their product, and with them the operation's
    memory, hardly move with the seed.
    """
    rng = random.Random("mu/%d" % seed)
    A = [Fraction(k, 6) for k in sorted(rng.sample(range(1, 61), MU_SIZE))]
    B = sorted(rng.sample(range(1, 46), MU_SIZE))
    return A, B


def mu_value(A, B):
    """Maximum multiplicity of (A - A)(B - B), recomputed on plain dicts.

    Scaling A by the lcm of its denominators is a bijection on the product
    values, so the multiplicities stay the same and all keys are integers.
    """
    scale = lcm(*(v.denominator for v in A))
    ints = [int(v * scale) for v in A]

    def diffs(xs):
        out = {}
        for x in xs:
            for y in xs:
                out[x - y] = out.get(x - y, 0) + 1
        return out

    prod = {}
    for s, ms in diffs(ints).items():
        for t, mt in diffs(B).items():
            prod[s * t] = prod.get(s * t, 0) + ms * mt
    return max(prod.values())


def build_rects_mu(seed, workdir):
    workdir = Path(workdir)
    points, area = rect_params(seed)
    A, B = mu_params(seed)
    pts_file, mu_file = workdir / "points.json", workdir / "mu.json"
    pts_file.write_text(json.dumps(
        {"points": [[str(Fraction(x, 2)), str(Fraction(y, 2))] for x, y in points]}))
    mu_file.write_text(json.dumps({"A": [str(v) for v in A], "B": B}))
    ops = []
    for mode in RECT_MODES:
        out = workdir / ("rects-%s.txt" % mode)
        argv = _globals(seed, out) + [
            "rects", "--input", str(pts_file), "--area", str(area), "--mode", mode]
        ops.append(Op("rects", argv, out, _lazy_check(rect_count, points, area, mode)))
    out = workdir / "mu.txt"
    ops.append(Op("mu", _globals(seed, out) + ["mu", "--input", str(mu_file)], out,
                  _lazy_check(mu_value, A, B)))
    pairs = len(RECT_MODES) * comb(RECT_POINTS, 2)
    return Plan(ops, pairs, "pairs", ("rects",),
                expected={"exact.det_int.calls": 0, "counting.unit_rectangles.pairs": pairs})


def _lazy_check(oracle, *args):
    """A count check whose expected value is computed once, on first use,
    so the oracle's cost stays out of set-up."""
    memo = []

    def check(text):
        if not memo:
            memo.append(oracle(*args))
        return check_count(text, memo[0])

    return check


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "elekes-scan",
            "The paper's 4/3 pipeline: the only workload that drives constructions "
            "(canonicalization, constraint checks, TP assembly) and the wide-integer "
            "columns-only census.",
            build_elekes_scan,
        ),
        Workload(
            "grid-census",
            "608,400 order-2 minors of narrow integers: isolates the per-minor cost of "
            "minor_census; never canonicalizes or verifies TP.",
            build_grid_census,
        ),
        Workload(
            "power-census",
            "Order-5 census with 30-46-bit entries and nearly unique keys, plus an "
            "exhaustive order-5 verify: the only Bareiss and high-order verify_tp path.",
            build_power_census,
        ),
        Workload(
            "rects-mu",
            "Rectangle counts over 4000 half-integer points and a multiset convolution: "
            "no determinants, so determinant and census changes predict no change.",
            build_rects_mu,
        ),
    )
}
