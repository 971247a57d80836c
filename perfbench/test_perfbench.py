"""Tests of the benchmark itself: its oracles accept the program's outputs
and reject perturbed ones, failed operations are counted instead of ending a
run, the tracer's arithmetic is right, and BENCHMARK.json matches the code.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from tpminors import cli  # noqa: E402


def program(tmp_path, *argv):
    out = tmp_path / "out.txt"
    assert cli.main(["--out", str(out)] + [str(a) for a in argv]) == 0
    return out.read_text()


def off_by_one(text, row=0):
    lines = text.splitlines()
    v, m = lines[row].split(",")
    lines[row] = "%s,%d" % (v, int(m) + 1)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# oracles


def test_grid_census_oracle(tmp_path):
    matrix = tmp_path / "grid.txt"
    matrix.write_text(W.grid_text(7))
    text = program(tmp_path, "census", "--order", "2", "--input", matrix)
    assert W.check_grid_census(text, n=7) == []
    assert W.check_grid_census(off_by_one(text, 3), n=7)
    dropped = "\n".join(text.splitlines()[1:]) + "\n"
    assert W.check_grid_census(dropped, n=7)


def test_grid_text_is_grid_matrix():
    from tpminors import constructions, exact

    assert W.grid_text(9) == exact.matrix_to_text(constructions.grid_matrix(9))


def test_power_census_oracle(tmp_path):
    a, b = W.power_params(5)
    a, b = a[:6], b[:6]
    matrix = tmp_path / "power.txt"
    matrix.write_text(W.power_text(a, b, 3))
    text = program(tmp_path, "census", "--order", "3", "--input", matrix)
    assert W.check_power_census(text, a, b, k=3) == []
    assert W.check_power_census(off_by_one(text), a, b, k=3)
    lead = str(W.power_det(a, b, 3))
    without_lead = "\n".join(ln for ln in text.splitlines() if not ln.startswith(lead + ","))
    assert W.check_power_census(off_by_one(without_lead), a, b, k=3)
    negated = "-" + text
    assert W.check_power_census(negated, a, b, k=3)


def test_power_det_is_the_determinant():
    from tpminors import constructions

    a, b = W.power_params(11)
    for k in (2, 3, 5):
        assert W.power_det(a, b, k) == constructions.power_sum_det_closed_form(a[:k], b[:k], k)


def test_power_inputs_are_tp(tmp_path):
    a, b = W.power_params(2)
    assert a == sorted(a) and b == sorted(b, reverse=True) and len(set(a)) == W.POWER_N
    matrix = tmp_path / "power.txt"
    matrix.write_text(W.power_text(a[:5], b[:5], W.POWER_K))
    assert W.check_verify(program(tmp_path, "verify", "--input", matrix), n=5) == []
    assert W.check_verify("not TP: order 2 ...\n", n=5)


def test_rects_oracle(tmp_path):
    points, area = W.rect_params(3)
    points = points[:400]
    pts_file = tmp_path / "points.json"
    pts_file.write_text(json.dumps(
        {"points": [[str(Fraction(x, 2)), str(Fraction(y, 2))] for x, y in points]}))
    for mode in W.RECT_MODES:
        brute = 0
        for (x1, y1), (x2, y2) in combinations(points, 2):
            prod = Fraction(x2 - x1, 2) * Fraction(y2 - y1, 2)
            brute += prod == area or (mode == "both-diagonals" and prod == -area)
        assert W.rect_count(points, area, mode) == brute
        text = program(tmp_path, "rects", "--input", pts_file, "--area", area, "--mode", mode)
        assert W.check_count(text, brute) == []
        assert W.check_count("%d\n" % (brute + 1), brute)
    assert W.check_count("seven\n", 7)


def test_mu_oracle(tmp_path):
    A, B = W.mu_params(4)
    A, B = A[:9], B[:9]
    brute = {}
    for x in A:
        for y in A:
            for u in B:
                for v in B:
                    key = (x - y) * (u - v)
                    brute[key] = brute.get(key, 0) + 1
    expected = max(brute.values())
    assert W.mu_value(A, B) == expected
    mu_file = tmp_path / "mu.json"
    mu_file.write_text(json.dumps({"A": [str(v) for v in A], "B": B}))
    assert W.check_count(program(tmp_path, "mu", "--input", mu_file), expected) == []
    assert W.check_count("%d\n" % (expected - 1), expected)


def scan_text(slope=1.3347, counts=(16, 81, 256, 625), partial=False):
    rows = ["%d,%d,N=%d" % (3 * n ** 3, c, n) for n, c in zip(W.SCAN_SIZES, counts)]
    rows.append("# slope=%r intercept=-1.47 bound=1.3333333333333333" % slope)
    if partial:
        rows.append("# partial: size 5 failed: canonicalization failed after 64 attempts")
    return "\n".join(rows) + "\n"


def test_scan_oracle():
    assert W.check_scan(scan_text()) == []
    assert W.check_scan(scan_text(slope=1.5))
    assert W.check_scan(scan_text(slope=float("nan")))
    assert W.check_scan(scan_text(counts=(16, 81, 255, 625)))
    assert W.check_scan(scan_text(partial=True))
    assert W.check_scan("\n".join(scan_text().splitlines()[:3]) + "\n")


def test_closed_forms():
    assert W.scan_minors() == 91977
    assert sum(W.grid_rectangles(W.GRID_N).values()) == 608400


def test_inputs_repeat_for_a_seed(tmp_path):
    for name, workload in W.WORKLOADS.items():
        first, second = tmp_path / "a" / name, tmp_path / "b" / name
        first.mkdir(parents=True)
        second.mkdir(parents=True)
        workload.build(7, first)
        workload.build(7, second)
        for f in first.iterdir():
            assert f.read_text() == (second / f.name).read_text()


# ---------------------------------------------------------------------------
# failed operations


def test_failed_operations_count_instead_of_aborting(tmp_path):
    def crash(argv):
        raise AssertionError("assembled matrix unexpectedly not TP")

    missing = tmp_path / "missing.txt"
    out = tmp_path / "out.txt"
    ops = [
        W.Op("census", ["--out", str(out), "census", "--order", "2", "--input", str(missing)],
             out, W.check_grid_census),
        W.Op("census", ["--out", str(out), "census", "--bogus"], out, W.check_grid_census),
        W.Op("mu", ["--out", str(out), "mu"], out, lambda text: []),
    ]
    plan = W.Plan(ops, 10, "minors")
    passes = [run.Pass(cli.main, W.Plan(ops[:2], 10, "minors")), run.Pass(crash, plan)]
    result = run.tally(passes)
    assert result == {"correct": True, "attempted": 5, "failed": 5}


def test_failed_passes_cannot_improve_timing(tmp_path):
    matrix = tmp_path / "grid.txt"
    matrix.write_text(W.grid_text(12))
    out = tmp_path / "out.txt"
    argv = ["--out", str(out), "census", "--order", "2", "--input", str(matrix)]
    plan = W.Plan([W.Op("census", argv, out, lambda text: W.check_grid_census(text, n=12))],
                  comb(12, 2) ** 2, "minors")

    def crash(argv):
        raise RuntimeError("fails before doing any work")

    good, failed = run.Pass(cli.main, plan), run.Pass(crash, plan)
    assert failed.failed and failed.ref_s < good.ref_s
    assert run.timing_passes([failed, good, failed]) == ([good], True)
    assert run.timing_passes([failed, failed]) == ([failed, failed], False)


def test_rejected_output_is_failed_and_wrong(tmp_path):
    matrix = tmp_path / "grid.txt"
    matrix.write_text(W.grid_text(6))
    out = tmp_path / "out.txt"
    argv = ["--out", str(out), "census", "--order", "2", "--input", str(matrix)]
    good = W.Op("census", argv, out, lambda text: W.check_grid_census(text, n=6))
    bad = W.Op("census", argv, out, lambda text: W.check_grid_census(off_by_one(text), n=6))
    result = run.tally([run.Pass(cli.main, W.Plan([good, bad], 225, "minors"))])
    assert result == {"correct": False, "attempted": 2, "failed": 1}


# ---------------------------------------------------------------------------
# tracer


def test_span_clock_leaves_out_speed_samples():
    with refclock.Timer() as timer:
        wall, clock = time.perf_counter(), refclock.now()
        while time.perf_counter() - wall < 0.2:
            pass
        wall, clock = time.perf_counter() - wall, refclock.now() - clock
    assert len(timer.samples) >= 5
    assert wall - clock == pytest.approx(sum(timer.samples), abs=2 * max(timer.samples))


def test_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(refclock, "now", lambda: next(clock))
    tracer = layers.Tracer()
    inner = tracer.span("inner", lambda: None)
    outer = tracer.span("cli.census", lambda: (inner(), inner()))
    outer()
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert layers.span_metrics(tracer)["cli.census.self_s"] == 10.0 - 2.0 - 2.0
    assert layers.span_metrics(tracer, 1.5)["cli.census.self_s"] == 1.5 * (10.0 - 2.0 - 2.0)


def test_installed_restores_every_site():
    from tpminors import analysis, counting, exact

    before = (analysis.canonicalize_config, counting.det_int, exact.det)
    tracer = layers.Tracer()
    with layers.installed(tracer, counters=True):
        assert counting.det_int is not before[1]
        counting.minor_census(exact.RatMatrix([[1, 2, 3], [2, 5, 7]]), 2)
    assert (analysis.canonicalize_config, counting.det_int, exact.det) == before
    assert layers.counter_metrics(tracer)["exact.det_int.calls"] == 3
    assert layers.span_metrics(tracer)["counting.minor_census.minors"] == 3


def test_broken_counters_fail_loudly():
    span_pass = {"counting.minor_census.minors": 3, "counting.minor_census.s": 0.1}
    ok, problems = layers.combine([span_pass, dict(span_pass)], {"exact.det_int.calls": 3},
                                  {"exact.det_int.calls": 3})
    assert problems == [] and ok["counting.minor_census.s"] == 0.1
    drift = dict(span_pass, **{"counting.minor_census.minors": 4})
    assert layers.combine([span_pass, drift], {}, {})[1]
    assert layers.combine([span_pass], {"exact.det_int.calls": 2}, {"exact.det_int.calls": 3})[1]


# ---------------------------------------------------------------------------
# the contract


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.LAYER_METRICS)
    assert spec["paths"] == ["perfbench"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_every_workload_has_a_why(name):
    assert W.WORKLOADS[name].why and "\n" not in W.WORKLOADS[name].why
