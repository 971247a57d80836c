import doctest
import hashlib
import json
import shlex
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tpminors import RatMatrix, matrix_to_text, mu, multiset_diff, multiset_prod, verify_tp
from tpminors.cli import build_parser, main

from test_counting import census_oracle, rectangle_inputs, rectangles_oracle

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstructAndCensus:
    def test_grid_census_pipeline(self, tmp_path, capsys):
        mat = tmp_path / "grid.txt"
        code, _, _ = run(capsys, "--out", str(mat), "construct", "grid", "--n", "4")
        assert code == 0
        code, out, _ = run(capsys, "census", "--order", "2", "--input", str(mat))
        assert code == 0
        assert out == "1,9\n2,12\n3,6\n4,4\n6,4\n9,1\n"

    def test_census_json(self, tmp_path, capsys):
        mat = tmp_path / "grid.txt"
        run(capsys, "--out", str(mat), "construct", "grid", "--n", "3")
        code, out, _ = run(capsys, "--format", "json", "census", "--order", "2",
                           "--input", str(mat))
        assert code == 0
        assert json.loads(out) == {"census": [["1", 4], ["2", 4], ["4", 1]]}

    def test_power_sum_defaults(self, tmp_path, capsys):
        code, out, _ = run(capsys, "construct", "power-sum", "--n", "2", "--k", "2")
        assert code == 0
        assert out == "2 2\n3 4\n2 3\n"

    def test_power_sum_explicit(self, capsys):
        code, out, _ = run(capsys, "construct", "power-sum",
                           "--a", "1,2,3", "--b", "3,2,1", "--k", "3")
        assert code == 0
        assert out.splitlines()[1] == "16 25 36"


class TestCensusGolden:
    """SHA-256 of the order-4 and order-5 census CSV of two 10x10 power-sum
    matrices (k = 5), pinned so the closed-form determinants at those orders
    keep the output byte for byte."""

    MATRICES = {
        "integer": ("1,2,4,7,11,16,22,29,37,46", "50,41,33,26,20,15,11,8,6,5"),
        # every row and column has its own denominator
        "rational": ("2/3,5/4,2,17/6,26/7,37/8,50/9,65/10,82/11,101/12",
                     "60,55/2,50/3,45/4,8,35/6,30/7,25/8,20/9,3/2"),
    }
    SHA256 = {
        ("integer", 4): "d475c7653939a1a0247ce29273611537d3f6178e816e6d40e5b4b1953d1d79f4",
        ("integer", 5): "34d0dc606ef1898ad72a86677242bde95994734daf1d588267ef863c6050ef0e",
        ("rational", 4): "4c97cc91d1f3c740f05574888980a3e84fc8eb6e1a95810720ea5a2e5f04880b",
        ("rational", 5): "c2216ded95faef1008192f92f15cdee0ef2c63d6524d19280eaa72f511c95106",
    }

    @pytest.mark.parametrize("name, order", sorted(SHA256))
    def test_power_sum_census(self, tmp_path, capsys, name, order):
        a, b = self.MATRICES[name]
        mat = tmp_path / "power.txt"
        assert run(capsys, "--out", str(mat), "construct", "power-sum",
                   "--a", a, "--b", b, "--k", "5")[0] == 0
        code, out, err = run(capsys, "census", "--order", str(order), "--input", str(mat))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[name, order]


class TestCensusJsonGolden:
    """SHA-256 of census output pinned beside TestCensusGolden: the order-5
    census of the power-census 10x10 input at seed 42 in CSV and JSON (wide
    census, D of 175 bits), and the order-2 JSON census of a tp2xn matrix
    (full-height census, D = 1 with Fraction keys)."""

    POWER_A = "1/4,2/5,1/2,4/7,2/3,5/6,1,7/6,6/5,9/7"
    POWER_B = "2,11/6,7/5,5/4,7/6,8/7,5/7,2/3,1/2,2/5"
    SHA256 = {
        ("power", "csv"): "700de95f50f92cf9de563d8b401213df7ed6ceb313fe58d44d002b0a511a032c",
        ("power", "json"): "75fbe343392fb786aa086bf8c359b7fa15a7a160ad0c47cd0faeb8166a6e8dfd",
        ("tp2xn", "json"): "5e9cd104340fb0691b77afb69c714611c498ad7eefd3303769f0b10cca2ac90c",
    }

    @pytest.mark.parametrize("name, fmt", sorted(SHA256))
    def test_census_bytes(self, tmp_path, capsys, name, fmt):
        mat = tmp_path / "m.txt"
        if name == "power":
            build, order = ["construct", "power-sum", "--a", self.POWER_A,
                            "--b", self.POWER_B, "--k", "5"], "5"
        else:
            build, order = ["--seed", "7", "construct", "tp2xn", "--N", "3"], "2"
        assert run(capsys, "--out", str(mat), *build)[0] == 0
        code, out, err = run(capsys, "--format", fmt, "census", "--order", order,
                             "--input", str(mat))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.SHA256[name, fmt]


class TestCensusOutputFile:
    """census opens --out only after the census has been counted, then writes
    the same bytes as it prints."""

    @pytest.mark.parametrize("text, order, message", [
        ("2 2\n1 2\n3 4\n", "3", "error: order 3 exceeds matrix dimensions 2x2\n"),
        ("x 2\n1 2\n3 4\n", "2", "error: first line must be 'rows cols'"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_census_leaves_output_alone(self, tmp_path, capsys, text, order, message,
                                               fmt):
        mat, kept, missing = tmp_path / "m.txt", tmp_path / "kept.csv", tmp_path / "new.csv"
        mat.write_text(text)
        kept.write_bytes(b"1,9\r\nold bytes\x00")
        for out in (kept, missing):
            code, stdout, err = run(capsys, "--format", fmt, "--out", str(out), "census",
                                    "--order", order, "--input", str(mat))
            assert (code, stdout) == (1, "") and err.startswith(message)
        assert kept.read_bytes() == b"1,9\r\nold bytes\x00"
        assert not missing.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_matches_stdout(self, tmp_path, capsys, fmt):
        mat, out = tmp_path / "m.txt", tmp_path / "census.out"
        code, _, _ = run(capsys, "--seed", "7", "--out", str(mat), "construct", "tp2xn", "--N", "3")
        assert code == 0
        argv = ["--format", fmt, "census", "--order", "2", "--input", str(mat)]
        code, printed, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        rows = printed.count("\n") if fmt == "csv" else len(json.loads(printed)["census"])
        assert rows > 1000
        assert run(capsys, "--out", str(out), *argv) == (0, "", "")
        assert out.read_bytes() == printed.encode()

    def test_value_past_the_str_digit_limit(self, tmp_path, capsys):
        """A value wider than Python's default 4,300-digit int-to-str limit is
        written whole, over an existing file."""
        big = 10 ** 2200 + 1
        mat, out = tmp_path / "m.txt", tmp_path / "census.csv"
        mat.write_text("2 2\n%d 0\n0 %d\n" % (big, big))
        out.write_text("old\n")
        code, _, err = run(capsys, "--out", str(out), "census", "--order", "2",
                           "--input", str(mat))
        assert (code, err) == (0, "")
        value, multiplicity = out.read_text().split(",")
        assert len(value) == 4401 and value == str(big * big) and multiplicity == "1\n"


@st.composite
def census_cli_inputs(draw):
    """Rational matrices for the CLI census, of two kinds:

    - up to 4x5, entry (i, j) = n / (r_i c_j) with distinct row denominators
      r_i from {1, 2, 4, 3, 9} and distinct column denominators c_j from
      {5, 7, 11, 25}, coprime to the r_i: the cleared rows (or columns) have
      unequal scales, so the wide census scales them to one D > 1;
    - d x n, d = 1..3, over column denominators (as tp2xn matrices are):
      the full-height census, D = 1 with Fraction keys.

    Numerators include zero and negatives, so minors do too."""
    nums = st.integers(-9, 9)
    if draw(st.booleans()):
        r, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        rd = draw(st.lists(st.sampled_from((1, 2, 4, 3, 9)), min_size=r, max_size=r, unique=True))
        cd = draw(st.lists(st.sampled_from((5, 7, 11, 25)), min_size=min(c, 4), max_size=min(c, 4),
                           unique=True)) + [1] * (c - 4)
        return RatMatrix([[F(draw(nums), ri * cj) for cj in cd] for ri in rd])
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d, 7))
    cd = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=n, max_size=n))
    return RatMatrix([[F(draw(nums), cj) for cj in cd] for _ in range(d)])


@settings(max_examples=150, deadline=None)
@given(census_cli_inputs())
def test_census_output_matches_oracle(A):
    """census prints, in CSV and JSON, the per-minor oracle census sorted by
    value, each value as a reduced p/q."""
    with tempfile.TemporaryDirectory() as d:
        mat = Path(d, "m.txt")
        mat.write_text(matrix_to_text(A))
        for k in range(1, min(A.rows, A.cols) + 1):
            rows = sorted(census_oracle(A, k).items())
            want = {"csv": "".join("%s,%d\n" % (v, m) for v, m in rows),
                    "json": json.dumps({"census": [[str(v), m] for v, m in rows]}) + "\n"}
            for fmt in ("csv", "json"):
                out = Path(d, "census." + fmt)
                code = main(["--format", fmt, "--out", str(out), "census", "--order", str(k),
                             "--input", str(mat)])
                assert (code, out.read_text()) == (0, want[fmt])


class TestGlobalFlags:
    @pytest.mark.parametrize("argv", [
        ["--seed", "7", "--out", "m.txt", "--format", "json", "construct", "grid"],
        ["construct", "grid", "--seed", "7", "--out", "m.txt", "--format", "json"],
        ["--seed", "7", "construct", "--out", "m.txt", "grid", "--format", "json"],
        ["--format", "json", "--out", "m.txt", "construct", "--seed", "7", "grid"],
    ])
    def test_before_after_and_mixed(self, argv):
        args = build_parser().parse_args(argv)
        assert (args.seed, args.out, args.format) == (7, "m.txt", "json")

    def test_defaults(self):
        args = build_parser().parse_args(["construct", "grid"])
        assert (args.seed, args.out, args.format) == (0, None, None)

    @pytest.mark.parametrize("argv", [
        ["construct", "grid", "--n", "3"],
        ["verify"],
        ["count-equal", "--order", "2"],
        ["rects"],
        ["mu"],
        ["check-st", "--m", "1", "--n", "1", "--incidences", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_rejected_where_unread(self, tmp_path, capsys, argv, fmt):
        """Only census and scan read --format; the rest reject it, before or
        after the subcommand, before reading input or writing --out."""
        out = tmp_path / "out.txt"
        for full in (["--format", fmt, "--out", str(out), *argv],
                     [*argv, "--out", str(out), "--format", fmt]):
            code, stdout, err = run(capsys, *full)
            assert (code, stdout, err) == (1, "", "error: %s takes no --format\n" % argv[0])
            assert not out.exists()

    def test_readme_grid_example(self, tmp_path, capsys):
        mat = tmp_path / "grid.txt"
        code, _, _ = run(capsys, "construct", "grid", "--n", "4", "--out", str(mat))
        assert code == 0 and mat.read_text().startswith("4 4\n")
        code, out, _ = run(capsys, "census", "--order", "2", "--input", str(mat),
                           "--format", "json")
        assert code == 0 and json.loads(out)["census"][0] == ["1", 9]

    def test_readme_library_example(self):
        result = doctest.testfile(str(README), module_relative=False)
        assert result.attempted > 0 and result.failed == 0

    def test_readme_cli_block_parses(self):
        block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1]
        commands = [ln for ln in block.split("```", 1)[0].splitlines()
                    if ln.startswith("tpminors ")]
        assert len(commands) >= 10
        for line in commands:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])


class TestVerify:
    def test_tp2xn_verifies(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        code, _, _ = run(capsys, "--seed", "7", "--out", str(mat),
                         "construct", "tp2xn", "--N", "2")
        assert code == 0
        code, out, _ = run(capsys, "verify", "--input", str(mat))
        assert code == 0
        assert out.startswith("TP ok")

    def test_non_tp_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 2\n2 1\n")
        code, out, _ = run(capsys, "verify", "--input", str(bad))
        assert code == 1
        assert "not TP" in out

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_order_below_one_is_failure(self, tmp_path, capsys, order):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n-1 2\n3 -4\n")
        code, out, err = run(capsys, "verify", "--order", order, "--input", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("order", ["3", "5"])
    def test_order_above_dimensions_is_failure(self, tmp_path, capsys, order):
        mat = tmp_path / "m.txt"
        mat.write_text("2 3\n1 2 3\n1 3 5\n")
        code, out, err = run(capsys, "verify", "--order", order, "--input", str(mat))
        assert (code, out) == (1, "")
        assert err == "error: order %s exceeds matrix dimensions 2x3\n" % order

    def test_unknown_contiguous_flag_exits_two(self, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("2 2\n1 2\n1 3\n")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--contiguous", "--input", str(mat)])
        assert exc.value.code == 2

    def test_witness_is_lexicographic_not_solid(self, tmp_path, capsys):
        # the solid scan meets cols (2, 3), value -1, first; the report is the
        # lexicographically first non-positive minor
        mat = tmp_path / "m.txt"
        mat.write_text("2 3\n1 1 1\n1 2 1\n")
        code, out, err = run(capsys, "verify", "--input", str(mat))
        assert code == 1 and err == ""
        assert out == "not TP: order 2 minor at rows (1, 2) cols (1, 3) has value 0\n"

    def test_vandermonde_10x10(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        mat.write_text(matrix_to_text(RatMatrix([[x ** j for j in range(10)]
                                                 for x in range(2, 12)])))
        code, out, _ = run(capsys, "verify", "--input", str(mat))
        assert code == 0 and out == "TP ok (10x10)\n"


@st.composite
def verify_inputs(draw):
    """Random small matrices, and TP Vandermonde matrices x_i^(e_j) with
    one entry nudged, so that some stay TP and some fail at a high order."""
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        return RatMatrix(draw(st.lists(st.lists(st.integers(1, 5), min_size=c, max_size=c),
                                       min_size=r, max_size=r)))
    xs = sorted(draw(st.sets(st.integers(1, 6), min_size=r, max_size=r)))
    es = sorted(draw(st.sets(st.integers(0, 4), min_size=c, max_size=c)))
    rows = [[F(x) ** e for e in es] for x in xs]
    i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
    rows[i][j] *= 1 + draw(st.fractions(min_value=-1, max_value=1, max_denominator=64))
    return RatMatrix(rows)


@settings(max_examples=300, deadline=None)
@given(verify_inputs())
def test_verify_reports_exhaustive_witness(A):
    """verify without --order prints what the exhaustive scan finds."""
    witness = verify_tp(A)
    if witness is None:
        want = "TP ok (%dx%d)\n" % (A.rows, A.cols)
    else:
        want = "not TP: order %d minor at rows %r cols %r has value %s\n" % witness
    with tempfile.TemporaryDirectory() as d:
        mat, out = Path(d, "m.txt"), Path(d, "out.txt")
        mat.write_text(matrix_to_text(A))
        code = main(["--out", str(out), "verify", "--input", str(mat)])
        assert (code, out.read_text()) == (0 if witness is None else 1, want)


class TestCounters:
    def test_count_equal(self, tmp_path, capsys):
        mat = tmp_path / "g.txt"
        run(capsys, "--out", str(mat), "construct", "grid", "--n", "4")
        code, out, _ = run(capsys, "count-equal", "--order", "2", "--value", "2",
                           "--input", str(mat))
        assert code == 0 and out == "12\n"

    def test_rects_single_point(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        pts.write_text(json.dumps({"points": [["2", "3"]]}))
        code, out, _ = run(capsys, "rects", "--area", "1", "--input", str(pts))
        assert code == 0 and out == "0\n"

    def test_rects_grid(self, tmp_path, capsys):
        pts = tmp_path / "p.json"
        pts.write_text(json.dumps(
            {"points": [[str(x), str(y)] for x in range(1, 5) for y in range(1, 5)]}
        ))
        code, out, _ = run(capsys, "rects", "--area", "1", "--input", str(pts))
        assert code == 0 and out == "9\n"

    def test_mu_pair(self, tmp_path, capsys):
        doc = tmp_path / "s.json"
        doc.write_text(json.dumps({"A": ["1", "2"], "B": ["1", "2"]}))
        code, out, _ = run(capsys, "mu", "--input", str(doc))
        assert code == 0 and out == "12\n"

    def test_mu_values(self, tmp_path, capsys):
        doc = tmp_path / "s.json"
        doc.write_text(json.dumps({"values": ["1", "1", "2"]}))
        code, out, _ = run(capsys, "mu", "--input", str(doc))
        assert code == 0 and out == "2\n"

    @pytest.mark.parametrize("doc, keys", [
        ({"A": [1, 2, 4], "B": [1, 3], "values": [1, 1, 1]}, '"A", "B", "values"'),
        ({"A": [1, 2, 4], "values": [1, 1, 1]}, '"A", "values"'),
        ({"values": [1, 1, 1], "points": []}, '"points", "values"'),
        ({"B": [1, 3], "A": [1, 2], "note": "x"}, '"A", "B", "note"'),
    ])
    def test_mu_extra_keys(self, tmp_path, capsys, doc, keys):
        """Only the key sets {A, B} and {values} are read: a document holding
        either with any other key exits 1 naming its keys, not read in part."""
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "mu", "--input", str(path)) == (
            1, "", 'error: mu input needs keys "A"/"B" or "values" alone, got %s\n' % keys)


def spelled(value):
    """One JSON spelling of a rational: a JSON integer, or p/q scaled by 1..3
    and perhaps signed, so equal values arrive as different tokens."""
    return st.one_of(
        *([st.just(value.numerator)] if value.denominator == 1 else []),
        st.integers(1, 3).map(lambda k: "%d/%d" % (value.numerator * k, value.denominator * k)),
        st.just(("+%s" if value >= 0 else "%s") % value))


# small rationals with repeats, zero and negatives, each in a drawn spelling
mu_tokens = st.lists(st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4)))
                     .flatmap(spelled), max_size=7)


@settings(max_examples=150, deadline=None)
@given(mu_tokens, mu_tokens)
def test_mu_command_matches_fraction_convolution(A, B):
    """mu on {"A", "B"} takes its count from the integer convolution; the
    Fraction-keyed multisets give the same maximum, for an empty A or B too."""
    want = mu(multiset_prod(multiset_diff(A, A), multiset_diff(B, B)))
    with tempfile.TemporaryDirectory() as d:
        doc, out = Path(d, "s.json"), Path(d, "mu.txt")
        doc.write_text(json.dumps({"A": A, "B": B}))
        assert main(["--out", str(out), "mu", "--input", str(doc)]) == 0
        assert out.read_text() == "%d\n" % want


@pytest.mark.parametrize("mode", ["diagonal", "both-diagonals"])
@settings(max_examples=100, deadline=None)
@given(case=rectangle_inputs())
def test_rects_command_matches_pair_scan(mode, case):
    """rects counts over the cleared points with the area scaled by Lx * Ly:
    the same count as the pair scan over the rational points."""
    points, area = case
    with tempfile.TemporaryDirectory() as d:
        doc, out = Path(d, "p.json"), Path(d, "rects.txt")
        doc.write_text(json.dumps({"points": [[str(x), str(y)] for x, y in points]}))
        argv = ["--out", str(out), "rects", "--input", str(doc), "--area", str(area),
                "--mode", mode]
        assert main(argv) == 0
        assert out.read_text() == "%d\n" % rectangles_oracle(points, area, mode)


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    """main builds its parser once per process.  The same argv gives the same
    bytes and exit code before and after an argparse exit 2, a --format
    rejection and a command with global flags after its subcommand."""
    pts, mat, out = tmp_path / "p.json", tmp_path / "m.txt", tmp_path / "out.txt"
    # area 1/2: two diagonal pairs from (0, 0) and one anti-diagonal pair
    pts.write_text(json.dumps({"points": [[0, 0], [1, "1/2"], ["1/2", 1], ["3/2", "1/2"]]}))
    mat.write_text("2 2\n1 2\n1/2 3\n")

    def call(*argv):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    same = [("rects", "--input", str(pts), "--area", "1/2", "--mode", "both-diagonals"),
            ("census", "--order", "1", "--input", str(mat))]
    first = [call(*argv) for argv in same]
    assert first == [(0, "3\n", ""), (0, "1/2,1\n1,1\n2,1\n3,1\n", "")]
    between = [(("verify", "--contiguous"), 2),
               (("--format", "json", *same[0]), 1),
               (("census", "--order", "1", "--input", str(mat), "--format", "json",
                 "--out", str(out), "--seed", "5"), 0)]
    for argv, code in between:
        assert call(*argv)[0] == code
        assert [call(*argv) for argv in same] == first
    assert out.read_text() == '{"census": [["1/2", 1], ["1", 1], ["2", 1], ["3", 1]]}\n'


class TestScanAndSt:
    def test_scan_csv(self, tmp_path, capsys):
        code, out, _ = run(capsys, "scan", "--family", "grid", "--sizes", "20,40,80")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("# slope=")

    def test_scan_reproducible(self, tmp_path, capsys):
        args = ("--seed", "4", "scan", "--family", "random-points", "--sizes", "30,60,120")
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b

    @pytest.mark.parametrize("flags, named", [
        (("--area", "3"), "--area"),
        (("--mode", "both-diagonals"), "--mode"),
        (("--area", "3", "--mode", "both-diagonals"), "--mode or --area"),
    ])
    @pytest.mark.parametrize("family", ["grid", "elekes-2xn", "power-sum"])
    def test_rectangle_flags_need_random_points(self, capsys, family, flags, named):
        code, out, err = run(capsys, "scan", "--family", family, "--sizes", "4,6,8", *flags)
        assert code == 1 and out == ""
        assert err == "error: --family %s takes no %s\n" % (family, named)

    def test_random_points_takes_rectangle_flags(self, capsys):
        argv = ("scan", "--family", "random-points", "--sizes", "30,60,120")
        _, default, _ = run(capsys, *argv)
        code, explicit, _ = run(capsys, *argv, "--area", "1", "--mode", "diagonal")
        assert code == 0 and explicit == default
        code, both, _ = run(capsys, *argv, "--area", "2", "--mode", "both-diagonals")
        assert code == 0 and both != default

    @pytest.mark.parametrize("area", ["0", "-1/2"])
    def test_nonpositive_area_rejected(self, capsys, area):
        # rejected before the first size, so no partial scan is printed
        assert run(capsys, "scan", "--family", "random-points", "--sizes", "10,20,40",
                   "--area", area) == (1, "", "error: area must be positive\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_no_fit_warns(self, capsys, fmt):
        code, out, err = run(capsys, "--format", fmt, "scan", "--family", "random-points",
                             "--sizes", "0,1,2")
        assert code == 0
        assert ("# slope=nan" in out) if fmt == "csv" else json.loads(out)["slope"] is None
        assert err == "warning: no slope fitted: 0 of 3 rows have a nonzero count, 3 are needed\n"
        code, _, err = run(capsys, "--format", fmt, "scan", "--family", "grid", "--sizes", "4,6,8")
        assert (code, err) == (0, "")

    def test_check_st(self, capsys):
        code, out, _ = run(capsys, "check-st", "--m", "54", "--n", "27",
                           "--incidences", "81", "--constant", "5/2")
        assert code == 0 and out == "ok\n"
        code, out, _ = run(capsys, "check-st", "--m", "100", "--n", "100",
                           "--incidences", "10000", "--constant", "1/10")
        assert code == 1 and out == "violated\n"


class TestErrorPaths:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "verify", "--input", "/nonexistent/m.txt")
        assert code == 2

    @pytest.mark.parametrize("cmd", ["rects", "mu"])
    def test_malformed_json_is_io_error(self, tmp_path, capsys, cmd):
        bad = tmp_path / "bad.json"
        bad.write_text('{"points": [')
        code, out, err = run(capsys, cmd, "--input", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("i/o error:")

    def test_malformed_matrix_is_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a matrix\n")
        code, _, err = run(capsys, "verify", "--input", str(bad))
        assert code == 1
        assert "error" in err

    def test_decimal_entry_is_failure(self, tmp_path, capsys):
        bad = tmp_path / "dec.txt"
        bad.write_text("2 2\n1.5 1e3\n1 2\n")
        code, out, err = run(capsys, "verify", "--input", str(bad))
        assert code == 1 and out == ""
        assert "'1.5'" in err

    def test_bad_precondition(self, capsys):
        code, _, err = run(capsys, "construct", "grid", "--n", "1")
        assert code == 1

    def test_grid_without_n_is_failure(self, capsys):
        code, out, err = run(capsys, "construct", "grid")
        assert code == 1 and out == ""
        assert err == "error: grid needs --n\n"

    @pytest.mark.parametrize("target, argv, flag", [
        ("grid", ["--n", "3"], ["--k", "5"]),
        ("grid", ["--n", "3"], ["--N", "3"]),
        ("grid", ["--n", "3"], ["--canonical"]),
        ("grid", ["--n", "3"], ["--a", "1,2"]),
        ("power-sum", ["--n", "5"], ["--N", "3"]),
        ("power-sum", ["--n", "5"], ["--canonical"]),
        ("power-sum", ["--n", "5"], ["--a", "1,2"]),
        ("power-sum", ["--a", "1,2", "--b", "2,1"], ["--n", "5"]),
        ("elekes", ["--N", "2"], ["--n", "3"]),
        ("elekes", ["--N", "2"], ["--k", "3"]),
        ("elekes", ["--N", "2"], ["--b", "2,1"]),
        ("tp2xn", ["--N", "2"], ["--n", "3"]),
        ("tp2xn", ["--N", "2"], ["--canonical"]),
    ])
    def test_construct_rejects_stray_flag(self, capsys, target, argv, flag):
        assert run(capsys, "--seed", "3", "construct", target, *argv)[0] == 0
        code, out, err = run(capsys, "--seed", "3", "construct", target, *argv, *flag)
        assert code == 1 and out == ""
        assert err.startswith("error: construct %s takes " % target) and flag[0] in err

    def test_grid_scan_size_below_two(self, capsys):
        code, out, _ = run(capsys, "scan", "--family", "grid", "--sizes", "1,2,3")
        assert code == 1
        assert out.splitlines()[-1] == "# partial: size 1 failed: n must be >= 2"


class TestRationalInputs:
    """Every rational the CLI reads, from a flag or a JSON value, is an
    integer or p/q; anything else exits 1 naming the token."""

    def rejected(self, capsys, token, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert repr(token) in err

    def json_file(self, tmp_path, doc):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_count_equal_value(self, tmp_path, capsys):
        mat = tmp_path / "g.txt"
        run(capsys, "--out", str(mat), "construct", "grid", "--n", "4")
        self.rejected(capsys, "1e0", "count-equal", "--order", "2", "--value", "1e0",
                      "--input", str(mat))

    def test_rects_area(self, tmp_path, capsys):
        pts = self.json_file(tmp_path, {"points": [["1", "2"], ["2", "3"]]})
        self.rejected(capsys, "1.5", "rects", "--area", "1.5", "--input", pts)

    def test_scan_area(self, capsys):
        self.rejected(capsys, "0.5", "scan", "--family", "random-points",
                      "--sizes", "30,60,120", "--area", "0.5")

    def test_check_st_constant(self, capsys):
        self.rejected(capsys, "2.5", "check-st", "--m", "1", "--n", "1",
                      "--incidences", "1", "--constant", "2.5")
        # the constant is read before the counts are checked
        self.rejected(capsys, "2.5", "check-st", "--m", "-1", "--n", "1",
                      "--incidences", "1", "--constant", "2.5")

    def test_negative_value_either_spelling(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        mat.write_text("2 3\n-1/2 1 -2/4\n2 -1/2 3\n")
        counts = [run(capsys, "count-equal", "--order", "1", *value, "--input", str(mat))
                  for value in (["--value", "-1/2"], ["--value=-1/2"], ["--val", "-1/2"])]
        assert counts == [(0, "3\n", "")] * 3

    def test_negative_area_is_read(self, tmp_path, capsys):
        pts = self.json_file(tmp_path, {"points": [["1", "2"], ["2", "3"]]})
        assert run(capsys, "rects", "--area", "-1/2", "--input", pts) == \
            (1, "", "error: area must be positive\n")

    def test_negative_constant_is_read(self, capsys):
        assert run(capsys, "check-st", "--m", "1", "--n", "1", "--incidences", "1",
                   "--constant", "-5/2") == (1, "", "error: constant must be positive\n")

    def test_power_sum_lists(self, capsys):
        self.rejected(capsys, "1.5", "construct", "power-sum",
                      "--a", "1.5,2", "--b", "3,2", "--k", "2")
        self.rejected(capsys, "2e0", "construct", "power-sum",
                      "--a", "1,2", "--b", "2e0,1", "--k", "2")

    def test_power_sum_lists_strip_spaces(self, capsys):
        _, plain, _ = run(capsys, "construct", "power-sum",
                          "--a", "1,2,3", "--b", "3,2,1", "--k", "3")
        code, spaced, _ = run(capsys, "construct", "power-sum",
                              "--a", " 1, 2 ,3", "--b", "3, 2, 1 ", "--k", "3")
        assert code == 0 and spaced == plain

    @pytest.mark.parametrize("points", [
        [["1.5", "2"], ["2.5", "3"]],  # decimal strings
        [[1.5, 2], [2.5, 3]],  # JSON numbers
        [[float("nan"), 1], [2, 3]],  # JSON NaN
        [[True, 1], [2, 3]],  # not a number
        [[None, 1], [2, 3]],
        [[[1], 1], [2, 3]],
    ])
    def test_rects_points(self, tmp_path, capsys, points):
        pts = self.json_file(tmp_path, {"points": points})
        # the first coordinate, as the JSON document writes it
        self.rejected(capsys, json.dumps(points[0][0]).strip('"'), "rects", "--input", pts)

    @pytest.mark.parametrize("doc, token", [
        ({"values": [1, 1.5]}, "1.5"),
        ({"values": ["1", "2e3"]}, "2e3"),
        ({"A": ["1", "0.5"], "B": ["1", "2"]}, "0.5"),
        ({"A": ["1", "2"], "B": [1, 2.25]}, "2.25"),
        ({"A": [float("inf"), 1], "B": [1, 2]}, "Infinity"),
        ({"A": [1, 2], "B": [1, float("-inf")]}, "-Infinity"),
        ({"values": [[1], 1]}, "[1]"),
        ({"values": [True, 1]}, "true"),
        ({"values": [1, False]}, "false"),
        ({"values": [1, None]}, "null"),
        ({"values": [{"1": 1}]}, '{"1": 1}'),
    ])
    def test_mu_values(self, tmp_path, capsys, doc, token):
        self.rejected(capsys, token, "mu", "--input", self.json_file(tmp_path, doc))

    @pytest.mark.parametrize("argv", [
        ["rects", "--input", "points.json"],
        ["mu", "--input", "values.json"],
        ["census", "--order", "1", "--input", "matrix.txt"],
        ["count-equal", "--order", "1", "--value", "1/0", "--input", "grid.txt"],
        ["rects", "--area", "1/0", "--input", "diagonal.json"],
        ["scan", "--family", "random-points", "--sizes", "30,60,120", "--area", "1/0"],
        ["check-st", "--m", "1", "--n", "1", "--incidences", "1", "--constant", "1/0"],
    ], ids=" ".join)
    def test_zero_denominator(self, tmp_path, capsys, argv):
        """A zero denominator is named as every other bad token is."""
        inputs = {"points.json": json.dumps({"points": [["1/0", "1"], ["2", "3"]]}),
                  "values.json": json.dumps({"values": ["1/0"]}),
                  "matrix.txt": "2 2\n1 1/0\n1 2\n",
                  "grid.txt": "2 2\n3 4\n2 3\n",
                  "diagonal.json": json.dumps({"points": [[1, 1], [2, 2]]})}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a) if a in inputs else a for a in argv]
        assert run(capsys, *argv) == (1, "", "error: '1/0' is not an integer or p/q\n")

    def test_json_integers_accepted(self, tmp_path, capsys):
        pts = self.json_file(tmp_path, {"points": [[1, 1], [2, 2]]})
        code, out, _ = run(capsys, "rects", "--input", pts)
        assert code == 0 and out == "1\n"
        code, out, _ = run(capsys, "mu", "--input",
                           self.json_file(tmp_path, {"values": [1, 1, 2]}))
        assert code == 0 and out == "2\n"


class TestJsonArrays:
    """A JSON string where an array is expected exits 1 naming the field,
    instead of being read as a list of its characters."""

    @pytest.mark.parametrize("cmd, doc, field", [
        ("mu", {"values": "112"}, "values"),
        ("mu", {"A": "12", "B": [1, 2]}, "A"),
        ("mu", {"A": [1, 2], "B": "12"}, "B"),
        ("rects", {"points": ["12", "23"]}, "each point"),
        ("rects", {"points": [["1", "2", "3"], ["2", "3", "4"]]}, "each point"),
        ("rects", {"points": [["1"], ["2"]]}, "each point"),
        ("rects", {"points": "1223"}, "points"),
        ("rects", {"points": {"1": "2"}}, "points"),
    ])
    def test_non_array_is_failure(self, tmp_path, capsys, cmd, doc, field):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, cmd, "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: %s must be a " % field)

    @pytest.mark.parametrize("cmd, doc, message", [
        ("mu", "AB", 'mu input must be a JSON object, got "AB"'),
        ("mu", [["1", "2"]], 'mu input must be a JSON object, got [["1", "2"]]'),
        ("rects", [["1", "2"]], 'the point set must be a JSON object, got [["1", "2"]]'),
        ("rects", "points", 'the point set must be a JSON object, got "points"'),
        ("rects", {"point": []}, "points must be a JSON array, got null"),
    ])
    def test_non_object_document_is_failure(self, tmp_path, capsys, cmd, doc, message):
        """A document that is not a JSON object exits 1 with one error line."""
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, cmd, "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1

    def test_arrays_accepted(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps({"A": ["1/2", 1], "B": [1, 2]}))
        assert run(capsys, "mu", "--input", str(path)) == (0, "12\n", "")
        path.write_text(json.dumps({"points": [["1/2", 1], [2, "3/2"]]}))
        assert run(capsys, "rects", "--input", str(path), "--area", "3/4") == (0, "1\n", "")
