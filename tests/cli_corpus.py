"""A fixed corpus of CLI invocations, each pinned by the SHA-256 of its exit
code, stdout and stderr (the table in cli_corpus.json).

Inputs are generated from fixed seeds with the standard library alone and
written to a scratch directory; every invocation runs in-process through
``tpminors.cli.main``.  To record the hashes of new invocations, run

    PYTHONPATH=src python tests/cli_corpus.py

which adds them and keeps every hash already in the table.  If the hash of an
existing invocation would change, it writes nothing, lists those invocations
and exits 1.  After a deliberate change of CLI output, name each invocation
to re-record, once per name:

    PYTHONPATH=src python tests/cli_corpus.py --rerecord "census --order 0 --input @grid4"

and name them in CHANGES.md, with the reason.  The module needs no test
dependency, so the table can be checked on any Python the package supports.
Two parts of an output may vary with the platform rather than with the
program, and are normalized before hashing (``pinned``): the floats of a
scan's fit are rounded to 12 significant digits, since ``math.log`` may differ
in its last bits between C libraries (the fit sums with ``math.fsum``, so the
Python version does not change it); and of an argparse usage error, whose
usage lines wrap differently from Python 3.13 on, only the error line is kept,
which also makes the hash independent of the terminal width.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from tpminors.cli import main

TABLE = Path(__file__).with_name("cli_corpus.json")
MISSING = "/nonexistent/corpus-input.txt"
_FLOAT = re.compile(r"-?[0-9]+\.[0-9]+(?:e[-+]?[0-9]+)?")


def _matrix_text(rows):
    return "%d %d\n" % (len(rows), len(rows[0])) + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)


def _power_sum(a, b, k):
    return [[(bi + aj) ** (k - 1) for aj in a] for bi in b]


def _random_rational(seed, rows, cols, lo=-9):
    rng = random.Random(seed)
    return [[Fraction(rng.randint(lo, 9), rng.randint(1, 6)) for _ in range(cols)]
            for _ in range(rows)]


def _points(seed, count, side, half=False):
    """``count`` distinct points of the side x side grid, as strings k/2 when ``half``."""
    rng = random.Random(seed)
    cells = rng.sample([(x, y) for x in range(1, side + 1) for y in range(1, side + 1)], count)
    if half:
        return [["%d/2" % x, "%d/2" % y] for x, y in cells]
    return [[x, y] for x, y in cells]


def _matrices():
    grid = lambda n: [[n - i + 1 + j for j in range(1, n + 1)] for i in range(1, n + 1)]
    return {
        "grid4": grid(4),
        "grid6": grid(6),
        "power6k3": _power_sum(range(1, 7), range(6, 0, -1), 3),
        "power6k4": _power_sum(range(1, 7), range(6, 0, -1), 4),
        "power8k5": _power_sum((1, 2, 4, 7, 11, 16, 22, 29), (40, 33, 27, 22, 18, 15, 13, 12), 5),
        "ratpower7": _power_sum(
            [Fraction(p, q) for p, q in ((1, 4), (2, 5), (1, 2), (4, 7), (2, 3), (5, 6), (1, 1))],
            [Fraction(p, q) for p, q in ((2, 1), (11, 6), (7, 5), (5, 4), (7, 6), (8, 7), (5, 7))],
            4),
        "vandermonde5": [[x ** j for j in range(5)]
                         for x in (Fraction(1, 2), 1, Fraction(3, 2), 2, 3)],
        "positive4": _random_rational(4, 4, 4, lo=1),
        "rand5": _random_rational(1, 5, 5),
        "rand3x7": _random_rational(2, 3, 7),
        "rand6x4": _random_rational(3, 6, 4, lo=-1),
        "zero_den": [[1, "1/0"], [1, 2]],
    }


def _json_inputs():
    return {
        "pts_int": {"points": _points(1, 30, 8)},
        "pts_half": {"points": _points(2, 40, 12, half=True)},
        "pts_grid": {"points": [[x, y] for x in range(1, 7) for y in range(1, 7)]},
        "pts_dup": {"points": [[1, 2], ["2", "3"], ["1", "2/1"]]},
        "pts_decimal": {"points": [["1", "2"], ["1.5", "3"]]},
        "pts_string": {"points": "1223"},
        "mu_int": {"A": random.Random(5).choices(range(13), k=12),
                   "B": list(range(1, 10))},
        "mu_rat": {"A": ["1/2", 1, "3/2", 2, "5/2", 4],
                   "B": ["1/3", "2/3", 1, "5/3", 3, "-1"]},
        "mu_values": {"values": [1, "2/2", 3, "6/2", 3, "-1", "1/3"]},
        "mu_empty": {"values": []},
        "mu_bad_token": {"A": ["1", "0.5"], "B": ["1", "2"]},
        "mu_null": {"A": [1, 2], "B": [1, None]},
        "mu_missing_keys": {"A": [1, 2]},
        "mu_ab_and_values": {"A": [1, 2, 4], "B": [1, 3], "values": [1, 1, 1]},
        "mu_a_and_values": {"A": [1, 2, 4], "values": [1, 1, 1]},
        "mu_not_object": ["1", "2"],
        "pts_zero_den": {"points": [["1/0", "1"], ["2", "3"]]},
        "mu_zero_den": {"values": ["1/0"]},
    }


def write_inputs(directory):
    """Write every corpus input into ``directory``; return {name: path}."""
    directory = Path(directory)
    paths = {}
    for name, rows in _matrices().items():
        paths[name] = directory / (name + ".txt")
        paths[name].write_text(_matrix_text(rows))
    for name, doc in _json_inputs().items():
        paths[name] = directory / (name + ".json")
        paths[name].write_text(json.dumps(doc))
    paths["malformed"] = directory / "malformed.json"
    paths["malformed"].write_text('{"points": [')
    paths["not_a_matrix"] = directory / "not_a_matrix.txt"
    paths["not_a_matrix"].write_text("not a matrix\n")
    for name, head in (("head_word", "2 x"), ("head_float", "2.0 2"), ("head_negative", "-1 2")):
        paths[name] = directory / (name + ".txt")
        paths[name].write_text(head + "\n1 2\n3 4\n")
    for seed, N in ((0, 2), (7, 3), (42, 4)):
        name = "tp2xn_s%d_N%d" % (seed, N)
        paths[name] = directory / (name + ".txt")
        code = main(["--seed", str(seed), "--out", str(paths[name]),
                     "construct", "tp2xn", "--N", str(N)])
        assert code == 0, name
    return {name: str(path) for name, path in paths.items()}


def _invocations():
    """The corpus: argv lists, with "@name" standing for the path of an input."""
    out = []
    add = out.append

    # construct
    for n in range(2, 7):
        add(["construct", "grid", "--n", str(n)])
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 3), (5, 4)):
        add(["construct", "power-sum", "--n", str(n), "--k", str(k)])
    add(["construct", "power-sum", "--n", "4"])
    add(["construct", "power-sum", "--a", "1/2,1,5/3", "--b", "7/2,2,1/4", "--k", "3"])
    add(["construct", "power-sum", "--a", " 1, 2 ,3", "--b", "3, 2, 1 ", "--k", "2"])
    for N in (1, 2, 3):
        add(["construct", "elekes", "--N", str(N)])
    add(["construct", "elekes"])
    for seed in (0, 7, 42):
        for N in (1, 2, 3):
            add(["--seed", str(seed), "construct", "elekes", "--N", str(N), "--canonical"])
            add(["--seed", str(seed), "construct", "tp2xn", "--N", str(N)])
    add(["construct", "elekes", "--N", "2", "--canonical", "--seed", "5"])
    add(["--seed", "0", "construct", "tp2xn", "--N", "6"])
    add(["--seed", "0", "construct", "elekes", "--N", "6", "--canonical"])
    add(["--seed", "7", "construct", "tp2xn", "--N", "5"])
    add(["--out", "-", "construct", "tp2xn"])
    add(["construct", "grid"])
    add(["construct", "grid", "--n", "1"])
    add(["construct", "grid", "--n", "3", "--k", "5"])
    add(["construct", "power-sum"])
    add(["construct", "power-sum", "--n", "3", "--a", "1,2"])
    add(["construct", "power-sum", "--a", "2,1", "--b", "3,2", "--k", "2"])
    add(["construct", "power-sum", "--a", "1,2", "--b", "2,3", "--k", "2"])
    add(["construct", "power-sum", "--a", "1.5,2", "--b", "3,2", "--k", "2"])
    add(["construct", "power-sum", "--n", "3", "--k", "1"])
    add(["construct", "elekes", "--N", "0"])
    add(["construct", "tp2xn", "--N", "2", "--canonical"])

    # census: orders 1-5 in CSV and JSON on grid, power-sum, rational and tp2xn inputs
    for name in ("grid6", "power8k5", "ratpower7", "rand5", "tp2xn_s7_N3"):
        for order in range(1, 6):
            for fmt in ("csv", "json"):
                add(["--format", fmt, "census", "--order", str(order), "--input", "@" + name])
    for name in ("grid4", "rand3x7", "rand6x4", "tp2xn_s0_N2", "tp2xn_s42_N4"):
        add(["census", "--order", "2", "--input", "@" + name])
    add(["census", "--input", "@grid4", "--order", "2", "--format", "json"])
    add(["census", "--order", "0", "--input", "@grid4"])
    add(["census", "--order", "3", "--input", "@not_a_matrix"])

    # count-equal
    for value in ("1", "2", "4", "6", "7", "1/2"):
        add(["count-equal", "--order", "2", "--value", value, "--input", "@grid6"])
    for name in ("tp2xn_s0_N2", "tp2xn_s7_N3", "tp2xn_s42_N4"):
        for value in ("1", "2", "1/2"):
            add(["count-equal", "--order", "2", "--value", value, "--input", "@" + name])
    add(["count-equal", "--order", "1", "--input", "@rand5", "--value=-1/2"])
    add(["count-equal", "--order", "3", "--input", "@rand5", "--value", "0"])
    add(["count-equal", "--order", "5", "--input", "@power8k5"])
    add(["count-equal", "--order", "2", "--input", "@power6k3"])
    add(["count-equal", "--order", "2", "--value", "1e0", "--input", "@grid4"])
    add(["count-equal", "--order", "7", "--input", "@grid4"])

    # verify, with and without --order, on TP and non-TP inputs
    for name in ("grid4", "grid6", "power6k3", "power6k4", "power8k5", "ratpower7",
                 "vandermonde5", "positive4", "rand5", "rand3x7", "rand6x4",
                 "tp2xn_s0_N2", "tp2xn_s7_N3"):
        add(["verify", "--input", "@" + name])
        for order in ("1", "2", "3", "5"):
            add(["verify", "--order", order, "--input", "@" + name])
    add(["verify", "--order", "0", "--input", "@grid4"])
    add(["verify", "--input", "@not_a_matrix"])
    for name in ("head_word", "head_float", "head_negative"):
        add(["verify", "--input", "@" + name])
    add(["verify", "--input", MISSING])

    # rects in both modes
    for name in ("pts_int", "pts_half", "pts_grid"):
        for area in ("1", "2", "3/2", "6"):
            for mode in ("diagonal", "both-diagonals"):
                add(["rects", "--input", "@" + name, "--area", area, "--mode", mode])
    add(["rects", "--input", "@pts_grid"])
    for name in ("pts_dup", "pts_decimal", "pts_string", "mu_values", "malformed"):
        add(["rects", "--input", "@" + name])
    for area in ("0", "-1", "1.5", "x"):
        add(["rects", "--input", "@pts_int", "--area", area])

    # mu with A/B, with values, and with bad input
    for name in ("mu_int", "mu_rat", "mu_values", "mu_empty", "mu_bad_token", "mu_null",
                 "mu_missing_keys", "mu_ab_and_values", "mu_a_and_values", "mu_not_object",
                 "pts_int", "malformed"):
        add(["mu", "--input", "@" + name])
    add(["mu", "--input", MISSING])

    # scan of every family
    for seed in ("0", "7", "42"):
        for fmt in ("csv", "json"):
            scan = ["--seed", seed, "--format", fmt, "scan", "--family"]
            add(scan + ["elekes-2xn", "--sizes", "2,3,4"])
            add(scan + ["random-points", "--sizes", "10,20,40,80"])
            add(scan + ["random-points", "--sizes", "10,20,40", "--mode", "both-diagonals",
                        "--area", "2"])
    for fmt in ("csv", "json"):
        add(["--format", fmt, "scan", "--family", "grid", "--sizes", "2,3,4,5"])
        add(["--format", fmt, "scan", "--family", "power-sum", "--sizes", "2,3,4,5"])
    add(["--seed", "42", "scan", "--family", "elekes-2xn", "--sizes", "2,3,4,5"])
    add(["--seed", "42", "scan", "--family", "elekes-2xn", "--sizes", "2,3,4,5,6,7"])
    add(["scan", "--family", "random-points", "--sizes", "20,40,80", "--area", "1/2"])
    add(["scan", "--family", "random-points", "--sizes", "0,1,2"])
    add(["--format", "json", "scan", "--family", "random-points", "--sizes", "0,1,2"])
    add(["scan", "--family", "random-points", "--sizes", "1000,10000,100000"])
    add(["--format", "json", "--seed", "3", "scan", "--family", "random-points",
         "--sizes", "1000,10000,100000", "--mode", "both-diagonals"])
    add(["scan", "--family", "grid", "--sizes", "1,2,3"])
    add(["scan", "--family", "grid", "--sizes", "200,400,800"])
    add(["--format", "json", "scan", "--family", "grid", "--sizes", "200,400,800"])
    add(["scan", "--family", "grid", "--sizes", "1000,10000,100000"])
    add(["scan", "--family", "power-sum", "--sizes", "1,2,3"])
    add(["scan", "--family", "power-sum", "--sizes", "2,3"])
    add(["scan", "--family", "power-sum", "--sizes", "8,16,32,64"])
    add(["--format", "json", "scan", "--family", "power-sum", "--sizes", "8,16,32,64"])
    add(["--seed", "3", "scan", "--family", "power-sum", "--sizes", "8,16,32,64"])
    add(["scan", "--family", "power-sum", "--sizes", "2,5,9,13"])
    add(["scan", "--family", "grid", "--sizes", "3,2,4"])
    add(["scan", "--family", "grid", "--sizes", "2,3,4", "--area", "2"])
    add(["scan", "--family", "elekes-2xn", "--sizes", "2,3,4", "--mode", "diagonal"])
    add(["scan", "--family", "random-points", "--sizes", "10,20,40", "--area", "0.5"])
    add(["scan", "--family", "grid", "--sizes", "2..10"])
    add(["scan", "--family", "grid", "--sizes", "1.5,2,3"])

    # check-st
    for m, n, incidences in ((1, 1, 1), (10, 10, 40), (10, 10, 100), (100, 100, 1500),
                             (100, 100, 3000), (0, 0, 0), (8, 27, 100)):
        add(["check-st", "--m", str(m), "--n", str(n), "--incidences", str(incidences)])
    add(["check-st", "--m", "10", "--n", "10", "--incidences", "100", "--constant", "5"])
    add(["check-st", "--m", "10", "--n", "10", "--incidences", "100", "--constant", "1/3"])
    add(["check-st", "--m", "-1", "--n", "1", "--incidences", "1"])
    add(["check-st", "--m", "1", "--n", "1", "--incidences", "1", "--constant", "0"])
    add(["check-st", "--m", "1", "--n", "1", "--incidences", "1", "--constant", "2.5"])

    # a zero denominator, named as every other bad token is
    add(["rects", "--input", "@pts_zero_den"])
    add(["mu", "--input", "@mu_zero_den"])
    add(["census", "--order", "1", "--input", "@zero_den"])
    add(["count-equal", "--order", "2", "--value", "1/0", "--input", "@grid4"])
    add(["rects", "--input", "@pts_int", "--area", "1/0"])
    add(["scan", "--family", "random-points", "--sizes", "10,20,40", "--area", "1/0"])
    add(["check-st", "--m", "1", "--n", "1", "--incidences", "1", "--constant", "1/0"])

    # argparse usage errors (exit 2)
    add([])
    add(["census", "--input", "@grid4"])
    add(["scan", "--sizes", "1,2,3"])
    add(["check-st", "--m", "x", "--n", "1", "--incidences", "1"])
    add(["construct", "grid", "--n", "3", "--bogus"])
    return out


INVOCATIONS = [(" ".join(argv), argv) for argv in _invocations()]


def run(argv, paths):
    """(exit code, stdout, stderr) of one in-process CLI invocation."""
    argv = [paths[a[1:]] if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return code, out.getvalue(), err.getvalue()


def pinned(argv, result):
    """The part of a result that the table pins (see the module docstring)."""
    code, out, err = result
    if "scan" in argv:
        out = _FLOAT.sub(lambda m: "%.12g" % float(m.group()), out)
    if err.startswith("usage:"):
        err = err.splitlines(keepends=True)[-1]
    return code, out, err


def digest(argv, result):
    return hashlib.sha256(json.dumps(pinned(argv, result)).encode()).hexdigest()


def load_table():
    return json.loads(TABLE.read_text())


def record(rerecord=()):
    """Hash every invocation and return (table, changed): ``changed`` names
    the invocations already in the table, and not in ``rerecord``, whose hash
    differs.  The table is written only when ``changed`` is empty."""
    unknown = set(rerecord) - {name for name, _ in INVOCATIONS}
    if unknown:
        raise ValueError("not in the corpus: %s" % ", ".join(map(repr, sorted(unknown))))
    old = load_table() if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as directory:
        paths = write_inputs(directory)
        table = {name: digest(argv, run(argv, paths)) for name, argv in INVOCATIONS}
    changed = [name for name, h in table.items()
               if old.get(name, h) != h and name not in rerecord]
    if not changed:
        TABLE.write_text(json.dumps(table, indent=1) + "\n")
    return table, changed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Record the CLI corpus hashes.")
    parser.add_argument("--rerecord", action="append", default=[], metavar="NAME",
                        help="an existing invocation whose hash may change")
    try:
        table, changed = record(parser.parse_args().rerecord)
    except ValueError as e:
        parser.error(str(e))
    if changed:
        sys.exit("not recorded: the hash of %d existing invocation(s) would change; "
                 "name each with --rerecord:\n%s" % (len(changed), "\n".join(changed)))
    print("recorded %d invocations in %s" % (len(table), TABLE), file=sys.stderr)
