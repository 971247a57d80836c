"""Command-line front end.

Subcommands: construct {grid|power-sum|elekes|tp2xn}, verify, census,
count-equal, rects, mu, scan, check-st.  Exit codes: 0 success,
1 precondition/verification failure, 2 I/O error or malformed JSON.
``verify`` certifies TP by Fekete's solid-minor criterion and names the
lexicographically first non-positive minor; ``--order k`` checks every minor.
The parser is built once per process, on the first ``main`` call: a caller that
runs ``main`` many times pays its 1-2 ms build once; an import builds nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from contextlib import contextmanager

from . import analysis, constructions, counting, exact


def _read_input(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


@contextmanager
def _output(path):
    """The text file a command writes to: sys.stdout, or path opened for writing."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_output(path, text):
    with _output(path) as fh:
        fh.write(text)


def _frac_list(s):
    return [x.strip() for x in s.split(",") if x.strip()]


# the flags each construct target reads, beside --seed and --out
_CONSTRUCT_FLAGS = {"grid": ("n",), "power-sum": ("a", "b", "n", "k"),
                    "elekes": ("N", "canonical"), "tp2xn": ("N",)}


def cmd_construct(args):
    for flag in ("n", "k", "N", "a", "b", "canonical"):
        if getattr(args, flag) is not None and flag not in _CONSTRUCT_FLAGS[args.what]:
            raise ValueError("construct %s takes no --%s" % (args.what, flag))
    k = 2 if args.k is None else args.k
    N = 2 if args.N is None else args.N
    if args.what == "grid":
        if args.n is None:
            raise ValueError("grid needs --n")
        A = constructions.grid_matrix(args.n)
        _write_output(args.out, exact.matrix_to_text(A))
    elif args.what == "power-sum":
        if args.n is not None and (args.a is not None or args.b is not None):
            raise ValueError("construct power-sum takes --a/--b or --n, not both")
        if args.a is not None and args.b is not None:
            a, b = _frac_list(args.a), _frac_list(args.b)
        elif args.n is not None:
            a = list(range(1, args.n + 1))
            b = list(range(args.n, 0, -1))
        else:
            raise ValueError("power-sum needs --a/--b or --n")
        A = constructions.power_sum_matrix(a, b, k)
        _write_output(args.out, exact.matrix_to_text(A))
    elif args.what == "elekes":
        cfg = constructions.elekes_config(N)
        if args.canonical:
            cfg = constructions.canonicalize_config(cfg, seed=args.seed)
        _write_output(args.out, constructions.config_to_json(cfg) + "\n")
    elif args.what == "tp2xn":
        cfg = constructions.elekes_config(N)
        cfg = constructions.canonicalize_config(cfg, seed=args.seed)
        A = constructions.assemble_tp_2xn(cfg)
        _write_output(args.out, exact.matrix_to_text(A))
    return 0


def cmd_verify(args):
    A = exact.matrix_from_text(_read_input(args.input))
    if args.order is None:
        witness = exact.verify_tp_contiguous(A)
    else:
        witness = exact.verify_tp(A, args.order)
    if witness is None:
        _write_output(args.out, "TP ok (%dx%d)\n" % (A.rows, A.cols))
        return 0
    _write_output(
        args.out,
        "not TP: order %d minor at rows %r cols %r has value %s\n" % witness,
    )
    return 1


def cmd_census(args):
    A = exact.matrix_from_text(_read_input(args.input))
    census = counting.minor_census(A, args.order)
    with _output(args.out) as fh:
        if args.format == "json":
            counting.census_to_json(census, fh)
            fh.write("\n")
        else:
            counting.census_to_csv(census, fh)
    return 0


def cmd_count_equal(args):
    A = exact.matrix_from_text(_read_input(args.input))
    _write_output(args.out, "%d\n" % counting.count_minors_equal(A, args.order, args.value))
    return 0


def cmd_rects(args):
    pts, (Lx, Ly) = constructions.points_from_json(_read_input(args.input))
    # (dx/Lx)(dy/Ly) == area  <=>  dx * dy == area * Lx * Ly
    n = counting.unit_rectangles(pts, exact.rat(args.area) * Lx * Ly, mode=args.mode)
    _write_output(args.out, "%d\n" % n)
    return 0


def cmd_mu(args):
    doc = constructions.load_json(_read_input(args.input), "mu input")
    if doc.keys() == {"A", "B"}:
        A, B = constructions.json_array(doc["A"], "A"), constructions.json_array(doc["B"], "B")
        constructions.check_rationals(A + B)
        result = counting.mu_diff_prod(A, B)
    elif doc.keys() == {"values"}:
        values = constructions.json_array(doc["values"], "values")
        constructions.check_rationals(values)
        result = counting.mu(values)
    elif {"A", "B"} <= doc.keys() or "values" in doc:
        raise ValueError('mu input needs keys "A"/"B" or "values" alone, got %s'
                         % ", ".join(map(json.dumps, sorted(doc))))
    else:
        raise ValueError('mu input needs keys "A"/"B" or "values"')
    _write_output(args.out, "%d\n" % result)
    return 0


def cmd_scan(args):
    sizes = []
    for x in _frac_list(args.sizes):
        try:
            sizes.append(int(x))
        except ValueError:
            raise ValueError("--sizes takes comma-separated integers, got %r" % x) from None
    # only the rectangle options given; RunConfig's defaults fill in the rest
    rect = {k: v for k, v in (("mode", args.mode), ("area", args.area)) if v is not None}
    if rect and args.family != "random-points":
        flags = " or ".join("--" + k for k in rect)
        raise ValueError("--family %s takes no %s" % (args.family, flags))
    cfg = analysis.RunConfig(family=args.family, sizes=sizes, seed=args.seed, **rect)
    report = analysis.scan_exponent(cfg)
    if report.fitted_slope is None:
        print("warning: no slope fitted: %d of %d rows have a nonzero count, 3 are needed" % (
            sum(r.count > 0 for r in report.rows), len(report.rows)), file=sys.stderr)
    if args.format == "json":
        _write_output(args.out, analysis.report_to_json(report) + "\n")
    else:
        _write_output(args.out, analysis.report_to_csv(report))
    return 1 if report.partial_error else 0


def cmd_check_st(args):
    ok = analysis.st_bound_check(args.m, args.n, args.incidences, args.constant)
    _write_output(args.out, ("ok\n" if ok else "violated\n"))
    return 0 if ok else 1


def _add_global_flags(parser, suppress=False):
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--seed", type=int, default=default(0))
    parser.add_argument("--out", default=default(None), help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default=default(None),
                        help="census and scan only (default csv)")


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def build_parser():
    p = argparse.ArgumentParser(prog="tpminors")
    _add_global_flags(p)
    # The same flags after the subcommand; suppressed defaults keep a value
    # given before the subcommand from being overwritten.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    c = add_parser("construct", help="build a matrix or configuration")
    c.add_argument("what", choices=("grid", "power-sum", "elekes", "tp2xn"))
    c.add_argument("--n", type=int, default=None)
    c.add_argument("--k", type=int, default=None, help="power-sum only (default 2)")
    c.add_argument("--N", type=int, default=None, help="elekes and tp2xn only (default 2)")
    c.add_argument("--a", default=None, help="comma-separated increasing rationals")
    c.add_argument("--b", default=None, help="comma-separated decreasing rationals")
    c.add_argument("--canonical", action="store_true", default=None, help="elekes only")
    c.set_defaults(func=cmd_construct)

    v = add_parser("verify", help="total-positivity check of a matrix file")
    v.add_argument("--input", default=None)
    v.add_argument("--order", type=int, default=None)
    v.set_defaults(func=cmd_verify)

    ce = add_parser("census", help="minor-value census")
    ce.add_argument("--input", default=None)
    ce.add_argument("--order", type=int, required=True)
    ce.set_defaults(func=cmd_census)

    cq = add_parser("count-equal", help="number of minors equal to a value")
    cq.add_argument("--input", default=None)
    cq.add_argument("--order", type=int, required=True)
    cq.add_argument("--value", default="1")
    cq.set_defaults(func=cmd_count_equal)

    r = add_parser("rects", help="axis-parallel rectangle count for a point set")
    r.add_argument("--input", default=None)
    r.add_argument("--area", default="1")
    r.add_argument("--mode", choices=counting.RECTANGLE_MODES, default="diagonal")
    r.set_defaults(func=cmd_rects)

    m = add_parser("mu", help="maximum multiplicity of a multiset expression")
    m.add_argument("--input", default=None)
    m.set_defaults(func=cmd_mu)

    s = add_parser("scan", help="size scan with log-log exponent fit")
    s.add_argument("--family", choices=analysis.FAMILIES, required=True)
    s.add_argument("--sizes", required=True, help="comma-separated increasing sizes")
    s.add_argument("--mode", choices=counting.RECTANGLE_MODES,
                   help="random-points only (default diagonal)")
    s.add_argument("--area", help="random-points only (default 1)")
    s.set_defaults(func=cmd_scan)

    st = add_parser("check-st", help="exact incidence-bound sanity check")
    st.add_argument("--m", type=int, required=True)
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--incidences", type=int, required=True)
    st.add_argument("--constant", default="5/2")
    st.set_defaults(func=cmd_check_st)

    return p


# the flags that take one rational; argparse reads a negative p/q such as
# -1/2 as an option (it takes only -N and -N.N for numbers), so main joins
# such a value to its flag or to an abbreviation of it, as in --value=-1/2
_RATIONAL_FLAGS = ("--value", "--area", "--constant")


def _join_signed_values(argv):
    out = []
    for token in argv:
        flag = out[-1] if out else ""
        if (len(flag) > 2 and any(f.startswith(flag) for f in _RATIONAL_FLAGS)
                and re.match("-[0-9]", token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    if hasattr(sys, "set_int_max_str_digits"):  # exact values print at any width
        sys.set_int_max_str_digits(0)
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        if args.format is not None and args.cmd not in ("census", "scan"):
            raise ValueError("%s takes no --format" % args.cmd)
        return args.func(args)
    # JSONDecodeError is a ValueError, so it is caught first
    except (OSError, json.JSONDecodeError) as e:
        print("i/o error: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, constructions.CanonicalizationError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
