"""Command-line surface.

JSON (default) or CSV on stdout, diagnostics on stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error.  The environment
variable BIOPS_MAX_DIM (default 16) caps truncation sizes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from .errors import BiopsError, ParseError
from . import expr as expr_mod
from .tensor import ShockElem, TensorElem, linear_form
from .bimoment import build_bimoment, det_fraction_free, det_closed_form
from .biortho import (p_explicit, q_explicit, lambda_n,
                      first_moment_matrices)
from .matrep import (represent, second_moment, cheb_like,
                     cheb_reading_report, GENERATOR_REPS)
from .asep import stationary_mpa, compare
from .checks import default_suite


def _cap_dim(dim, parser):
    text = os.environ.get("BIOPS_MAX_DIM", "16")
    try:
        cap = int(text)
    except ValueError:
        parser.error(f"BIOPS_MAX_DIM is not an integer: {text!r}")
    if dim > cap:
        raise BiopsError(
            f"dim {dim} exceeds BIOPS_MAX_DIM={cap}; raise the cap to proceed"
        )
    return dim


def _emit(obj, fmt):
    if fmt == "json":
        json.dump(obj, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        _emit_csv(obj)


def _emit_csv(obj):
    out = csv.writer(sys.stdout)
    if isinstance(obj, dict) and "states" in obj:
        rows = obj["states"]
        header = sorted(rows[0].keys())
        out.writerow(header)
        for row in rows:
            out.writerow([_flat(row[h]) for h in header])
    elif isinstance(obj, dict):
        for k in sorted(obj):
            out.writerow([k, _flat(obj[k])])
    else:
        for row in obj:
            out.writerow([_flat(row)])


def _flat(v):
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return v


def _parse_expr(src, algebra=TensorElem):
    return expr_mod.eval_expr(expr_mod.parse(src), algebra)


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _int_at_least(low):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}: {value}")
        return value
    return parse


_length = _int_at_least(1)   # --L, a number of sites
_index = _int_at_least(0)    # --n and --max-n
_dim = _int_at_least(2)      # --dim of a truncation


def build_parser():
    p = argparse.ArgumentParser(
        prog="biops",
        description="Exact bi-orthogonal-polynomial machinery for the "
                    "two-parameter TASEP matrix product ansatz.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=lambda **kw: argparse.ArgumentParser(
                               parents=[common], **kw))

    s = sub.add_parser("L", help="evaluate the linear form on an expression")
    s.add_argument("expr")

    s = sub.add_parser("bimoment", help="emit the truncated bi-moment matrix "
                                        "and its determinant")
    s.add_argument("--n", type=_index, required=True)

    s = sub.add_parser("det", help="fraction-free determinant of the "
                                   "bi-moment matrix, checked against the "
                                   "closed form")
    s.add_argument("--n", type=_index, required=True)

    s = sub.add_parser("poly", help="emit P_n or Q_n")
    s.add_argument("--which", choices=("P", "Q"), required=True)
    s.add_argument("--n", type=_index, required=True)

    s = sub.add_parser("lambda", help="emit the normalization Lambda_n")
    s.add_argument("--n", type=_index, required=True)

    s = sub.add_parser("moments", help="emit the six first-moment bands")
    s.add_argument("--dim", type=_dim, default=6)

    s = sub.add_parser("represent", help="matrix representation of an "
                                         "expression")
    s.add_argument("expr")
    s.add_argument("--dim", type=_dim, required=True)
    s.add_argument("--rep", choices=GENERATOR_REPS, default="hat")

    s = sub.add_parser("second-moment", help="emit the tridiagonal second "
                                             "moment matrix W")
    s.add_argument("--dim", type=_int_at_least(3), default=6)

    s = sub.add_parser("cheb", help="Chebyshev-like polynomials of W")
    s.add_argument("--max-n", type=_index, default=6)
    s.add_argument("--reading", choices=("corrected", "printed"),
                   default="corrected")

    s = sub.add_parser("stationary", help="stationary TASEP distribution")
    s.add_argument("--L", type=_length, required=True)
    s.add_argument("--alpha", type=_fraction, required=True)
    s.add_argument("--beta", type=_fraction, required=True)
    s.add_argument("--symbolic", action="store_true")

    s = sub.add_parser("compare", help="certify the matrix-product "
                                       "distribution as the Markov "
                                       "stationary state")
    s.add_argument("--L", type=_length, required=True)
    s.add_argument("--alpha", type=_fraction, required=True)
    s.add_argument("--beta", type=_fraction, required=True)

    s = sub.add_parser("check", help="run the aggregated invariant suites")
    s.add_argument("--max-n", type=_index, default=6)
    s.add_argument("--seed", type=int, default=0)

    return p


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.format

    if args.command == "L":
        value = linear_form(_parse_expr(args.expr, ShockElem))
        _emit({"expr": args.expr, "L": value.to_obj(), "text": str(value)}, fmt)
        return 0

    if args.command == "bimoment":
        m = build_bimoment(args.n)
        obj = m.to_obj()
        obj["det"] = det_fraction_free(m.entries).to_obj()
        _emit(obj, fmt)
        return 0

    if args.command == "det":
        d = det_fraction_free(build_bimoment(args.n).entries)
        closed = det_closed_form(args.n)
        _emit({"n": args.n, "det": d.to_obj(), "text": str(d),
               "matches_closed_form": d == closed}, fmt)
        return 0 if d == closed else 1

    if args.command == "poly":
        f = p_explicit if args.which == "P" else q_explicit
        _emit(f(args.n).to_obj(), fmt)
        return 0

    if args.command == "lambda":
        lam = lambda_n(args.n)
        _emit({"n": args.n, "lambda": lam.to_obj(), "text": str(lam)}, fmt)
        return 0

    if args.command == "moments":
        bands = first_moment_matrices(_cap_dim(args.dim, parser))
        _emit({band.kind: band.to_obj() for band in bands}, fmt)
        return 0

    if args.command == "represent":
        r = represent(_parse_expr(args.expr), _cap_dim(args.dim, parser),
                      args.rep)
        _emit(r.to_obj(), fmt)
        return 0

    if args.command == "second-moment":
        _emit(second_moment(_cap_dim(args.dim, parser)).to_obj(), fmt)
        return 0

    if args.command == "cheb":
        report = cheb_reading_report(min(args.max_n, 6))
        obj = cheb_like(args.max_n, args.reading).to_obj()
        obj["oracle_report"] = report.to_obj()
        _emit(obj, fmt)
        return 0 if report.ok else 1

    if args.command == "stationary":
        table = stationary_mpa(args.L, args.alpha, args.beta)
        _emit(table.to_obj(symbolic=args.symbolic), fmt)
        return 0

    if args.command == "compare":
        rep = compare(args.L, args.alpha, args.beta)
        print(rep.summary(), file=sys.stderr)
        _emit(rep.to_obj(), fmt)
        return 0 if rep.ok else 1

    if args.command == "check":
        reports = default_suite(max_n=args.max_n, seed=args.seed)
        ok = True
        for rep in reports:
            print(rep.summary(), file=sys.stderr)
            ok = ok and rep.ok
        _emit([rep.to_obj() for rep in reports], fmt)
        return 0 if ok else 1

    parser.error(f"unknown command {args.command!r}")


def main(argv=None):
    try:
        code = run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the flush at interpreter exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BiopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
