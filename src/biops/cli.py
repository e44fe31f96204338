"""Command-line surface.

JSON (default) or CSV on stdout, diagnostics on stderr.  JSON is
written exactly as json.dumps(answer, indent=2, sort_keys=True) writes
it, in writes of about 64 KiB.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  The environment variable BIOPS_MAX_DIM
(default 16) caps truncation sizes.

Each subcommand imports the modules it runs inside its branch of `run`,
so a cold process loads only those.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii as _quote

from . import GENERATOR_REPS
from .errors import BiopsError, ParseError


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


def _certified_det(n):
    """(det B_n, ok): the closed form, and whether the LDU certificate,
    which proves it, passes."""
    from .bimoment import det_closed_form
    from .biortho import ldu_certificate
    return det_closed_form(n), ldu_certificate(n).ok


# json.dumps(obj, indent=2, sort_keys=True) runs Python's pure-Python
# encoder, one generator step per token.  This writer makes the same
# text with fewer Python steps: a Poly2 term record in a list is one
# f-string, and each subtree below depth 1 is one join of joins.  Only
# items at depth 0 and 1 (one stationary or bi-moment row) are separate
# pieces, and pieces are written once more than _FLUSH characters are
# pending, so the whole answer is never one string.
_FLUSH = 1 << 16


def _emit(obj, fmt):
    if fmt == "json":
        pending, size = [], 0
        for piece in _pieces(obj, "\n", 2):
            pending.append(piece)
            size += len(piece)
            if size > _FLUSH:
                sys.stdout.write("".join(pending))
                pending, size = [], 0
        pending.append("\n")
        sys.stdout.write("".join(pending))
    else:
        _emit_csv(obj)


def _pieces(o, nl, levels):
    """The text of `o`, whose lines are indented by `nl`, in pieces: one
    per item of a non-empty container `levels` or fewer deep."""
    if not (levels and o and isinstance(o, (dict, list, tuple))):
        yield _dumps(o, nl)
        return
    inner = nl + "  "
    if isinstance(o, dict):
        sep, close = "{" + inner, "}"
        items = ((_quote(k) + ": ", v) for k, v in sorted(o.items()))
    else:
        sep, close = "[" + inner, "]"
        items = zip(repeat(""), o)
    for head, v in items:
        if levels == 1:
            yield sep + head + _dumps(v, inner)
        else:
            yield sep + head
            yield from _pieces(v, inner, levels - 1)
        sep = "," + inner
    yield nl + close


def _dumps(o, nl):
    """json.dumps(o, indent=2, sort_keys=True), for a tree with str keys,
    with every line after the first indented by `nl`."""
    if isinstance(o, str):
        return _quote(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        return "{" + inner + ("," + inner).join(
            [_quote(k) + ": " + _dumps(v, inner)
             for k, v in sorted(o.items())]) + nl + "}"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        # an item that is a term record {"a": int, "b": int, "c": str}
        # is one f-string; `type(a) is int` keeps a bool out
        key = inner + '  "'
        a_, b_, c_ = "{" + key + 'a": ', "," + key + 'b": ', "," + key + 'c": '
        end = inner + "}"
        return "[" + inner + ("," + inner).join([
            f"{a_}{a}{b_}{b}{c_}{_quote(c)}{end}"
            if type(v) is dict and len(v) == 3
            and type(a := v.get("a")) is int
            and type(b := v.get("b")) is int
            and type(c := v.get("c")) is str
            else _dumps(v, inner) for v in o]) + nl + "]"
    return json.dumps(o)


def _emit_csv(obj):
    import csv
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

    s = sub.add_parser("det", help="closed-form determinant of the "
                                   "bi-moment matrix, proved by the LDU "
                                   "certificate")
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
    s.add_argument("--max-n", type=_index, default=6,
                   help="print T_0..T_max-n; the oracle report checks the "
                        "reading only for n <= min(max-n, 6)")
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
        from .expr import eval_expr, parse
        from .tensor import ShockElem, linear_form
        value = linear_form(eval_expr(parse(args.expr), ShockElem))
        _emit({"expr": args.expr, "L": value.to_obj(), "text": str(value)}, fmt)
        return 0

    if args.command == "bimoment":
        from .bimoment import build_bimoment
        det, ok = _certified_det(args.n)
        if not ok:
            raise BiopsError(
                f"the LDU certificate does not prove det B_{args.n}")
        _emit({"n": args.n, "det": det.to_obj(),
               "entries": [[p.to_obj() for p in row]
                           for row in build_bimoment(args.n)]}, fmt)
        return 0

    if args.command == "det":
        det, ok = _certified_det(args.n)
        _emit({"n": args.n, "det": det.to_obj(), "text": str(det),
               "matches_closed_form": ok}, fmt)
        return 0 if ok else 1

    if args.command == "poly":
        from .biortho import p_explicit, q_explicit
        f = p_explicit if args.which == "P" else q_explicit
        _emit(f(args.n).to_obj(), fmt)
        return 0

    if args.command == "lambda":
        from .biortho import lambda_n
        lam = lambda_n(args.n)
        _emit({"n": args.n, "lambda": lam.to_obj(), "text": str(lam)}, fmt)
        return 0

    if args.command == "moments":
        from .biortho import first_moment_matrices
        bands = first_moment_matrices(_cap_dim(args.dim, parser))
        _emit({band.kind: band.to_obj() for band in bands}, fmt)
        return 0

    if args.command == "represent":
        from .expr import parse
        from .matrep import represent
        r = represent(parse(args.expr), _cap_dim(args.dim, parser), args.rep)
        _emit(r.to_obj(), fmt)
        return 0

    if args.command == "second-moment":
        from .matrep import second_moment
        _emit(second_moment(_cap_dim(args.dim, parser)).to_obj(), fmt)
        return 0

    if args.command == "cheb":
        from .matrep import cheb_like, cheb_reading_report
        report = cheb_reading_report(args.max_n)
        _emit({"reading": args.reading, "oracle_report": report.to_obj(),
               "polys": [[c.to_obj() for c in p] for p in
                         cheb_like(args.max_n, args.reading)]}, fmt)
        return 0 if report.ok else 1

    if args.command == "stationary":
        from .asep import stationary_mpa
        table = stationary_mpa(args.L, args.alpha, args.beta)
        _emit(table.to_obj(symbolic=args.symbolic), fmt)
        return 0

    if args.command == "compare":
        from .asep import compare
        rep = compare(args.L, args.alpha, args.beta)
        print(rep.summary(), file=sys.stderr)
        _emit(rep.to_obj(), fmt)
        return 0 if rep.ok else 1

    if args.command == "check":
        from .checks import default_suite
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
    except ValueError as exc:
        # Python refuses to convert an integer of more digits than
        # sys.get_int_max_str_digits() to text; here that integer is part
        # of an answer, since an over-long input literal is a ParseError
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: an output number has more than "
              f"{sys.get_int_max_str_digits()} digits, Python's limit for "
              "printing an integer (PYTHONINTMAXSTRDIGITS raises it)",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
