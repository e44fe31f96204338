"""Long-lived worker that answers session requests by calling biops directly.

Usage: python session_worker.py [--trace SPANS_JSON]

Reads one JSON request per line on stdin and answers each with one JSON
line on stdout: {"id", "out", "wall", "cpu"} or {"id", "error"}.  "wall"
and "cpu" time the library call alone, from call to return.  With
--trace the calls run under the span recorder and the spans are written
to SPANS_JSON when stdin closes.
"""

import gc
import json
import sys
import time
import traceback
from fractions import Fraction

from biops import asep, biortho, ring, tensor  # import cost is set-up

import spans


def _call(req):
    """Run one request; return its value and a function that encodes it."""
    kind = req["kind"]
    if kind == "gc_freeze":
        # End of warm-up: keep the warm state out of later full collections,
        # as a long-lived server does; objects made by requests still count.
        gc.freeze()
        return None, lambda v: v
    if kind == "stationary":
        table = asep.stationary_mpa(req["L"], Fraction(req["alpha"]),
                                    Fraction(req["beta"]))
        return table, lambda t: {
            "Z": str(t.Z.eval(t.alpha, t.beta)),
            "p": [str(t.probabilities[s])
                  for s in sorted(t.probabilities, key=asep.state_index)]}
    if kind == "partition_Z":
        return asep.partition_Z(req["L"]), lambda z: {"Z": z.to_obj()}
    if kind == "linear_form":
        x = tensor.TensorElem({tuple(int(c) for c in w):
                               ring.Poly2.from_obj(coeff)
                               for w, coeff in req["terms"]})
        return tensor.linear_form(x), lambda v: v.to_obj()
    a, b = Fraction(req["alpha"]), Fraction(req["beta"])
    if kind == "lambda_value":
        return biortho.lambda_value(req["n"], a, b), str
    if kind == "band_values":
        names = ("X", "Y", "Xbar", "Ybar", "Xhat", "Yhat")
        band = biortho.first_moment_matrices(req["dim"])[
            names.index(req["band"])]
        return biortho.band_values(band, a, b), lambda v: {
            k: [[str(r), str(s)] for r, s in v[k]] for k in v}
    raise ValueError(f"unknown request kind {kind!r}")


def main():
    trace_path = sys.argv[2] if sys.argv[1:2] == ["--trace"] else None
    rec = None
    if trace_path:
        rec = spans.Recorder()
        spans.install(rec)
    for line in sys.stdin:
        req = json.loads(line)
        rid = req["id"]
        try:
            if rec:
                rec.begin_request(rid)
            c0, t0 = time.process_time(), time.perf_counter()
            if rec:
                with rec.span("session." + req["kind"]):
                    value, encode = _call(req)
                rec.end_request()
            else:
                value, encode = _call(req)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            reply = {"id": rid, "out": encode(value), "wall": wall, "cpu": cpu}
        except Exception:  # report and keep serving: a failure is counted
            reply = {"id": rid, "error": traceback.format_exc()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    if rec:
        rec.write(trace_path)


if __name__ == "__main__":
    main()
