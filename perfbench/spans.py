"""Span recorder that traces biops from outside, and the span arithmetic.

A span is one call into a public biops function: name, start, end,
parent span and request id, kept in memory in flat arrays and written out
once at exit.  `install` wraps each traced function at every module that
binds it, because `from .tensor import linear_form` copies the reference
into asep, checks, cli and biortho.

Poly2/KappaElem operators run far too often for one span per call.  They
are aggregated instead: per request a call count per counter and the time
in outermost operators ("ring"), and per span the ring time spent directly
under it, which its self time excludes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array

# (module, attribute, span name, sizer).  Several functions may share a span
# name; the sizer returns the work count added to the span's "size".
SPANS = [
    ("tensor", "linear_form", "tensor.linear_form", lambda x: len(x.items())),
    ("tensor", "normal_order", "tensor.normal_order",
     lambda x: len(x.items())),
    ("tensor", "shock_mul", "tensor.shock_mul", None),
    ("tensor", "power_sum", "tensor.power_sum", None),
    ("tensor", "normal_order_word", "tensor.normal_order_word", None),
    ("tensor", "TensorElem.__mul__", "tensor.product", None),
    ("tensor", "TensorElem.__pow__", "tensor.product", None),
    ("asep", "stationary_mpa", "asep.mpa", None),
    ("asep", "partition_Z", "asep.partition_Z", None),
    ("asep", "build_generator", "asep.generator", None),
    ("asep", "stationary_oracle", "asep.oracle", None),
    ("asep", "compare", "asep.compare", None),
    ("bimoment", "build_bimoment", "bimoment.build", None),
    ("bimoment", "det_fraction_free", "bimoment.det", None),
    ("bimoment", "det_closed_form", "bimoment.det_closed_form", None),
    ("biortho", "p_explicit", "biortho.explicit", None),
    ("biortho", "q_explicit", "biortho.explicit", None),
    ("biortho", "p_cramer", "biortho.cramer", None),
    ("biortho", "q_cramer", "biortho.cramer", None),
    ("biortho", "lambda_n", "biortho.lambda_n", None),
    ("biortho", "first_moment_matrices", "biortho.moments", None),
    ("biortho", "check_orthogonality", "biortho.check", None),
    ("biortho", "recurrence_check", "biortho.check", None),
    ("biortho", "moment_consistency", "biortho.check", None),
    ("biortho", "lambda_value", "biortho.lambda_value", None),
    ("biortho", "band_values", "biortho.band_values", None),
    ("matrep", "represent", "matrep.represent", None),
    ("matrep", "generator_matrices", "matrep.generators", None),
    ("matrep", "eval_L_matrix", "matrep.eval_L_matrix", None),
    ("matrep", "similarity_check", "matrep.similarity", None),
    ("matrep", "second_moment", "matrep.second_moment", None),
    ("matrep", "second_moment_product", "matrep.second_moment", None),
    ("matrep", "cheb_like", "matrep.cheb", None),
    ("matrep", "principal_minor_polys", "matrep.cheb", None),
    ("matrep", "cheb_reading_report", "matrep.cheb", None),
    ("expr", "parse", "expr.parse", None),
    ("expr", "eval_expr", "expr.eval", None),
    ("checks", "default_suite", "checks.suite", None),
    ("checks", "check_determinants", "checks.check", None),
    ("checks", "check_two_path_L", "checks.check", None),
    ("checks", "check_shock_homomorphism", "checks.check", None),
    ("checks", "check_cramer", "checks.check", None),
    ("checks", "check_diffusion_relation", "checks.check", None),
    ("checks", "check_second_moment", "checks.check", None),
    ("checks", "random_tensor", "checks.random", None),
]

# (module, function, counter): calls too many for spans, only counted.
COUNTED = [("asep", "mpa_weight", "asep.states")]

# (class, method, counter).  Every operator is timed as ring time; the
# counter, when given, also counts calls of that kind.
RING_OPS = [
    ("Poly2", "__mul__", "ring.poly_mul_calls"),
    ("Poly2", "__rmul__", "ring.poly_mul_calls"),
    ("Poly2", "exact_div", "ring.poly_div_calls"),
    ("Poly2", "eval", "ring.eval_calls"),
    ("KappaElem", "__mul__", "ring.kappa_mul_calls"),
    ("KappaElem", "__rmul__", "ring.kappa_mul_calls"),
    ("KappaElem", "eval", "ring.eval_calls"),
] + [(cls, op, None) for cls in ("Poly2", "KappaElem")
     for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__pow__", "__eq__")]

COUNTERS = sorted({c for _, _, c in RING_OPS + COUNTED if c})

LAYERS = ("ring", "tensor", "bimoment", "biortho", "matrep", "asep", "expr",
          "cli", "checks")


class Recorder:
    """Spans of the current process, plus per-request ring aggregates."""

    def __init__(self):
        self.names = []
        self._index = {}
        self._open = []          # open span numbers, innermost last
        self._depth = []         # per name: how many spans of it are open
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.nested = array("b")  # 1 if a span of the same name was open
        self.size = array("q")
        self.ring = array("d")    # ring time directly under the span
        self.ops = {}             # request id -> {counter: n, "ring_s": t}
        self.request_id = -1
        self._ring_busy = False

    def _name_index(self, name):
        i = self._index.get(name)
        if i is None:
            i = self._index[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return i

    def begin_request(self, rid):
        self.request_id = rid
        self.ops[rid] = dict.fromkeys(COUNTERS, 0)
        self.ops[rid]["ring_s"] = 0.0

    def end_request(self):
        """Stop counting operators until the next begin_request."""
        self.request_id = -1

    def open(self, name, size=0):
        ni = self._name_index(name)
        i = len(self.name)
        self.name.append(ni)
        self.parent.append(self._open[-1] if self._open else -1)
        self.request.append(self.request_id)
        self.nested.append(1 if self._depth[ni] else 0)
        self.size.append(size)
        self.ring.append(0.0)
        self.end.append(0.0)
        self._depth[ni] += 1
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._open.pop()
        self._depth[self.name[i]] -= 1

    @contextlib.contextmanager
    def span(self, name):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def to_obj(self):
        return {
            "names": self.names,
            "name": self.name.tolist(), "start": self.start.tolist(),
            "end": self.end.tolist(), "parent": self.parent.tolist(),
            "request": self.request.tolist(), "nested": self.nested.tolist(),
            "size": self.size.tolist(), "ring": self.ring.tolist(),
            "ops": {str(k): v for k, v in self.ops.items()},
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_obj(), fh)


def _span_wrapper(rec, name, fn, sizer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name, sizer(*args) if sizer else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(i)
    return traced


def _count_wrapper(rec, counter, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        ops = rec.ops.get(rec.request_id)
        if ops is not None:
            ops[counter] += 1
        return fn(*args, **kwargs)
    return counted


def _op_wrapper(rec, counter, fn):
    perf = time.perf_counter

    @functools.wraps(fn)
    def traced(*args):
        ops = rec.ops.get(rec.request_id)
        if ops is None:
            return fn(*args)
        if counter:
            ops[counter] += 1
        if rec._ring_busy:
            return fn(*args)
        rec._ring_busy = True
        t0 = perf()
        try:
            return fn(*args)
        finally:
            dt = perf() - t0
            rec._ring_busy = False
            ops["ring_s"] += dt
            if rec._open:
                rec.ring[rec._open[-1]] += dt
    return traced


def _rebind(owners, old, new):
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is old:
                setattr(owner, attr, new)


def install(rec):
    """Wrap the traced biops functions and operators; return the names of
    those missing from this version of the package."""
    mods, missing = {}, []
    for m in LAYERS:
        try:
            mods[m] = importlib.import_module(f"biops.{m}")
        except ModuleNotFoundError:
            missing.append(f"module {m}")
    owners = [importlib.import_module("biops")] + list(mods.values())
    for mod, attr, name, sizer in SPANS:
        cls, _, meth = attr.rpartition(".")
        holder = mods.get(mod)
        if cls:
            holder = getattr(holder, cls, None)
        fn = vars(holder).get(meth) if holder is not None else None
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        _rebind([holder] if cls else owners, fn,
                _span_wrapper(rec, name, fn, sizer))
    for mod, attr, counter in COUNTED:
        fn = getattr(mods.get(mod), attr, None)
        if fn is None:
            missing.append(f"{mod}.{attr}")
            continue
        _rebind(owners, fn, _count_wrapper(rec, counter, fn))
    for cls_name, op, counter in RING_OPS:
        cls = getattr(mods.get("ring"), cls_name, None)
        fn = vars(cls).get(op) if cls is not None else None
        if fn is None:
            missing.append(f"ring.{cls_name}.{op}")
            continue
        setattr(cls, op, _op_wrapper(rec, counter, fn))
    return missing


# --- span arithmetic ---------------------------------------------------------

def self_times(parent, start, end, ring=None):
    """Per span: duration minus the time its child spans cover (the union
    of their intervals, clipped to the span) minus its direct ring time."""
    children = [[] for _ in start]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = []
    for i, kids in enumerate(children):
        s, e = start[i], end[i]
        covered = 0.0
        hi = s
        for cs, ce in sorted(kids):
            cs, ce = max(cs, hi), min(ce, e)
            if ce > cs:
                covered += ce - cs
                hi = ce
        out.append((e - s) - covered - (ring[i] if ring else 0.0))
    return out


def aggregate(trace):
    """Sum a written trace into per-name and per-layer totals.

    Returns {"inclusive": {name: s}, "calls": {name: n}, "size": {name: n},
    "self": {layer: s}, "ring_under": {layer: s}, "roots": s, "spans": n,
    "ops": {counter: n}}; a name's inclusive time counts only spans with no
    open ancestor of the same name, so recursion is not counted twice, and
    ring_under is the ring time spent directly under each layer's spans."""
    names = trace["names"]
    selfs = self_times(trace["parent"], trace["start"], trace["end"],
                       trace["ring"])
    inclusive, calls, size, layer_self, ring_under = {}, {}, {}, {}, {}
    roots = 0.0
    for i, ni in enumerate(trace["name"]):
        name = names[ni]
        dur = trace["end"][i] - trace["start"][i]
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + trace["size"][i]
        if not trace["nested"][i]:
            inclusive[name] = inclusive.get(name, 0.0) + dur
        if trace["parent"][i] < 0:
            roots += dur
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
        ring_under[layer] = ring_under.get(layer, 0.0) + trace["ring"][i]
    ops = dict.fromkeys(COUNTERS, 0)
    ops["ring_s"] = 0.0
    for per_request in trace["ops"].values():
        for k, v in per_request.items():
            ops[k] = ops.get(k, 0) + v
    layer_self["ring"] = layer_self.get("ring", 0.0) + ops["ring_s"]
    return {"inclusive": inclusive, "calls": calls, "size": size,
            "self": layer_self, "ring_under": ring_under, "roots": roots,
            "spans": len(selfs), "ops": ops}


def merge(total, part):
    """Add one aggregate into a running total (both as from `aggregate`)."""
    for key in ("inclusive", "calls", "size", "self", "ring_under", "ops"):
        dst = total.setdefault(key, {})
        for k, v in part[key].items():
            dst[k] = dst.get(k, 0) + v
    for key in ("roots", "spans"):
        total[key] = total.get(key, 0) + part[key]
    return total
