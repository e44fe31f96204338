"""Seeded request streams for the three workloads.

A workload is a deck of request templates.  `passes(workload, seed)`
yields passes forever: every pass covers the whole deck once, in an order
shuffled by the seed, so each run sees the same mix of request sizes
whatever the seed; the seed picks the rational points, expressions and
tensors.  The CLI decks are fixed per seed, so requests
repeat from pass to pass; the session deck draws fresh points per request.
"""

from __future__ import annotations

import json
import random
import shlex
from fractions import Fraction
from math import gcd
from typing import NamedTuple


class Request(NamedTuple):
    key: str         # equal keys must give equal answers
    payload: object  # CLI argv tuple, or a session call dict
    check: str       # which identity in gate.verify applies
    params: dict
    group: str = ""  # requests timed as one; empty: the key


def cli_request(argv, check, **params):
    return Request(shlex.join(argv), tuple(argv), check, params)


def session_request(call, check, **params):
    return Request(json.dumps(call, sort_keys=True), call, check, params)


# Rates p/q in lowest terms with 2 <= p, q <= 9 and p != q: every point
# has about the same bit size, so the seed hardly changes the work.
RATES = sorted({Fraction(p, q) for p in range(2, 10) for q in range(2, 10)
                if p != q and gcd(p, q) == 1})


def _rate(rng, above_one=False):
    return rng.choice([r for r in RATES if r > 1] if above_one else RATES)


def _generic_point(rng):
    """A rational (a, b) off the degenerate locus ab(a + b - 1) = 0."""
    while True:
        a, b = _rate(rng), _rate(rng)
        if a + b != 1:
            return a, b


# --- tasep: the paper's physical output through fresh CLI processes ---------

def tasep_deck(seed):
    rng = random.Random(seed)
    deck = []

    def compare(L, a, b):
        deck.append(cli_request(
            ("compare", "--L", str(L), "--alpha", str(a), "--beta", str(b)),
            "report_ok"))

    a = _rate(rng)
    compare(5, a, a)
    compare(5, _rate(rng, above_one=True), _rate(rng, above_one=True))
    compare(6, *_generic_point(rng))
    for L, symbolic in ((8, False), (9, False), (8, True), (9, True)):
        a, b = _generic_point(rng)
        argv = ("stationary", "--L", str(L), "--alpha", str(a),
                "--beta", str(b)) + (("--symbolic",) if symbolic else ())
        deck.append(cli_request(argv, "stationary", L=L, alpha=str(a),
                                beta=str(b), symbolic=symbolic))
    for L in (8, 9, 10):
        deck.append(cli_request(("L", f"(e1+e2)^{L}"), "Z", L=L, scale=0))
    # five sizes, so that the median request sits inside a dense run of
    # latencies rather than next to a gap between kinds of request
    for k in (14, 15, 16, 17, 18):
        deck.append(cli_request(("L", f"(e1*e2)^{k}"), "Z", L=k, scale=k))
    return deck


# --- algebra: the bi-orthogonal side through fresh CLI processes ------------

# Expressions of fixed shape; every word has length <= 8.  The seed fills
# each {} with a scalar, which changes the answer but not the work: a
# choice between P and Q or e1 and e2 changes a represent request's cost by
# up to 30%, which would move the median from seed to seed.
EXPR_FORMS = (
    "{}*Q(2)*e1*P(1) + e1^3",
    "{}*P(3)*e1^2*Q(3)",
    "{}*e2^2*P(2) + P(1)*e1*Q(2)*e2",
    "P(2)*Q(2)*P(2) + {}*e2^4 + {}*Q(1)",
)
_SCALARS = ("a", "b", "a*b", "2", "3")


def random_expr(rng, form):
    """A DSL expression over P(i), Q(j), e1, e2, a and b of the given form."""
    return form.format(*(rng.choice(_SCALARS)
                         for _ in range(form.count("{}"))))


def algebra_deck(seed):
    rng = random.Random(seed)
    deck = []
    for n in (8, 9, 10, 11):
        deck.append(cli_request(("det", "--n", str(n)), "det", n=n))
    for n in (8, 9, 10):
        deck.append(cli_request(("bimoment", "--n", str(n)), "bimoment", n=n))
    for form, dim, rep in zip(EXPR_FORMS, (10, 12, 13, 14),
                              ("hat", "bar_col", "bar_row", "hat")):
        src = random_expr(rng, form)
        r_argv = ("represent", src, "--dim", str(dim), "--rep", rep)
        l_argv = ("L", src)
        deck.append(cli_request(r_argv, "pair_represent",
                                partner=shlex.join(l_argv)))
        deck.append(cli_request(l_argv, "pair_L", partner=shlex.join(r_argv)))
    for max_n in (16, 20, 24):
        deck.append(cli_request(("cheb", "--max-n", str(max_n)), "cheb",
                                max_n=max_n))
    deck.append(cli_request(("check", "--max-n", "6", "--seed",
                             str(rng.randint(0, 999))), "reports_ok"))
    return deck


# --- session: one warm worker calling the library ---------------------------

def word_pool():
    """Fixed pool of words; the warm-up normal-orders every one of them."""
    rng = random.Random(20140128)
    pool = set()
    while len(pool) < 48:
        pool.add("".join(rng.choice("12") for _ in range(rng.randint(3, 10))))
    return sorted(pool)


def _coeff(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[(rng.randint(0, 2), rng.randint(0, 2))] = rng.randint(-4, 4)
    return [{"a": i, "b": j, "c": str(c)}
            for (i, j), c in sorted(terms.items()) if c] or [
        {"a": 0, "b": 0, "c": "1"}]


def _session_call(kind, rng, pool, **fixed):
    if kind == "stationary":
        a, b = _generic_point(rng)
        call = {"kind": kind, "L": fixed["L"], "alpha": str(a), "beta": str(b)}
        return session_request(call, "session_stationary", L=fixed["L"],
                               alpha=str(a), beta=str(b))
    if kind == "partition_Z":
        return session_request({"kind": kind, "L": fixed["L"]}, "Z",
                               L=fixed["L"], scale=0)
    if kind == "linear_form":
        terms = [[w, _coeff(rng)] for w in rng.sample(pool, rng.randint(3, 6))]
        return session_request({"kind": kind, "terms": terms}, "linear_form",
                               terms=terms)
    a, b = _generic_point(rng)
    if kind == "lambda_value":
        n = rng.randint(1, 12)
        call = {"kind": kind, "n": n, "alpha": str(a), "beta": str(b)}
        return session_request(call, "lambda", n=n, alpha=str(a), beta=str(b))
    if kind == "band_values":
        dim = rng.randint(4, 10)
        band = rng.choice(("X", "Y", "Xbar", "Ybar", "Xhat", "Yhat"))
        call = {"kind": kind, "dim": dim, "band": band, "alpha": str(a),
                "beta": str(b)}
        return session_request(call, "band", dim=dim, kind=band, alpha=str(a),
                               beta=str(b))
    raise ValueError(f"unknown session call {kind!r}")


# Weighted so that the median falls inside the stationary L=9 calls and the
# 90th percentile inside the L=10 calls, not on a gap between kinds; calls of
# a few milliseconds would put the median at the mercy of host preemption.
SESSION_TEMPLATES = (
    [("stationary", {"L": 8})]
    + [("stationary", {"L": 9})] * 6
    + [("stationary", {"L": 10})] * 6
    + [("partition_Z", {"L": L}) for L in (8, 9, 10)]
    + [("linear_form", {})] * 2
    + [("lambda_value", {}), ("band_values", {})]
)


def session_warmup():
    """Fixed warm-up pass: one call of every template plus the whole pool."""
    rng = random.Random(0)
    pool = word_pool()
    calls = [_session_call(kind, rng, pool, **fixed).payload
             for kind, fixed in SESSION_TEMPLATES]
    calls.append({"kind": "linear_form",
                  "terms": [[w, [{"a": 0, "b": 0, "c": "1"}]] for w in pool]})
    return calls


# --- streams -----------------------------------------------------------------

WORKLOADS = ("tasep", "algebra", "session")
_DECKS = {"tasep": tasep_deck, "algebra": algebra_deck}


def passes(workload, seed):
    """Yield passes forever; each pass is the whole deck as a list of
    Requests, in an order shuffled by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "session":
        pool = word_pool()
        while True:
            order = list(enumerate(SESSION_TEMPLATES))
            rng.shuffle(order)
            yield [_session_call(kind, rng, pool, **fixed)._replace(
                       group=f"{slot}:{kind}")
                   for slot, (kind, fixed) in order]
    deck = _DECKS[workload](seed)
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield order
