"""Exact answer gate: identities the benchmark checks with its own arithmetic.

Nothing here imports biops.  Polynomials in Z[alpha, beta] are plain dicts
{(i, j): int} with no zero coefficients; `from_obj` reads the library's
`to_obj` form ([{"a": i, "b": j, "c": "int"}, ...]).

`verify(req, obj, outputs)` checks one request's parsed JSON output by an
identity that does not use the code path that produced it, and returns
None when it holds or a one-line reason when it does not.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import factorial


# --- canonical output hash ---------------------------------------------------

def canonical_sha(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- sparse Z[alpha, beta] ---------------------------------------------------

ONE = {(0, 0): 1}
A = {(1, 0): 1}
B = {(0, 1): 1}
AB = {(1, 1): 1}


def padd(p, q):
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def pmul(p, q):
    out = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            s = out.get(key, 0) + c * d
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def ppow(p, n):
    out = ONE
    for _ in range(n):
        out = pmul(out, p)
    return out


def peval(p, a, b):
    return sum((c * Fraction(a) ** i * Fraction(b) ** j
                for (i, j), c in p.items()), Fraction(0))


def from_obj(obj):
    out = {}
    for rec in obj:
        c = int(rec["c"])
        if c:
            out[(rec["a"], rec["b"])] = c
    return out


# --- closed forms ------------------------------------------------------------

def dehp_Z(L):
    """Derrida-Evans-Hakim-Pasquier partition function, division free:
    Z_L = sum_{p=1..L} p(2L-1-p)!/(L!(L-p)!) sum_{k=0..p} a^(L-k) b^(L-p+k).
    """
    out = {}
    for p in range(1, L + 1):
        num = p * factorial(2 * L - 1 - p)
        den = factorial(L) * factorial(L - p)
        if num % den:
            raise ArithmeticError(f"DEHP coefficient not integral at L={L}")
        coeff = num // den
        for k in range(p + 1):
            out = padd(out, {(L - k, L - p + k): coeff})
    return out


def det_closed(n):
    """(alpha*beta)^(n^2) * (alpha + beta - 1)^n."""
    return pmul(ppow(AB, n * n), ppow(padd(padd(A, B), {(0, 0): -1}), n))


def lambda_closed(n, a, b):
    """Lambda_0 = 1, Lambda_n = (ab)^(2n-1) (a+b-1)."""
    if n == 0:
        return Fraction(1)
    return (a * b) ** (2 * n - 1) * (a + b - 1)


def band_closed(dim, kind, a, b):
    """Closed-form first-moment band at a rational point, as (r, s) pairs
    meaning r + s*kappa: {"diag": [...], "super": [...], "sub": [...]}."""
    ab = a * b
    lam = [lambda_closed(n, a, b) for n in range(dim + 1)]
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    off0 = [zero] * (dim - 1)
    first = a if kind in ("X", "Xbar", "Xhat") else b
    if kind in ("X", "Y"):
        diag = [(first, 0)] + [(ab * lam[n], 0) for n in range(1, dim)]
        band = [(lam[n + 1], 0) for n in range(dim - 1)]
    else:
        diag = [(first, 0)] + [(ab, 0)] * (dim - 1)
        if kind in ("Xbar", "Ybar"):
            band = [one] * (dim - 1)
        else:
            band = [(Fraction(0), Fraction(1))] + [(ab, 0)] * (dim - 2)
    sup, sub = (band, off0) if kind.startswith("X") else (off0, band)

    def norm(xs):
        return [(Fraction(r), Fraction(s)) for r, s in xs]

    return {"diag": norm(diag), "super": norm(sup), "sub": norm(sub)}


def word_L(word, memo=None):
    """L of one word over {1, 2} by rewriting the rightmost e1 e2 pair,
    e1 e2 -> ab (e1 + e2), down to e2^n e1^m with L = b^n a^m."""
    if memo is None:
        memo = {}
    if word in memo:
        return memo[word]
    pos = None
    for i in range(len(word) - 2, -1, -1):
        if word[i] == 1 and word[i + 1] == 2:
            pos = i
            break
    if pos is None:
        n = word.count(2)
        out = {(len(word) - n, n): 1}
    else:
        u, v = word[:pos], word[pos + 2:]
        out = pmul(AB, padd(word_L(u + (1,) + v, memo),
                            word_L(u + (2,) + v, memo)))
    memo[word] = out
    return out


def tensor_L(terms):
    """L of sum_i c_i * word_i, terms = [(word_string, coeff_obj), ...]."""
    memo = {}
    out = {}
    for word, coeff in terms:
        w = tuple(int(ch) for ch in word)
        out = padd(out, pmul(from_obj(coeff), word_L(w, memo)))
    return out


# --- per-request identities --------------------------------------------------

def _stationary(obj, p, numeric_Z):
    probs = [Fraction(row["probability"]) for row in obj["states"]]
    if len(probs) != 2 ** p["L"]:
        return "wrong number of states"
    if sum(probs) != 1:
        return "probabilities do not sum to 1"
    a, b = Fraction(p["alpha"]), Fraction(p["beta"])
    z = dehp_Z(p["L"])
    if numeric_Z:
        if Fraction(obj["Z"]) != peval(z, a, b):
            return "Z differs from the DEHP closed form"
    elif from_obj(obj["Z"]) != z:
        return "symbolic Z differs from the DEHP closed form"
    return None


def _bimoment(obj, n):
    rows = [[from_obj(e) for e in row] for row in obj["entries"]]
    if len(rows) != n + 1 or any(len(r) != n + 1 for r in rows):
        return "wrong shape"
    for i in range(n + 1):
        for j in range(n + 1):
            if i == 0:
                want = ppow(B, j)
            elif j == 0:
                want = ppow(A, i)
            else:
                want = pmul(AB, padd(rows[i][j - 1], rows[i - 1][j]))
            if rows[i][j] != want:
                return f"B[{i}][{j}] breaks the boundary/recurrence"
    if from_obj(obj["det"]) != det_closed(n):
        return "det differs from (ab)^(n^2) (a+b-1)^n"
    return None


def _pair(rep_obj, l_obj):
    e = rep_obj["entries"][0][0]
    if from_obj(e["k1"]):
        return "represent (0,0) entry has a kappa part"
    if from_obj(e["k0"]) != from_obj(l_obj["L"]):
        return "represent (0,0) entry differs from L"
    return None


def _pairs_equal(got, want):
    return all(len(got[k]) == len(want[k]) and all(
        (Fraction(r), Fraction(s)) == w for (r, s), w in zip(got[k], want[k]))
        for k in ("diag", "super", "sub"))


def verify(req, obj, outputs):
    """None if req's output obj satisfies its identity, else a reason.

    outputs maps request keys to parsed outputs; the represent/L pair
    checks look their partner up there."""
    check, p = req.check, dict(req.params)
    if check == "report_ok":
        return None if obj.get("ok") is True else "report not ok"
    if check == "reports_ok":
        return None if obj and all(r["ok"] for r in obj) else "a suite failed"
    if check == "det":
        if from_obj(obj["det"]) != det_closed(p["n"]):
            return "det differs from (ab)^(n^2) (a+b-1)^n"
        return None if obj["matches_closed_form"] is True else "flag false"
    if check == "bimoment":
        return _bimoment(obj, p["n"])
    if check == "cheb":
        if len(obj["polys"]) != p["max_n"] + 1:
            return "wrong number of polynomials"
        return None if obj["oracle_report"]["ok"] is True else "oracle failed"
    if check == "stationary":
        return _stationary(obj, p, numeric_Z=not p["symbolic"])
    if check == "Z":
        # L((e1 e2)^k) = (ab)^k Z_k since e1 e2 = ab (e1 + e2)
        want = pmul(ppow(AB, p["scale"]), dehp_Z(p["L"]))
        got = from_obj(obj["L"] if "L" in obj else obj["Z"])
        return None if got == want else "Z differs from the DEHP closed form"
    if check in ("pair_represent", "pair_L"):
        partner = outputs.get(p["partner"])
        if partner is None:
            return "partner request has no output"
        if check == "pair_represent":
            return _pair(obj, partner)
        return _pair(partner, obj)
    if check == "session_stationary":
        return _stationary({"states": [{"probability": x} for x in obj["p"]],
                            "Z": obj["Z"]}, p, numeric_Z=True)
    if check == "linear_form":
        if from_obj(obj) != tensor_L(p["terms"]):
            return "L differs from rightmost-rewrite evaluation"
        return None
    if check == "lambda":
        want = lambda_closed(p["n"], Fraction(p["alpha"]), Fraction(p["beta"]))
        return None if Fraction(obj) == want else "Lambda_n differs"
    if check == "band":
        want = band_closed(p["dim"], p["kind"], Fraction(p["alpha"]),
                           Fraction(p["beta"]))
        return None if _pairs_equal(obj, want) else "band values differ"
    return f"no identity for check {check!r}"
