"""The bi-orthogonal polynomial pair {P_n}, {Q_n}, their normalization,
and the first-moment band matrices.

P_n = (e1 - alpha)(e1 - alpha*beta)^(n-1) and
Q_n = (e2 - beta)(e2 - alpha*beta)^(n-1) (monic, P_0 = Q_0 = 1) satisfy
L(P_n (x) Q_m) = Lambda_n * delta_{n,m} with
Lambda_n = (alpha*beta)^(2n-1) (alpha+beta-1) for n >= 1, Lambda_0 = 1.

With P[n][i] the coefficient of e1^i in P_n, Q[m][j] that of e2^j in Q_m
and B[i][j] = L(e1^i e2^j) the bi-moment matrix, L(P_n Q_m) is entry
(n, m) of P B Q^T, so bi-orthogonality says P B Q^T = diag(Lambda_n).  P
and Q are unit lower triangular: this is the LDU factorization of B.  So
every leading minor det B_n is Lambda_0 ... Lambda_n, and by the
uniqueness of the LDU the product forms are the only monic pair.
ldu_certificate checks it with products and sums alone, and checks
Lambda_0 ... Lambda_n against bimoment.det_closed_form; nothing is
eliminated or divided.

Each e2 band is its e1 band transposed with alpha and beta swapped.

sqrt(Lambda_n) is exact in the kappa ring: (alpha*beta)^(n-1) * kappa.
"""

from fractions import Fraction
from itertools import zip_longest
from math import comb
from operator import add, sub

from .errors import DegenerateParameters
from .report import CheckReport
from .ring import (KappaElem, ZERO, ONE, ALPHA, BETA, AB, K_ZERO, K_ONE,
                   KAPPA, eval_numerators, poly_dot, ratios)
from .bimoment import build_bimoment, det_closed_form


class UniPoly:
    """Polynomial in a single variable; coeffs[k] multiplies variable^k.

    The variable is a generator ("e1", "e2") or a plain "x"; coefficients
    are Poly2 or KappaElem.  Trailing zero coefficients are dropped, so
    the last one is the nonzero leading coefficient and 0 is ().
    """

    __slots__ = ("variable", "coeffs")

    def __init__(self, variable, coeffs):
        if variable not in ("e1", "e2", "x"):
            raise ValueError("variable must be 'e1', 'e2' or 'x'")
        coeffs = tuple(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        self.variable = variable
        self.coeffs = coeffs

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self.variable, self.coeffs) == (other.variable, other.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def _same_variable(self, other):
        if other.variable != self.variable:
            raise ValueError("polynomials in different variables")

    def _termwise(self, other, op):
        self._same_variable(other)
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UniPoly(self.variable, tuple(op(a, b) for a, b in pairs))

    def __add__(self, other):
        return self._termwise(other, add)

    def __sub__(self, other):
        return self._termwise(other, sub)

    def __neg__(self):
        return UniPoly(self.variable, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """Product by a UniPoly, or by a scalar (Poly2, KappaElem, int)."""
        p = self.coeffs
        if not isinstance(other, UniPoly):
            return UniPoly(self.variable, tuple(other * c for c in p))
        self._same_variable(other)
        q = other.coeffs
        if not p or not q:
            return UniPoly(self.variable, ())
        # the coefficient ring's zero, which a power no pair reaches keeps
        out = [p[-1] * 0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    if b:
                        out[i + j] = a * b + out[i + j]
        return UniPoly(self.variable, out)

    __rmul__ = __mul__

    def into(self, algebra):
        """This polynomial in e1 or e2 as an element of `algebra` (anything
        with `generator` and `scalar`), by Horner's rule from the leading
        coefficient: one product by the generator per degree."""
        if self.variable == "x":
            raise ValueError("a polynomial in x has no generator to map to")
        gen = algebra.generator(int(self.variable[1]))
        if not self.coeffs:
            return algebra.scalar(0)
        out = algebra.scalar(self.coeffs[-1])
        for c in reversed(self.coeffs[:-1]):
            out = out * gen + algebra.scalar(c)
        return out

    def shift_mul(self, c):
        """Multiply by (variable - c), as variable*self - c*self."""
        return UniPoly(self.variable, (ZERO,) + self.coeffs) - self * c

    def to_obj(self):
        return {
            "variable": self.variable,
            "coeffs": [c.to_obj() for c in self.coeffs],
        }


def _product_form(variable, first_root, n):
    if n < 0:
        raise ValueError("index must be nonnegative")
    p = UniPoly(variable, (ONE,))
    if n == 0:
        return p
    p = p.shift_mul(first_root)
    for _ in range(n - 1):
        p = p.shift_mul(AB)
    return p


def p_explicit(n):
    """P_n = (e1 - alpha)(e1 - alpha*beta)^(n-1), P_0 = 1."""
    return _product_form("e1", ALPHA, n)


def q_explicit(n):
    """Q_n = (e2 - beta)(e2 - alpha*beta)^(n-1), Q_0 = 1."""
    return _product_form("e2", BETA, n)


def lambda_n(n):
    """Lambda_0 = 1; Lambda_n = (alpha*beta)^(2n-1) (alpha+beta-1), n >= 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return ONE
    return AB ** (2 * n - 1) * (ALPHA + BETA - 1)


def sqrt_lambda(n):
    """Exact square root of Lambda_n in the kappa ring:
    1 for n = 0, (alpha*beta)^(n-1) * kappa for n >= 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return K_ONE
    return KappaElem(ZERO, AB ** (n - 1))


def check_orthogonality(N):
    """Verify L(P_n (x) Q_m) = Lambda_n * delta_{n,m} for all n,m <= N,
    with P_n and Q_m in the shock ring."""
    from .tensor import ShockElem, linear_form
    rep = CheckReport(f"bi-orthogonality n,m <= {N}")
    qs = [q_explicit(m).into(ShockElem) for m in range(N + 1)]
    for n in range(N + 1):
        pn = p_explicit(n).into(ShockElem)
        for m, qm in enumerate(qs):
            val = linear_form(pn * qm)
            want = lambda_n(n) if n == m else ZERO
            rep.record(val == want, f"L(P{n} Q{m}) != expected")
    return rep


def ldu_certificate(N):
    """Check that the product forms reduce the bi-moment matrix B_N to
    diag(Lambda_0, ..., Lambda_N): P_n and Q_n are monic of degree n, and
    entry (n, m) of P B Q^T, formed as P B and then (P B) Q^T, is
    Lambda_n * delta_{n,m}; and Lambda_0 ... Lambda_n is
    det_closed_form(n).  A passing report proves
    det B_n = Lambda_0 ... Lambda_n = det_closed_form(n) for every
    n <= N."""
    return _ldu_report(build_bimoment(N),
                       [p_explicit(n) for n in range(N + 1)],
                       [q_explicit(n) for n in range(N + 1)])


def _ldu_report(B, ps, qs):
    """ldu_certificate on the rows of B and the polynomials P_n, Q_n."""
    rep = CheckReport(
        f"LDU certificate P B Q^T = diag(Lambda) n <= {len(B) - 1}")
    for n, (p, q) in enumerate(zip(ps, qs)):
        for name, f in (("P", p), ("Q", q)):
            rep.record(len(f.coeffs) == n + 1 and f.coeffs[-1] == ONE,
                       f"{name}{n} monic of degree {n}")
    columns = list(zip(*B))
    det = ONE
    for n, p in enumerate(ps):
        row = [poly_dot(p.coeffs, col) for col in columns]
        lam = lambda_n(n)
        for m, q in enumerate(qs):
            rep.record(poly_dot(q.coeffs, row) == (lam if n == m else ZERO),
                       f"(P B Q^T)[{n}][{m}]")
        det = det * lam
        rep.record(det == det_closed_form(n),
                   f"Lambda_0...Lambda_{n} = det_closed_form({n})")
    return rep


def _binomial_form(variable, first_root, n):
    """(variable - first_root)(variable - ab)^(n-1), n >= 1, with the power
    expanded by the binomial theorem instead of by shift_mul."""
    tail = [comb(n - 1, k) * (-AB) ** (n - 1 - k) for k in range(n)] + [ZERO]
    return UniPoly(variable, tuple(
        (tail[k - 1] if k else ZERO) - first_root * tail[k]
        for k in range(n + 1)))


def recurrence_check(N):
    """Verify the initial values P_1 = e1 - a, Q_1 = e2 - b and, for
    2 <= n <= N, the solutions P_n = (e1 - a)(e1 - ab)^(n-1) and
    Q_n = (e2 - b)(e2 - ab)^(n-1) of the first-order recurrences, against
    the binomial expansion of the product form."""
    rep = CheckReport(f"first-order recurrences n <= {N}")
    rep.record(p_explicit(1) == UniPoly("e1", (-ALPHA, ONE)), "P1 != e1 - a")
    rep.record(q_explicit(1) == UniPoly("e2", (-BETA, ONE)), "Q1 != e2 - b")
    for n in range(2, N + 1):
        rep.record(p_explicit(n) == _binomial_form("e1", ALPHA, n),
                   f"P{n} recurrence")
        rep.record(q_explicit(n) == _binomial_form("e2", BETA, n),
                   f"Q{n} recurrence")
    return rep


# --- first-moment band matrices ------------------------------------------

class MomentBand:
    """Banded (bandwidth <= 1) truncation of an infinite moment matrix.

    diag has dim entries; sup/sub have dim-1 (entry k sits at
    (k, k+1) / (k+1, k) respectively). Entries are KappaElem.
    """

    __slots__ = ("kind", "dim", "diag", "sup", "sub")
    __hash__ = None

    def __init__(self, kind, dim, diag, sup, sub):
        self.kind = kind
        self.dim = dim
        self.diag = diag
        self.sup = sup
        self.sub = sub

    def entry(self, i, j):
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError("band index out of range")
        if i == j:
            return self.diag[i]
        if j == i + 1:
            return self.sup[i]
        if i == j + 1:
            return self.sub[j]
        return K_ZERO

    def to_obj(self):
        return {
            "kind": self.kind,
            "dim": self.dim,
            "diag": [e.to_obj() for e in self.diag],
            "super": [e.to_obj() for e in self.sup],
            "sub": [e.to_obj() for e in self.sub],
        }


def first_moment_matrices(dim):
    """Closed-form X, Y, Xbar, Ybar, Xhat, Yhat truncated to dim x dim.

    X[n][m] = L(P_n e1 Q_m): alpha*Lambda_0 at (0,0), ab*Lambda_n on the
    diagonal, Lambda_{n+1} on the superdiagonal; Y is the transpose pattern.
    Xbar/Ybar are the column-/row-scaled bidiagonal forms, Xhat/Yhat the
    bi-orthonormal ones with the single kappa entry at (0,1)/(1,0).
    """
    if dim < 2:
        raise ValueError("dim must be at least 2")
    zeros = (K_ZERO,) * (dim - 1)

    def pair(suffix, tail, off):
        # the e1 band and its transpose with alpha -> beta: the diagonal
        # starts with alpha / beta, the off-diagonal is above / below it
        return (MomentBand("X" + suffix, dim, (KappaElem(ALPHA),) + tail,
                           off, zeros),
                MomentBand("Y" + suffix, dim, (KappaElem(BETA),) + tail,
                           zeros, off))

    lam = [lambda_n(n) for n in range(1, dim)]
    ab = (KappaElem(AB),) * (dim - 1)
    return (*pair("", tuple(KappaElem(AB * x) for x in lam),
                  tuple(KappaElem(x) for x in lam)),
            *pair("bar", ab, (K_ONE,) * (dim - 1)),
            *pair("hat", ab, (KAPPA,) + ab[1:]))


def moment_consistency(dim):
    """Cross-check the closed-form bands against direct evaluations of
    L(P_n e1 Q_m) and L(P_n e2 Q_m) in the shock ring, and the expansion
    identities P_n * e1 = sum_k Xbar[n][k] P_k and its transpose
    Q_m * e2 = sum_k Ybar[k][m] Q_k."""
    from .tensor import ShockElem, linear_form
    rep = CheckReport(f"first-moment consistency dim {dim}")
    X, Y, Xbar, Ybar, Xhat, Yhat = first_moment_matrices(dim)
    ps = [p_explicit(n) for n in range(dim)]
    qs = [q_explicit(m) for m in range(dim)]
    qt = [q.into(ShockElem) for q in qs]
    g1, g2 = ShockElem.generator(1), ShockElem.generator(2)
    slam = [sqrt_lambda(n) for n in range(dim)]
    for n in range(dim):
        pn = ps[n].into(ShockElem)
        pe1, pe2 = pn * g1, pn * g2
        for m in range(dim):
            xval = linear_form(pe1 * qt[m])
            yval = linear_form(pe2 * qt[m])
            rep.record(KappaElem(xval) == X.entry(n, m), f"X[{n}][{m}]")
            rep.record(KappaElem(yval) == Y.entry(n, m), f"Y[{n}][{m}]")
            # normalized bands, cross-multiplied to stay in the kappa ring
            rep.record(Xhat.entry(n, m) * slam[n] * slam[m] == KappaElem(xval),
                       f"Xhat[{n}][{m}]")
            rep.record(Yhat.entry(n, m) * slam[n] * slam[m] == KappaElem(yval),
                       f"Yhat[{n}][{m}]")
    for name, var, polys, entry in (
            ("P", "e1", ps, Xbar.entry),
            ("Q", "e2", qs, lambda m, k: Ybar.entry(k, m))):
        gen = UniPoly(var, (ZERO, ONE))
        for n in range(dim - 1):
            rhs = UniPoly(var, ())
            for k in range(n + 2):
                rhs = rhs + polys[k] * entry(n, k).a
            rep.record(rhs == polys[n] * gen, f"{name}{n}*{var} expansion")
    return rep


# --- numeric instantiation ------------------------------------------------

def require_generic_point(a, b):
    """Reject rational parameter points where the BiOPS degenerate
    (Lambda_n = 0): alpha*beta = 0 or alpha + beta = 1."""
    a, b = Fraction(a), Fraction(b)
    if a * b == 0 or a + b == 1:
        raise DegenerateParameters(
            f"(alpha, beta) = ({a}, {b}) lies on the degenerate locus "
            "alpha*beta*(alpha+beta-1) = 0"
        )
    return a, b


def lambda_value(n, a, b):
    """Lambda_n at a rational point, refusing the degenerate locus."""
    a, b = require_generic_point(a, b)
    return lambda_n(n).eval(a, b)


def band_values(band, a, b):
    """Numeric MomentBand entries as (rational, rational) kappa pairs,
    every part evaluated on one table of powers (eval_numerators) and
    reduced over that one denominator by `ring.ratios`."""
    a, b = require_generic_point(a, b)
    rows = {"diag": band.diag, "super": band.sup, "sub": band.sub}
    nums, den = eval_numerators(
        [x for row in rows.values() for e in row for x in (e.a, e.b)], a, b)
    parts = iter(ratios(nums, den))
    return {k: [(next(parts), next(parts)) for _ in row]
            for k, row in rows.items()}
