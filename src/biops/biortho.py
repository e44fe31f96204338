"""The bi-orthogonal polynomial pair {P_n}, {Q_n}, their normalization,
and the first-moment band matrices.

Each object of the pair is built once and mirrored by transposition:
Q_n is Cramer's rule on the transposed bi-moment matrix (B with alpha and
beta swapped), and each e2 band is its e1 band transposed with alpha and
beta swapped.

P_n = (e1 - alpha)(e1 - alpha*beta)^(n-1) and
Q_n = (e2 - beta)(e2 - alpha*beta)^(n-1) (monic, P_0 = Q_0 = 1) satisfy
L(P_n (x) Q_m) = Lambda_n * delta_{n,m} with
Lambda_n = (alpha*beta)^(2n-1) (alpha+beta-1) for n >= 1, Lambda_0 = 1.

sqrt(Lambda_n) is exact in the kappa ring: (alpha*beta)^(n-1) * kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import add, sub

from .errors import DegenerateParameters
from .report import CheckReport
from .ring import (KappaElem, ZERO, ONE, ALPHA, BETA, AB, K_ZERO, K_ONE,
                   KAPPA)
from .tensor import E1, E2, TensorElem, linear_form
from .bimoment import build_bimoment, det_fraction_free


@dataclass(frozen=True)
class UniPoly:
    """Polynomial in a single variable; coeffs[k] multiplies variable^k.

    The variable is a generator ("e1", "e2") or a plain "x"; coefficients
    are Poly2 or KappaElem.  Trailing zero coefficients are dropped, so
    the last one is the nonzero leading coefficient and 0 is ().
    """

    variable: str  # "e1", "e2" or "x"
    coeffs: tuple

    def __post_init__(self):
        if self.variable not in ("e1", "e2", "x"):
            raise ValueError("variable must be 'e1', 'e2' or 'x'")
        coeffs = tuple(self.coeffs)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

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
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            if a:
                for j, b in enumerate(q):
                    if b:
                        out[i + j] = a * b + out[i + j]
        # a power that no pair of nonzero coefficients reaches is still int 0
        return UniPoly(self.variable, tuple(
            out[-1] * 0 if isinstance(c, int) else c for c in out))

    __rmul__ = __mul__

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def to_tensor(self):
        g = 1 if self.variable == "e1" else 2
        return TensorElem({(g,) * k: c for k, c in enumerate(self.coeffs) if c})

    def shift_mul(self, c):
        """Multiply by (variable - c), as variable*self - c*self."""
        return UniPoly(self.variable, (ZERO,) + self.coeffs) - self * c

    def to_obj(self):
        return {
            "variable": self.variable,
            "coeffs": [c.to_obj() for c in self.coeffs],
        }


def _product_form(variable, first_root, n):
    p = UniPoly(variable, (ONE,))
    if n == 0:
        return p
    p = p.shift_mul(first_root)
    for _ in range(n - 1):
        p = p.shift_mul(AB)
    return p


def p_explicit(n):
    """P_n = (e1 - alpha)(e1 - alpha*beta)^(n-1), P_0 = 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _product_form("e1", ALPHA, n)


def q_explicit(n):
    """Q_n = (e2 - beta)(e2 - alpha*beta)^(n-1), Q_0 = 1."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _product_form("e2", BETA, n)


def _cramer(grid, variable):
    """Cramer's rule along the symbolic border of an (n+1)x(n+1) grid: the
    coefficient of variable^i is the signed cofactor of row i in the border
    column, divided by the leading n x n minor."""
    n = len(grid) - 1
    denom = det_fraction_free([row[:n] for row in grid[:n]])
    coeffs = []
    for i in range(n + 1):
        sign = 1 if (i + n) % 2 == 0 else -1
        minor = det_fraction_free([row[:n] for k, row in enumerate(grid)
                                   if k != i])
        coeffs.append((sign * minor).exact_div(denom))
    return UniPoly(variable, tuple(coeffs))


def p_cramer(n):
    """P_n by Cramer's rule on the bi-moment matrix B, bordered by the
    column (1, e1, ..., e1^n)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _cramer(build_bimoment(n).entries, "e1")


def q_cramer(n):
    """Q_n by Cramer's rule on the transpose of B (B with alpha and beta
    swapped), bordered by the column (1, e2, ..., e2^n)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _cramer(tuple(zip(*build_bimoment(n).entries)), "e2")


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
    """Verify L(P_n (x) Q_m) = Lambda_n * delta_{n,m} for all n,m <= N."""
    rep = CheckReport(f"bi-orthogonality n,m <= {N}")
    for n in range(N + 1):
        pn = p_explicit(n).to_tensor()
        for m in range(N + 1):
            val = linear_form(pn * q_explicit(m).to_tensor())
            want = lambda_n(n) if n == m else ZERO
            rep.record(val == want, f"L(P{n} Q{m}) != expected")
    return rep


def recurrence_check(N):
    """Verify P_{n+1} = (e1 - ab) P_n and Q_{n+1} = (e2 - ab) Q_n for
    1 <= n < N, plus the initial values P_1, Q_1."""
    rep = CheckReport(f"first-order recurrences n < {N}")
    rep.record(p_explicit(1) == UniPoly("e1", (-ALPHA, ONE)), "P1 != e1 - a")
    rep.record(q_explicit(1) == UniPoly("e2", (-BETA, ONE)), "Q1 != e2 - b")
    for n in range(1, N):
        rep.record(p_explicit(n + 1) == p_explicit(n).shift_mul(AB),
                   f"P{n + 1} recurrence")
        rep.record(q_explicit(n + 1) == q_explicit(n).shift_mul(AB),
                   f"Q{n + 1} recurrence")
    return rep


# --- first-moment band matrices ------------------------------------------

@dataclass(frozen=True)
class MomentBand:
    """Banded (bandwidth <= 1) truncation of an infinite moment matrix.

    diag has dim entries; sup/sub have dim-1 (entry k sits at
    (k, k+1) / (k+1, k) respectively). Entries are KappaElem.
    """

    kind: str
    dim: int
    diag: tuple
    sup: tuple
    sub: tuple

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
    L(P_n e1 Q_m) and L(P_n e2 Q_m), and the expansion identity
    P_n * e1 = sum_k Xbar[n][k] P_k."""
    rep = CheckReport(f"first-moment consistency dim {dim}")
    X, Y, Xbar, Ybar, Xhat, Yhat = first_moment_matrices(dim)
    ps = [p_explicit(n) for n in range(dim + 1)]
    qs = [q_explicit(m) for m in range(dim)]
    pt = [p.to_tensor() for p in ps]
    qt = [q.to_tensor() for q in qs]
    slam = [sqrt_lambda(n) for n in range(dim)]
    for n in range(dim):
        for m in range(dim):
            xval = linear_form(pt[n] * E1 * qt[m])
            yval = linear_form(pt[n] * E2 * qt[m])
            rep.record(KappaElem(xval) == X.entry(n, m), f"X[{n}][{m}]")
            rep.record(KappaElem(yval) == Y.entry(n, m), f"Y[{n}][{m}]")
            # normalized bands, cross-multiplied to stay in the kappa ring
            rep.record(Xhat.entry(n, m) * slam[n] * slam[m] == KappaElem(xval),
                       f"Xhat[{n}][{m}]")
            rep.record(Yhat.entry(n, m) * slam[n] * slam[m] == KappaElem(yval),
                       f"Yhat[{n}][{m}]")
    e1 = UniPoly("e1", (ZERO, ONE))
    for n in range(dim - 1):
        rhs = UniPoly("e1", ())
        for k in range(n + 2):
            rhs = rhs + ps[k] * Xbar.entry(n, k).a
        rep.record(rhs == ps[n] * e1, f"P{n}*e1 expansion")
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
    """Numeric MomentBand entries as (rational, rational) kappa pairs."""
    a, b = require_generic_point(a, b)
    return {
        "diag": [e.eval(a, b) for e in band.diag],
        "super": [e.eval(a, b) for e in band.sup],
        "sub": [e.eval(a, b) for e in band.sub],
    }
