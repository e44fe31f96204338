"""Truncated matrix representations of the shock ring.

e1 and e2 map to the bidiagonal first-moment bands of `biortho`.  The
dim x dim truncations form an algebra, `Picture`, that `expr.eval_expr`
and `UniPoly.into` evaluate into like any other, so (e1+e2)^k costs k
sparse matrix products, not 2^k words.  Each matrix carries the formal
degree of its expression (a generator counts 1, a product adds, a sum
takes the larger): a product of k truncated bands has an exact top-left
(dim - k) x (dim - k) block, recorded as valid_block, and a product of
degree above dim - 2, where entry (0,0) would be inexact, raises
TruncationTooSmall before it is formed.  Entry (0,0) of a matrix is L of
its expression (`checks.check_diffusion_relation` proves it), and the
moments of `cheb_reading_report` come from the shock ring, which loads
only there.

Three generator pictures, each built from the closed-form bands:

* "hat"      -- (Xhat, Yhat), the bi-orthonormal pair (contains kappa);
* "bar_col"  -- (Xbar, Ybar with sub-diagonal k scaled by r_k): the
                kappa-free pair D (Xhat, Yhat) D^-1 with
                D = diag(sqrt(Lambda_n));
* "bar_row"  -- (Xbar with super-diagonal k scaled by r_k, Ybar): the
                kappa-free pair D^-1 (Xhat, Yhat) D.

r_k = Lambda_{k+1}/Lambda_k is the square of Xhat's super-diagonal entry
sqrt(Lambda_{k+1})/sqrt(Lambda_k): kappa^2 at k = 0 and (alpha*beta)^2
after, so no polynomial is divided.
"""

from .errors import TruncationTooSmall
from .report import CheckReport
from .ring import (KappaElem, ZERO, ONE, ALPHA, BETA, AB, K_ZERO, K_ONE,
                   accumulate, poly_dot)
from .biortho import (MomentBand, UniPoly, first_moment_matrices,
                      sqrt_lambda)
from . import GENERATOR_REPS


def _bounded(dim, degree):
    # degree, if a dim x dim matrix of that degree has an exact (0,0) entry
    if degree > dim - 2:
        raise TruncationTooSmall(f"dim {dim} < formal degree {degree} + 2")
    return degree


class RepMatrix:
    """Truncation to dim columns with entries in the kappa ring, and the
    formal degree of the expression it represents; entries with both
    indices below valid_block = dim - degree agree with the infinite
    computation."""

    __slots__ = ("dim", "rows", "degree")
    __hash__ = None

    def __init__(self, dim, rows, degree):
        self.dim = dim
        self.rows = rows  # a tuple of {column: nonzero KappaElem} dicts
        self.degree = degree

    @property
    def valid_block(self):
        return self.dim - self.degree

    def entry(self, i, j):
        if i < 0 or j < 0:
            raise IndexError("matrix index out of range")
        if i >= self.valid_block or j >= self.valid_block:
            raise TruncationTooSmall(f"entry ({i},{j}) outside valid block "
                                     f"{self.valid_block}")
        return self.raw(i, j)

    def raw(self, i, j):
        return self.rows[i].get(j, K_ZERO)

    def __add__(self, other):
        return RepMatrix(self.dim, tuple(
            accumulate(dict(r), s.items())
            for r, s in zip(self.rows, other.rows)),
            max(self.degree, other.degree))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """The product by a scalar, or by a RepMatrix row by row: entry k
        of a row of self meets the nonzero entries of row k of other."""
        if not isinstance(other, RepMatrix):
            return self * _diagonal([KappaElem(other)] * self.dim)
        degree = _bounded(self.dim, self.degree + other.degree)
        out = []
        for r in self.rows:
            acc = {}
            for k, a in r.items():
                for j, b in other.rows[k].items():
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: v for j, v in acc.items() if v})
        return RepMatrix(self.dim, tuple(out), degree)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        _bounded(self.dim, self.degree * n)
        if n == 0:
            return _diagonal([K_ONE] * self.dim)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def to_obj(self):
        return {"dim": self.dim, "valid_block": self.valid_block,
                "entries": [[self.raw(i, j).to_obj() for j in range(self.dim)]
                            for i in range(len(self.rows))]}


def _diagonal(values):
    return RepMatrix(len(values), tuple(
        {i: v} if v else {} for i, v in enumerate(values)), 0)


def generator_matrices(dim, rep="hat"):
    """Truncated images of (e1, e2) in the chosen picture, as MomentBands."""
    if rep not in GENERATOR_REPS:
        raise ValueError(f"unknown generator picture {rep!r}")
    _, _, Xbar, Ybar, Xhat, Yhat = first_moment_matrices(dim)
    if rep == "hat":
        return Xhat, Yhat
    # Lambda_{k+1}/Lambda_k as the square of Xhat's super-diagonal entry:
    # conjugating by D = diag(sqrt(Lambda_n)) moves this ratio onto one
    # off-diagonal of the bar pair
    ratio = [s * s for s in Xhat.sup]
    if rep == "bar_col":
        return Xbar, MomentBand("Ybar_col", dim, Ybar.diag, Ybar.sup, tuple(
            s * r for s, r in zip(Ybar.sub, ratio)))
    return MomentBand("Xbar_row", dim, Xbar.diag, tuple(
        s * r for s, r in zip(Xbar.sup, ratio)), Xbar.sub), Ybar


class Picture:
    """The dim x dim truncated matrices of one generator picture, as an
    algebra for `expr.eval_expr` and `UniPoly.into`: a generator has
    degree 1 and a constant, a multiple of the identity, degree 0."""

    __slots__ = ("dim", "gens")

    def __init__(self, dim, rep="hat"):
        self.dim = dim
        self.gens = tuple(RepMatrix(dim, tuple(
            {j: b.entry(i, j) for j in (i - 1, i, i + 1)
             if 0 <= j < dim and b.entry(i, j)} for i in range(dim)), 1)
            for b in generator_matrices(dim, rep))

    def generator(self, i):
        return self.gens[(1, 2).index(i)]  # ValueError unless i is 1 or 2

    def scalar(self, c):
        return _diagonal([KappaElem(c)] * self.dim)


def represent(node, dim, rep="hat"):
    """The matrix of the expression AST `node` in the chosen picture;
    requires dim >= (formal degree) + 2 so the (0,0) entry is exact.
    Every product checks that bound before it is formed; a lone generator
    takes no product, so the result is checked once more here."""
    # expr loads here, so the suites, which parse nothing, never need it
    from .expr import eval_expr
    out = eval_expr(node, Picture(dim, rep))
    _bounded(dim, out.degree)
    return out


def similarity_check(dim):
    """Assert the three generator pictures are diagonal-similar, as
    bar_col D = D hat and D bar_row = hat D.  The bar pictures come from
    the closed-form bar bands and the squared hat super-diagonal, D from
    the closed form sqrt_lambda, so a passing report proves each ratio is
    Lambda_{k+1}/Lambda_k."""
    rep = CheckReport(f"diagonal similarity dim {dim}")
    d = _diagonal([sqrt_lambda(k) for k in range(dim)])
    hat = Picture(dim, "hat").gens
    for name in ("bar_col", "bar_row"):
        for which, (b, h) in enumerate(zip(Picture(dim, name).gens, hat)):
            lhs, rhs = (b * d, d * h) if name == "bar_col" else (d * b, h * d)
            for i in range(dim):
                for j in range(dim):
                    rep.record(lhs.raw(i, j) == rhs.raw(i, j),
                               f"{name} gen{which + 1} ({i},{j})")
    return rep


def second_moment(dim):
    """The tridiagonal W[n][m] = L(Phat_n e1 e2 Qhat_m), closed form:
    W00 = ab(a+b), W01 = W10 = ab*kappa, interior diagonal 2(ab)^2,
    interior off-diagonals (ab)^2."""
    if dim < 3:
        raise ValueError("dim must be at least 3")
    ab2 = KappaElem(AB * AB)
    rows = [{i - 1: ab2, i: ab2 + ab2, i + 1: ab2} for i in range(dim)]
    rows[0] = {0: KappaElem(AB * (ALPHA + BETA)), 1: KappaElem(ZERO, AB)}
    rows[1][0] = rows[0][1]
    del rows[-1][dim]
    return RepMatrix(dim, tuple(rows), 0)


def second_moment_product(dim):
    """W as the representation of e1 e2, Xhat * Yhat (valid block dim - 2)."""
    x, y = Picture(dim).gens
    return x * y


# --- Chebyshev-like polynomials -------------------------------------------

def cheb_like(N, reading="corrected"):
    """T_0..T_N, each a tuple of KappaElem coefficients of x^k, from the
    three-term recurrence of W solved for the highest-index term.

    reading: "corrected" uses diagonal coefficient (W_nn - x), "printed"
    uses (2 W_nn - x) as literally displayed.  T_n is monic, and W enters
    only as the kappa-free W_nn and W_{n,n-1} W_{n-1,n}, so the recurrence
    runs over Poly2 and each coefficient becomes a KappaElem at the end;
    with the corrected reading T_n is the n-th leading principal minor of
    (xI - W), orthogonal under the moments of L (cheb_reading_report)."""
    if reading not in ("corrected", "printed"):
        raise ValueError("reading must be 'corrected' or 'printed'")
    if N < 0:
        raise ValueError("N must be nonnegative")
    W = second_moment(max(N + 2, 3))
    polys = [UniPoly("x", (ONE,))]
    prev = UniPoly("x", ())  # T_{-1} = 0
    for n in range(N):
        wd = _kappa_free(W.raw(n, n))
        if reading == "printed":
            wd = wd + wd
        nxt = polys[n].shift_mul(wd)
        if n >= 1:
            nxt = nxt - prev * _kappa_free(W.raw(n, n - 1) * W.raw(n - 1, n))
        prev = polys[n]
        polys.append(nxt)
    return tuple(tuple(KappaElem(c) for c in p.coeffs) for p in polys)


def _kappa_free(x):
    # the Poly2 part of a KappaElem of W that the closed form keeps
    # kappa-free; a kappa part there is a broken identity, not an input
    if x.b:
        raise RuntimeError(f"{x!r} of W has a kappa part")
    return x.a


def cheb_reading_report(N):
    """Decide which reading gives T_n orthogonal under mu_k = L((e1 e2)^k),
    for n <= min(N, 6).  By Favard's theorem the monic polynomials of the
    Jacobi matrix W are orthogonal under the moments ((W^k))_00 = mu_k (W
    represents e1 e2), with <T_n, x^n> = prod_{k<n} W_{k,k+1} W_{k+1,k}.
    As mu comes from L, a W that is not L's second moment fails."""
    from .tensor import ShockElem, linear_form
    # the readings part at N = 1 and the check grows fast (6 ms at N = 6,
    # 0.3 s at 16), so the cheb command and the check suite stop at 6
    N = min(N, 6)
    rep = CheckReport(f"Chebyshev-like recurrence reading, n <= {N}")
    e1e2 = ShockElem.generator(1) * ShockElem.generator(2)
    mu, power = [], ShockElem.scalar(1)
    for _ in range(2 * N + 1):
        mu.append(linear_form(power))
        power = power * e1e2
    W = second_moment(max(N + 1, 3))
    norms = [ONE]
    for k in range(N):
        norms.append(
            norms[-1] * _kappa_free(W.raw(k, k + 1) * W.raw(k + 1, k)))
    for reading in ("corrected", "printed"):
        ok = _orthogonal(cheb_like(N, reading), mu, norms)
        rep.note(f"reading '{reading}' is {'' if ok else 'not '}orthogonal "
                 "under mu_k = L((e1 e2)^k)")
        if reading == "corrected":
            rep.record(ok, "corrected reading must match the oracle")
        elif N >= 1:
            rep.record(not ok, "printed reading unexpectedly matched")
        else:
            rep.note("at N = 0 both readings give T_0 = 1; "
                     "divergence is checked from N = 1")
    return rep


def _orthogonal(polys, mu, norms):
    # <T_n, x^k> is 0 for k < n and norms[n] for k = n; cheb_like's
    # coefficients are kappa-free
    for n, t in enumerate(polys):
        coeffs = [c.a for c in t]
        for k in range(n + 1):
            if poly_dot(coeffs, mu[k:]) != (norms[n] if k == n else ZERO):
                return False
    return True
