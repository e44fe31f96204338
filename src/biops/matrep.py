"""Truncated matrix representation of the shock ring.

e1 and e2 map to the bidiagonal first-moment bands of `biortho`.  A word's
matrix is the product of its letters' bands, so the representation of a
tensor element is a fold over its word trie (`tensor.fold_words`): each
trie node multiplies the rows of its prefix by one band, and zero band
entries cost nothing.  Folding the identity rows gives the whole matrix;
folding the single row e_0 gives the linear form as entry (0,0).  A
product of k generator matrices truncated to d x d has an exact top-left
(d - k) x (d - k) block, recorded as valid_block.

Three generator pairs are available, each built from the closed-form bands:

* "hat"      -- (Xhat, Yhat), the bi-orthonormal pair (contains kappa);
* "bar_col"  -- (Xbar, Ybar with sub-diagonal k scaled by
                Lambda_{k+1}/Lambda_k): the kappa-free pair
                D (Xhat, Yhat) D^-1 with D = diag(sqrt(Lambda_n));
* "bar_row"  -- (Xbar with super-diagonal k scaled by Lambda_{k+1}/Lambda_k,
                Ybar): the kappa-free pair D^-1 (Xhat, Yhat) D.
"""

from __future__ import annotations

from .errors import TruncationTooSmall
from .report import CheckReport
from .ring import KappaElem, ZERO, ALPHA, BETA, AB, K_ZERO, K_ONE
from .tensor import E1, E2, TensorElem, fold_words
from .biortho import (MomentBand, UniPoly, first_moment_matrices, lambda_n,
                      sqrt_lambda)
from . import GENERATOR_REPS


class RepMatrix:
    """dim x dim truncation with entries in the kappa ring; entries with
    both indices below valid_block agree with the infinite computation."""

    __slots__ = ("dim", "entries", "valid_block")
    __hash__ = None

    def __init__(self, dim, entries, valid_block):
        self.dim = dim
        self.entries = entries  # a tuple of row tuples of KappaElem
        self.valid_block = valid_block

    def entry(self, i, j):
        if i < 0 or j < 0:
            raise IndexError("matrix index out of range")
        if i >= self.valid_block or j >= self.valid_block:
            raise TruncationTooSmall(
                f"entry ({i},{j}) outside valid block {self.valid_block}"
            )
        return self.entries[i][j]

    def raw(self, i, j):
        return self.entries[i][j]

    def to_obj(self):
        return {
            "dim": self.dim,
            "valid_block": self.valid_block,
            "entries": [[e.to_obj() for e in row] for row in self.entries],
        }


def _freeze(rows, valid_block):
    dim = len(rows)
    return RepMatrix(dim, tuple(tuple(r) for r in rows), valid_block)


def _zeros(dim):
    return [[K_ZERO] * dim for _ in range(dim)]


def _unit_row(n, dim):
    row = [K_ZERO] * dim
    row[n] = K_ONE
    return row


def _identity(dim):
    return [_unit_row(i, dim) for i in range(dim)]


def generator_matrices(dim, rep="hat"):
    """Truncated images of (e1, e2) in the chosen picture, as MomentBands."""
    if rep not in GENERATOR_REPS:
        raise ValueError(f"unknown generator picture {rep!r}")
    _, _, Xbar, Ybar, Xhat, Yhat = first_moment_matrices(dim)
    if rep == "hat":
        return Xhat, Yhat
    # Lambda_{k+1}/Lambda_k: conjugating by D = diag(sqrt(Lambda_n)) moves
    # this ratio onto one off-diagonal of the bar pair
    ratio = [KappaElem(lambda_n(k + 1).exact_div(lambda_n(k)))
             for k in range(dim - 1)]
    if rep == "bar_col":
        return Xbar, MomentBand("Ybar_col", dim, Ybar.diag, Ybar.sup, tuple(
            s * r for s, r in zip(Ybar.sub, ratio)))
    return MomentBand("Xbar_row", dim, Xbar.diag, tuple(
        s * r for s, r in zip(Xbar.sup, ratio)), Xbar.sub), Ybar


def _times_band(rows, band):
    """rows * band for dense rows and a MomentBand; a zero entry of either
    costs nothing.  Row entry i meets sub[i-1], diag[i] and sup[i] at
    columns i-1, i and i+1."""
    dim = band.dim
    links = [[(j, band.entry(i, j)) for j in (i - 1, i, i + 1)
              if 0 <= j < dim and band.entry(i, j)] for i in range(dim)]
    out = []
    for row in rows:
        new = [K_ZERO] * dim
        for i, r in enumerate(row):
            if r:
                for j, b in links[i]:
                    new[j] = new[j] + r * b
        out.append(new)
    return out


def _fold_rows(x, rows, rep):
    """Sum over the words w of x of coeff(w) * rows * M(w), where M(w) is
    the product of w's generator bands; one band product per trie node."""
    dim = len(rows[0])
    bands = generator_matrices(dim, rep)
    total = [[K_ZERO] * dim for _ in rows]
    terms = dict(x.items())
    for w, prod in fold_words(terms, rows,
                              lambda m, g: _times_band(m, bands[g - 1])):
        c = KappaElem(terms[w])
        for trow, prow in zip(total, prod):
            for j, e in enumerate(prow):
                if e:
                    trow[j] = trow[j] + c * e
    return total


def represent(x, dim, rep="hat"):
    """Substitute the generator matrices into every word of x and sum.

    Requires dim >= (max word length) + 2 so the (0,0) entry is exact."""
    if not isinstance(x, TensorElem):
        raise TypeError("represent expects a TensorElem")
    maxlen = x.max_word_len()
    if dim < maxlen + 2:
        raise TruncationTooSmall(
            f"dim {dim} < max word length {maxlen} + 2"
        )
    return _freeze(_fold_rows(x, _identity(dim), rep), dim - maxlen)


def eval_L_matrix(x):
    """L(x) as the (0,0) entry of the matrix representation, from row e_0
    alone.

    The result is always kappa-free; a nonzero kappa part is an internal
    bug and raises RuntimeError."""
    dim = max(x.max_word_len() + 2, 2)
    e = _fold_rows(x, [_unit_row(0, dim)], "hat")[0][0]
    if e.b:
        raise RuntimeError("kappa part of L did not cancel")
    return e.a


def similarity_check(dim):
    """Assert the three generator pictures are diagonal-similar:
    bar_col = D hat D^-1 and bar_row = D^-1 hat D.  The bar pictures come
    from the closed-form bar bands and Lambda ratios, the hat picture from
    the bi-orthonormal bands, so this compares two constructions."""
    rep = CheckReport(f"diagonal similarity dim {dim}")
    slam = [sqrt_lambda(k) for k in range(dim)]
    hat = generator_matrices(dim, "hat")
    col = generator_matrices(dim, "bar_col")
    row = generator_matrices(dim, "bar_row")
    for name, bands, left in (("bar_col", col, True), ("bar_row", row, False)):
        for which in (0, 1):
            for i in range(dim):
                for j in range(dim):
                    # D M D^-1 cross-multiplied: out[i][j]*s_j == s_i*M[i][j]
                    si, sj = (slam[i], slam[j]) if left else (slam[j], slam[i])
                    ok = (bands[which].entry(i, j) * sj
                          == si * hat[which].entry(i, j))
                    rep.record(ok, f"{name} gen{which + 1} ({i},{j})")
    return rep


def second_moment(dim):
    """The tridiagonal W[n][m] = L(Phat_n e1 e2 Qhat_m), closed form:
    W00 = ab(a+b), W01 = W10 = ab*kappa, interior diagonal 2(ab)^2,
    interior off-diagonals (ab)^2."""
    if dim < 3:
        raise ValueError("dim must be at least 3")
    rows = _zeros(dim)
    ab2 = AB * AB
    rows[0][0] = KappaElem(AB * (ALPHA + BETA))
    rows[0][1] = rows[1][0] = KappaElem(ZERO, AB)
    for i in range(1, dim):
        rows[i][i] = KappaElem(2 * ab2)
        if i + 1 < dim:
            rows[i][i + 1] = rows[i + 1][i] = KappaElem(ab2)
    return _freeze(rows, dim)


def second_moment_product(dim):
    """W as the representation of e1 e2, Xhat * Yhat (valid block dim - 2)."""
    return represent(E1 * E2, dim)


# --- Chebyshev-like polynomials -------------------------------------------

class ChebLike:
    """Chebyshev-like sequence from the tridiagonal W.

    reading: "corrected" uses diagonal coefficient (W_nn - x), "printed"
    uses (2 W_nn - x) as literally displayed.  To stay in the kappa ring
    the stored polys[n] is T_n scaled by prod_{k<n} W_{k,k+1} (clearing
    the off-diagonal divisions); with the corrected reading this equals
    the n-th leading principal minor of (xI - W)."""

    __slots__ = ("reading", "polys")
    __hash__ = None

    def __init__(self, reading, polys):
        self.reading = reading
        self.polys = polys  # polys[n] = tuple of KappaElem coefficients of x^k

    def to_obj(self):
        return {
            "reading": self.reading,
            "polys": [[c.to_obj() for c in p] for p in self.polys],
        }


def cheb_like(N, reading="corrected"):
    """Generate T_0..T_N (denominator-cleared, see ChebLike) from the
    three-term recurrence, solved for the highest-index term."""
    if reading not in ("corrected", "printed"):
        raise ValueError("reading must be 'corrected' or 'printed'")
    if N < 0:
        raise ValueError("N must be nonnegative")
    W = second_moment(max(N + 2, 3))
    polys = [UniPoly("x", (K_ONE,))]
    prev = UniPoly("x", ())  # T_{-1} = 0
    for n in range(N):
        wd = W.raw(n, n)
        if reading == "printed":
            wd = wd + wd
        nxt = polys[n].shift_mul(wd)
        if n >= 1:
            nxt = nxt - prev * (W.raw(n, n - 1) * W.raw(n - 1, n))
        prev = polys[n]
        polys.append(nxt)
    return ChebLike(reading, tuple(p.coeffs for p in polys))


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = UniPoly("x", ())
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        out = out - term if j % 2 else out + term
    return out


def principal_minor_polys(N):
    """Independent oracle: chi_n(x) = det of the n x n leading principal
    block of (xI - W), by cofactor expansion, for n = 0..N."""
    W = second_moment(max(N + 1, 3))
    out = [(K_ONE,)]
    for n in range(1, N + 1):
        rows = [[UniPoly("x", (-W.raw(i, j), K_ONE if i == j else K_ZERO))
                 for j in range(n)] for i in range(n)]
        out.append(_cofactor_det(rows).coeffs)
    return out


def cheb_reading_report(N):
    """Determine which recurrence reading reproduces the principal-minor
    characteristic polynomials of W."""
    rep = CheckReport(f"Chebyshev-like recurrence reading, n <= {N}")
    oracle = principal_minor_polys(N)
    for reading in ("corrected", "printed"):
        polys = cheb_like(N, reading).polys
        match = all(list(polys[n]) == list(oracle[n]) for n in range(N + 1))
        rep.note(f"reading '{reading}' {'matches' if match else 'does not match'} "
                 "the principal-minor oracle")
        if reading == "corrected":
            rep.record(match, "corrected reading must match the oracle")
        elif N >= 1:
            rep.record(not match, "printed reading unexpectedly matched")
        else:
            rep.note("at N = 0 both readings give T_0 = 1; "
                     "divergence is checked from N = 1")
    return rep
