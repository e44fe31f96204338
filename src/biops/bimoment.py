"""Bi-moment matrix, its Pascal-like recurrence, and exact determinants."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .ring import ZERO, ONE, ALPHA, BETA, AB


@dataclass(frozen=True)
class BiMomentMatrix:
    """Truncated (n+1)x(n+1) bi-moment matrix B[i][j] = L(e1^i e2^j)."""

    n: int
    entries: tuple

    def entry(self, i, j):
        return self.entries[i][j]

    def to_obj(self):
        return {
            "n": self.n,
            "entries": [[p.to_obj() for p in row] for row in self.entries],
        }


def build_bimoment(n):
    """Fill B by the recurrence B[i][j] = ab*(B[i][j-1] + B[i-1][j]),
    boundary B[i][0] = alpha^i, B[0][j] = beta^j."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            if i == 0:
                row.append(BETA**j)
            elif j == 0:
                row.append(ALPHA**i)
            else:
                row.append(AB * (row[j - 1] + rows[i - 1][j]))
        rows.append(row)
    return BiMomentMatrix(n, tuple(tuple(r) for r in rows))


def det_fraction_free(grid):
    """Exact determinant over Z[alpha,beta] by Bareiss elimination.

    All interior divisions are exact by the Bareiss identity; an
    InexactDivision escaping here means the input was not over the ring.
    """
    m = [list(row) for row in grid]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return ONE
    sign = 1
    prev = ONE
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = ZERO
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign > 0 else -det


def det_closed_form(n):
    """(alpha*beta)^(n^2) * (alpha+beta-1)^n."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return AB ** (n * n) * (ALPHA + BETA - 1) ** n


def krattenthaler_matrix(n, x, rho, sigma):
    """The n x n matrix A[i][j] (0 <= i,j <= n-1) with
    A[i][j] = A[i-1][j] + A[i][j-1] + x*A[i-1][j-1],
    A[i][0] = rho^i, A[0][j] = sigma^j."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == 0:
                row.append(sigma**j)
            elif j == 0:
                row.append(rho**i)
            else:
                row.append(rows[i - 1][j] + row[j - 1] + x * rows[i - 1][j - 1])
        rows.append(row)
    return rows


def krattenthaler_det_formula(n, x, rho, sigma):
    """Closed form (1+x)^C(n-1,2) * (x + rho + sigma - rho*sigma)^(n-1).

    The sign of the rho*sigma term is forced by direct computation and by
    consistency with the bi-moment determinant under row/column scaling
    (x=0, rho=1/beta, sigma=1/alpha gives ((alpha+beta-1)/(alpha*beta))^(n-1)).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    one = x**0
    return (one + x) ** comb(n - 1, 2) * (x + rho + sigma - rho * sigma) ** (n - 1)
