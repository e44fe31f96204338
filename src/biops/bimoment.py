"""Bi-moment matrix, its Pascal-like recurrence, and exact determinants."""

from __future__ import annotations

from .ring import ZERO, ONE, ALPHA, BETA, AB


class BiMomentMatrix:
    """Truncated (n+1)x(n+1) bi-moment matrix B[i][j] = L(e1^i e2^j)."""

    __slots__ = ("n", "entries")
    __hash__ = None

    def __init__(self, n, entries):
        self.n = n
        self.entries = entries  # a tuple of row tuples of Poly2

    def entry(self, i, j):
        if not (0 <= i <= self.n and 0 <= j <= self.n):
            raise IndexError("bi-moment index out of range")
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
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
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

