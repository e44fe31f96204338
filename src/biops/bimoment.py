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


def fraction_free(grid):
    """Bareiss elimination of an n x w grid over Z[alpha,beta], w >= n:
    (sign, rows).  Entry j of reduced row k is the minor of the row-swapped
    grid on rows 0..k, columns 0..k-1 and j; rows[k][k] is a leading minor.
    sign is -1 after an odd number of row swaps, 0 where a column has no
    pivot and elimination stops.  Entries zero in their row and the pivot
    row stay zero, unvisited."""
    m = [list(row) for row in grid]
    n, w = len(m), len(m[0]) if m else 0
    if any(len(row) != w for row in m) or w < n:
        raise ValueError("grid needs rows of one length, at least its height")
    sign, prev = 1, ONE
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0, m
        top, pivot = m[k], m[k][k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, w):
                if row[j] or top[j]:
                    row[j] = (pivot * row[j] - lead * top[j]).exact_div(prev)
            row[k] = ZERO
        prev = pivot
    return sign, m


def det_fraction_free(grid):
    """Exact determinant: the signed last pivot of fraction_free."""
    if any(len(row) != len(grid) for row in grid):
        raise ValueError("matrix must be square")
    if not grid:
        return ONE
    sign, m = fraction_free(grid)
    if not sign:
        return ZERO
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def det_closed_form(n):
    """(alpha*beta)^(n^2) * (alpha+beta-1)^n."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return AB ** (n * n) * (ALPHA + BETA - 1) ** n

