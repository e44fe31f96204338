"""Bi-moment matrix, its Pascal-like recurrence, and the closed form of
its determinant.  biortho.ldu_certificate proves the closed form: the
product forms of P_n and Q_n reduce B to diag(Lambda_0, ..., Lambda_n)."""

from math import comb

from .ring import Poly2, ALPHA, BETA, AB


def build_bimoment(n):
    """The truncated (n+1)x(n+1) bi-moment matrix B[i][j] = L(e1^i e2^j),
    as a tuple of row tuples of Poly2, filled by the recurrence
    B[i][j] = ab*(B[i][j-1] + B[i-1][j]) from the boundary
    B[i][0] = alpha^i, B[0][j] = beta^j."""
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
    return tuple(tuple(r) for r in rows)


def det_closed_form(n):
    """(alpha*beta)^(n^2) * (alpha+beta-1)^n, read off the trinomial
    theorem with no power taken: the coefficient of
    alpha^(n^2+i) beta^(n^2+j) is C(n, i) C(n-i, j) (-1)^(n-i-j)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    s = n * n
    return Poly2({(s + i, s + j): comb(n, i) * comb(n - i, j)
                  * (-1) ** (n - i - j)
                  for i in range(n + 1) for j in range(n + 1 - i)})

