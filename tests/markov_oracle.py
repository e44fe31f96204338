"""Independent stationary solver for the TASEP generator, used by the tests
as an oracle for the matrix-product weights: exact sparse elimination on
the dict rows of G^T."""

from fractions import Fraction

from biops.asep import certify_stationary, state_from_index


class SingularSystem(ArithmeticError):
    """The stationary system has no unique solution: the generator is
    malformed."""


def stationary_oracle(g):
    """Unique pi with pi G = 0 and sum(pi) = 1, by exact elimination.

    The equations are the rows of G^T with the row of the empty state
    replaced by sum(x) = 1.  Each step pivots on the shortest remaining
    row and eliminates its pivot column from the others; back substitution
    then runs over the pivots in reverse.  The answer must pass
    `certify_stationary`: pi G = 0 exactly and sum(pi) = 1."""
    n = g.dim
    rows = {j: {} for j in range(n)}
    for i, rates in enumerate(g.rates):
        for j, r in rates.items():
            if r:
                rows[j][i] = r
    rows[0] = dict.fromkeys(range(n), Fraction(1))
    rhs = dict.fromkeys(range(n), Fraction(0))
    rhs[0] = Fraction(1)

    pivots = []
    while rows:
        k = min(rows, key=lambda r: len(rows[r]))
        row, b = rows.pop(k), rhs.pop(k)
        if not row:
            raise SingularSystem("stationary system is rank deficient")
        col, pv = row.popitem()
        row = {c: v / pv for c, v in row.items()}
        b /= pv
        for r, other in rows.items():
            f = other.pop(col, None)
            if f is None:
                continue
            for c, v in row.items():
                x = other.get(c, 0) - f * v
                if x:
                    other[c] = x
                else:
                    other.pop(c, None)
            rhs[r] -= f * b
        pivots.append((col, row, b))

    x = {}
    for col, row, b in reversed(pivots):
        x[col] = b - sum(v * x[c] for c, v in row.items())
    pi = {state_from_index(i, g.L): x[i] for i in range(n)}
    if not certify_stationary(g, pi).ok:
        raise SingularSystem("solution is not the stationary state")
    return pi
