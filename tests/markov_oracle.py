"""Independent stationary solver for the TASEP, used by the tests as an
oracle for the matrix-product weights: its own sparse Markov generator G,
with Fraction rates, and exact sparse elimination on the dict rows of G^T.
Nothing here shares the library's dynamics (`biops.asep.transitions`).
Also a graph search that decides strong connectivity of any edge list,
the oracle for the certificate's irreducibility record."""

from fractions import Fraction

from biops.asep import require_positive_rates


class SingularSystem(ArithmeticError):
    """The stationary system has no unique solution: the generator is
    malformed."""


def state_from_index(idx, L):
    """The bit tuple of state index idx, site 1 first (little-endian)."""
    return tuple((idx >> i) & 1 for i in range(L))


def build_generator(L, a, b):
    """The rows of G over the 2^L state indices: row i is a dict j ->
    Fraction rate, with the diagonal.  Transitions: entry at site 1 (rate
    alpha) if empty, exit at site L (rate beta) if occupied, hop i -> i+1
    (rate 1) when (occupied, empty)."""
    if L < 1:
        raise ValueError("L must be at least 1")
    a, b = require_positive_rates(a, b)
    dim = 1 << L
    rates = [dict() for _ in range(dim)]
    for idx in range(dim):
        tau = state_from_index(idx, L)
        row = rates[idx]
        out = Fraction(0)

        def add(target, rate):
            nonlocal out
            row[target] = row.get(target, Fraction(0)) + rate
            out += rate

        if tau[0] == 0:
            add(idx | 1, a)
        if tau[L - 1] == 1:
            add(idx & ~(1 << (L - 1)), b)
        for i in range(L - 1):
            if tau[i] == 1 and tau[i + 1] == 0:
                add((idx & ~(1 << i)) | (1 << (i + 1)), Fraction(1))
        row[idx] = row.get(idx, Fraction(0)) - out
    return rates


def stationary_oracle(g):
    """Unique pi with pi G = 0 and sum(pi) = 1, by exact elimination, for
    the rows g of a generator over 2^L states.

    The equations are the rows of G^T with the row of the empty state
    replaced by sum(x) = 1.  Each step pivots on the shortest remaining
    row and eliminates its pivot column from the others; back substitution
    then runs over the pivots in reverse.  The answer must satisfy the
    equations it came from: pi G = 0 exactly, summed over g's rows, and
    sum(pi) = 1."""
    n = len(g)
    rows = {j: {} for j in range(n)}
    for i, rates in enumerate(g):
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
    residual = [Fraction(0)] * n
    for i, rates in enumerate(g):
        for j, r in rates.items():
            residual[j] += x[i] * r
    if any(residual) or sum(x.values()) != 1:
        raise SingularSystem("solution is not the stationary state")
    L = n.bit_length() - 1
    return {state_from_index(i, L): x[i] for i in range(n)}


def strongly_connected(dim, edges):
    """Whether the edges (i, j, k) over the states 0..dim-1 make a
    strongly connected graph: searches from the empty state (index 0)
    along the edges and along them reversed each visit every state."""
    forward = [[] for _ in range(dim)]
    backward = [[] for _ in range(dim)]
    for i, j, _ in edges:
        forward[i].append(j)
        backward[j].append(i)
    return _reaches_all(forward) and _reaches_all(backward)


def _reaches_all(edges):
    """Whether a search from the empty state (index 0) along edges[i]
    visits every state."""
    seen = bytearray(len(edges))
    seen[0] = 1
    stack = [0]
    while stack:
        for j in edges[stack.pop()]:
            if not seen[j]:
                seen[j] = 1
                stack.append(j)
    return 0 not in seen
