"""Small-size references the tests check the library against: exponential
or closed-form constructions that the library computes another way.

* `TensorElem` is the tensor algebra over {e1, e2}: the library's word
  container with the concatenation product, constants (`scalar`),
  `generator`, powers, sums and differences.  The library expands
  nothing into words: it evaluates an expression in the shock ring or in
  truncated matrices, and normal-orders each word it is given on its
  own.
* `E1` and `E2` are the generators as TensorElems, the letters the
  tests spell words with; the library makes a generator with
  `generator(1 | 2)` of the algebra it evaluates in.
* `normal_order_word` rewrites adjacent e1*e2 pairs one at a time; the
  library folds a word's letters with closed-form right products.
  `poly2_fold` is that fold over Poly2 coefficients, multiplying by
  alpha*beta at each rewrite; the library folds over integers and reads
  the powers of alpha and beta off the bidegree.  Both give a normal
  form as {(n, m): Poly2}, and `as_shock` writes one as a ShockElem.
* `power_sum` expands (e1 + e2)^L into its 2^L words; the library takes
  the L-th power in the shock ring.  `power_sum_form` folds L((e1 + e2)^L)
  on the one bidegree (L, L) over (n, m) keys, each step x*e1 + x*e2, and
  `_L_graded` reads L off that bidegree; `dehp_Z` is the closed form of
  Derrida, Evans, Hakim and Pasquier.
* `pq_rep` writes the band matrices of P_n and Q_n down from their
  pattern; the library evaluates P_n and Q_n in the matrix algebra by
  Horner's rule.
* `word_fold` sums the matrices of a TensorElem's words, one band product
  per node of the word trie (`_fold_words`); the library evaluates an
  expression in the matrix algebra without expanding it into words.
  `eval_L_matrix` is its row-0 case: L of a TensorElem as entry (0,0),
  the row e_0 alone folded over the word trie; the library takes L by
  normal ordering and checks it against the Corteel-Williams fill.  `max_word_len` is the length of
  a TensorElem's longest word, and `tensor_ast` writes a TensorElem as an
  expression with one product per word.
* `krattenthaler_matrix` and `krattenthaler_det_formula` are the
  parametric determinant family behind the bi-moment determinant.
* `fraction_free` is Bareiss elimination of a grid over Z[alpha, beta],
  `det_fraction_free` its determinant, and `biorthogonal_pair` reads
  every leading minor det B_n, P_n and Q_n off one elimination of
  [B | I] and of [B^T | I], dividing with `long_div`; the library solves
  and divides nothing: it proves the closed forms with the LDU
  certificate P B Q^T = diag(Lambda_n).
* `p_cramer` and `q_cramer` build P_n and Q_n by Cramer's rule, n + 2
  determinants each, a second path beside the elimination.
* `pretty` prints an AST back to the DSL, for parser round trips.
* `swap_ab` exchanges alpha and beta in a Poly2.
* `schoolbook_mul` multiplies Poly2 values term by term in sorted order;
  the library loops over the term dicts.  `long_div` divides exactly,
  rescanning the remainder for its leading term, and raises
  `InexactDivision` on a remainder; the library divides no polynomial,
  and reads each quotient it needs, Lambda_{k+1}/Lambda_k, off a closed
  form.
* `state_word` maps one state to its word, and `state_weights`
  normal-orders every state's word into a Poly2, the words together, one
  integer fold per node of their word trie (`_word_forms`);
  `stationary_probabilities` evaluates each weight and Z_L on their own
  and divides, and `weights_evaluator` evaluates Z_L and the 2^L weights
  on one common denominator at a point.  The library normal-orders no
  state's word: it fills the weights by the equations that define L, one
  site at a time, over the integers at a point and over Z[alpha, beta]
  for the symbolic weights.
* `principal_minor_polys` expands the leading principal minors of
  (xI - W) by cofactors (`_cofactor_det`), exponential in the size; the
  library runs the three-term recurrence of W and decides the reading by
  orthogonality under the moments L((e1 e2)^k).
"""

import functools
import itertools
from math import comb, factorial

from biops.asep import all_states, partition_Z
from biops.bimoment import build_bimoment
from biops.biortho import UniPoly
from biops.errors import TruncationTooSmall
from biops.expr import Gen, ScalarPoly, BiOrtho, Sum, Product, Power, Negation
from biops.matrep import (Picture, RepMatrix, generator_matrices,
                          second_moment)
from biops.ring import (Poly2, KappaElem, ZERO, ONE, AB, ALPHA, BETA, K_ZERO,
                        K_ONE, accumulate, eval_numerators)
import biops.tensor
from biops.tensor import ShockElem, _times_e2, _times_gen


# --- the tensor algebra ---------------------------------------------------

class TensorElem(biops.tensor.TensorElem):
    """Element of the tensor algebra: map word -> nonzero Poly2.  A
    constant, an int or a Poly2, multiplies as `scalar(c)`, by the
    concatenation product, and on either side, since constants commute
    with everything."""

    __slots__ = ()

    @classmethod
    def scalar(cls, p):
        if isinstance(p, int):
            p = p * ONE
        return cls({(): p})

    @classmethod
    def generator(cls, i):
        if i not in (1, 2):
            raise ValueError("generator index must be 1 or 2")
        return cls({(i,): ONE})

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __add__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return TensorElem(accumulate(dict(self._t), other._t.items()))

    def __sub__(self, other):
        if not isinstance(other, TensorElem):
            return NotImplemented
        return TensorElem(accumulate(dict(self._t), (
            (w, -c) for w, c in other._t.items())))

    def __neg__(self):
        return TensorElem({w: -c for w, c in self._t.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Poly2)):
            other = self.scalar(other)
        elif not isinstance(other, TensorElem):
            return NotImplemented
        return TensorElem(accumulate({}, (
            (w1 + w2, c1 * c2) for w1, c1 in self._t.items()
            for w2, c2 in other._t.items())))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.scalar(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        if not self._t:
            return "TensorElem(0)"
        parts = [
            f"({c!s})*[{''.join(map(str, w)) or '1'}]"
            for w, c in sorted(self._t.items())
        ]
        return "TensorElem(" + " + ".join(parts) + ")"


E1 = TensorElem.generator(1)
E2 = TensorElem.generator(2)


# --- normal ordering by rewriting ----------------------------------------

def _find_pair(word, leftmost=True):
    rng = range(len(word) - 1)
    for i in (rng if leftmost else reversed(rng)):
        if word[i] == 1 and word[i + 1] == 2:
            return i
    return None


def _tail_form(word):
    # a word with no adjacent (1,2) is exactly e2^n e1^m
    m = 0
    for x in reversed(word):
        if x == 1:
            m += 1
        else:
            break
    return (len(word) - m, m)


def normal_order_word(word, strategy="leftmost", max_steps=None):
    """Single-word normal ordering by rewriting the leftmost or the
    rightmost e1*e2 pair; the two strategies test confluence, the step
    count termination.

    Returns (result dict, rewrite step count).  Raises RuntimeError if the
    step budget (default 2**len(word)) is exceeded.
    """
    leftmost = strategy == "leftmost"
    if max_steps is None:
        max_steps = 2 ** len(word) if word else 1
    pending = [(word, ONE)]
    done = {}
    steps = 0
    while pending:
        w, coeff = pending.pop()
        pos = _find_pair(w, leftmost=leftmost)
        if pos is None:
            accumulate(done, ((_tail_form(w), coeff),))
            continue
        steps += 1
        if steps > max_steps:
            raise RuntimeError("rewrite step budget exceeded")
        u, v = w[:pos], w[pos + 2:]
        pending.append((u + (1,) + v, AB * coeff))
        pending.append((u + (2,) + v, AB * coeff))
    return done, steps


def poly2_fold(word):
    """The normal form of a word as {(n, m): Poly2}, by a left fold over
    its letters: x*e1 shifts m, and x*e2 gives e1^k, within one power n
    of e2, the suffix sum S_k = alpha*beta*(c_k + S_(k+1)) and e2^(n+1)
    c_0 + S_1."""
    t = {(0, 0): ONE}
    for g in word:
        if g == 1:
            t = {(n, m + 1): c for (n, m), c in t.items()}
            continue
        rows = {}
        for (n, m), c in t.items():
            rows.setdefault(n, {})[m] = c
        t = {}
        for n, row in rows.items():
            s = ZERO
            for k in range(max(row), 0, -1):
                s = AB * (s + row.get(k, ZERO))
                if s:
                    t[(n, k)] = s
            s = s + row.get(0, ZERO)
            if s:
                t[(n + 1, 0)] = s
    return t


def as_shock(nf):
    """The ShockElem of a normal form {(n, m): Poly2}: a term
    c alpha^i beta^j of the coefficient of e2^n e1^m is the integer c at
    bidegree (i + n + m, j + n + m)."""
    return ShockElem({(i + n + m, j + n + m, n, m): c
                      for (n, m), p in nf.items()
                      for (i, j), c in p.sorted_terms()})


def power_sum(L):
    """(e1 + e2)^L expanded: all 2^L words of length L with coefficient 1."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    return TensorElem({w: ONE for w in itertools.product((1, 2), repeat=L)})


def _L_graded(t, N):
    """L on the part of bidegree (N, N), over (n, m) keys: the integer c
    at (n, m) stands for c (alpha*beta)^(N-n-m) e2^n e1^m, whose L is
    c alpha^(N-n) beta^(N-m).  Distinct keys give distinct monomials, and
    a fold stores no zero."""
    return Poly2._raw({(N - n, N - m): c for (n, m), c in t.items()})


def power_sum_form(L):
    """L((e1 + e2)^L), folding the L factors e1 + e2 over integer
    coefficients on the diagonal bidegree alone: each step is
    x*e1 + x*e2."""
    x = {(0, 0): 1}
    for _ in range(L):
        x = accumulate(_times_e2(x), _times_gen(x, 1).items())
    return _L_graded(x, L)


# --- closed forms ----------------------------------------------------------

def dehp_Z(L):
    """Derrida-Evans-Hakim-Pasquier, J. Phys. A 26 (1993) 1493:
    Z_L = sum_{p=1..L} p (2L-1-p)! / (L! (L-p)!)
          * sum_{k=0..p} alpha^(L-k) beta^(L-p+k)."""
    terms = {}
    for p in range(1, L + 1):
        count, rem = divmod(p * factorial(2 * L - 1 - p),
                            factorial(L) * factorial(L - p))
        assert rem == 0
        for k in range(p + 1):
            key = (L - k, L - p + k)
            terms[key] = terms.get(key, 0) + count
    return Poly2(terms)


def pq_rep(n, which, dim):
    """Closed-form band matrix of P_n (which='P', in the bar_col picture)
    or Q_n (which='Q', in the bar_row picture).

    P_n: 1 at j = i+n, alpha*(beta-1) at j = i+n-1 with j >= n.
    Q_n is the transposed pattern with beta*(alpha-1)."""
    if which not in ("P", "Q"):
        raise ValueError("which must be 'P' or 'Q'")
    if n < 0:
        raise ValueError("index must be nonnegative")
    if dim < n + 2:
        raise TruncationTooSmall(f"dim {dim} < n {n} + 2")
    offdiag = KappaElem(ALPHA * (BETA - 1) if which == "P"
                        else BETA * (ALPHA - 1))
    rows = [[K_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        if i + n < dim:
            rows[i][i + n] = K_ONE
        if n and i >= 1 and i + n - 1 < dim:  # j = i+n-1 >= n
            rows[i][i + n - 1] = offdiag
    if which == "Q":
        rows = zip(*rows)
    return RepMatrix(dim, tuple({j: v for j, v in enumerate(r) if v}
                                for r in rows), n)


# --- the word trie ---------------------------------------------------------

def _fold_words(words, unit, times_gen):
    """Yield (word, value) for each of the distinct `words`, in sorted
    order, where a word's value is the left fold of times_gen(value, g)
    over its letters g, starting from `unit`.  A stack holds the values of
    the current word's prefixes, so each node of the word trie costs one
    product.  `word_fold` and `eval_L_matrix` fold band matrices, and
    `_word_forms` folds (n, m) -> coefficient dicts with `_times_gen`."""
    stack = [unit]  # stack[i] = value of prev[:i]
    prev = ()
    for w in sorted(words):
        i, top = 0, min(len(prev), len(w))
        while i < top and prev[i] == w[i]:
            i += 1
        del stack[i + 1:]
        for g in w[i:]:
            stack.append(times_gen(stack[-1], g))
        prev = w
        yield w, stack[-1]


# --- the matrix of a tensor element, word by word --------------------------

def word_fold(x, dim, rep="hat"):
    """Dense rows of the dim x dim matrix of the TensorElem x in the
    given picture: the sum over the words w of x of coeff(w) times the
    product of w's truncated generator bands, each prefix's rows times one
    band per node of the word trie."""
    bands = generator_matrices(dim, rep)

    def times_band(rows, g):
        band, out = bands[g - 1], []
        for row in rows:
            new = [K_ZERO] * dim
            for i, r in enumerate(row):
                if r:
                    for j in range(max(i - 1, 0), min(i + 2, dim)):
                        new[j] = new[j] + r * band.entry(i, j)
            out.append(new)
        return out

    total = [[K_ZERO] * dim for _ in range(dim)]
    unit = [[K_ONE if i == j else K_ZERO for j in range(dim)]
            for i in range(dim)]
    terms = dict(x.items())
    for w, prod in _fold_words(terms, unit, times_band):
        for trow, prow in zip(total, prod):
            for j, e in enumerate(prow):
                trow[j] = trow[j] + e * terms[w]
    return total


def max_word_len(x):
    """The length of the longest word of the TensorElem x; 0 for none."""
    return max((len(w) for w, _ in x.items()), default=0)


def eval_L_matrix(x):
    """L(x) for a TensorElem x: entry (0,0) of its matrix in the hat
    picture, the row-0 case of `word_fold`.  The row e_0 alone, a sparse
    one-row RepMatrix, is folded over the word trie, at a fraction of the
    dense fold's cost.  The result is always kappa-free; a nonzero kappa
    part raises RuntimeError."""
    dim = max_word_len(x) + 2
    gens = Picture(dim).gens
    terms = dict(x.items())
    e = K_ZERO
    for w, row in _fold_words(terms, RepMatrix(dim, ({0: K_ONE},), 0),
                              lambda m, g: m * gens[g - 1]):
        e = e + row.raw(0, 0) * terms[w]
    if e.b:
        raise RuntimeError("kappa part of L did not cancel")
    return e.a


def tensor_ast(x):
    """An AST whose value is the TensorElem x: a sum over x's words of
    the coefficient, as a sum of c*a^i*b^j, times the word's letters."""
    return Sum(tuple(
        Product((Sum(tuple(Product((ScalarPoly(c), Power(ScalarPoly("a"), i),
                                    Power(ScalarPoly("b"), j)))
                           for (i, j), c in coeff.sorted_terms())),
                 *(Gen(g) for g in w)))
        for w, coeff in x.items()))


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


# --- fraction-free elimination --------------------------------------------

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
                    row[j] = long_div(pivot * row[j] - lead * top[j], prev)
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


def biorthogonal_pair(N):
    """(pivots, [P_0..P_N], [Q_0..Q_N]) by fraction_free on [B | I] and on
    [B^T | I].  pivots[n] = det B_n, so pivots[n] / pivots[n-1] = Lambda_n,
    and B needs no row swap.  Row n of the reduced identity block holds the
    cofactors of B's first n + 1 rows bordered by (1, e1, ..., e1^n):
    Cramer's rule for P_n before the division by det B_(n-1) (1 if n = 0)."""
    grid = build_bimoment(N)
    unit = [(ZERO,) * r + (ONE,) + (ZERO,) * (N - r) for r in range(N + 1)]
    pair = []
    for g, variable in ((grid, "e1"), (tuple(zip(*grid)), "e2")):
        _, rows = fraction_free([a + b for a, b in zip(g, unit)])
        pivots = [rows[k][k] for k in range(N + 1)]
        pair.append([UniPoly(variable, [long_div(c, d) for c in row[N + 1:]])
                     for row, d in zip(rows, [ONE, *pivots])])
    return pivots, *pair


# --- Cramer's rule ---------------------------------------------------------

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
        coeffs.append(long_div(sign * minor, denom))
    return UniPoly(variable, tuple(coeffs))


def p_cramer(n):
    """P_n by Cramer's rule on the bi-moment matrix B, bordered by the
    column (1, e1, ..., e1^n)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _cramer(build_bimoment(n), "e1")


def q_cramer(n):
    """Q_n by Cramer's rule on the transpose of B (B with alpha and beta
    swapped), bordered by the column (1, e2, ..., e2^n)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return _cramer(tuple(zip(*build_bimoment(n))), "e2")


# --- small helpers ---------------------------------------------------------

def pretty(node):
    """DSL source text that parses back to an AST equal in value to node."""
    if isinstance(node, Gen):
        return f"e{node.which}"
    if isinstance(node, ScalarPoly):
        return str(node.value)
    if isinstance(node, BiOrtho):
        return f"{node.which}({node.n})"
    if isinstance(node, Sum):
        out = pretty(node.parts[0])
        for p in node.parts[1:]:
            if isinstance(p, Negation):
                out += " - " + pretty(p.inner)
            else:
                out += " + " + pretty(p)
        return f"({out})"
    if isinstance(node, Product):
        return "*".join(pretty(p) for p in node.parts)
    if isinstance(node, Power):
        base = pretty(node.base)
        if isinstance(node.base, (Product, Power)):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Negation):
        return f"(-{pretty(node.inner)})"
    raise TypeError(f"not an AST node: {node!r}")


def swap_ab(p):
    """p(alpha, beta) -> p(beta, alpha)."""
    return Poly2({(j, i): c for (i, j), c in p.sorted_terms()})


# --- Poly2 products and exact quotients term by term -----------------------

def schoolbook_mul(p, q):
    """p*q, one term pair at a time."""
    out = {}
    for (i1, j1), c1 in p.sorted_terms():
        for (i2, j2), c2 in q.sorted_terms():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, 0) + c1 * c2
    return Poly2(out)


class InexactDivision(ArithmeticError):
    """A division by long_div left a remainder."""


def long_div(p, q):
    """p/q when q divides p exactly, else InexactDivision (ZeroDivisionError
    when q is 0): long division under the lex order with beta first,
    rescanning the remainder for its leading term every step.  A failed
    term division proves inexactness, since the leading term of any
    nonzero multiple of q is divisible by q's.  Terms are keyed (j, i),
    so the leading key is the largest."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = {(j, i): c for (i, j), c in p.sorted_terms()}
    d = {(j, i): c for (i, j), c in q.sorted_terms()}
    dj, di = max(d)
    quo = {}
    while rem:
        rj, ri = max(rem)
        if ri < di or rj < dj or rem[rj, ri] % d[dj, di]:
            raise InexactDivision("inexact polynomial division")
        mj, mi, c = rj - dj, ri - di, rem[rj, ri] // d[dj, di]
        quo[mi, mj] = c
        for (j, i), cd in d.items():
            k = (j + mj, i + mi)
            rem[k] = rem.get(k, 0) - c * cd
            if not rem[k]:
                del rem[k]
    return Poly2(quo)


# --- stationary weights state by state -------------------------------------

def state_word(tau):
    # occupied site -> e1, empty site -> e2, in site order
    return tuple(1 if bit else 2 for bit in tau)


def _word_forms(words):
    """{word: L(word)} for an iterable of words, normal-ordering them
    together over integer coefficients: the words share the folds of
    their common prefixes, and L of a word of length N reads the power of
    alpha*beta off the bidegree (N, N)."""
    return {w: _L_graded(nf, len(w))
            for w, nf in _fold_words(set(words), {(0, 0): 1},
                                     _times_gen)}


def state_weights(L):
    """The 2^L weights in all_states order, each L of its state's word as
    a Poly2."""
    words = [state_word(tau) for tau in all_states(L)]
    values = _word_forms(words)
    return [values[w] for w in words]


def stationary_probabilities(L, a, b):
    """{state: probability} in the order of all_states: L of each state's
    word evaluated on its own, divided by Z_L evaluated on its own."""
    z = partition_Z(L).eval(a, b)
    return {tau: w.eval(a, b) / z
            for tau, w in zip(all_states(L), state_weights(L))}


def weights_evaluator(L):
    """Z_L and the state_weights, ready to evaluate: a call at (a, b)
    gives ([Z's numerator, *the weights' numerators], denominator)."""
    return functools.partial(eval_numerators,
                             [partition_Z(L), *state_weights(L)])


# --- characteristic polynomials by cofactors -------------------------------

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
