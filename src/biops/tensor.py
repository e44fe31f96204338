"""Tensor algebra over {e1, e2}, shock-ring normal ordering, and the
linear form L defined by the two-parameter stationarity equations.

Words are tuples over {1, 2} (1 = e1, 2 = e2); the empty tuple is the
ring unit.  Normal ordering reduces modulo e1*e2 = alpha*beta*(e1 + e2)
to the shock ring, whose basis is the words e2^n e1^m.  It is computed
as a left fold over a word's letters with closed-form right products by
e1 and e2, so it costs time polynomial in the word length.  On the
basis, L(e2^n e1^m) = beta^n * alpha^m.

The relation is homogeneous when t = alpha*beta counts as one letter:
each rewrite shortens a word by one and multiplies it by t.  So the
normal form of a word of length N, or of (e1 + e2)^N, has at e2^n e1^m
an integer times t^(N-n-m), and L of that term is an integer times
alpha^(N-n) beta^(N-m).  `linear_forms` and `power_sum_form` fold such
elements over plain integer coefficients and read the power of t off
the degree at the end; GradedElem is that ring as an algebra.
Shock-ring elements, whose coefficients carry alpha and beta, run the
same fold over Poly2 coefficients.
"""

from __future__ import annotations

from operator import pos

from .ring import Poly2, ZERO, ONE, AB, accumulate, poly_sum


def word_to_str(w):
    return "".join(str(x) for x in w)


def _clean(terms):
    return {k: c for k, c in terms.items() if c}


class _LinComb:
    """Shared machinery for finite linear combinations with coefficients
    in the ring of `_ONE`, which an int scalar is multiplied into.

    A subclass supplies `_mul`, its product with an element of its own
    type, and the keys of its unit and generators; products by a scalar
    and powers live here."""

    __slots__ = ("_t",)
    _UNIT = None        # key of the ring unit
    _GENERATORS = None  # keys of e1 and e2
    _ONE = ONE          # unit of the coefficient ring

    def __init__(self, terms=None):
        self._t = _clean(dict(terms or {}))

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def unit(cls):
        return cls({cls._UNIT: cls._ONE})

    @classmethod
    def scalar(cls, p):
        if isinstance(p, int):
            p = p * cls._ONE
        return cls({cls._UNIT: p})

    @classmethod
    def generator(cls, i):
        if i not in (1, 2):
            raise ValueError("generator index must be 1 or 2")
        return cls({cls._GENERATORS[i - 1]: cls._ONE})

    def items(self):
        return self._t.items()

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def _combine(self, pairs):
        out = object.__new__(type(self))
        out._t = accumulate(dict(self._t), pairs)
        return out

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine(other._t.items())

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._combine((k, -c) for k, c in other._t.items())

    def __neg__(self):
        out = object.__new__(type(self))
        out._t = {k: -c for k, c in self._t.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            other = other * self._ONE
        if isinstance(other, type(self._ONE)):
            out = object.__new__(type(self))
            out._t = _clean({k: other * c for k, c in self._t.items()})
            return out
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, (type(self._ONE), int)):
            return self * other
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.unit()
        for _ in range(n):
            out = out * self
        return out


class TensorElem(_LinComb):
    """Element of the tensor algebra: map word -> nonzero Poly2."""

    _UNIT = ()
    _GENERATORS = ((1,), (2,))

    def _mul(self, other):
        pairs = ((w1 + w2, c1 * c2) for w1, c1 in self._t.items()
                 for w2, c2 in other._t.items())
        return TensorElem(accumulate({}, pairs))

    def max_word_len(self):
        return max((len(w) for w in self._t), default=0)

    def __repr__(self):
        if not self._t:
            return "TensorElem(0)"
        parts = [
            f"({c!s})*[{word_to_str(w) or '1'}]"
            for w, c in sorted(self._t.items())
        ]
        return "TensorElem(" + " + ".join(parts) + ")"


E1 = TensorElem.generator(1)
E2 = TensorElem.generator(2)


class ShockElem(_LinComb):
    """Element of the shock ring: map (n, m) -> coefficient of e2^n e1^m."""

    _UNIT = (0, 0)
    _GENERATORS = ((0, 1), (1, 0))

    def _mul(self, other):
        return shock_mul(self, other)

    def __repr__(self):
        if not self._t:
            return "ShockElem(0)"
        parts = [
            f"({c!s})*e2^{n}e1^{m}" for (n, m), c in sorted(self._t.items())
        ]
        return "ShockElem(" + " + ".join(parts) + ")"


class GradedElem(_LinComb):
    """The integer span of the words in the shock ring, graded by degree:
    the int c at (N, n, m) stands for c t^(N-n-m) e2^n e1^m.  A product is
    one integer fold of `_times_e2` per degree."""

    _UNIT = (0, 0, 0)
    _GENERATORS = ((1, 0, 1), (1, 1, 0))
    _ONE = 1

    def _mul(self, other):
        """x_N * c t^(M-k-l) e2^k e1^l, for the part x_N of degree N and a
        term of `other`, is x_N times e2 k times, shifted by l in the power
        of e1, times c, in degree N + M."""
        t = {}
        ys = sorted(other._t.items(), key=lambda kc: kc[0][1])
        for N, xk in _by_degree(self._t).items():
            k = 0  # xk = x_N * e2^k
            for (M, kk, l), c in ys:
                while k < kk:
                    xk, k = _times_e2(xk, pos, 0), k + 1
                terms = (((N + M, n, m + l), c * cx)
                         for (n, m), cx in xk.items())
                # products of nonzero ints are nonzero
                t = accumulate(t, terms) if t else dict(terms)
        out = object.__new__(GradedElem)
        out._t = t
        return out

    def lift(self):
        """This element as a ShockElem: the one conversion, multiplying in
        the power t^(N-n-m) of each coefficient."""
        return ShockElem(accumulate({}, (
            ((n, m), Poly2._raw({(N - n - m, N - n - m): c}))
            for (N, n, m), c in self._t.items())))


def _by_degree(t):
    """{N: {(n, m): c}}: the homogeneous parts of a GradedElem's terms."""
    parts = {}
    for (N, n, m), c in t.items():
        parts.setdefault(N, {})[(n, m)] = c
    return parts


# --- normal ordering ---------------------------------------------------

def _times_e2(t, times_t, zero):
    """x*e2 for x = sum of t[(n, m)] e2^n e1^m, in the shock ring, with
    coefficients whose product by t = alpha*beta is times_t and whose zero
    is `zero` (Poly2 coefficients, or integers whose power of t is the
    degree's, so that times t is the identity).

    e2^n e1^m e2 = sum_{k=1..m} t^(m-k+1) e2^n e1^k + t^m e2^(n+1),
    so within one power n of e2 the coefficient of e1^k is the suffix sum
    S_k = t (c_k + S_(k+1)), and e2^(n+1) gets c_0 + S_1.  Every output
    key comes from exactly one n.
    """
    rows = {}
    for (n, m), c in t.items():
        rows.setdefault(n, {})[m] = c
    out = {}
    for n, row in rows.items():
        s = zero
        for k in range(max(row), 0, -1):
            c = row.get(k)
            s = times_t(s + c if c is not None else s)
            if s:
                out[(n, k)] = s
        c = row.get(0)
        s = s + c if c is not None else s
        if s:
            out[(n + 1, 0)] = s
    return out


def _right_product(times_t, zero):
    """The right product (t, g) -> t*e_g of a normal-ordered dict, for
    coefficients whose product by alpha*beta is times_t."""
    def times_gen(t, g):
        if g == 1:
            return {(n, m + 1): c for (n, m), c in t.items()}
        return _times_e2(t, times_t, zero)
    return times_gen


_POLY2_PRODUCT = _right_product(AB.__mul__, ZERO)
# integer coefficients of a homogeneous element: times t is the identity
_GRADED_PRODUCT = _right_product(pos, 0)


def fold_words(words, unit, times_gen):
    """Yield (word, value) for each of the distinct `words`, in sorted
    order, where a word's value is the left fold of times_gen(value, g)
    over its letters g, starting from `unit`.  A stack holds the values of
    the current word's prefixes, so each node of the word trie costs one
    product.  Normal ordering folds (n,m)->coefficient dicts with a
    `_right_product`; `matrep.eval_L_matrix` folds the row e_0 times the
    generator matrices."""
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


def normal_order(x):
    """Project a TensorElem onto the shock ring (normal-ordered form)."""
    t = {}
    for w, nf in fold_words(x._t, {(0, 0): ONE}, _POLY2_PRODUCT):
        c = x._t[w]
        accumulate(t, ((k, c * ck) for k, ck in nf.items()))
    return ShockElem(t)


# --- shock ring product -------------------------------------------------

def shock_mul(x, y):
    """Product in the shock ring: x * e2^k e1^l is x times e2 k times,
    shifted by l in the power of e1."""
    t = {}
    xk, k = x._t, 0  # xk = x * e2^k
    for (kk, l), c in sorted(y.items()):
        while k < kk:
            xk, k = _times_e2(xk, AB.__mul__, ZERO), k + 1
        accumulate(t, (((n, m + l), c * cx) for (n, m), cx in xk.items()))
    return ShockElem(t)


# --- the linear form ----------------------------------------------------

_L_CACHE = {}


def _L_nf(t):
    """L on a normal-ordered dict with Poly2 coefficients, L(e2^n e1^m) =
    beta^n alpha^m, accumulated term by term into one dict."""
    out = {}
    for (n, m), c in t.items():
        for (i, j), v in c._t.items():
            k = (i + m, j + n)
            out[k] = out.get(k, 0) + v
    return Poly2._raw({k: v for k, v in out.items() if v})


def _L_graded(t, N):
    """L on the normal form, with integer coefficients, of a homogeneous
    element of degree N: the integer c at (n, m) stands for
    c t^(N-n-m) e2^n e1^m, whose L is c alpha^(N-n) beta^(N-m).  Distinct
    keys give distinct monomials, and a fold stores no zero."""
    return Poly2._raw({(N - n, N - m): c for (n, m), c in t.items()})


def linear_forms(words):
    """{word: L(word)} for an iterable of words.  Words missing from the
    per-word cache are normal-ordered together over integer coefficients,
    sharing prefix folds."""
    words = set(words)
    missing = (w for w in words if w not in _L_CACHE)
    for w, nf in fold_words(missing, {(0, 0): 1}, _GRADED_PRODUCT):
        _L_CACHE[w] = _L_graded(nf, len(w))
    return {w: _L_CACHE[w] for w in words}


def power_sum_form(n):
    """L((e1 + e2)^n), folding the n factors e1 + e2 over integer
    coefficients: each step is x*e1 + x*e2."""
    x = {(0, 0): 1}
    for _ in range(n):
        y = _GRADED_PRODUCT(x, 2)
        for k, c in _GRADED_PRODUCT(x, 1).items():
            y[k] = y.get(k, 0) + c
        x = y
    return _L_graded(x, n)


def linear_form(x):
    """L(x) for a TensorElem, a ShockElem or a GradedElem: evaluate via
    normal ordering, L(e2^n e1^m) = beta^n alpha^m."""
    if isinstance(x, ShockElem):
        return _L_nf(x._t)
    if isinstance(x, GradedElem):
        return poly_sum(_L_graded(t, N) for N, t in _by_degree(x._t).items())
    values = linear_forms(x._t)
    return poly_sum(c * values[w] for w, c in x.items())
