"""Normal ordering of words over {e1, e2}, the shock ring, and the linear
form L defined by the two-parameter stationarity equations.

Words are tuples over {1, 2} (1 = e1, 2 = e2); the empty tuple is the
ring unit.  Normal ordering reduces modulo e1*e2 = alpha*beta*(e1 + e2)
to the shock ring, whose basis is the words e2^n e1^m.  On the basis,
L(e2^n e1^m) = beta^n * alpha^m.

The relation is homogeneous when alpha has bidegree (1, 0), beta has
(0, 1), and e1 and e2 both have (1, 1).  So a shock-ring element over
Z[alpha, beta] is a sum of bihomogeneous parts, and in the part of
bidegree (I, J) the coordinate of e2^n e1^m is an integer times
alpha^(I-n-m) beta^(J-n-m).  ShockElem stores exactly these integers,
keyed (I, J, n, m), and L of such a term is the integer times
alpha^(I-n) beta^(J-m).  A right product by e1 or e2 maps a part of
bidegree (I, J) to one of (I+1, J+1) with integer additions alone
(`_times_gen`), so a product costs time polynomial in the degree.
TensorElem only holds words with their coefficients; the tensor algebra,
with concatenation as its product, is a test oracle.  Normal ordering
folds each word of a TensorElem on its own, letter by letter, and L of a
TensorElem is L of its normal order: one path to L.
"""

from .ring import Poly2, accumulate


class TensorElem:
    """Words with coefficients, word -> nonzero Poly2: the container that
    normal_order and linear_form read.  The word algebra on it, with the
    concatenation product, is a test oracle."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        self._t = {k: c for k, c in dict(terms or {}).items() if c}

    def items(self):
        return self._t.items()


class ShockElem:
    """Element of the shock ring over Z[alpha, beta]: the int c at
    (I, J, n, m) stands for c alpha^(I-n-m) beta^(J-n-m) e2^n e1^m.  A
    constant, an int or a Poly2 of integer coefficients, multiplies as
    `scalar(c)`, by the ring product, and on either side, since constants
    commute with everything."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        self._t = {k: c for k, c in dict(terms or {}).items() if c}

    @classmethod
    def _raw(cls, t):
        out = object.__new__(cls)
        out._t = t
        return out

    @classmethod
    def scalar(cls, p):
        """p as a ShockElem: each term c alpha^i beta^j at (i, j, 0, 0)."""
        if isinstance(p, int):
            p = Poly2.const(p)
        return cls({(i, j, 0, 0): c for (i, j), c in p._t.items()})

    @classmethod
    def generator(cls, i):
        """e1 = e2^0 e1^1 at (1, 1, 0, 1), e2 = e2^1 e1^0 at (1, 1, 1, 0)."""
        if i not in (1, 2):
            raise ValueError("generator index must be 1 or 2")
        return cls({(1, 1, i - 1, 2 - i): 1})

    def items(self):
        return self._t.items()

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if not isinstance(other, ShockElem):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        return hash(frozenset(self._t.items()))

    def __add__(self, other):
        if not isinstance(other, ShockElem):
            return NotImplemented
        return self._raw(accumulate(dict(self._t), other._t.items()))

    def __sub__(self, other):
        if not isinstance(other, ShockElem):
            return NotImplemented
        return self._raw(accumulate(dict(self._t), (
            (k, -c) for k, c in other._t.items())))

    def __neg__(self):
        return self._raw({k: -c for k, c in self._t.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Poly2)):
            other = self.scalar(other)
        elif not isinstance(other, ShockElem):
            return NotImplemented
        return shock_mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        parts = {(0, 0): {(0, 0): 1}}
        for _ in range(n):
            parts = _times_parts(parts, self)
        return _from_parts(parts)

    def __repr__(self):
        if not self._t:
            return "ShockElem(0)"
        parts = [
            f"{c}*a^{I - n - m}*b^{J - n - m}*e2^{n}e1^{m}"
            for (I, J, n, m), c in sorted(self._t.items())
        ]
        return "ShockElem(" + " + ".join(parts) + ")"


# --- normal ordering ---------------------------------------------------

def _times_e2(t):
    """x*e2 for the part x = sum of t[(n, m)] e2^n e1^m of one bidegree,
    in the shock ring; the result's bidegree is one more in each place.

    e2^n e1^m e2 = sum_{k=1..m} t^(m-k+1) e2^n e1^k + t^m e2^(n+1)
    with t = alpha*beta, and the power of t is read off the bidegree, so
    within one power n of e2 the coefficient of e1^k is the suffix sum
    S_k = c_k + S_(k+1), and e2^(n+1) gets c_0 + S_1.  Every output key
    comes from exactly one n.
    """
    rows = {}
    for (n, m), c in t.items():
        rows.setdefault(n, {})[m] = c
    out = {}
    for n, row in rows.items():
        s = 0
        for k in range(max(row), 0, -1):
            c = row.get(k)
            if c is not None:
                s += c
            if s:
                out[(n, k)] = s
        c = row.get(0)
        if c is not None:
            s += c
        if s:
            out[(n + 1, 0)] = s
    return out


def _times_gen(t, g):
    """The right product t*e_g of one bihomogeneous part."""
    if g == 1:
        return {(n, m + 1): c for (n, m), c in t.items()}
    return _times_e2(t)


def normal_order(x):
    """Project a TensorElem onto the shock ring (normal-ordered form): each
    word w of length N folds on its own, letter by letter, to a part of
    bidegree (N, N), and a term c alpha^i beta^j of its coefficient moves
    that part to (N + i, N + j)."""
    t = {}
    for w, coeff in x._t.items():
        nf = {(0, 0): 1}
        for g in w:
            nf = _times_gen(nf, g)
        N = len(w)
        for (i, j), c in coeff._t.items():
            accumulate(t, (((N + i, N + j, n, m), c * cw)
                           for (n, m), cw in nf.items()))
    return ShockElem._raw(t)


# --- shock ring product -------------------------------------------------

def _times_parts(parts, y):
    """x*y for x given as its bihomogeneous parts {(I, J): {(n, m): c}},
    returned as parts.  A part of x times c alpha^a beta^b e2^k e1^l is
    that part times e2 k times, shifted by l in the power of e1, times c,
    in bidegree (I + a + k + l, J + b + k + l): bidegrees add."""
    out = {}
    ys = sorted(y._t.items(), key=lambda kc: kc[0][2])
    for (I, J), xk in parts.items():
        k = 0  # xk = x_(I, J) * e2^k
        for (I2, J2, kk, l), c in ys:
            while k < kk:
                xk, k = _times_e2(xk), k + 1
            terms = xk.items()
            if l:
                terms = (((n, m + l), cx) for (n, m), cx in terms)
            if c != 1:
                terms = ((key, c * cx) for key, cx in terms)
            part = out.get((I + I2, J + J2))
            if part is None:
                # products of nonzero ints are nonzero
                out[(I + I2, J + J2)] = dict(terms)
            else:
                accumulate(part, terms)
    return out


def _from_parts(parts):
    return ShockElem._raw({(I, J, n, m): c for (I, J), part in parts.items()
                           for (n, m), c in part.items()})


def shock_mul(x, y):
    """Product in the shock ring, one bihomogeneous part of x at a time."""
    parts = {}
    for (I, J, n, m), c in x._t.items():
        parts.setdefault((I, J), {})[(n, m)] = c
    return _from_parts(_times_parts(parts, y))


# --- the linear form ----------------------------------------------------

def linear_form(x):
    """L(x) for a TensorElem or a ShockElem: a TensorElem is normal-ordered
    first, and on the shock ring
    L(c alpha^(I-n-m) beta^(J-n-m) e2^n e1^m) = c alpha^(I-n) beta^(J-m)."""
    if not isinstance(x, ShockElem):
        x = normal_order(x)
    return Poly2._raw(accumulate({}, (
        ((I - n, J - m), c) for (I, J, n, m), c in x._t.items())))
