"""Exact base rings: Z[alpha,beta] and its quadratic extension by kappa.

Poly2 is a polynomial in the commuting variables alpha, beta with integer
coefficients, stored as the dict {(i, j): c} of its nonzero terms
c*alpha^i*beta^j; that dict is its one representation.  Sums and
products are loops over it: a product visits every pair of terms.  No
polynomial is divided: every quotient the paper needs, such as
Lambda_{n+1}/Lambda_n, is read off a closed form.

KappaElem is an element a + b*kappa of the extension ring with the
reduction rule kappa**2 = alpha*beta*(alpha+beta-1).

Evaluation at a rational point a = p/q, b = r/s is exact and runs over the
integers.  eval_numerators(polys, a, b) builds one table of scaled powers
p^i q^(I-i) per variable, I the largest alpha exponent over all of
`polys` (and r^j s^(J-j) for beta), and then each polynomial's integer
numerator over the one shared denominator q^I s^J with one product per
term.  Poly2.eval is that call for one polynomial.

ratios(nums, den) turns integer numerators over one positive denominator
into Fractions in lowest terms, one gcd each: the one way the library
makes rationals from such a shared denominator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd
from operator import index


def _grlex_key(ij):
    i, j = ij
    return (i + j, j)


def _add_terms(t, u, sign):
    # t + sign*u for integer coefficients: the loop of `accumulate`, kept
    # apart because negating u's coefficients on the way in makes
    # subtraction slower
    out = dict(t)
    for k, c in u.items():
        s = out.get(k, 0) + sign * c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return out


def _scaled_powers(p, q, n):
    """[p^i q^(n-i) for i = 0..n]."""
    up, down = [1], [1]
    for _ in range(n):
        up.append(up[-1] * p)
        down.append(down[-1] * q)
    return [u * d for u, d in zip(up, reversed(down))]


class Poly2:
    """Polynomial in Z[alpha, beta] as the dict {(i, j): c} of its nonzero
    terms (no zero coefficient is stored)."""

    __slots__ = ("_t",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponent")
                c = index(c)
                if c:
                    t[(index(i), index(j))] = c
        self._t = t

    @classmethod
    def _raw(cls, t):
        p = object.__new__(cls)
        p._t = t
        return p

    @classmethod
    def const(cls, c):
        c = index(c)
        return cls._raw({(0, 0): c} if c else {})

    @classmethod
    def monomial(cls, i, j):
        return cls({(i, j): 1})

    def __bool__(self):
        return bool(self._t)

    def _coerce(self, other):
        if isinstance(other, Poly2):
            return other
        if isinstance(other, int):
            return Poly2.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Poly2._raw(_add_terms(self._t, other._t, 1))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Poly2._raw(_add_terms(self._t, other._t, -1))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return Poly2._raw(_add_terms(other._t, self._t, -1))

    def __neg__(self):
        return Poly2._raw({k: -c for k, c in self._t.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        t, u = self._t, other._t
        if len(t) > len(u):
            t, u = u, t
        out = {}
        for (i1, j1), c1 in t.items():
            for (i2, j2), c2 in u.items():
                k = (i1 + i2, j1 + j2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return Poly2._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly2.const(other)
        if not isinstance(other, Poly2):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        # a constant equals its int, so it hashes as that int
        if self._t.keys() <= {(0, 0)}:
            return hash(self._t.get((0, 0), 0))
        return hash(tuple(sorted(self._t.items())))

    def eval(self, a, b):
        """Exact value at alpha=a, beta=b, as a Fraction: the numerator
        that eval_numerators finds for this polynomial alone, over its
        denominator q^I s^J (a = p/q, b = r/s; I, J the largest
        exponents)."""
        (num,), den = eval_numerators((self,), a, b)
        return ratios((num,), den)[0]

    def sorted_terms(self):
        return sorted(self._t.items(), key=lambda kv: _grlex_key(kv[0]))

    def to_obj(self):
        return [
            {"a": i, "b": j, "c": str(c)}
            for (i, j), c in self.sorted_terms()
        ]

    @classmethod
    def from_obj(cls, obj):
        return cls({(rec["a"], rec["b"]): int(rec["c"]) for rec in obj})

    def __repr__(self):
        return f"Poly2({self!s})"

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for (i, j), c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (i == 0 and j == 0):
                factors.append(str(abs(c)))
            if i:
                factors.append("a" if i == 1 else f"a^{i}")
            if j:
                factors.append("b" if j == 1 else f"b^{j}")
            mono = "*".join(factors)
            if not parts:
                parts.append(mono if c > 0 else f"-{mono}")
            else:
                parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
        return " ".join(parts)


def eval_numerators(polys, a, b):
    """The values of the Poly2s `polys` at alpha=a, beta=b on one common
    denominator, as (numerators, denominator): with a = p/q, b = r/s and
    I, J the largest alpha and beta exponents over all of `polys`, the
    denominator is q^I s^J and the numerator of a polynomial is
    sum c p^i q^(I-i) r^j s^(J-j) over its terms c a^i b^j."""
    a, b = Fraction(a), Fraction(b)
    ts = [p._t for p in polys]
    I, J = map(max, zip((0, 0), *chain.from_iterable(ts)))
    pa = _scaled_powers(a.numerator, a.denominator, I)
    pb = _scaled_powers(b.numerator, b.denominator, J)
    nums = [sum(c * pa[i] * pb[j] for (i, j), c in t.items()) for t in ts]
    return nums, a.denominator**I * b.denominator**J


def ratios(nums, den):
    """The integers `nums` over the one denominator `den`, as a list of
    Fractions in lowest terms, each equal to Fraction(n, den) in value,
    type, hash and text.  `den` must be positive (ValueError otherwise),
    so each value takes one gcd and no sign fix."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    # fill the two slots of an already-reduced pair, as CPython's own
    # fractions does (Fraction._from_coprime_ints on 3.12+,
    # _normalize=False on 3.10 and 3.11): Fraction(n, den) spends most of
    # its time deciding the types of its arguments.  Pinned against
    # Fraction(n, den) by tests/test_ring.py::TestRatios.
    out = []
    new = object.__new__
    for n in nums:
        g = gcd(n, den)
        f = new(Fraction)
        f._numerator = n // g
        f._denominator = den // g
        out.append(f)
    return out


def poly_sum(polys):
    """The sum of the Poly2s `polys`, accumulated term by term into one
    dict of integer coefficients: no intermediate Poly2 is built, so a
    long sum does not copy its running total at each step."""
    total = {}
    for p in polys:
        for k, c in p._t.items():
            total[k] = total.get(k, 0) + c
    return Poly2._raw({k: c for k, c in total.items() if c})


ZERO = Poly2.const(0)
ONE = Poly2.const(1)
ALPHA = Poly2.monomial(1, 0)
BETA = Poly2.monomial(0, 1)
AB = ALPHA * BETA
# kappa**2 = alpha*beta*(alpha+beta-1)
KAPPA_SQ = AB * (ALPHA + BETA - 1)


def accumulate(t, pairs):
    """t[k] += c for each (k, c) in pairs, in place, for a sparse dict of
    coefficients in any ring: int, Fraction, Poly2 or KappaElem.  A new
    key starts from c itself, so no coefficient changes type; a key whose
    sum is zero is dropped, so no zero coefficient is stored.  Returns t."""
    for k, c in pairs:
        s = t.get(k)
        s = c if s is None else s + c
        if s:
            t[k] = s
        elif k in t:
            del t[k]
    return t


class KappaElem:
    """Element a + b*kappa with the eager reduction kappa**2 = KAPPA_SQ."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=ZERO):
        if isinstance(a, int):
            a = Poly2.const(a)
        if isinstance(b, int):
            b = Poly2.const(b)
        self.a = a
        self.b = b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    @staticmethod
    def _coerce(x):
        if isinstance(x, KappaElem):
            return x
        if isinstance(x, (Poly2, int)):
            return KappaElem(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return KappaElem(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return KappaElem(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other - self

    def __neg__(self):
        return KappaElem(-self.a, -self.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return KappaElem(a1 * a2 + b1 * b2 * KAPPA_SQ, a1 * b2 + a2 * b1)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = KappaElem(ONE)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # a kappa-free element equals its Poly2 part, so hashes as it
        return hash((self.a, self.b) if self.b else self.a)

    def to_obj(self):
        return {"k0": self.a.to_obj(), "k1": self.b.to_obj()}

    def __repr__(self):
        if not self.b:
            return f"KappaElem({self.a!s})"
        return f"KappaElem(({self.a!s}) + ({self.b!s})*k)"


K_ZERO = KappaElem(ZERO)
K_ONE = KappaElem(ONE)
KAPPA = KappaElem(ZERO, ONE)

