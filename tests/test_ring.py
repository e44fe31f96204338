import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from biops.ring import (Poly2, KappaElem, ZERO, ONE, ALPHA, BETA, AB,
                        KAPPA, KAPPA_SQ, K_ONE, accumulate,
                        eval_numerators, poly_dot, poly_sum, ratios)
from oracles import InexactDivision, long_div, schoolbook_mul


def rand_poly(rng, max_deg=3, max_terms=4, max_coeff=6):
    return Poly2({
        (rng.randint(0, max_deg), rng.randint(0, max_deg)):
            rng.randint(-max_coeff, max_coeff)
        for _ in range(rng.randint(0, max_terms))
    })


coeffs = st.integers(min_value=-8, max_value=8)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exps, coeffs, max_size=5).map(Poly2)


class TestPoly2:
    def test_add_examples(self):
        assert ALPHA + BETA == Poly2({(1, 0): 1, (0, 1): 1})
        assert AB + -AB == ZERO
        assert not (AB - AB)
        assert (ALPHA + BETA) + (AB - BETA) == ALPHA + AB

    def test_mul_examples(self):
        assert ALPHA * BETA == AB
        assert (ALPHA + BETA) * ONE == ALPHA + BETA
        # the n=1 determinant value times ab, expanded by hand:
        # (ab)(ab)(a+b-1) = a^3b^2 + a^2b^3 - a^2b^2
        expect = Poly2({(3, 2): 1, (2, 3): 1, (2, 2): -1})
        assert AB * AB * (ALPHA + BETA - 1) == expect

    def test_exact_div_examples(self):
        # the oracle's quotients are those the products promise
        assert long_div(AB * (ALPHA + BETA - 1), AB) == ALPHA + BETA - 1
        assert schoolbook_mul(AB, ALPHA + BETA - 1) == AB * (ALPHA + BETA - 1)
        # det B^(1) / det B^(0) = Lambda_1
        assert long_div(KAPPA_SQ, ONE) == KAPPA_SQ
        sq = ALPHA**2 + 2 * AB + BETA**2
        assert schoolbook_mul(ALPHA + BETA, ALPHA + BETA) == sq
        assert long_div(sq, ALPHA + BETA) == ALPHA + BETA

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivision):
            long_div(ALPHA + 1, BETA)
        with pytest.raises(InexactDivision):
            long_div(Poly2.const(3), Poly2.const(2))
        with pytest.raises(ZeroDivisionError):
            long_div(ALPHA, ZERO)
        with pytest.raises(ZeroDivisionError):
            long_div(ZERO, ZERO)

    def test_eval_examples(self):
        assert (ALPHA + BETA).eval(Fraction(1, 2), Fraction(1, 3)) \
            == Fraction(5, 6)
        assert KAPPA_SQ.eval(Fraction(1, 2), Fraction(1, 2)) == 0

    def test_canonical_no_zero_terms(self):
        p = Poly2({(1, 0): 1, (0, 1): 0})
        assert (0, 1) not in dict(p.sorted_terms())
        assert (ALPHA - ALPHA).sorted_terms() == []

    @settings(max_examples=200, deadline=None)
    @given(polys, polys, coeffs)
    def test_operations_store_no_zero_coefficient(self, p, q, c):
        # q - p and p - p make whole terms cancel
        results = [p + q, p + (q - p), p - q, p - p, c - p, p + c, -p,
                   p * q, p * (q - p), c * p]
        if q:
            results.append(long_div(p * q, q))
        for r in results:
            assert 0 not in dict(r.sorted_terms()).values()

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly2({(-1, 0): 1})

    def test_integer_coefficients_only(self):
        # a Fraction or a float coefficient or exponent is refused, not
        # truncated
        with pytest.raises(TypeError):
            Poly2({(0, 0): Fraction(1, 2), (1, 0): 2.7})
        with pytest.raises(TypeError):
            Poly2({(1, 1): Fraction(3, 2)})
        with pytest.raises(TypeError):
            Poly2.const(Fraction(1, 2))
        with pytest.raises(TypeError):
            Poly2({(1.5, 0): 1})
        assert Poly2.const(True) == ONE
        assert Poly2({(1, 0): True, (0, 1): 3}) == ALPHA + 3 * BETA

    @settings(max_examples=200, deadline=None)
    @given(polys, polys, polys)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)

    @settings(max_examples=100, deadline=None)
    @given(polys, polys)
    def test_div_roundtrip(self, p, q):
        if not q:
            return
        assert p * q == schoolbook_mul(p, q)
        assert long_div(p * q, q) == p

    def test_eval_is_homomorphism(self):
        def naive(p, a, b):
            return sum((c * a**i * b**j for (i, j), c in p.sorted_terms()),
                       Fraction(0))

        rng = random.Random(7)
        points = [(0, 0), (0, Fraction(-2, 3)), (Fraction(-5, 4), 0),
                  (-1, Fraction(-7, 9))]
        for k in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for a, b in [(a, b), points[k % len(points)]]:
                pa, qa = p.eval(a, b), q.eval(a, b)
                assert (p * q).eval(a, b) == pa * qa
                assert (p + q).eval(a, b) == pa + qa
                for r in (p, q, p * q):
                    assert r.eval(a, b) == naive(r, a, b)
        # integer arguments: a^3 - 2b at (-2, 3)
        assert (ALPHA**3 - 2 * BETA).eval(-2, 3) == -14

    def test_json_roundtrip(self):
        rng = random.Random(11)
        for _ in range(25):
            p = rand_poly(rng)
            blob = json.dumps(p.to_obj())
            assert Poly2.from_obj(json.loads(blob)) == p
        obj = (AB * (ALPHA + BETA)).to_obj()
        # graded-lex sorted records with string coefficients
        assert obj == [{"a": 2, "b": 1, "c": "1"}, {"a": 1, "b": 2, "c": "1"}]


def naive_value(p, a, b):
    """sum c a^i b^j over p's terms, in Fraction arithmetic."""
    return sum((c * Fraction(a)**i * Fraction(b)**j
                for (i, j), c in p.sorted_terms()), Fraction(0))


def max_exponents(ps):
    ij = [k for p in ps for k, _ in p.sorted_terms()]
    return (max((i for i, _ in ij), default=0),
            max((j for _, j in ij), default=0))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=1000)


class TestAccumulate:
    """accumulate serves every coefficient ring alike: a new key keeps the
    type of its first coefficient, and a sum that cancels drops its key."""

    @pytest.mark.parametrize("one", [1, Fraction(1, 3), ONE + ALPHA, KAPPA],
                             ids=["int", "Fraction", "Poly2", "KappaElem"])
    def test_sums_keep_the_coefficient_type(self, one):
        t = accumulate({}, [("x", one), ("y", 2 * one), ("x", 3 * one)])
        assert t == {"x": 4 * one, "y": 2 * one}
        assert all(type(c) is type(one) for c in t.values())
        # a sum that cancels deletes its key; a zero never enters
        assert accumulate(t, [("x", -4 * one), ("z", 0 * one)]) is t
        assert t == {"y": 2 * one}
        assert accumulate({}, [("x", one), ("x", -one)]) == {}

    def test_matches_a_sum_per_key(self):
        rng = random.Random(21)
        pairs = [(rng.randint(0, 5), rand_poly(rng)) for _ in range(200)]
        want = {}
        for k, c in pairs:
            want[k] = want.get(k, ZERO) + c
        assert accumulate({}, pairs) == {k: c for k, c in want.items() if c}


class TestSharedDenominator:
    """eval_numerators gives every polynomial's numerator over one
    denominator q^I s^J; poly_sum adds many polynomials at once."""

    POLYS = [ZERO, ONE, Poly2.const(-7), ALPHA, BETA**5 - 3 * AB,
             (ALPHA + BETA - 1)**3, ALPHA**9 + BETA, Poly2.const(12)]
    POINTS = [(0, 0), (0, Fraction(-2, 3)), (Fraction(-5, 4), 0),
              (-1, Fraction(-7, 9)), (Fraction(99991, 7), Fraction(-3, 11)),
              (Fraction(2, 3), Fraction(2, 3)), (4, -2)]

    def check(self, ps, a, b):
        nums, den = eval_numerators(ps, a, b)
        I, J = max_exponents(ps)
        assert den == Fraction(a).denominator**I * Fraction(b).denominator**J
        assert [Fraction(n, den) for n in nums] == [naive_value(p, a, b)
                                                     for p in ps]
        assert all(isinstance(n, int) for n in nums)
        for p in ps:
            assert p.eval(a, b) == naive_value(p, a, b)

    def test_mixed_degrees_against_naive_sum(self):
        for a, b in self.POINTS:
            self.check(self.POLYS, a, b)
            self.check(self.POLYS[:3], a, b)   # constants only: I = J = 0
            self.check([ZERO], a, b)
            self.check([], a, b)

    def test_shared_table_serves_every_polynomial(self):
        # the denominator comes from the largest exponents of all inputs
        nums, den = eval_numerators([ONE, ALPHA**4, BETA**2],
                                    Fraction(1, 3), Fraction(1, 5))
        assert den == 3**4 * 5**2
        assert nums == [den, 5**2, 3**4]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(polys, max_size=6), rationals, rationals)
    def test_random_lists(self, ps, a, b):
        self.check(ps, a, b)
        # the zero polynomial, constants, and negated copies (shared
        # monomials, negative coefficients) beside the drawn polynomials
        self.check([ZERO, *ps, Poly2.const(-4), ONE, *(-p for p in ps)],
                   a, b)

    def test_kappa_parts_share_the_table(self):
        # band_values evaluates both parts of a kappa entry in one call
        x = KappaElem(ALPHA**3 - BETA, AB + 2)
        for a, b in self.POINTS:
            (r, s), den = eval_numerators((x.a, x.b), a, b)
            assert den == Fraction(a).denominator**3 * Fraction(b).denominator
            assert (Fraction(r, den), Fraction(s, den)) == (
                naive_value(x.a, a, b), naive_value(x.b, a, b))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(polys, max_size=8))
    def test_poly_sum_is_the_sum(self, ps):
        assert poly_sum(ps) == sum(ps, ZERO)
        assert poly_sum(ps + [-p for p in ps]) == ZERO
        assert not poly_sum(ps + [-p for p in ps])

    @settings(max_examples=100, deadline=None)
    @example([], [])
    @example([ALPHA, BETA], [BETA])
    @example([ALPHA, BETA], [BETA, -ALPHA])  # cancels to 0
    @given(st.lists(polys, max_size=6), st.lists(polys, max_size=8))
    def test_poly_dot_is_the_sum_of_products(self, xs, ys):
        # the LDU certificate pairs P_n's n + 1 coefficients with a column
        # of N + 1 entries: zip stops at the shorter list
        dot = poly_dot(xs, ys)
        assert dot == poly_sum([x * y for x, y in zip(xs, ys)])
        assert poly_dot(xs, [-y for y in ys]) == -dot
        n = min(len(xs), len(ys))
        assert not poly_dot(xs[:n] * 2, ys[:n] + [-y for y in ys[:n]])
        assert all(dot._t.values())


class TestRatios:
    """ratios(nums, den) is [Fraction(n, den) for n in nums], built without
    Fraction's constructor: the same value, type, fields, hash, text and
    arithmetic for any integer n and positive den."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(), max_size=8), st.integers(min_value=1))
    @example([0, 1, -1, 6, -6, 4, -9], 6)
    @example([10**40, -(10**40) - 1, 0], 10**40)
    @example([0, 5, -5], 1)
    def test_equals_the_constructor(self, nums, den):
        got = ratios(nums, den)
        assert len(got) == len(nums)
        third = Fraction(1, 3)
        for n, f in zip(nums, got):
            want = Fraction(n, den)
            assert type(f) is Fraction
            assert f == want
            assert (f.numerator, f.denominator) == (want.numerator,
                                                    want.denominator)
            assert hash(f) == hash(want)
            assert str(f) == str(want)
            assert repr(f) == repr(want)
            got_sum, want_sum = f * 7 - third, want * 7 - third
            assert type(got_sum) is Fraction
            assert (got_sum.numerator, got_sum.denominator) == (
                want_sum.numerator, want_sum.denominator)

    @pytest.mark.parametrize("den", [0, -1, -6, -(10**30)])
    def test_denominator_must_be_positive(self, den):
        # checked once, before any value: also with no numerators
        for nums in ([], [3], [0, -4]):
            with pytest.raises(ValueError):
                ratios(nums, den)


def terms(p):
    return dict(p.sorted_terms())


@st.composite
def boxed_polys(draw, sparse=False):
    """Polynomials with three quarters or more of the cells of a box
    filled, a nonzero least exponent, and coefficients of up to 3, 40, 70
    or 130 bits of either sign.  The cells are next to each other, 5 to 9
    by 4 to 6 of them, so that the terms of a product of two collide many
    times over; or, if sparse, 2 to 7 apart, 3 to 6 by 2 to 4 of them."""
    i0, j0 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if sparse:
        width, rows = draw(st.integers(3, 6)), draw(st.integers(2, 4))
        step = draw(st.integers(2, 7))
    else:
        width, rows = draw(st.integers(5, 9)), draw(st.integers(4, 6))
        step = 1
    bits = draw(st.sampled_from([3, 40, 70, 130]))
    coeff = st.integers(-(1 << bits), 1 << bits).filter(bool)
    cells = [(i0 + step * i, j0 + step * j)
             for i in range(width) for j in range(rows)]
    holes = draw(st.sets(st.sampled_from(cells), max_size=len(cells) // 4))
    return Poly2({k: draw(coeff) for k in cells if k not in holes})


def wrapped(p, width):
    """p with alpha^width replaced by beta."""
    out = {}
    for (i, j), c in p.sorted_terms():
        k = (i % width, j + i // width)
        out[k] = out.get(k, 0) + c
    return Poly2(out)


class TestLargeOperands:
    """Products and exact quotients of large boxed operands with wide
    coefficients: the dict loops of `*` against the term by term product,
    and long division back to the factor."""

    @settings(max_examples=150, deadline=None)
    @given(boxed_polys(), boxed_polys())
    def test_product_and_quotient_match_the_oracles(self, p, q):
        expect = schoolbook_mul(p, q)
        assert p * q == expect
        assert long_div(expect, q) == p

    @settings(max_examples=60, deadline=None)
    @given(boxed_polys(sparse=True), boxed_polys(sparse=True))
    def test_sparse_boxes_match_the_oracles(self, p, q):
        expect = schoolbook_mul(p, q)
        assert p * q == expect
        assert long_div(expect, q) == p

    @settings(max_examples=100, deadline=None)
    @given(boxed_polys(), boxed_polys(), st.data())
    def test_remainder_proves_inexact_division(self, p, q, data):
        # q has two terms or more, so it divides no monomial r
        a = p * q
        i, j = data.draw(st.sampled_from(sorted(terms(a))))
        c = data.draw(st.integers(-(1 << 80), 1 << 80).filter(bool))
        a = a + Poly2({(i, j): c})
        with pytest.raises(InexactDivision):
            long_div(a, q)

    def test_empty_quotient_box_proves_inexact_division(self):
        a = (ALPHA + BETA) ** 12
        d = ALPHA**3 * (ALPHA + BETA) ** 9
        with pytest.raises(InexactDivision):
            long_div(a, d)
        # every exponent of a is as large as d's least, but a spans fewer
        # powers of alpha than d
        d = (1 + ALPHA) ** 4 * (1 + BETA) ** 3
        a = wrapped(d, 3)
        with pytest.raises(InexactDivision):
            long_div(a, d)

    def test_quotient_outside_its_box_is_refused(self):
        # a is q*d with alpha^8 replaced by beta; q reaches alpha^6, and a
        # quotient of a by d could reach alpha^3 only
        d = (1 + ALPHA) ** 4 * (1 + BETA) ** 3
        q = (1 + BETA) ** 2 * sum((ALPHA**k for k in range(7)), ZERO)
        a = wrapped(q * d, 8)
        assert max(i for i, _ in terms(a)) == 7
        with pytest.raises(InexactDivision):
            long_div(a, d)


class TestKappa:
    def test_kappa_square(self):
        assert KAPPA * KAPPA == KappaElem(KAPPA_SQ)

    def test_mixed_products(self):
        assert KappaElem(ALPHA) * KAPPA == KappaElem(ZERO, ALPHA)
        one = K_ONE
        assert (one + KAPPA) * (one - KAPPA) == KappaElem(ONE - KAPPA_SQ)

    def test_embedding_is_homomorphism(self):
        rng = random.Random(3)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            assert KappaElem(p) * KappaElem(q) == KappaElem(p * q)
            assert KappaElem(p) + KappaElem(q) == KappaElem(p + q)

    @settings(max_examples=100, deadline=None)
    @given(polys, polys, polys, polys, st.booleans(), st.booleans())
    def test_products_equal_the_full_formula(self, a1, b1, a2, b2, k1, k2):
        # kappa-free factors take one Poly2 product; either kind of
        # factor gives a1 a2 + b1 b2 kappa^2 + (a1 b2 + a2 b1) kappa
        b1, b2 = (b1 if k1 else ZERO), (b2 if k2 else ZERO)
        x = KappaElem(a1, b1) * KappaElem(a2, b2)
        assert (x.a, x.b) == (a1 * a2 + b1 * b2 * KAPPA_SQ,
                              a1 * b2 + a2 * b1)
        if not (k1 or k2):
            assert x.to_obj() == {"k0": (a1 * a2).to_obj(), "k1": []}

    def test_no_kappa_power_stored(self):
        x = (KAPPA + KappaElem(ALPHA)) ** 3
        # result is a + b*kappa with polynomial parts only
        assert isinstance(x.a, Poly2) and isinstance(x.b, Poly2)

    def test_json_roundtrip(self):
        x = KappaElem(ALPHA + BETA, AB)
        obj = json.loads(json.dumps(x.to_obj()))
        assert KappaElem(Poly2.from_obj(obj["k0"]),
                         Poly2.from_obj(obj["k1"])) == x


small_polys = st.dictionaries(st.sampled_from([(0, 0), (1, 0)]),
                              st.integers(-2, 2), max_size=2).map(Poly2)
small_values = st.one_of(
    st.integers(-2, 2), small_polys,
    st.builds(KappaElem, small_polys, st.just(ZERO) | small_polys))


class TestHash:
    """An int, a constant Poly2 and a kappa-free KappaElem that are equal
    hash equal, so they are one key of a dict or a set."""

    @example(ONE, 1)
    @example(ZERO, 0)
    @example(KappaElem(ALPHA), ALPHA)
    @example(K_ONE, 1)
    @given(small_values, small_values)
    def test_equal_values_hash_equal(self, x, y):
        if x == y:
            assert hash(x) == hash(y)

    def test_one_key(self):
        assert len({ONE, 1, K_ONE}) == 1
        assert len({KappaElem(ALPHA), ALPHA}) == 1
        assert len({KAPPA, ALPHA, KappaElem(ALPHA, ONE)}) == 3
