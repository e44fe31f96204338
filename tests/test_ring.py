import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biops.errors import InexactDivision
from biops.ring import (Poly2, KappaElem, ZERO, ONE, ALPHA, BETA, AB,
                        KAPPA, KAPPA_SQ, K_ONE)


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
        assert (AB * (ALPHA + BETA - 1)).exact_div(AB) == ALPHA + BETA - 1
        # det B^(1) / det B^(0) = Lambda_1
        assert KAPPA_SQ.exact_div(ONE) == KAPPA_SQ
        sq = ALPHA**2 + 2 * AB + BETA**2
        assert sq.exact_div(ALPHA + BETA) == ALPHA + BETA

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivision):
            (ALPHA + 1).exact_div(BETA)
        with pytest.raises(InexactDivision):
            Poly2.const(3).exact_div(Poly2.const(2))
        with pytest.raises(ZeroDivisionError):
            ALPHA.exact_div(ZERO)

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
            results.append((p * q).exact_div(q))
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
        assert (p * q).exact_div(q) == p

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

    def test_no_kappa_power_stored(self):
        x = (KAPPA + KappaElem(ALPHA)) ** 3
        # result is a + b*kappa with polynomial parts only
        assert isinstance(x.a, Poly2) and isinstance(x.b, Poly2)

    def test_json_roundtrip(self):
        x = KappaElem(ALPHA + BETA, AB)
        obj = json.loads(json.dumps(x.to_obj()))
        assert KappaElem(Poly2.from_obj(obj["k0"]),
                         Poly2.from_obj(obj["k1"])) == x
