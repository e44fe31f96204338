from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from biops.errors import DegenerateParameters
from biops.ring import (Poly2, KappaElem, ZERO, ONE, ALPHA, BETA, AB,
                        KAPPA, K_ZERO, K_ONE)
from biops.tensor import E1, E2, linear_form
from biops.bimoment import build_bimoment, det_fraction_free
from biops.biortho import (UniPoly, p_explicit, q_explicit, p_cramer,
                           q_cramer, lambda_n, sqrt_lambda,
                           check_orthogonality, recurrence_check,
                           first_moment_matrices, moment_consistency,
                           require_generic_point, lambda_value, band_values)


class TestExplicit:
    def test_p_small(self):
        assert p_explicit(0) == UniPoly("e1", (ONE,))
        assert p_explicit(1) == UniPoly("e1", (-ALPHA, ONE))
        assert p_explicit(2) == UniPoly("e1", (ALPHA**2 * BETA,
                                               -(ALPHA + AB), ONE))

    def test_q_small(self):
        assert q_explicit(1) == UniPoly("e2", (-BETA, ONE))
        assert q_explicit(2) == UniPoly("e2", (ALPHA * BETA**2,
                                               -(BETA + AB), ONE))

    def test_q_is_p_with_roles_swapped(self):
        for n in range(6):
            p = p_explicit(n)
            q = q_explicit(n)
            assert tuple(c.subs(BETA, ALPHA) for c in p.coeffs) == q.coeffs

    def test_monic_degree(self):
        for n in range(8):
            p = p_explicit(n)
            assert p.is_monic() and p.degree == n


def _poly2s():
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(Poly2)


COEFFS = {
    "Poly2": _poly2s(),
    "KappaElem": st.builds(KappaElem, _poly2s(), _poly2s()),
}


def _unipolys(coeffs):
    return st.lists(coeffs, max_size=4).map(
        lambda cs: UniPoly("x", tuple(cs)))


def _no_trailing_zero(p):
    return not p.coeffs or bool(p.coeffs[-1])


@pytest.mark.parametrize("ring", sorted(COEFFS))
class TestUniPolyArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_ring_laws(self, ring, data):
        p, q, r = (data.draw(_unipolys(COEFFS[ring])) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) - q == p
        assert p - p == UniPoly("x", ())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_no_trailing_zero(self, ring, data):
        p, q = (data.draw(_unipolys(COEFFS[ring])) for _ in range(2))
        c = data.draw(COEFFS[ring])
        for r in (p, p + q, p + (q - p), -p, p * q, p * c, c * p,
                  p * (q - q)):
            assert _no_trailing_zero(r)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_shift_mul_is_product(self, ring, data):
        p = data.draw(_unipolys(COEFFS[ring]))
        c = data.draw(COEFFS[ring])
        assert p.shift_mul(c) == p * UniPoly("x", (-c, ONE))


class TestUniPoly:
    def test_variables(self):
        with pytest.raises(ValueError):
            UniPoly("y", (ONE,))
        with pytest.raises(ValueError):
            UniPoly("e1", (ONE,)) + UniPoly("e2", (ONE,))

    def test_trailing_zeros_dropped(self):
        assert UniPoly("x", (ONE, ZERO, ZERO)).coeffs == (ONE,)
        assert UniPoly("x", (K_ZERO,)).coeffs == ()
        assert not UniPoly("e1", ())


class TestCramer:
    def test_n0_n1(self):
        assert p_cramer(0) == p_explicit(0)
        assert p_cramer(1) == UniPoly("e1", (-ALPHA, ONE))
        assert q_cramer(1) == UniPoly("e2", (-BETA, ONE))

    @pytest.mark.parametrize("n", range(7))
    def test_matches_explicit(self, n):
        assert p_cramer(n) == p_explicit(n)
        assert q_cramer(n) == q_explicit(n)


class TestLambda:
    def test_values(self):
        assert lambda_n(0) == ONE
        assert lambda_n(1) == AB * (ALPHA + BETA - 1)
        assert lambda_n(2) == AB**3 * (ALPHA + BETA - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_determinant_ratio(self, n):
        dn = det_fraction_free(build_bimoment(n).entries)
        dn1 = det_fraction_free(build_bimoment(n - 1).entries)
        assert dn == lambda_n(n) * dn1

    def test_sqrt_lambda_squares(self):
        for n in range(6):
            s = sqrt_lambda(n)
            assert s * s == KappaElem(lambda_n(n))


class TestOrthogonality:
    def test_report(self):
        rep = check_orthogonality(8)
        assert rep.ok and rep.checked == 81

    def test_individual_values(self):
        p0q0 = linear_form(p_explicit(0).to_tensor() * q_explicit(0).to_tensor())
        assert p0q0 == ONE
        p1q0 = linear_form(p_explicit(1).to_tensor() * q_explicit(0).to_tensor())
        assert p1q0 == ZERO
        p2q2 = linear_form(p_explicit(2).to_tensor() * q_explicit(2).to_tensor())
        assert p2q2 == AB**3 * (ALPHA + BETA - 1)

    def test_recurrences(self):
        rep = recurrence_check(10)
        assert rep.ok


class TestMomentBands:
    def test_band_structure(self):
        X, Y, Xbar, Ybar, Xhat, Yhat = first_moment_matrices(6)
        assert X.entry(0, 0) == KappaElem(ALPHA)
        assert X.entry(1, 2) == KappaElem(lambda_n(2))
        assert all(e == K_ZERO for e in X.sub)
        assert Y.entry(0, 0) == KappaElem(BETA)
        assert all(e == K_ZERO for e in Y.sup)

    def test_bar_bands(self):
        _, _, Xbar, Ybar, _, _ = first_moment_matrices(5)
        assert [e for e in Xbar.diag] \
            == [KappaElem(ALPHA)] + [KappaElem(AB)] * 4
        assert all(e == K_ONE for e in Xbar.sup)
        assert all(e == K_ONE for e in Ybar.sub)

    def test_hat_kappa_positions(self):
        _, _, _, _, Xhat, Yhat = first_moment_matrices(6)
        assert Xhat.entry(0, 1) == KAPPA
        assert Xhat.entry(1, 2) == KappaElem(AB)
        assert Yhat.entry(1, 0) == KAPPA
        # kappa appears nowhere else
        for band in (Xhat, Yhat):
            for i in range(6):
                for j in range(6):
                    if (i, j) not in ((0, 1), (1, 0)):
                        assert band.entry(i, j).is_kappa_free()

    def test_consistency_report(self):
        rep = moment_consistency(6)
        assert rep.ok

    def test_simple_moments(self):
        assert linear_form(p_explicit(0).to_tensor() * E1
                           * q_explicit(0).to_tensor()) == ALPHA
        assert linear_form(p_explicit(1).to_tensor() * E1
                           * q_explicit(2).to_tensor()) == lambda_n(2)


class TestNumericGuards:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParameters):
            require_generic_point(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(DegenerateParameters):
            require_generic_point(0, Fraction(1, 3))
        with pytest.raises(DegenerateParameters):
            lambda_value(2, Fraction(2, 3), Fraction(1, 3))

    def test_generic_accepted(self):
        assert lambda_value(1, Fraction(1, 2), Fraction(1, 3)) \
            == Fraction(1, 6) * Fraction(-1, 6)
        _, _, _, _, Xhat, _ = first_moment_matrices(4)
        vals = band_values(Xhat, Fraction(1, 2), Fraction(1, 3))
        assert vals["diag"][0] == (Fraction(1, 2), 0)
        # the kappa entry is the formal pair (0, 1)
        assert vals["super"][0] == (0, 1)
