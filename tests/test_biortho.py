from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from biops import biortho
from biops.errors import DegenerateParameters
from biops.ring import (Poly2, KappaElem, ZERO, ONE, ALPHA, BETA, AB,
                        KAPPA, K_ZERO, K_ONE)
from biops.tensor import ShockElem, linear_form, normal_order
from biops.expr import parse, eval_expr
from biops.bimoment import build_bimoment, det_closed_form
from biops.biortho import (UniPoly, p_explicit, q_explicit, lambda_n,
                           sqrt_lambda, check_orthogonality, ldu_certificate,
                           _ldu_report, recurrence_check,
                           first_moment_matrices, moment_consistency,
                           require_generic_point, lambda_value, band_values)
from oracles import (E1, TensorElem, as_shock, swap_ab, p_cramer, q_cramer,
                     biorthogonal_pair, det_fraction_free, fraction_free,
                     long_div)


def break_shift_mul(monkeypatch):
    """Make UniPoly.shift_mul add 1 to every product above degree 0."""
    shift_mul = UniPoly.shift_mul

    def wrong(self, c):
        out = shift_mul(self, c)
        if len(self.coeffs) > 1:
            out = out + UniPoly(self.variable, (ONE,))
        return out

    monkeypatch.setattr(UniPoly, "shift_mul", wrong)


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
            assert tuple(swap_ab(c) for c in p.coeffs) == q.coeffs

    def test_monic_degree(self):
        for n in range(8):
            p = p_explicit(n)
            assert p.coeffs[-1] == ONE and len(p.coeffs) == n + 1


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


class TestInto:
    """UniPoly.into is the one way from P_n and Q_n into an algebra."""

    @pytest.mark.parametrize("n", range(13))
    def test_tensor_is_the_word_dict(self, n):
        for poly, g in ((p_explicit(n), 1), (q_explicit(n), 2)):
            words = {(g,) * k: c for k, c in enumerate(poly.coeffs) if c}
            assert poly.into(TensorElem) == TensorElem(words)

    @pytest.mark.parametrize("n", range(13))
    def test_shock_ring(self, n):
        # e1^k and e2^k are normal-ordered already: e2^0 e1^k, e2^k e1^0
        for poly, which, key in ((p_explicit(n), "P", lambda k: (0, k)),
                                 (q_explicit(n), "Q", lambda k: (k, 0))):
            shock = poly.into(ShockElem)
            assert shock == as_shock({key(k): c for k, c
                                      in enumerate(poly.coeffs)})
            assert shock == normal_order(poly.into(TensorElem))
            assert shock == eval_expr(parse(f"{which}({n})"), ShockElem)

    def test_polynomial_in_x_raises(self):
        with pytest.raises(ValueError):
            UniPoly("x", (ONE, ONE)).into(TensorElem)


class TestCramer:
    def test_n0_n1(self):
        assert p_cramer(0) == p_explicit(0)
        assert p_cramer(1) == UniPoly("e1", (-ALPHA, ONE))
        assert q_cramer(1) == UniPoly("e2", (-BETA, ONE))

    @pytest.mark.parametrize("n", range(7))
    def test_matches_explicit(self, n):
        assert p_cramer(n) == p_explicit(n)
        assert q_cramer(n) == q_explicit(n)


class TestElimination:
    """The Bareiss oracle against the pair and the determinants that the
    LDU certificate proves."""

    @pytest.mark.parametrize("N", [0, 12])
    def test_pair_matches_explicit(self, N):
        pivots, ps, qs = biorthogonal_pair(N)
        assert ldu_certificate(N).ok
        assert pivots == [det_closed_form(n) for n in range(N + 1)]
        assert ps == [p_explicit(n) for n in range(N + 1)]
        assert qs == [q_explicit(n) for n in range(N + 1)]

    def test_pair_matches_cramer_oracle(self):
        _, ps, qs = biorthogonal_pair(8)
        assert ps == [p_cramer(n) for n in range(9)]
        assert qs == [q_cramer(n) for n in range(9)]

    def test_pivots_of_B16_and_their_ratios(self):
        sign, rows = fraction_free(build_bimoment(16))
        assert sign == 1
        pivots = [rows[k][k] for k in range(17)]
        assert ldu_certificate(16).ok
        assert pivots == [prod(lambda_n(k) for k in range(n + 1))
                          for n in range(17)]
        assert pivots == [det_closed_form(k) for k in range(17)]
        assert pivots[0] == lambda_n(0)
        for n in range(1, 17):
            assert long_div(pivots[n], pivots[n - 1]) == lambda_n(n)


class TestLDUCertificate:
    N = 6

    def inputs(self):
        return ([list(row) for row in build_bimoment(self.N)],
                [p_explicit(n) for n in range(self.N + 1)],
                [q_explicit(n) for n in range(self.N + 1)])

    @pytest.mark.parametrize("N", [0, 1, 6, 18])
    def test_passes_with_one_record_per_entry(self, N):
        rep = ldu_certificate(N)
        assert rep.ok
        # P_n and Q_n monic, every entry of P B Q^T, and
        # Lambda_0 ... Lambda_n against the closed form, for every n
        assert rep.checked == 3 * (N + 1) + (N + 1) ** 2

    @pytest.mark.parametrize("wrong", [0, 3, 6])
    def test_wrong_closed_form_fails_under_its_label(self, monkeypatch,
                                                     wrong):
        def off_by_one(n):
            return det_closed_form(n) + (n == wrong)

        monkeypatch.setattr(biortho, "det_closed_form", off_by_one)
        rep = ldu_certificate(6)
        assert rep.failures == [
            f"Lambda_0...Lambda_{wrong} = det_closed_form({wrong})"]
        assert rep.checked == 3 * 7 + 7 ** 2

    def test_one_closed_form_per_order(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return det_closed_form(n)

        monkeypatch.setattr(biortho, "det_closed_form", counted)
        assert ldu_certificate(self.N).ok
        assert calls == list(range(self.N + 1))

    def test_every_changed_entry_of_B_fails(self):
        for i in range(self.N + 1):
            for j in range(self.N + 1):
                B, ps, qs = self.inputs()
                B[i][j] = B[i][j] + 1
                rep = _ldu_report(B, ps, qs)
                # entry (n, m) moves by P_n[i] Q_m[j], and P_i[i] = Q_j[j] = 1
                assert f"(P B Q^T)[{i}][{j}]" in rep.failures

    def test_non_monic_polynomial_fails(self):
        B, ps, qs = self.inputs()
        ps[3] = ps[3] * 2
        assert "P3 monic of degree 3" in _ldu_report(B, ps, qs).failures
        B, ps, qs = self.inputs()
        qs[2] = q_explicit(3)
        assert "Q2 monic of degree 2" in _ldu_report(B, ps, qs).failures

    def test_nonzero_off_diagonal_entry_fails(self):
        # Q_2 + Q_1 is monic of degree 2, and L(P_1 (Q_2 + Q_1)) = Lambda_1
        B, ps, qs = self.inputs()
        qs[2] = qs[2] + qs[1]
        assert _ldu_report(B, ps, qs).failures == ["(P B Q^T)[1][2]"]
        B, ps, qs = self.inputs()
        ps[4] = ps[4] + ps[0] * AB
        assert _ldu_report(B, ps, qs).failures == ["(P B Q^T)[4][0]"]


class TestLambda:
    def test_values(self):
        assert lambda_n(0) == ONE
        assert lambda_n(1) == AB * (ALPHA + BETA - 1)
        assert lambda_n(2) == AB**3 * (ALPHA + BETA - 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_determinant_ratio(self, n):
        dn = det_fraction_free(build_bimoment(n))
        dn1 = det_fraction_free(build_bimoment(n - 1))
        assert dn == lambda_n(n) * dn1

    def test_sqrt_lambda_squares(self):
        for n in range(6):
            s = sqrt_lambda(n)
            assert s * s == KappaElem(lambda_n(n))


class TestOrthogonality:
    def test_report(self):
        rep = check_orthogonality(8)
        assert rep.ok and rep.checked == 81

    @pytest.mark.parametrize("wrong", [0, 3, 6])
    def test_wrong_lambda_fails_under_its_label(self, monkeypatch, wrong):
        right = biortho.lambda_n
        monkeypatch.setattr(biortho, "lambda_n",
                            lambda n: right(n) + int(n == wrong))
        rep = check_orthogonality(6)
        assert rep.failures == [f"L(P{wrong} Q{wrong}) != expected"]
        assert rep.checked == 49

    def test_individual_values(self):
        def pq(n, m):
            return linear_form(p_explicit(n).into(TensorElem)
                               * q_explicit(m).into(TensorElem))
        assert pq(0, 0) == ONE
        assert pq(1, 0) == ZERO
        assert pq(2, 2) == AB**3 * (ALPHA + BETA - 1)

    def test_recurrences(self):
        rep = recurrence_check(10)
        assert rep.ok

    def test_recurrence_check_is_independent_of_shift_mul(self, monkeypatch):
        # p_explicit builds P_n with shift_mul; the check must not, or a
        # shift_mul that goes wrong above degree 0 would pass
        break_shift_mul(monkeypatch)
        rep = recurrence_check(4)
        assert not rep.ok
        assert rep.checked == 8

    def test_recurrence_name_states_the_largest_n_checked(self, monkeypatch):
        # every P_n and Q_n with n >= 2 fails under a wrong shift_mul, so
        # the failure labels name every n checked
        break_shift_mul(monkeypatch)
        for N in (2, 4, 7):
            rep = recurrence_check(N)
            assert rep.failures == [f"{x}{n} recurrence"
                                    for n in range(2, N + 1) for x in "PQ"]
            assert rep.name == f"first-order recurrences n <= {N}"


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
                        assert not band.entry(i, j).b

    def test_consistency_report(self):
        rep = moment_consistency(6)
        assert rep.ok
        # four bands at 6 x 6 entries, and 5 expansions each of P_n e1
        # and Q_m e2
        assert rep.checked == 4 * 36 + 2 * 5

    # (band index in first_moment_matrices, its row, entry, failure)
    @pytest.mark.parametrize("band, row, k, label", [
        (0, "diag", 2, "X[2][2]"),
        (1, "sub", 3, "Y[4][3]"),
        (2, "sup", 1, "P1*e1 expansion"),
        (3, "sub", 2, "Q2*e2 expansion"),
        (4, "sup", 0, "Xhat[0][1]"),
        (5, "diag", 5, "Yhat[5][5]"),
    ])
    def test_changed_band_entry_fails_under_its_label(self, monkeypatch,
                                                      band, row, k, label):
        right = biortho.first_moment_matrices

        def changed(dim):
            bands = right(dim)
            values = list(getattr(bands[band], row))
            values[k] = values[k] + 1
            setattr(bands[band], row, tuple(values))
            return bands

        monkeypatch.setattr(biortho, "first_moment_matrices", changed)
        assert moment_consistency(6).failures == [label]

    def test_simple_moments(self):
        assert linear_form(p_explicit(0).into(TensorElem) * E1
                           * q_explicit(0).into(TensorElem)) == ALPHA
        assert linear_form(p_explicit(1).into(TensorElem) * E1
                           * q_explicit(2).into(TensorElem)) == lambda_n(2)


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

    def test_band_values_equal_entrywise_evaluation(self):
        def parts(row, a, b):
            return [(e.a.eval(a, b), e.b.eval(a, b)) for e in row]

        points = [(Fraction(1, 2), Fraction(1, 3)),
                  (Fraction(3), Fraction(5, 2)),
                  (Fraction(-2, 3), Fraction(5, 7)),
                  (Fraction(99991, 7), Fraction(7, 99991))]
        for band in first_moment_matrices(8):
            for a, b in points:
                vals = band_values(band, a, b)
                assert list(vals.items()) == [
                    ("diag", parts(band.diag, a, b)),
                    ("super", parts(band.sup, a, b)),
                    ("sub", parts(band.sub, a, b))], (band.kind, a, b)
