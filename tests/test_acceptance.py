"""Acceptance suite: twelve exact criteria, one PASS/FAIL line each.

Every check is symbolic or exact-rational; the tolerance everywhere is 0.
Run with `pytest -s tests/test_acceptance.py` to see the status lines.
"""

import random
from fractions import Fraction

from biops.ring import Poly2, ZERO, ALPHA, BETA, AB, KappaElem, K_ZERO
from biops.tensor import linear_form
from biops.bimoment import build_bimoment, det_closed_form
from biops.biortho import (p_explicit, q_explicit, lambda_n, sqrt_lambda,
                           first_moment_matrices, require_generic_point,
                           lambda_value)
from biops.expr import parse, eval_expr
from biops.matrep import (represent, second_moment, second_moment_product,
                          cheb_like)
from biops.asep import stationary_mpa, all_states
from biops.checks import random_tensor
from biops.errors import DegenerateParameters
from markov_oracle import build_generator, stationary_oracle
from oracles import (E1, E2, TensorElem, eval_L_matrix, max_word_len, pq_rep,
                     p_cramer, q_cramer, det_fraction_free,
                     principal_minor_polys)


def report(num, title, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {title}")
    assert ok, f"criterion {num}: {title}"


def test_criterion_1_determinant_identity():
    ok = all(det_fraction_free(build_bimoment(n)) == det_closed_form(n)
             for n in range(9))
    report(1, "bi-moment determinant identity n <= 8", ok)


def test_criterion_2_biorthogonality():
    ok = True
    for n in range(9):
        pt = p_explicit(n).into(TensorElem)
        for m in range(9):
            val = linear_form(pt * q_explicit(m).into(TensorElem))
            want = lambda_n(n) if n == m else ZERO
            ok = ok and val == want
    report(2, "L(P_n Q_m) = Lambda_n delta_nm for n,m <= 8", ok)


def test_criterion_3_construction_uniqueness():
    ok = all(p_cramer(n) == p_explicit(n) and q_cramer(n) == q_explicit(n)
             for n in range(7))
    report(3, "Cramer constructions equal product forms n <= 6", ok)


def test_criterion_4_first_order_recurrences():
    ok = True
    for n in range(10):
        p, pn = p_explicit(n), p_explicit(n + 1)
        q, qn = q_explicit(n), q_explicit(n + 1)
        ok = ok and pn == p.shift_mul(AB if n else ALPHA)
        ok = ok and qn == q.shift_mul(AB if n else BETA)
    report(4, "first-order recurrences exact n <= 10", ok)


def test_criterion_5_moment_matrices():
    dim = 7
    ok = True
    X, Y, Xbar, Ybar, Xhat, Yhat = first_moment_matrices(dim)
    slam = [sqrt_lambda(n) for n in range(dim)]
    for n in range(dim):
        pt = p_explicit(n).into(TensorElem)
        for m in range(dim):
            qt = q_explicit(m).into(TensorElem)
            xv = KappaElem(linear_form(pt * E1 * qt))
            yv = KappaElem(linear_form(pt * E2 * qt))
            ok = ok and xv == X.entry(n, m) and yv == Y.entry(n, m)
            ok = ok and Xhat.entry(n, m) * slam[n] * slam[m] == xv
            ok = ok and Yhat.entry(n, m) * slam[n] * slam[m] == yv
    ok = ok and not Xhat.entry(0, 1).a and Xhat.entry(0, 1).b
    ok = ok and Yhat.entry(1, 0) == Xhat.entry(0, 1)
    report(5, "first-moment bands match direct L values n,m <= 6", ok)


def test_criterion_6_diffusion_algebra():
    r = represent(parse("e1*e2 - a*b*(e1 + e2)"), 12)
    ok = r.valid_block >= 10
    for i in range(10):
        for j in range(10):
            ok = ok and not r.entry(i, j)
    report(6, "Xhat Yhat - ab(Xhat + Yhat) vanishes on 10x10 block", ok)


def test_criterion_7_two_path_linear_form():
    rng = random.Random(2026)
    ok = all(eval_L_matrix(x) == linear_form(x)
             for x in (random_tensor(rng, max_len=8) for _ in range(200)))
    report(7, "two-path L agrees on 200 random elements", ok)


def test_criterion_8_matrix_moments_and_extraction():
    ok = True
    for src in ("1", "e1", "e2", "e1*e2", "e2*e1"):
        g = eval_expr(parse(src), TensorElem)
        G = represent(parse(src), 5 + max_word_len(g) + 2)
        for n in range(6):
            pt = p_explicit(n).into(TensorElem)
            for m in range(6):
                lhs = KappaElem(linear_form(
                    pt * g * q_explicit(m).into(TensorElem)))
                rhs = G.entry(n, m) * sqrt_lambda(n) * sqrt_lambda(m)
                ok = ok and lhs == rhs
    rng = random.Random(8)
    dim = 8
    for _ in range(20):
        n, m = rng.randint(0, 5), rng.randint(0, 5)
        A = [[KappaElem(Poly2.const(rng.randint(-3, 3))) if abs(i - j) <= 1
              else K_ZERO for j in range(dim)] for i in range(dim)]
        P, Q = pq_rep(n, "P", dim), pq_rep(m, "Q", dim)
        got = K_ZERO
        for k in range(dim):
            for l in range(dim):
                got = got + P.raw(0, k) * A[k][l] * Q.raw(l, 0)
        ok = ok and got == A[n][m]
    report(8, "matrix-moment theorem and extraction identity n,m <= 5", ok)


def test_criterion_9_second_moment():
    ok = True
    for dim in (4, 6, 10):
        w = second_moment(dim)
        prod = second_moment_product(dim)
        for i in range(prod.valid_block):
            for j in range(prod.valid_block):
                ok = ok and w.entry(i, j) == prod.entry(i, j)
        for i in range(dim):
            for j in range(dim):
                ok = ok and w.raw(i, j) == w.raw(j, i)
        for n in range(prod.valid_block):
            pt = p_explicit(n).into(TensorElem)
            for m in range(prod.valid_block):
                direct = KappaElem(linear_form(pt * E1 * E2 *
                                               q_explicit(m).into(TensorElem)))
                ok = ok and (w.entry(n, m) * sqrt_lambda(n) * sqrt_lambda(m)
                             == direct)
    report(9, "second moment W: closed form, product, symmetry, dim <= 10", ok)


POINTS = ((Fraction(1, 2), Fraction(1, 3)),
          (Fraction(2, 3), Fraction(1, 4)),
          (Fraction(1, 2), Fraction(1, 2)))


def test_criterion_10_stationary_state():
    ok = True
    for L in range(1, 8):
        for a, b in POINTS:
            table = stationary_mpa(L, a, b)
            pi = stationary_oracle(build_generator(L, a, b))
            for tau in all_states(L):
                ok = ok and table.probabilities[tau] == pi[tau]
    report(10, "matrix-product = Markov stationary state, L <= 7, 3 points", ok)


def test_criterion_11_degenerate_handling():
    a, b = POINTS[2]
    raised = False
    try:
        require_generic_point(a, b)
    except DegenerateParameters:
        raised = True
    try:
        lambda_value(1, a, b)
        raised = False
    except DegenerateParameters:
        pass
    table = stationary_mpa(3, a, b)
    pi = stationary_oracle(build_generator(3, a, b))
    still_works = all(table.probabilities[tau] == pi[tau]
                      for tau in all_states(3))
    report(11, "alpha+beta=1 raises DegenerateParameters, stationary still exact",
           raised and still_works)


def test_criterion_12_chebyshev_reading():
    oracle = principal_minor_polys(6)
    corrected = cheb_like(6, "corrected")
    printed = cheb_like(6, "printed")
    match = all(list(corrected[n]) == list(oracle[n]) for n in range(7))
    diverges = any(list(printed[n]) != list(oracle[n]) for n in range(7))
    report(12, "recurrence reading 'corrected' matches minor oracle, "
               "'printed' does not", match and diverges)
