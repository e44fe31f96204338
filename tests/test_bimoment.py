import random
from fractions import Fraction

import pytest

from biops.ring import Poly2, ZERO, ONE, ALPHA, BETA, AB
from biops.tensor import TensorElem, linear_form
from biops.bimoment import (build_bimoment, det_fraction_free,
                            det_closed_form, krattenthaler_matrix,
                            krattenthaler_det_formula)


class TestBuild:
    def test_boundaries(self):
        B = build_bimoment(4)
        for i in range(5):
            assert B.entry(i, 0) == ALPHA**i
            assert B.entry(0, i) == BETA**i

    def test_displayed_entries(self):
        B = build_bimoment(2)
        assert B.entry(1, 1) == AB * (ALPHA + BETA)
        assert B.entry(2, 1) == ALPHA**2 * BETA * (ALPHA + AB + BETA**2)
        assert B.entry(2, 2) == ALPHA**2 * BETA**2 * (
            ALPHA**2 + 2 * ALPHA**2 * BETA + 2 * ALPHA * BETA**2 + BETA**2)

    def test_pascal_recurrence(self):
        B = build_bimoment(5)
        for i in range(1, 6):
            for j in range(1, 6):
                assert B.entry(i, j) == AB * (B.entry(i, j - 1) + B.entry(i - 1, j))

    def test_matches_linear_form(self):
        B = build_bimoment(8)
        for i in range(9):
            for j in range(9):
                w = (1,) * i + (2,) * j
                assert B.entry(i, j) == linear_form(TensorElem.from_word(w))

    def test_swap_symmetry(self):
        B = build_bimoment(6)
        for i in range(7):
            for j in range(7):
                swapped = B.entry(j, i).subs(BETA, ALPHA)
                assert B.entry(i, j) == swapped


class TestDeterminant:
    def test_small_closed_forms(self):
        assert det_closed_form(0) == ONE
        assert det_closed_form(1) == AB * (ALPHA + BETA - 1)
        assert det_closed_form(3) == AB**9 * (ALPHA + BETA - 1) ** 3

    @pytest.mark.parametrize("n", range(9))
    def test_fraction_free_matches_closed_form(self, n):
        assert det_fraction_free(build_bimoment(n).entries) == det_closed_form(n)

    def test_integer_matrices(self):
        m = [[Poly2.const(c) for c in row]
             for row in [[2, 0, 1], [1, 3, 2], [0, 1, 4]]]
        assert det_fraction_free(m) == Poly2.const(21)

    def test_row_swap_path(self):
        m = [[ZERO, ONE], [ONE, ZERO]]
        assert det_fraction_free(m) == Poly2.const(-1)
        assert det_fraction_free([[ZERO, ONE], [ZERO, ONE]]) == ZERO


class TestKrattenthaler:
    def test_n1(self):
        A = krattenthaler_matrix(1, ZERO, ONE, ONE)
        assert A == [[ONE]]
        assert det_fraction_free(A) == ONE

    def test_x0_unit_params(self):
        # x=0, rho=sigma=1 gives the Pascal matrix, with determinant 1
        A = krattenthaler_matrix(3, ZERO, ONE, ONE)
        assert det_fraction_free(A) == ONE
        assert krattenthaler_det_formula(3, ZERO, ONE, ONE) == ONE

    def test_formula_random_integer_params(self):
        rng = random.Random(21)
        for n in range(1, 7):
            for _ in range(3):
                x = Poly2.const(rng.randint(0, 3))
                rho = Poly2.const(rng.randint(1, 4))
                sigma = Poly2.const(rng.randint(1, 4))
                A = krattenthaler_matrix(n, x, rho, sigma)
                assert det_fraction_free(A) \
                    == krattenthaler_det_formula(n, x, rho, sigma)

    def test_bimoment_scaling_reduction_at_rational_point(self):
        # dividing row i of B by (ab)^i and column j by (ab)^j gives the
        # Krattenthaler matrix with x=0, rho=1/beta, sigma=1/alpha; the
        # scaled entries leave Z[a,b], so check at a rational point
        a, b = Fraction(1, 2), Fraction(1, 3)
        ab = a * b
        n = 5
        B = build_bimoment(n - 1)
        scaled = [[B.entry(i, j).eval(a, b) / ab**i / ab**j
                   for j in range(n)] for i in range(n)]
        A = krattenthaler_matrix(n, Fraction(0), 1 / b, 1 / a)
        assert scaled == A
        want = ((a + b - 1) / ab) ** (n - 1)
        assert krattenthaler_det_formula(n, Fraction(0), 1 / b, 1 / a) == want
