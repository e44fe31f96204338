import random
from fractions import Fraction
from math import prod

import pytest

from biops.ring import Poly2, ZERO, ONE, ALPHA, BETA, AB
from biops.tensor import TensorElem, linear_form
from biops.bimoment import build_bimoment, det_closed_form
from biops.biortho import lambda_n, ldu_certificate
from oracles import (krattenthaler_matrix, krattenthaler_det_formula, swap_ab,
                     det_fraction_free, fraction_free)


class TestBuild:
    def test_boundaries(self):
        B = build_bimoment(4)
        for i in range(5):
            assert B[i][0] == ALPHA**i
            assert B[0][i] == BETA**i

    def test_displayed_entries(self):
        B = build_bimoment(2)
        assert B[1][1] == AB * (ALPHA + BETA)
        assert B[2][1] == ALPHA**2 * BETA * (ALPHA + AB + BETA**2)
        assert B[2][2] == ALPHA**2 * BETA**2 * (
            ALPHA**2 + 2 * ALPHA**2 * BETA + 2 * ALPHA * BETA**2 + BETA**2)

    def test_pascal_recurrence(self):
        B = build_bimoment(5)
        for i in range(1, 6):
            for j in range(1, 6):
                assert B[i][j] == AB * (B[i][j - 1] + B[i - 1][j])

    def test_matches_linear_form(self):
        B = build_bimoment(8)
        for i in range(9):
            for j in range(9):
                w = (1,) * i + (2,) * j
                assert B[i][j] == linear_form(TensorElem({w: ONE}))

    def test_swap_symmetry(self):
        B = build_bimoment(6)
        for i in range(7):
            for j in range(7):
                swapped = swap_ab(B[j][i])
                assert B[i][j] == swapped


class TestDeterminant:
    def test_small_closed_forms(self):
        assert det_closed_form(0) == ONE
        assert det_closed_form(1) == AB * (ALPHA + BETA - 1)
        assert det_closed_form(3) == AB**9 * (ALPHA + BETA - 1) ** 3

    def test_trinomial_coefficients_equal_the_power(self):
        # the product of Poly2 powers that defines the closed form is the
        # oracle
        for n in range(25):
            power = AB ** (n * n) * (ALPHA + BETA - 1) ** n
            assert det_closed_form(n) == power
        with pytest.raises(ValueError):
            det_closed_form(-1)

    @pytest.mark.parametrize("n", range(13))
    def test_fraction_free_matches_closed_form(self, n):
        # the Bareiss oracle against the product that the LDU certificate
        # proves to be det B_n
        det = det_fraction_free(build_bimoment(n))
        assert ldu_certificate(n).ok
        assert det == prod(lambda_n(k) for k in range(n + 1))
        assert det == det_closed_form(n)

    def test_integer_matrices(self):
        m = [[Poly2.const(c) for c in row]
             for row in [[2, 0, 1], [1, 3, 2], [0, 1, 4]]]
        assert det_fraction_free(m) == Poly2.const(21)

    def test_row_swap_path(self):
        m = [[ZERO, ONE], [ONE, ZERO]]
        assert det_fraction_free(m) == Poly2.const(-1)
        assert det_fraction_free([[ZERO, ONE], [ZERO, ONE]]) == ZERO
        # the same swap and the same missing pivot on rectangular grids
        swapped = [[ONE, ZERO, ZERO, ONE], [ZERO, ONE, ONE, ZERO]]
        assert fraction_free(swapped[::-1]) == (-1, swapped)
        assert fraction_free([[ZERO, ONE, ONE], [ZERO, ONE, ZERO]])[0] == 0

    def test_rectangular_grid(self):
        # [A | I]: row k of the reduced identity block is the leading minor
        # of A of order k times row k of the inverse of A's unit lower
        # triangular factor; the last pivot is det A
        c = Poly2.const
        m = [[c(x) for x in row] for row in
             [[2, 0, 1, 1, 0, 0], [1, 3, 2, 0, 1, 0], [0, 1, 4, 0, 0, 1]]]
        assert fraction_free(m) == (1, [[c(x) for x in row] for row in
                                        [[2, 0, 1, 1, 0, 0],
                                         [0, 6, 3, -1, 2, 0],
                                         [0, 0, 21, 1, -2, 6]]])
        assert det_fraction_free([row[:3] for row in m]) == c(21)
        for bad in ([[ONE], [ONE]], [[ONE, ONE], [ONE]]):
            with pytest.raises(ValueError):
                fraction_free(bad)
        with pytest.raises(ValueError):
            det_fraction_free([[ONE, ONE]])


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
        scaled = [[B[i][j].eval(a, b) / ab**i / ab**j
                   for j in range(n)] for i in range(n)]
        A = krattenthaler_matrix(n, Fraction(0), 1 / b, 1 / a)
        assert scaled == A
        want = ((a + b - 1) / ab) ** (n - 1)
        assert krattenthaler_det_formula(n, Fraction(0), 1 / b, 1 / a) == want
