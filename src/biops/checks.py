"""Aggregated verification suites behind the `check` CLI subcommand; the
two-path L suite tests normal ordering against the Corteel-Williams fill."""

import random
from fractions import Fraction

from .report import CheckReport
from .ring import Poly2, ONE, ALPHA, BETA, AB, poly_dot
from .tensor import TensorElem, linear_form, normal_order, shock_mul
from .biortho import (check_orthogonality, recurrence_check, ldu_certificate,
                      moment_consistency)
from .matrep import (Picture, second_moment, second_moment_product,
                     cheb_reading_report, similarity_check)
from .asep import compare, stationary_numerators, state_index


def random_poly(rng):
    """Up to 4 terms of degree <= 2 in each variable, coefficients in
    [-4, 4]."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 2), rng.randint(0, 2))
        terms[key] = rng.randint(-4, 4)
    return Poly2(terms)


def random_word(rng, max_len):
    return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len)))


def random_tensor(rng, max_len):
    """A sum of 1 to 3 random words of length <= max_len."""
    t = TensorElem()
    for _ in range(rng.randint(1, 3)):
        t = t + TensorElem({random_word(rng, max_len): random_poly(rng)})
    return t


def check_two_path_L(seed=0):
    """L of 50 random elements by normal ordering, and as the sum of c L(w)
    over their terms c w, each L(w) read off the Corteel-Williams fill of
    its length: site i of w's state is occupied where letter i is e1."""
    rng = random.Random(seed)
    fills = [[ONE]] + [stationary_numerators(k, ALPHA, BETA, AB)
                       for k in range(1, 9)]
    rep = CheckReport("two-path L on 50 random elements")
    for k in range(50):
        x = random_tensor(rng, max_len=8)
        terms = x.items()
        filled = poly_dot([c for _, c in terms], [
            fills[len(w)][state_index([2 - g for g in w])] for w, _ in terms])
        rep.record(filled == linear_form(x), f"sample {k}")
    return rep


def check_shock_homomorphism(seed=1):
    rng = random.Random(seed)
    rep = CheckReport("normal-order homomorphism on 50 random pairs")
    for k in range(50):
        x = random_tensor(rng, max_len=6)
        y = random_tensor(rng, max_len=6)
        rep.record(normal_order(x * y)
                   == shock_mul(normal_order(x), normal_order(y)),
                   f"pair {k}")
    return rep


def check_diffusion_relation():
    """XY = ab(X + Y) on the exact block of the hat picture at dim 12, with
    column 0 of X equal to alpha e_0 and row 0 of Y to beta e_0^T.  The
    bands are constant from index 1 on, so the block covers every entry of
    the relation.  Entry (0,0) of a word's matrix then obeys
    L(e2 X) = beta L(X), L(X e1) = alpha L(X) and the e1 e2 rule, the three
    equations that define L: by induction on the words it is L."""
    rep = CheckReport("diffusion algebra relation at dim 12")
    x, y = Picture(12).gens
    r = x * y - (x + y) * AB
    for i in range(r.valid_block):
        for j in range(r.valid_block):
            rep.record(not r.entry(i, j), f"({i},{j})")
    for i in range(x.dim):
        rep.record(x.raw(i, 0) == (ALPHA if i == 0 else 0), f"X[{i}][0]")
        rep.record(y.raw(0, i) == (BETA if i == 0 else 0), f"Y[0][{i}]")
    return rep


def check_second_moment():
    dim = 6
    rep = CheckReport(f"second moment dim {dim}")
    w = second_moment(dim)
    prod = second_moment_product(dim)
    for i in range(prod.valid_block):
        for j in range(prod.valid_block):
            rep.record(w.entry(i, j) == prod.entry(i, j), f"XY ({i},{j})")
    for i in range(dim):
        for j in range(dim):
            rep.record(w.raw(i, j) == w.raw(j, i), f"symmetry ({i},{j})")
    return rep


def default_suite(max_n=6, seed=0):
    return [
        check_orthogonality(max_n),
        ldu_certificate(max_n),
        recurrence_check(max_n + 2),
        moment_consistency(max(max_n, 2)),
        check_shock_homomorphism(seed=seed),
        check_two_path_L(seed=seed),
        check_diffusion_relation(),
        similarity_check(8),
        check_second_moment(),
        cheb_reading_report(max_n),
        compare(3, Fraction(1, 2), Fraction(1, 3)),
        compare(4, Fraction(2, 3), Fraction(1, 4)),
        compare(5, Fraction(1, 2), Fraction(1, 2)),
    ]
