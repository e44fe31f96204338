"""Aggregated verification suites behind the `check` CLI subcommand."""

from __future__ import annotations

import random
from fractions import Fraction

from .report import CheckReport
from .ring import Poly2, AB
from .tensor import E1, E2, TensorElem, linear_form, normal_order, shock_mul
from .bimoment import build_bimoment, det_fraction_free, det_closed_form
from .biortho import (check_orthogonality, recurrence_check, p_explicit,
                      q_explicit, p_cramer, q_cramer, moment_consistency)
from .matrep import (represent, eval_L_matrix, second_moment,
                     second_moment_product, cheb_reading_report,
                     similarity_check)
from .asep import compare


def random_poly(rng, max_deg=2, max_coeff=4):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[key] = rng.randint(-max_coeff, max_coeff)
    return Poly2(terms)


def random_word(rng, max_len=6):
    return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len)))


def random_tensor(rng, max_words=3, max_len=6):
    t = TensorElem.zero()
    for _ in range(rng.randint(1, max_words)):
        t = t + TensorElem.from_word(random_word(rng, max_len),
                                     random_poly(rng))
    return t


def check_determinants(max_n):
    rep = CheckReport(f"bi-moment determinant identity n <= {max_n}")
    for n in range(max_n + 1):
        d = det_fraction_free(build_bimoment(n).entries)
        rep.record(d == det_closed_form(n), f"n={n}")
    return rep


def check_two_path_L(count=50, max_len=8, seed=0):
    rng = random.Random(seed)
    rep = CheckReport(f"two-path L on {count} random elements")
    for k in range(count):
        x = random_tensor(rng, max_len=max_len)
        rep.record(eval_L_matrix(x) == linear_form(x), f"sample {k}")
    return rep


def check_shock_homomorphism(count=50, max_len=6, seed=1):
    rng = random.Random(seed)
    rep = CheckReport(f"normal-order homomorphism on {count} random pairs")
    for k in range(count):
        x = random_tensor(rng, max_len=max_len)
        y = random_tensor(rng, max_len=max_len)
        rep.record(normal_order(x * y)
                   == shock_mul(normal_order(x), normal_order(y)),
                   f"pair {k}")
    return rep


def check_cramer(max_n):
    rep = CheckReport(f"Cramer vs explicit constructions n <= {max_n}")
    for n in range(max_n + 1):
        rep.record(p_cramer(n) == p_explicit(n), f"P{n}")
        rep.record(q_cramer(n) == q_explicit(n), f"Q{n}")
    return rep


def check_diffusion_relation(dim=12):
    rep = CheckReport(f"diffusion algebra relation at dim {dim}")
    rel = E1 * E2 - AB * (E1 + E2)
    r = represent(rel, dim)
    for i in range(r.valid_block):
        for j in range(r.valid_block):
            rep.record(r.entry(i, j).is_zero(), f"({i},{j})")
    return rep


def check_second_moment(dim=6):
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
        check_determinants(max_n),
        check_orthogonality(max_n),
        check_cramer(min(max_n, 6)),
        recurrence_check(max_n + 2),
        moment_consistency(max(max_n, 2)),
        check_shock_homomorphism(seed=seed),
        check_two_path_L(seed=seed),
        check_diffusion_relation(),
        similarity_check(8),
        check_second_moment(),
        cheb_reading_report(min(max_n, 6)),
        compare(3, Fraction(1, 2), Fraction(1, 3)),
        compare(4, Fraction(2, 3), Fraction(1, 4)),
        compare(5, Fraction(1, 2), Fraction(1, 2)),
    ]
