import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from biops.ring import Poly2, ZERO, ONE, ALPHA, BETA, AB
from biops.expr import eval_expr, parse
import biops.tensor
from biops.tensor import ShockElem, normal_order, shock_mul, linear_form
from oracles import (E1, E2, TensorElem, as_shock, normal_order_word,
                     poly2_fold, power_sum)

# every word of length <= 10: 2047 words
ALL_WORDS = [w for n in range(11) for w in itertools.product((1, 2), repeat=n)]


@pytest.fixture(scope="module")
def rewritten_nf():
    """Normal form {(n, m): Poly2} of every word in ALL_WORDS by leftmost
    rewriting."""
    return {w: normal_order_word(w, "leftmost")[0] for w in ALL_WORDS}


@pytest.fixture(scope="module")
def rewritten(rewritten_nf):
    """The normal forms of `rewritten_nf` as ShockElems."""
    return {w: as_shock(nf) for w, nf in rewritten_nf.items()}


def rewritten_L(nf):
    return sum((c * BETA**n * ALPHA**m for (n, m), c in nf.items()), ZERO)


def rand_word(rng, max_len):
    return tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, max_len)))


def rand_poly(rng):
    return Poly2({
        (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
        for _ in range(rng.randint(1, 3))
    })


def test_library_words_have_no_algebra():
    # the library's TensorElem only holds words; their product, and an
    # expression evaluated into words, live in the oracles' TensorElem
    x = biops.tensor.TensorElem({(1,): ONE})
    y = biops.tensor.TensorElem({(2,): ONE})
    with pytest.raises(TypeError):
        x * y
    with pytest.raises(AttributeError):
        eval_expr(parse("e1*e2"), biops.tensor.TensorElem)
    assert linear_form(x) == ALPHA and linear_form(y) == BETA


def test_repr_spells_each_word():
    assert repr(TensorElem()) == "TensorElem(0)"
    assert repr(TensorElem({(2, 1): ONE, (): ALPHA, (1, 1, 2, 2): -ONE})) \
        == f"TensorElem(({ALPHA})*[1] + ({-ONE})*[1122] + ({ONE})*[21])"


class TestNormalOrder:
    def test_single_swap(self):
        no = normal_order(E1 * E2)
        assert no == as_shock({(0, 1): AB, (1, 0): AB})

    def test_already_ordered(self):
        assert normal_order(E2 * E1) == as_shock({(1, 1): ONE})

    def test_two_step(self):
        # e1 e1 e2 -> ab e1^2 + (ab)^2 e1 + (ab)^2 e2
        no = normal_order(E1 * E1 * E2)
        assert no == as_shock({(0, 2): AB, (0, 1): AB * AB, (1, 0): AB * AB})

    def test_confluence_leftmost_vs_rightmost(self):
        rng = random.Random(5)
        for _ in range(100):
            w = rand_word(rng, 8)
            left, _ = normal_order_word(w, "leftmost")
            right, _ = normal_order_word(w, "rightmost")
            assert left == right

    def test_fold_equals_rewriting_on_all_short_words(self, rewritten):
        for w in ALL_WORDS:
            fold = normal_order(TensorElem({w: ONE}))
            assert fold == rewritten[w], w
            right, _ = normal_order_word(w, "rightmost")
            assert fold == as_shock(right), w

    def test_shared_prefix_fold_on_power_sums(self, rewritten):
        for n in range(11):
            expected = ShockElem()
            for w in itertools.product((1, 2), repeat=n):
                expected = expected + rewritten[w]
            assert normal_order(power_sum(n)) == expected, n

    def test_long_word_has_no_recursion_limit(self):
        m = 3000
        nf = normal_order(TensorElem({(1,) * m + (2,): ONE}))
        expected = {(0, k): AB**(m - k + 1) for k in range(1, m + 1)}
        expected[(1, 0)] = AB**m
        assert nf == as_shock(expected)

    def test_termination_within_budget(self):
        rng = random.Random(6)
        for _ in range(50):
            w = rand_word(rng, 8)
            _, steps = normal_order_word(w)  # raises if budget exceeded
            assert steps <= 2 ** len(w) if w else steps == 0


@pytest.mark.parametrize("cls, keys", [(TensorElem, ((1,), (2,))),
                                        (ShockElem, ((1, 1, 0, 1),
                                                     (1, 1, 1, 0)))])
def test_generators(cls, keys):
    one = 1 if cls is ShockElem else ONE
    assert [cls.generator(i) for i in (1, 2)] == [cls({k: one}) for k in keys]
    for i in (0, 3):
        with pytest.raises(ValueError):
            cls.generator(i)


class TestShockRing:
    def test_product_base_cases(self):
        e1s = as_shock({(0, 1): ONE})
        e2s = as_shock({(1, 0): ONE})
        assert shock_mul(e1s, e2s) == as_shock({(0, 1): AB, (1, 0): AB})
        assert shock_mul(e2s, e1s) == as_shock({(1, 1): ONE})

    def test_concat_cases(self):
        # m = 0: plain concatenation of e2 powers
        assert shock_mul(as_shock({(2, 0): ONE}), as_shock({(1, 3): ONE})) \
            == as_shock({(3, 3): ONE})
        # k = 0: plain concatenation of e1 powers
        assert shock_mul(as_shock({(1, 2): ONE}), as_shock({(0, 3): ONE})) \
            == as_shock({(1, 5): ONE})

    def test_agrees_with_normal_order_of_concat(self):
        rng = random.Random(9)
        for _ in range(100):
            w1, w2 = rand_word(rng, 6), rand_word(rng, 6)
            x = TensorElem({w1: ONE})
            y = TensorElem({w2: ONE})
            assert shock_mul(normal_order(x), normal_order(y)) \
                == normal_order(TensorElem({w1 + w2: ONE}))

    def test_agrees_with_rewriting_of_concat_on_all_short_words(
            self, rewritten):
        for w in ALL_WORDS:
            for i in range(len(w) + 1):
                assert shock_mul(rewritten[w[:i]], rewritten[w[i:]]) \
                    == rewritten[w], (w, i)

    def test_power_is_repeated_product(self):
        # a power carries its parts from factor to factor; shock_mul
        # regroups its left factor each time
        x = normal_order(E1 * E2 + ALPHA * E2)
        assert x ** 0 == ShockElem.scalar(1)
        assert x ** 3 == normal_order((E1 * E2 + ALPHA * E2) ** 3)
        y = normal_order(3 * E1 - BETA * E2 * E2 + TensorElem.scalar(AB))
        acc = ShockElem.scalar(1)
        for k in range(8):
            assert y ** k == acc, k
            acc = shock_mul(acc, y)

    def test_homomorphism_on_linear_combinations(self):
        rng = random.Random(10)
        for _ in range(30):
            x = TensorElem({rand_word(rng, 5): rand_poly(rng),
                            rand_word(rng, 5): rand_poly(rng)})
            y = TensorElem({rand_word(rng, 5): rand_poly(rng)})
            assert normal_order(x * y) \
                == shock_mul(normal_order(x), normal_order(y))


class TestLinearForm:
    def test_generators(self):
        assert linear_form(E1) == ALPHA
        assert linear_form(E2) == BETA

    def test_unit(self):
        assert linear_form(TensorElem.scalar(1)) == ONE

    def test_e1e2(self):
        assert linear_form(E1 * E2) == AB * (ALPHA + BETA)

    def test_linearity(self):
        rng = random.Random(12)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            x = TensorElem({rand_word(rng, 5): ONE})
            y = TensorElem({rand_word(rng, 5): ONE})
            assert linear_form(p * x + q * y) \
                == p * linear_form(x) + q * linear_form(y)

    def test_shock_elem_argument(self):
        x = E1 * E2 * E2 - BETA * E2 * E1 * E1
        assert linear_form(normal_order(x)) == linear_form(x)

    def test_cold_words_match_rewriting(self, rewritten_nf):
        # nothing is kept from one call to the next: every word is folded
        for w in ALL_WORDS:
            assert linear_form(TensorElem({w: ONE})) \
                == rewritten_L(rewritten_nf[w]), w

    def test_defining_relations(self):
        rng = random.Random(13)
        for _ in range(100):
            a = TensorElem({rand_word(rng, 5): ONE})
            b = TensorElem({rand_word(rng, 5): ONE})
            # bulk relation
            lhs = linear_form(a * E1 * E2 * b)
            rhs = AB * linear_form(a * (E1 + E2) * b)
            assert lhs == rhs
            # boundary relations
            assert linear_form(a * E1) == ALPHA * linear_form(a)
            assert linear_form(E2 * b) == BETA * linear_form(b)


class TestGradedFold:
    """Normal ordering folds words over integer coefficients and L reads
    the power of alpha*beta off the degree; `poly2_fold`, the same fold
    over Poly2 coefficients, is its oracle."""

    @staticmethod
    def poly2_fold(w):
        return rewritten_L(poly2_fold(w))

    def test_equals_poly2_fold_on_every_word_up_to_12(self):
        words = [w for n in range(13)
                 for w in itertools.product((1, 2), repeat=n)]
        assert len(words) == 8191
        for w in words:
            assert linear_form(TensorElem({w: ONE})) == self.poly2_fold(w), w

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from((1, 2)), max_size=40))
    def test_equals_poly2_fold_on_random_words(self, letters):
        w = tuple(letters)
        assert linear_form(TensorElem({w: ONE})) == self.poly2_fold(w)
        assert normal_order(TensorElem({w: ONE})) == as_shock(poly2_fold(w))

    def test_normal_form_is_homogeneous(self, rewritten_nf):
        # the degree the fold relies on: a word of length N, and
        # (e1 + e2)^N, has at e2^n e1^m a positive integer times
        # (alpha*beta)^(N-n-m), so its ShockElem keys are all (N, N, n, m)
        def graded(nf, N):
            return all(N >= n + m and c == int(c.eval(1, 1)) * AB**(N - n - m)
                       and c.eval(1, 1) > 0 for (n, m), c in nf.items())

        def on_diagonal(x, N):
            return all(I == J == N and c > 0 for (I, J, _, _), c in x.items())

        assert all(graded(rewritten_nf[w], len(w)) for w in ALL_WORDS)
        assert all(on_diagonal(normal_order(TensorElem({w: ONE})), len(w))
                   for w in ALL_WORDS)
        x = ShockElem.scalar(1)
        for N in range(13):
            assert on_diagonal(x, N), N
            x = x * normal_order(E1 + E2)


def rand_words(rng):
    """An integer combination of words of several lengths."""
    return TensorElem({rand_word(rng, 6): Poly2.const(rng.randint(-5, 5))
                       for _ in range(rng.randint(0, 4))})


def shock_word(w):
    out = ShockElem.scalar(1)
    for g in w:
        out = out * ShockElem.generator(g)
    return out


class TestBidegree:
    """ShockElem is the shock ring over Z[alpha, beta] with integer
    coordinates keyed by bidegree: the int c at (I, J, n, m) stands for
    c alpha^(I-n-m) beta^(J-n-m) e2^n e1^m.  normal_order is a ring
    homomorphism onto it."""

    def test_unit_and_generators(self):
        assert ShockElem.scalar(1) == ShockElem({(0, 0, 0, 0): 1})
        assert [ShockElem.generator(i) for i in (1, 2)] == [
            ShockElem({(1, 1, 0, 1): 1}), ShockElem({(1, 1, 1, 0): 1})]
        assert ShockElem.scalar(-3) == -3 * ShockElem.scalar(1)
        assert ShockElem.scalar(ALPHA**2 - 4 * BETA) \
            == ShockElem({(2, 0, 0, 0): 1, (0, 1, 0, 0): -4})
        assert all(type(c) is int for _, c in
                   (5 * ShockElem.generator(1) * ShockElem.generator(2))
                   .items())

    def test_e1_e2_is_t_times_e1_plus_e2(self):
        e1, e2 = ShockElem.generator(1), ShockElem.generator(2)
        assert e1 * e2 == ShockElem({(2, 2, 0, 1): 1, (2, 2, 1, 0): 1})
        assert e1 * e2 == normal_order(E1 * E2)

    def test_words_are_products_of_their_letters(self, rewritten):
        for w in ALL_WORDS:
            assert shock_word(w) == rewritten[w], w

    def test_normal_order_is_a_homomorphism(self):
        rng = random.Random(17)
        for _ in range(100):
            x, y = rand_words(rng), rand_words(rng)
            assert normal_order(x * y) == normal_order(x) * normal_order(y)
            assert normal_order(x - y) == normal_order(x) - normal_order(y)
            assert linear_form(x * y) == linear_form(normal_order(x * y))

    def test_poly2_scalar_moves_the_bidegree(self):
        e1 = ShockElem.generator(1)
        assert ALPHA * e1 == ShockElem({(2, 1, 0, 1): 1})
        assert ALPHA * e1 == normal_order(ALPHA * E1)
        constants = (0, 1, -3, ZERO, ONE, ALPHA, AB - 2 * BETA)
        for T in (TensorElem, ShockElem):
            g1, g2 = T.generator(1), T.generator(2)
            for x in (g1, g1 * g2 - g2 * g2 * g1, T.scalar(5), T()):
                for c in constants:
                    assert c * x == x * c == T.scalar(c) * x
                assert not T.scalar(0) * x
                assert not x * T.scalar(ZERO)
        x = E1 * E2 - E2 * E2 * E1
        for c in constants:
            assert normal_order(c * x) == c * normal_order(x)
        with pytest.raises(TypeError):
            e1 + E1

    def test_equal_elements_hash_equal(self):
        # built two ways: a product of letters against the relation, and a
        # power over parts against a product of its factors
        for a, b in (("e1*e2", "a*b*(e1 + e2)"),
                     ("(e1+e2)^3", "(e1+e2)*(e1+e2)*(e1+e2)")):
            x, y = (eval_expr(parse(src), ShockElem) for src in (a, b))
            assert x == y and hash(x) == hash(y), a
            assert len({x, y}) == 1, a

    def test_int_coefficients_on_bidegree_keys(self):
        # every coordinate is an int, and alpha^(I-n-m) beta^(J-n-m) has
        # no negative exponent, whatever built the element
        rng = random.Random(23)
        values = [eval_expr(parse(src), ShockElem) for src in (
            "(a*e1 + b*e2)^6", "P(3)*Q(2)*e1 - 2*e2*e1", "(e1*e2)^5 + a",
            "(e1+e2)^7*b^2", "Q(4)*P(4)")]
        for _ in range(30):
            x = TensorElem({rand_word(rng, 5): rand_poly(rng)
                            for _ in range(3)})
            y = normal_order(x)
            values += [y, y * y, y ** 3, y - normal_order(rand_words(rng))]
        for x in values:
            assert x and not x - x and not -x + x
            for (I, J, n, m), c in x.items():
                assert type(c) is int and c
                assert min(I, J) >= n + m >= 0 and n >= 0 and m >= 0


class TestPowerSum:
    def test_small(self):
        assert power_sum(0) == TensorElem.scalar(1)
        assert power_sum(1) == E1 + E2
        assert power_sum(2) == (E1 + E2) * (E1 + E2)
        assert len(power_sum(5).items()) == 32

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power_sum(-1)
