import random
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from biops.asep import partition_Z
from biops.ring import Poly2, ALPHA, BETA, AB
from biops.tensor import ShockElem, linear_form, normal_order
from biops.expr import (parse, eval_expr, Gen, ScalarPoly, Sum,
                        Product, Power, Negation, BiOrtho)
from biops.biortho import p_explicit, q_explicit
from biops.errors import ParseError
from oracles import E1, E2, TensorElem, dehp_Z, power_sum_form, pretty


class TestParse:
    def test_atoms(self):
        assert parse("e1") == Gen(1)
        assert parse("e2") == Gen(2)
        assert parse("a") == ScalarPoly("a")
        assert parse("42") == ScalarPoly(42)
        assert parse("P(3)") == BiOrtho("P", 3)
        assert parse("Q(0)") == BiOrtho("Q", 0)

    def test_precedence(self):
        assert parse("e1*e2^2") == Product((Gen(1), Power(Gen(2), 2)))
        assert parse("e1 + e2 * e1") == Sum((Gen(1), Product((Gen(2), Gen(1)))))
        assert parse("-e1*e2") == Negation(Product((Gen(1), Gen(2))))
        assert parse("(e1+e2)^3") == Power(Sum((Gen(1), Gen(2))), 3)

    def test_binary_minus(self):
        assert parse("e1 - e2") == Sum((Gen(1), Negation(Gen(2))))

    def test_whitespace_ignored(self):
        assert parse(" e1 *  e2 ") == parse("e1*e2")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError) as e:
            parse("e1^-1")
        assert e.value.position == 4

    def test_error_positions(self):
        for src, pos in (("e1 +", 5), ("(e1", 4), ("e1 e2", 4),
                         ("P(x)", 3), ("?", 1), ("", 1)):
            with pytest.raises(ParseError) as e:
                parse(src)
            assert e.value.position == pos, src
            assert e.value.position <= len(src) + 1

    def test_error_message_carries_column(self):
        with pytest.raises(ParseError) as e:
            parse("e1 + @")
        assert "6" in str(e.value)

    def test_deep_nesting_is_a_parse_error(self):
        for src in ("(" * 400 + "e1" + ")" * 400, "-" * 2000 + "e1"):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse(src)
        assert parse("-" * 950 + "e1") is not None
        # wherever the limit strikes, also after the end token is consumed
        for k in range(900, 1100):
            with pytest.raises(ParseError):
                parse("-" * k)

    def test_integer_too_long_for_int_is_a_parse_error(self):
        # int() converts at most sys.get_int_max_str_digits() digits
        big = "7" * 5000
        for src, pos in ((big, 1), ("e1^" + big, 4), (f"P({big})", 3),
                         (f"e1 + 2*Q({big})", 10)):
            with pytest.raises(ParseError, match="too long") as e:
                parse(src)
            assert e.value.position == pos, src
        assert parse("9" * 4300) == ScalarPoly(int("9" * 4300))

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="e12abPQ()+-*^ 0123456789", max_size=40))
    @example("(" * 400 + "e1" + ")" * 400)
    @example("-" * 2000 + "e1")
    @example("e1^" + "3" * 5000)
    def test_fuzz_ast_or_parse_error(self, src):
        # any string over the DSL alphabet parses or raises ParseError
        try:
            node = parse(src)
        except ParseError:
            return
        assert pretty(node)


def random_ast(rng, depth=3, integer_only=False):
    """A random AST; with integer_only, its leaves are e1, e2 and integer
    literals, with no a, b, P or Q."""
    if depth == 0 or rng.random() < 0.3:
        leaves = [Gen(1), Gen(2), ScalarPoly("a"), ScalarPoly("b"),
                  ScalarPoly(rng.randint(0, 9)),
                  BiOrtho("P", rng.randint(0, 3)),
                  BiOrtho("Q", rng.randint(0, 3))]
        if integer_only:
            leaves = [leaves[0], leaves[1], leaves[4]]
        return rng.choice(leaves)
    kind = rng.randint(0, 3)
    if kind == 0:
        return Sum(tuple(random_ast(rng, depth - 1, integer_only)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Product(tuple(random_ast(rng, depth - 1, integer_only)
                             for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Power(random_ast(rng, depth - 1, integer_only),
                     rng.randint(0, 3))
    return Negation(random_ast(rng, depth - 1, integer_only))


def children(node):
    if isinstance(node, (Sum, Product)):
        return node.parts
    if isinstance(node, Power):
        return (node.base,)
    if isinstance(node, Negation):
        return (node.inner,)
    return ()


def word_bound(node):
    """An upper bound on the number of words of eval_expr(node,
    TensorElem)."""
    if isinstance(node, BiOrtho):
        return node.n + 1
    if isinstance(node, Power):
        return word_bound(node.base) ** node.exponent
    bounds = map(word_bound, children(node))
    return sum(bounds) if isinstance(node, Sum) else prod(bounds)


class TestPretty:
    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            node = random_ast(rng)
            again = parse(pretty(node))
            assert (eval_expr(again, TensorElem)
                    == eval_expr(node, TensorElem)), pretty(node)

    def test_examples(self):
        assert pretty(parse("e1*e2")) == "e1*e2"
        assert pretty(parse("P(2)")) == "P(2)"


def words(src):
    return eval_expr(parse(src), TensorElem)


class TestEval:
    def test_generators_and_scalars(self):
        assert words("e1") == E1
        assert words("a") == TensorElem.scalar(ALPHA)
        assert words("3") == TensorElem.scalar(Poly2.const(3))

    def test_homomorphism(self):
        assert words("e1*e2 + e2*e1") == E1 * E2 + E2 * E1
        assert words("(e1+e2)^2") == (E1 + E2) * (E1 + E2)
        assert words("-(a*e1)") == -(ALPHA * E1)

    def test_p1(self):
        assert words("P(1)") == E1 - TensorElem.scalar(ALPHA)
        assert words("Q(1)") == E2 - TensorElem.scalar(BETA)

    def test_power_zero(self):
        assert words("e1^0") == TensorElem.scalar(1)


class TestAlgebraProtocol:
    """eval_expr and UniPoly.into ask an algebra for `generator` and
    `scalar` only: an algebra of those two methods alone evaluates every
    AST, and an empty sum or product, to what ShockElem itself gives."""

    ALGEBRA = SimpleNamespace(generator=ShockElem.generator,
                              scalar=ShockElem.scalar)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_random_asts(self, rng):
        node = random_ast(rng)
        assert eval_expr(node, self.ALGEBRA) == eval_expr(node, ShockElem)

    def test_empty_sum_and_product(self):
        assert eval_expr(Sum(()), self.ALGEBRA) == ShockElem()
        assert eval_expr(Product(()), self.ALGEBRA) == ShockElem.scalar(1)
        assert eval_expr(Sum(()), ShockElem) == ShockElem()
        assert eval_expr(Product(()), ShockElem) == ShockElem.scalar(1)

    @pytest.mark.parametrize("n", range(7))
    def test_p_and_q_are_their_coefficient_sums(self, n):
        # Horner's rule against sum_k c_k e^k in the shock ring
        for which, poly, g in (("P", p_explicit(n), 1),
                               ("Q", q_explicit(n), 2)):
            want = ShockElem()
            for k, c in enumerate(poly.coeffs):
                want = want + ShockElem.scalar(c) * ShockElem.generator(g) ** k
            assert eval_expr(BiOrtho(which, n), self.ALGEBRA) == want
            assert eval_expr(BiOrtho(which, n), ShockElem) == want


class TestGradedPath:
    """eval_expr(node, ShockElem) evaluates the whole AST in the shock ring
    over the integers, keyed by bidegree; the normal order of the word
    expansion, and L of it, are its oracles."""

    @staticmethod
    def assert_paths_agree(node):
        value = eval_expr(node, ShockElem)
        expanded = eval_expr(node, TensorElem)
        assert isinstance(value, ShockElem)
        assert value == normal_order(expanded)
        assert linear_form(value) == linear_form(expanded)

    @pytest.mark.parametrize("integer_only", [True, False],
                             ids=["integer", "mixed"])
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_random_asts(self, integer_only, seed):
        node = random_ast(random.Random(seed), depth=4,
                          integer_only=integer_only)
        # word expansion, one of the oracles, is exponential in the size
        assume(word_bound(node) <= 2000)
        self.assert_paths_agree(node)

    @pytest.mark.parametrize("src", [
        "(e1*e2)^0", "e1^0", "(e1 + 3)^0", "e1 - e1", "0*e1",
        "e1*e2 - e2*e1 - e1*e2 + e2*e1", "-3*e1*e2", "(-2)*e2*e1 + 5",
        "e1*(-1)*e2^2", "-(e1 - 4)^3",
        # a graded subtree under a Poly2 scalar, in a product and a sum
        "a*(e1*e2)^3", "(e1 + e2)^4*b - 2*(e1*e2)^2", "P(2)*(e1 - 2*e2)^3",
        "a^0*(e1*e2)^2", "0*a*e1 + e2*e1", "Q(0)", "(b*e1)^0 + e2^2"])
    def test_examples(self, src):
        self.assert_paths_agree(parse(src))

    def test_second_moments_up_to_60(self):
        # L((e1 e2)^k) = (alpha*beta)^k Z_k
        for k in range(61):
            got = linear_form(eval_expr(parse(f"(e1*e2)^{k}"), ShockElem))
            assert got == AB**k * partition_Z(k), k

    def test_power_sums_up_to_60(self):
        # the graded product against the diagonal fold and, from n = 1,
        # the DEHP closed form
        for n in range(61):
            got = linear_form(eval_expr(parse(f"(e1+e2)^{n}"), ShockElem))
            assert got == power_sum_form(n), n
            assert n == 0 or got == dehp_Z(n), n
