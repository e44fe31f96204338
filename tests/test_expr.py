import random

import pytest
from hypothesis import example, given, settings, strategies as st

from biops.ring import Poly2, ALPHA, BETA
from biops.tensor import TensorElem, E1, E2
from biops.expr import (parse, eval_expr, Gen, ScalarPoly, Sum,
                        Product, Power, Negation, BiOrtho)
from biops.errors import ParseError
from oracles import pretty


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


def random_ast(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Gen(1), Gen(2), ScalarPoly("a"), ScalarPoly("b"),
                           ScalarPoly(rng.randint(0, 9)),
                           BiOrtho("P", rng.randint(0, 3)),
                           BiOrtho("Q", rng.randint(0, 3))])
    kind = rng.randint(0, 3)
    if kind == 0:
        return Sum(tuple(random_ast(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))))
    if kind == 1:
        return Product(tuple(random_ast(rng, depth - 1)
                             for _ in range(rng.randint(2, 3))))
    if kind == 2:
        return Power(random_ast(rng, depth - 1), rng.randint(0, 3))
    return Negation(random_ast(rng, depth - 1))


class TestPretty:
    def test_roundtrip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            node = random_ast(rng)
            again = parse(pretty(node))
            assert eval_expr(again) == eval_expr(node), pretty(node)

    def test_examples(self):
        assert pretty(parse("e1*e2")) == "e1*e2"
        assert pretty(parse("P(2)")) == "P(2)"


class TestEval:
    def test_generators_and_scalars(self):
        assert eval_expr(parse("e1")) == E1
        assert eval_expr(parse("a")) == TensorElem.scalar(ALPHA)
        assert eval_expr(parse("3")) == TensorElem.scalar(Poly2.const(3))

    def test_homomorphism(self):
        assert eval_expr(parse("e1*e2 + e2*e1")) == E1 * E2 + E2 * E1
        assert eval_expr(parse("(e1+e2)^2")) == (E1 + E2) * (E1 + E2)
        assert eval_expr(parse("-(a*e1)")) == -(ALPHA * E1)

    def test_p1(self):
        assert eval_expr(parse("P(1)")) == E1 - TensorElem.scalar(ALPHA)
        assert eval_expr(parse("Q(1)")) == E2 - TensorElem.scalar(BETA)

    def test_power_zero(self):
        assert eval_expr(parse("e1^0")) == TensorElem.unit()
