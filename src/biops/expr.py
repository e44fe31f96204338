"""Recursive-descent parser and evaluator for the tensor-algebra DSL.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := '-' term | product
    product := power ('*' power)*
    power   := atom ('^' INT)?
    atom    := 'e1' | 'e2' | 'a' | 'b' | INT
             | 'P' '(' INT ')' | 'Q' '(' INT ')' | '(' expr ')'

'*' is the (noncommutative) tensor product between generator-bearing
factors and scalar multiplication when one side is scalar; scalars
commute past everything.  '^' takes a nonnegative integer literal.
Precedence: '^' > '*' > unary '-' > binary '+'/'-'.
"""

from .errors import ParseError
from .ring import ALPHA, BETA


# --- AST -------------------------------------------------------------------

class _Node:
    """An AST node: equal to a node of the same type with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Gen(_Node):
    __slots__ = ("which",)

    def __init__(self, which):
        self.which = which  # 1 or 2


class ScalarPoly(_Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value  # 'a', 'b' or the int of an integer literal


class BiOrtho(_Node):
    __slots__ = ("which", "n")

    def __init__(self, which, n):
        self.which = which  # "P" (a polynomial in e1) or "Q" (in e2)
        self.n = n


class Sum(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts  # a tuple of nodes


class Product(_Node):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = parts  # a tuple of nodes


class Power(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent


class Negation(_Node):
    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = inner


# --- tokenizer -------------------------------------------------------------

_SIMPLE = {"+", "-", "*", "^", "(", ")"}


def _tokenize(src):
    tokens = []  # (kind, text, 1-based position)
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        pos = i + 1
        if ch in _SIMPLE:
            tokens.append((ch, ch, pos))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], pos))
            i = j
        elif src.startswith("e1", i):
            tokens.append(("e1", "e1", pos))
            i += 2
        elif src.startswith("e2", i):
            tokens.append(("e2", "e2", pos))
            i += 2
        elif ch in "abPQ":
            tokens.append((ch, ch, pos))
            i += 1
        else:
            raise ParseError(pos, f"unexpected character {ch!r}")
    tokens.append(("end", "", n + 1))
    return tokens


def _int(tok):
    """The value of an integer token.  int() refuses a literal longer
    than sys.get_int_max_str_digits(), so that is a parse error."""
    try:
        return int(tok[1])
    except ValueError:
        raise ParseError(tok[2], f"integer literal of {len(tok[1])} digits "
                         "is too long") from None


class _Parser:
    def __init__(self, src):
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {what or kind}, found "
                             f"{tok[1] or 'end of input'!r}")
        return tok

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"unexpected {tok[1]!r} after expression")
        return e

    def expr(self):
        parts = [self.term()]
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            t = self.term()
            parts.append(Negation(t) if op == "-" else t)
        return parts[0] if len(parts) == 1 else Sum(tuple(parts))

    def term(self):
        if self.peek()[0] == "-":
            self.next()
            return Negation(self.term())
        return self.product()

    def product(self):
        parts = [self.power()]
        while self.peek()[0] == "*":
            self.next()
            parts.append(self.power())
        return parts[0] if len(parts) == 1 else Product(tuple(parts))

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.expect("int", "a nonnegative integer exponent")
            return Power(base, _int(tok))
        return base

    def atom(self):
        kind, text, pos = tok = self.next()
        if kind == "e1":
            return Gen(1)
        if kind == "e2":
            return Gen(2)
        if kind in ("a", "b"):
            return ScalarPoly(kind)
        if kind == "int":
            return ScalarPoly(_int(tok))
        if kind in ("P", "Q"):
            self.expect("(", "'('")
            n = self.expect("int", "a nonnegative integer index")
            self.expect(")", "')'")
            return BiOrtho(kind, _int(n))
        if kind == "(":
            e = self.expr()
            self.expect(")", "')'")
            return e
        raise ParseError(pos, f"expected an atom, found {text or 'end of input'!r}")


def parse(src):
    """Parse source text to an AST; raises ParseError with a 1-based column."""
    parser = _Parser(src)
    try:
        return parser.parse()
    except RecursionError:
        # the limit can strike while the error for a consumed end token
        # is being built, so the index may be one past the last token
        tok = parser.tokens[min(parser.i, len(parser.tokens) - 1)]
        raise ParseError(tok[2], "expression nested too deeply") from None


# --- evaluator -------------------------------------------------------------

def eval_expr(node, algebra):
    """Evaluate an AST in `algebra`, which makes its generators with
    `generator(1 | 2)` and every constant, 0 and 1 included, with
    `scalar(c)`: `tensor.ShockElem` evaluates it in the shock ring over
    the integers, where a power stays a product of normal-ordered factors
    (normal ordering is a ring homomorphism); `tensor.TensorElem` expands
    it into words; a `matrep.Picture` into its truncated matrices."""
    if isinstance(node, Gen):
        return algebra.generator(node.which)
    if isinstance(node, ScalarPoly):
        if node.value == "a":
            return algebra.scalar(ALPHA)
        if node.value == "b":
            return algebra.scalar(BETA)
        return algebra.scalar(node.value)
    if isinstance(node, BiOrtho):
        # biortho loads here, so an expression without P or Q never needs it
        from .biortho import p_explicit, q_explicit
        poly = p_explicit(node.n) if node.which == "P" else q_explicit(node.n)
        return poly.into(algebra)
    if isinstance(node, Sum):
        out = algebra.scalar(0)
        for p in node.parts:
            out = out + eval_expr(p, algebra)
        return out
    if isinstance(node, Product):
        # from the first factor, so a Picture forms no identity product;
        # the empty product is 1
        if not node.parts:
            return algebra.scalar(1)
        first, *rest = node.parts
        out = eval_expr(first, algebra)
        for p in rest:
            out = out * eval_expr(p, algebra)
        return out
    if isinstance(node, Power):
        return eval_expr(node.base, algebra) ** node.exponent
    if isinstance(node, Negation):
        return -eval_expr(node.inner, algebra)
    raise TypeError(f"not an AST node: {node!r}")
