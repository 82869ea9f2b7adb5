"""HOPF-PRES v1: the text format and expression grammar for algebra presentations.

Document layout: an optional leading ``name <ident>`` line, then sections headed
by ``[params]``, ``[generators]``, ``[relations]``, ``[coproduct]``, ``[counit]``,
``[antipode]``, one declaration per line, ``#`` comments.  Identifiers match
``[A-Za-z][A-Za-z0-9_]*``; the name ``h`` is reserved for the deformation
variable.  Numbers are decimal integers (rationals are written ``a/b`` with the
division operator).  The tensor symbol is ``(x)``; ``^`` takes a non-negative
integer power.  Relations are written ``[a,b] = rhs`` (supercommutator) or
``{a,b} = rhs`` (anticommutator).

Precedence, loosest first:  + -  |  (x)  |  * /  |  unary -  |  ^  |  atoms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ParseError", "Node", "Num", "Param", "HVar", "Gen", "SeriesCall", "Neg",
    "Add", "Mul", "Div", "Pow", "Tensor", "tokenize", "parse_expr_text",
    "expr_to_text", "ast_map", "ast_atoms",
]

SERIES_FUNCTIONS = ("exp", "sinh", "cosh")


class ParseError(ValueError):
    def __init__(self, msg, line=None, col=None):
        self.msg, self.line, self.col = msg, line, col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{msg}{where}")


# ------------------------------------------------------------------ AST nodes

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Node):
    value: Fraction


@dataclass(frozen=True)
class Param(Node):
    name: str


@dataclass(frozen=True)
class HVar(Node):
    pass


@dataclass(frozen=True)
class Gen(Node):
    name: str


@dataclass(frozen=True)
class SeriesCall(Node):
    fn: str
    arg: Node


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Add(Node):
    terms: tuple


@dataclass(frozen=True)
class Mul(Node):
    factors: tuple


@dataclass(frozen=True)
class Div(Node):
    num: Node
    den: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exp: int


@dataclass(frozen=True)
class Tensor(Node):
    legs: tuple


ZERO = Num(Fraction(0))


def ast_map(node: Node, fn) -> Node:
    """Rebuild the tree bottom-up, applying fn to every node."""
    if isinstance(node, SeriesCall):
        node = SeriesCall(node.fn, ast_map(node.arg, fn))
    elif isinstance(node, Neg):
        node = Neg(ast_map(node.arg, fn))
    elif isinstance(node, Add):
        node = Add(tuple(ast_map(t, fn) for t in node.terms))
    elif isinstance(node, Mul):
        node = Mul(tuple(ast_map(t, fn) for t in node.factors))
    elif isinstance(node, Div):
        node = Div(ast_map(node.num, fn), ast_map(node.den, fn))
    elif isinstance(node, Pow):
        node = Pow(ast_map(node.base, fn), node.exp)
    elif isinstance(node, Tensor):
        node = Tensor(tuple(ast_map(t, fn) for t in node.legs))
    return fn(node)


def ast_atoms(node: Node):
    """Yield every node of the tree."""
    yield node
    if isinstance(node, SeriesCall):
        yield from ast_atoms(node.arg)
    elif isinstance(node, Neg):
        yield from ast_atoms(node.arg)
    elif isinstance(node, (Add, Mul, Tensor)):
        for t in (node.terms if isinstance(node, Add) else node.factors if isinstance(node, Mul) else node.legs):
            yield from ast_atoms(t)
    elif isinstance(node, Div):
        yield from ast_atoms(node.num)
        yield from ast_atoms(node.den)
    elif isinstance(node, Pow):
        yield from ast_atoms(node.base)


# ------------------------------------------------------------------ tokenizer

TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#.*)
      | (?P<tensor>\(x\))
      | (?P<num>\d+)
      | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op>[-+*/^(),=\[\]{}])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str, line_no: int = 1):
    tokens = []
    for offset, line in enumerate(text.splitlines() or [""]):
        pos = 0
        while pos < len(line):
            m = TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", line_no + offset, pos + 1)
            kind = m.lastgroup
            if kind == "comment":
                break
            if kind != "ws":
                tokens.append(Token(kind, m.group(), line_no + offset, pos + 1))
            pos = m.end()
    return tokens


# --------------------------------------------------------------------- parser

class _ExprParser:
    def __init__(self, tokens, line=None):
        self.toks = tokens
        self.i = 0
        self.line = line

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            # point just past the last token
            last = self.toks[-1] if self.toks else None
            raise ParseError("unexpected end of expression",
                             last.line if last else self.line,
                             last.col + len(last.text) if last else 1)
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def at_end(self):
        return self.i >= len(self.toks)

    # sum := tensorterm (('+'|'-') tensorterm)*
    def parse_sum(self):
        terms = [self.parse_tensor_term()]
        signs = [1]
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.next()
            term = self.parse_tensor_term()
            terms.append(term)
            signs.append(1 if tok.text == "+" else -1)
        terms = tuple(t if s == 1 else Neg(t) for t, s in zip(terms, signs))
        return terms[0] if len(terms) == 1 else Add(terms)

    # tensorterm := product ('(x)' product)*
    def parse_tensor_term(self):
        legs = [self.parse_product()]
        while (tok := self.peek()) is not None and tok.kind == "tensor":
            self.next()
            legs.append(self.parse_product())
        if len(legs) == 1:
            return legs[0]
        if len(legs) > 3:
            tok = self.peek() or self.toks[-1]
            raise ParseError("tensors have at most 3 legs", tok.line, tok.col)
        return Tensor(tuple(legs))

    # product := signed (('*'|'/') signed)*
    def parse_product(self):
        node = self.parse_signed()
        while (tok := self.peek()) is not None and tok.text in "*/":
            self.next()
            rhs = self.parse_signed()
            if tok.text == "*":
                if isinstance(node, Mul):
                    node = Mul(node.factors + (rhs,))
                else:
                    node = Mul((node, rhs))
            else:
                node = Div(node, rhs)
        return node

    def parse_signed(self):
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.next()
            return Neg(self.parse_signed())
        if tok is not None and tok.text == "+":
            self.next()
            return self.parse_signed()
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if (tok := self.peek()) is not None and tok.text == "^":
            self.next()
            etok = self.next()
            if etok.kind != "num":
                raise ParseError("power must be a non-negative integer", etok.line, etok.col)
            return Pow(base, int(etok.text))
        return base

    # where an operand is expected, the token '(x)' is a parenthesized x
    def parse_atom(self):
        tok = self.next()
        if tok.kind == "num":
            return Num(Fraction(int(tok.text)))
        if tok.kind == "tensor":
            return Gen("x")
        if tok.kind == "ident":
            if tok.text in SERIES_FUNCTIONS:
                if (nxt := self.peek()) is not None and nxt.kind == "tensor":
                    self.next()
                    return SeriesCall(tok.text, Gen("x"))
                self.expect("(")
                arg = self.parse_sum()
                self.expect(")")
                return SeriesCall(tok.text, arg)
            if tok.text == "h":
                return HVar()
            return Gen(tok.text)  # resolved to Param/Gen during validation
        if tok.text == "(":
            inner = self.parse_sum()
            self.expect(")")
            return inner
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expr_tokens(tokens, line=None) -> Node:
    p = _ExprParser(tokens, line)
    node = p.parse_sum()
    if not p.at_end():
        tok = p.peek()
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return node


def parse_expr_text(text: str, line_no: int = 1) -> Node:
    return parse_expr_tokens(tokenize(text, line_no), line_no)


# -------------------------------------------------------------------- printer

def _prec(node: Node) -> int:
    if isinstance(node, (Add,)):
        return 0
    if isinstance(node, Neg):
        return 0  # print as leading minus inside sums; parenthesize elsewhere
    if isinstance(node, Tensor):
        return 1
    if isinstance(node, (Mul, Div)):
        return 2
    if isinstance(node, Pow):
        return 4
    return 5


def expr_to_text(node: Node) -> str:
    def wrap(child, minprec):
        s = expr_to_text(child)
        if _prec(child) < minprec or (isinstance(child, Num) and child.value < 0):
            return f"({s})"
        return s

    if isinstance(node, Num):
        v = node.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(node, Param) or isinstance(node, Gen):
        return node.name
    if isinstance(node, HVar):
        return "h"
    if isinstance(node, SeriesCall):
        return f"{node.fn}({expr_to_text(node.arg)})"
    if isinstance(node, Neg):
        # unary minus binds tighter than * and /: -(a*b) is not (-a)*b
        return "-" + wrap(node.arg, 3)
    if isinstance(node, Add):
        parts = []
        for i, t in enumerate(node.terms):
            if isinstance(t, Neg):
                # a binary minus takes a whole tensor term
                parts.append("- " + wrap(t.arg, 1) if i else expr_to_text(t))
            else:
                parts.append(("+ " if i else "") + wrap(t, 1))
        return " ".join(parts)
    if isinstance(node, Tensor):
        return " (x) ".join(wrap(l, 2) for l in node.legs)
    if isinstance(node, Mul):
        return "*".join(wrap(f, 3) for f in node.factors)
    if isinstance(node, Div):
        return f"{wrap(node.num, 2)}/{wrap(node.den, 3)}"
    if isinstance(node, Pow):
        return f"{wrap(node.base, 5)}^{node.exp}"
    raise TypeError(f"unknown node {node!r}")
