"""A small arithmetic expression language for coefficient and load fields.

Grammar (whitespace-insensitive, ASCII):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]            # right-associative
    atom   := NUMBER | 'pi' | 't' | NAME '(' expr ')' | '(' expr ')'

with NAME one of sin, cos, exp, tanh, sqrt, abs.  Expressions are parsed once
into a tiny AST and evaluated vectorized over grid nodes.  Both parse errors
and evaluation errors (division by zero, square root of a negative value at
some node) carry the byte offset of the offending token in the source text.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["ExpressionError", "Expression", "parse_expression"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


class ExpressionError(ValueError):
    """Parse or evaluation failure, carrying the byte offset in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    length = len(source)
    while pos < length:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", length))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes; eval takes the node array t and returns scalars or arrays


@dataclass(frozen=True)
class _Num:
    value: float

    def eval(self, t):
        return self.value


@dataclass(frozen=True)
class _Var:
    def eval(self, t):
        return t


@dataclass(frozen=True)
class _Neg:
    child: object

    def eval(self, t):
        return -self.child.eval(t)


@dataclass(frozen=True)
class _Bin:
    op: str
    offset: int
    left: object
    right: object

    def eval(self, t):
        a = self.left.eval(t)
        b = self.right.eval(t)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            if np.any(np.asarray(b) == 0):
                raise ExpressionError("division by zero on the grid", self.offset)
            return a / b
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.asarray(np.power(np.asarray(a, dtype=np.float64), b))
        if np.any(~np.isfinite(out)):
            raise ExpressionError("power is not finite on the grid", self.offset)
        return out


@dataclass(frozen=True)
class _Call:
    name: str
    offset: int
    arg: object

    def eval(self, t):
        v = self.arg.eval(t)
        if self.name == "sqrt" and np.any(np.asarray(v) < 0):
            raise ExpressionError("square root of a negative value on the grid", self.offset)
        with np.errstate(over="ignore"):
            out = np.asarray(_FUNCTIONS[self.name](v))
        if np.any(~np.isfinite(out)):
            raise ExpressionError(f"{self.name} is not finite on the grid", self.offset)
        return out


@dataclass(frozen=True)
class Expression:
    """A parsed expression in the variable t."""

    source: str
    root: object

    def __call__(self, t) -> np.ndarray:
        arr = np.asarray(t, dtype=np.float64)
        out = np.asarray(self.root.eval(arr), dtype=np.float64)
        out = np.broadcast_to(out, arr.shape).copy() if out.shape != arr.shape else out
        if np.any(~np.isfinite(out)):
            raise ExpressionError("expression is not finite on the grid", 0)
        return out


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExpressionError(f"expected {text!r}", tok.offset)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExpressionError(f"unexpected token {tok.text!r}", tok.offset)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            node = _Bin(tok.text, tok.offset, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            node = _Bin(tok.text, tok.offset, node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return _Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            node = _Bin("^", tok.offset, node, self.unary())
        return node

    def atom(self):
        tok = self.advance()
        if tok.kind == "num":
            return _Num(float(tok.text))
        if tok.kind == "name":
            if tok.text == "t":
                return _Var()
            if tok.text == "pi":
                return _Num(float(np.pi))
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return _Call(tok.text, tok.offset, arg)
            raise ExpressionError(f"unknown name {tok.text!r}", tok.offset)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if tok.kind == "end":
            raise ExpressionError("unexpected end of expression", tok.offset)
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.offset)


# small: the reuse that matters is a problem file's own expressions, parsed
# once to check them and again to sample them
@functools.lru_cache(maxsize=32)
def parse_expression(source: str) -> Expression:
    """Parse ``source`` into an :class:`Expression`; raises :class:`ExpressionError`.

    Parses are memoised by source text, which is safe because an Expression
    is immutable; a failed parse is not cached, so it raises again.
    """
    if not source.strip():
        raise ExpressionError("empty expression", 0)
    return Expression(source=source, root=_Parser(source).parse())
