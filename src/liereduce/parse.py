"""Recursive-descent parser for the expression grammar.

Grammar (infix, ``^`` for powers, no implicit multiplication)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-')* power
    power   := primary ('^' unary)?
    primary := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Numbers are integers or decimals, stored exactly.  A NAME followed by ``(``
must be a kernel (``exp``, ``log``, ..., with ``sqrt(u)`` sugar for
``u^(1/2)``); any other NAME must resolve against the supplied vocabulary.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import (Expr, ExprError, KERNELS, MINUS_ONE, Rat, add, kernel, mul,
                   power, rat, sym)


class ParseError(ExprError):
    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


# Whitespace, then one token: a number, a name, an operator, or any other
# visible character, which is an error.  Trailing whitespace matches nothing.
_TOKEN = re.compile(r"(\s*)(?:(\d+(?:\.\d+)?)|([A-Za-z_][A-Za-z0-9_]*'*)|([-+*/^()])|(\S))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text))."""
    out = []
    pos = 0
    for space, num, name, op, bad in _TOKEN.findall(text):
        pos += len(space)
        if op:
            kind, tok = "op", op
        elif name:
            kind, tok = "name", name
        elif num:
            kind, tok = "num", num
        else:
            raise ParseError(f"unexpected character {bad!r}", text, pos)
        out.append((kind, tok, pos))
        pos += len(tok)
    out.append(("end", "", len(text)))
    return out


def _resolve(vocabulary, name: str) -> str | None:
    if vocabulary is None:
        return name
    resolve = getattr(vocabulary, "resolve", None)
    if resolve is not None:
        return resolve(name)
    return name if name in vocabulary else None


# Every nesting level (a parenthesis, a kernel argument or an exponent)
# passes through unary() once and costs at most five stack frames (unary,
# power, primary, expr, term).  100 levels stay well below Python's default
# recursion limit of 1000 frames, leaving room for the caller's frames and
# for the recursive walks over the parsed expression.
_MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str, vocabulary):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.vocabulary = vocabulary

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", self.text, pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", self.text, pos)
        return e

    def expr(self) -> Expr:
        parts = [self.term()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                t = self.term()
                parts.append(t if val == "+" else mul(MINUS_ONE, t))
            else:
                return parts[0] if len(parts) == 1 else add(*parts)

    def term(self) -> Expr:
        parts = [self.unary()]
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                u = self.unary()
                parts.append(u if val == "*" else power(u, MINUS_ONE))
            else:
                return parts[0] if len(parts) == 1 else mul(*parts)

    def unary(self) -> Expr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nested deeper than {_MAX_DEPTH} levels",
                             self.text, self.peek()[2])
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        e = self.power()
        self.depth -= 1
        return e if sign == 1 else mul(MINUS_ONE, e)

    def power(self) -> Expr:
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return power(base, self.unary())
        return base

    def primary(self) -> Expr:
        kind, val, pos = self.take()
        if kind == "num":
            return Rat(Fraction(val) if "." in val else int(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val != "sqrt" and val not in KERNELS:
                    raise ParseError(f"unknown kernel {val!r}", self.text, pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                if val == "sqrt":
                    return power(arg, rat(1, 2))
                return kernel(val, arg)
            resolved = _resolve(self.vocabulary, val)
            if resolved is None:
                raise ParseError(f"unknown identifier {val!r}", self.text, pos)
            return sym(resolved)
        raise ParseError(f"unexpected {val!r}" if val else "unexpected end of input",
                         self.text, pos)


def parse_expr(text: str, vocabulary=None) -> Expr:
    """Parse text into a normalized expression.

    ``vocabulary`` may be a set of names, or any object with a
    ``resolve(name) -> canonical name | None`` method (jet spaces qualify).
    ``None`` accepts every identifier.
    """
    return _Parser(text, vocabulary).parse()
