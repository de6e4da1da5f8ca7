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

from .expr import (Expr, ExprError, KERNELS, MINUS_ONE, ZERO, Rat, add, kernel,
                   mul, power, rat, sym)


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


def _negated(e: Expr) -> Expr:
    return Rat(-e.value) if isinstance(e, Rat) else mul(MINUS_ONE, e)


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
    """Reads ``self.tokens`` by index.  Only an operator token's text is one
    of the operator characters, so the text alone tells an operator apart."""

    def __init__(self, text: str, vocabulary):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.vocabulary = vocabulary

    def expect_op(self, op: str):
        _, val, pos = self.tokens[self.i]
        self.i += 1
        if val != op:
            raise ParseError(f"expected {op!r}", self.text, pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", self.text, pos)
        return e

    def expr(self) -> Expr:
        tokens = self.tokens
        parts = [self.term()]
        while True:
            val = tokens[self.i][1]
            if val != "+" and val != "-":
                return parts[0] if len(parts) == 1 else add(*parts)
            self.i += 1
            t = self.term()
            parts.append(t if val == "+" else _negated(t))

    def term(self) -> Expr:
        """A product.  Its rational constant operands fold into one
        coefficient, so only the other factors go through ``mul``; dividing
        by a zero constant still goes through ``power``, which raises."""
        tokens = self.tokens
        u = self.unary()
        if tokens[self.i][1] not in ("*", "/"):
            return u
        coeff, rest = (u.value, []) if isinstance(u, Rat) else (1, [u])
        while True:
            val = tokens[self.i][1]
            if val != "*" and val != "/":
                break
            self.i += 1
            u = self.unary()
            if isinstance(u, Rat) and (val == "*" or u.value):
                coeff = coeff * u.value if val == "*" else Fraction(coeff) / u.value
            else:
                rest.append(u if val == "*" else power(u, MINUS_ONE))
        if coeff == 0:
            return ZERO
        if not rest:
            return Rat(coeff)
        return mul(*rest) if coeff == 1 else mul(Rat(coeff), *rest)

    def unary(self) -> Expr:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"nested deeper than {_MAX_DEPTH} levels",
                             self.text, self.tokens[self.i][2])
        tokens = self.tokens
        sign = 1
        while True:
            val = tokens[self.i][1]
            if val == "-":
                sign = -sign
            elif val != "+":
                break
            self.i += 1
        e = self.power()
        self.depth -= 1
        return e if sign == 1 else _negated(e)

    def power(self) -> Expr:
        base = self.primary()
        if self.tokens[self.i][1] == "^":
            self.i += 1
            return power(base, self.unary())
        return base

    def primary(self) -> Expr:
        kind, val, pos = self.tokens[self.i]
        self.i += 1
        if kind == "num":
            return Rat(Fraction(val) if "." in val else int(val))
        if val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            if self.tokens[self.i][1] == "(":
                if val != "sqrt" and val not in KERNELS:
                    raise ParseError(f"unknown kernel {val!r}", self.text, pos)
                self.i += 1
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
