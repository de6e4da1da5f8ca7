"""Recursive-descent parser for the expression grammar.

Grammar (infix, ``^`` for powers, no implicit multiplication)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := ('+' | '-')* atom ('^' unary)?
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Numbers are integers or decimals, stored exactly.  A NAME followed by ``(``
must be a kernel (``exp``, ``log``, ..., with ``sqrt(u)`` sugar for
``u^(1/2)``); any other NAME must resolve against the supplied vocabulary.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .expr import (Expr, ExprError, KERNELS, MINUS_ONE, ZERO, Rat, add, kernel,
                   mul, plain_term, power, quoted, rat, sym)


class ParseError(ExprError):
    """A located parse error.  The message quotes the text around ``pos``
    (``expr.quoted``)."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {quoted(text, pos)}")
        self.text = text
        self.pos = pos


# Whitespace, then one token: a number, a name, an operator, or any other
# visible character, which is an error.  Trailing whitespace matches nothing.
# A token's first character tells its kind.
_TOKEN = re.compile(r"\s*(\d+(?:\.\d+)?|[A-Za-z_][A-Za-z0-9_]*'*|[-+*/^()]|\S)")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# The first characters of the tokens that are not errors, but for the
# non-ASCII decimal digits, which ``\d`` also matches.
_GOOD_START = _NAME_START | frozenset("0123456789+-*/^()")


def _tokenize(text: str) -> list[str]:
    """The text of each token, then "" for the end of input."""
    tokens = _TOKEN.findall(text)
    bad = {t for t in set(tokens) if t[0] not in _GOOD_START and not t[0].isdecimal()}
    if bad:
        for m in _TOKEN.finditer(text):
            if m[1] in bad:
                raise ParseError(f"unexpected character {m[1]!r}", text, m.start(1))
    tokens.append("")
    return tokens


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
# passes through unary() once and costs at most three stack frames (unary,
# expr, term).  100 levels stay well below Python's default recursion limit
# of 1000 frames, leaving room for the caller's frames and for the
# recursive walks over the parsed expression.
_MAX_DEPTH = 100


class _Parser:
    """Reads ``self.tokens``, a list of token texts, by index.  Only an
    operator token's text is one of the operator characters, so the text
    alone tells an operator apart; the end of input is ""."""

    def __init__(self, text: str, vocabulary):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.vocabulary = vocabulary

    def error(self, message: str, i: int) -> ParseError:
        """A ParseError at token ``i``; offsets are found only here."""
        starts = [m.start(1) for m in _TOKEN.finditer(self.text)]
        starts.append(len(self.text))
        return ParseError(message, self.text, starts[i])

    def expect_op(self, op: str):
        i = self.i
        self.i += 1
        if self.tokens[i] != op:
            raise self.error(f"expected {op!r}", i)

    def parse(self) -> Expr:
        e = self.expr()
        val = self.tokens[self.i]
        if val:
            raise self.error(f"unexpected {val!r}", self.i)
        return e

    def expr(self) -> Expr:
        tokens = self.tokens
        parts = [self.term()]
        while True:
            val = tokens[self.i]
            if val != "+" and val != "-":
                return parts[0] if len(parts) == 1 else add(*parts)
            self.i += 1
            t = self.term()
            parts.append(t if val == "+" else _negated(t))

    def term(self) -> Expr:
        """A product.  Its rational constant operands fold into one
        coefficient.  One other factor times 1 is returned as it is, since
        a normalized factor is its own product; other factors are a plain
        monomial (``expr.plain_term``) or go through ``mul``; dividing by a
        zero constant still goes through ``power``, which raises."""
        tokens = self.tokens
        u = self.unary()
        if tokens[self.i] not in ("*", "/"):
            return u
        coeff, rest = (u.value, []) if isinstance(u, Rat) else (1, [u])
        while True:
            val = tokens[self.i]
            if val != "*" and val != "/":
                break
            self.i += 1
            u = self.unary()
            if isinstance(u, Rat) and (val == "*" or u.value):
                coeff = coeff * u.value if val == "*" else Fraction(coeff, u.value)
            else:
                rest.append(u if val == "*" else power(u, MINUS_ONE))
        if coeff == 0:
            return ZERO
        if not rest:
            return Rat(coeff)
        if coeff == 1 and len(rest) == 1:
            return rest[0]
        t = plain_term(coeff, rest)
        if t is not None:
            return t
        return mul(*rest) if coeff == 1 else mul(Rat(coeff), *rest)

    def constant_group(self) -> Rat | None:
        """The constant of a group whose content after its ``(``, from
        token ``self.i`` on, is ``[-] int [/ int] )``, with ``self.i``
        moved past the ``)``.  Any other group (a decimal, more signs, a
        zero denominator, a literal past the interpreter's digit limit)
        gives None and leaves ``self.i`` where it was, so the general path
        reads it and raises its errors as before.  The caller asks only
        when the content is within the depth limit."""
        tokens = self.tokens
        i = self.i
        negative = tokens[i] == "-"
        num = tokens[i + negative]
        if not num[:1].isdecimal() or "." in num:
            return None
        i += negative + 1
        den = "1"
        if tokens[i] == "/":
            den = tokens[i + 1]
            if not den[:1].isdecimal() or "." in den:
                return None
            i += 2
        if tokens[i] != ")":
            return None
        try:
            n, d = int(num), int(den)
        except ValueError:  # past the interpreter's limit on digits read
            return None
        if d == 0:
            return None
        self.i = i + 1
        if negative:
            n = -n
        return Rat(n if d == 1 else Fraction(n, d))

    def unary(self) -> Expr:
        """Signs, then an atom (a number, a name, a kernel call or a
        parenthesized expression), then an optional ``^`` and its exponent,
        which is again a unary; the signs apply to the power."""
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error(f"nested deeper than {_MAX_DEPTH} levels", self.i)
        tokens = self.tokens
        i = self.i
        sign = 1
        val = tokens[i]
        while val == "-" or val == "+":
            if val == "-":
                sign = -sign
            i += 1
            val = tokens[i]
        self.i = i + 1
        if val == "(":
            e = self.constant_group() if self.depth < _MAX_DEPTH else None
            if e is None:
                e = self.expr()
                self.expect_op(")")
        elif val[:1] in _NAME_START:
            if tokens[i + 1] == "(":
                if val != "sqrt" and val not in KERNELS:
                    raise self.error(f"unknown kernel {val!r}", i)
                self.i += 1
                arg = self.expr()
                self.expect_op(")")
                e = power(arg, rat(1, 2)) if val == "sqrt" else kernel(val, arg)
            else:
                resolved = _resolve(self.vocabulary, val)
                if resolved is None:
                    raise self.error(f"unknown identifier {val!r}", i)
                e = sym(resolved)
        elif val[:1].isdecimal():
            try:
                e = Rat(Fraction(val) if "." in val else int(val))
            except ValueError:  # past the interpreter's limit on digits read
                raise self.error(f"number of {len(val)} characters is too long", i) from None
        else:
            raise self.error(f"unexpected {val!r}" if val else "unexpected end of input", i)
        if tokens[self.i] == "^":
            self.i += 1
            e = power(e, self.unary())
        self.depth -= 1
        return e if sign == 1 else _negated(e)


def parse_expr(text: str, vocabulary=None) -> Expr:
    """Parse text into a normalized expression.

    ``vocabulary`` may be a set of names, or any object with a
    ``resolve(name) -> canonical name | None`` method (jet spaces qualify).
    ``None`` accepts every identifier.
    """
    return _Parser(text, vocabulary).parse()
