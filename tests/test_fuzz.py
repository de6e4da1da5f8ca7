"""Seeded fuzz: texts with large constants, their radicals and large
exponents through the parser, ``render``, ``diff``, ``substitute``,
``DESystem.build`` and ``prolong``.  An operation may refuse its input, but
only with an ``ExprError``, which the loader locates; a raw Python exception
would escape unlocated."""

import random

from liereduce import (DESystem, ExprError, JetSpace, VectorField, diff, parse_expr,
                       prolong, render, substitute)

SPACE = JetSpace(("x",), ("y",), 2)
# Atoms, among them constants past the interpreter's limit on int digits
# (3^19683 has 9,392 digits, 10^5000 has 5,001 and 2^99999 has 30,103) and
# a literal past it.
ATOMS = ["x", "y", "y'", "y''", "2", "7", "1/3", "3^19683", "3^(-19683)", "10^5000",
         "2^99999", "1" * 5000]
# Exponents, up to past the exact power bound.
EXPONENTS = ["2", "3", "-1", "-2", "20000", "-33000", "2^20 + 1", "10^6", "3^19683"]
# Radicals of y, y' and small constants, and of constants past the digit
# limit: three of powers, (3^19683)^(1/3) = 3^6561 among them, and one of a
# non-power.
RADICALS = [f"{b}^({e})" for b in ("y", "y'", "2", "7") for e in ("1/2", "1/3", "-4/3")] + \
    ["(3^19683)^(1/3)", "(2^99999)^(1/3)", "(7^30001)^(1/7)", "(3^19683 + 1)^(1/3)"]


def random_text(rng: random.Random, depth: int = 3) -> str:
    """A seeded random expression text over SPACE's coordinates."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return rng.choice(RADICALS)
        return rng.choice(ATOMS)
    kind = rng.randrange(5)
    a, b = random_text(rng, depth - 1), random_text(rng, depth - 1)
    if kind == 0:
        return f"({a}) + ({b})"
    if kind == 1:
        return f"({a})*({b})"
    if kind == 2:
        return f"({a})/({b})"
    if kind == 3:
        return f"({a})^({rng.choice(EXPONENTS)})"
    return f"{rng.choice(['exp', 'log', 'sin'])}({a})"


def _outcome(op, *args) -> str:
    """'ok', or the name of the ExprError the operation refused with; any
    other exception propagates."""
    try:
        op(*args)
    except ExprError as exc:
        return type(exc).__name__
    return "ok"


def test_only_expr_errors_escape():
    rng = random.Random(2801)
    seen = set()
    for _ in range(200):
        texts = [random_text(rng) for _ in range(3)]
        try:
            e = parse_expr(texts[0], SPACE)
            other = parse_expr(texts[1], SPACE)
        except ExprError as exc:
            seen.add(type(exc).__name__)
            continue
        ops = [
            (render, e),
            (diff, e, "x"),
            (diff, e, "y'"),
            (substitute, e, {"x": other}),
            (substitute, e, {"y": other}),
            (DESystem.build, SPACE,
             [f"y'' = {texts[0]}", f"y' = {texts[1]}"][:1 + rng.randrange(2)]),
            (lambda a, b: prolong(VectorField.parse(SPACE, {"x": a, "y": b}), 2),
             texts[1], texts[2]),
        ]
        for op, *args in ops:
            try:
                seen.add(_outcome(op, *args))
            except Exception as exc:
                raise AssertionError(f"{type(exc).__name__}: {exc} from {op} on {texts}") from exc
    # The texts reach both outcomes, and the refusals of several layers.
    assert {"ok", "ParseError", "PowerBoundError"} <= seen
