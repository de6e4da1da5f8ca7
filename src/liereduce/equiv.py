"""Expression equivalence: structural and exact zero tests, with a seeded
numeric fallback.

``equiv(a, b)`` decides whether d = a - b is zero in this order:

1. **Structural.**  d normalizes to 0 (zero), or to a nonzero rational
   constant (nonzero).  Neither gives a false verdict.
2. **Exact.**  A *rational* d (no kernels, and only integer exponents) is
   evaluated exactly, in Python integers, at _EXACT_SAMPLES seeded points
   whose coordinates are drawn uniformly from the 2^b integers in
   [-2^(b-1), 2^(b-1)); a point where a denominator vanishes is skipped.
   b is 62, or less when d has an exponent n past 2^20/62 (about 16,900):
   b = max(32, 2^20 // n), so that a variable's power stays within
   ``expr.MAX_POWER_BITS``.  A nonzero value proves d nonzero, and d is zero
   when every value is zero.  With deg the degree of d's cleared numerator,
   the Schwartz-Zippel lemma (Schwartz 1980; Zippel 1979) bounds the chance
   of a false zero by (deg/2^b)^_EXACT_SAMPLES, with no assumption on d's
   constants.  When more than _MAX_ATTEMPTS points are skipped, or a power
   at a point is beyond the bound after all, d takes the next path.
3. **Cleared denominators.**  Term-level denominators are multiplied away,
   and a result of 0 is zero.
4. **Numeric.**  d is evaluated in floats, at random rational sample points
   drawn from the safe domain of every kernel and fractional power present
   (all variables positive once any such constraint exists, and the
   constraints rechecked numerically).  d and each constraint are compiled
   once by ``numeric``; a point where a value overflows a double is
   unusable.  d is zero when it stays within the absolute _TOLERANCE at
   _SAMPLES points.  A constant d is evaluated once, and raises
   SamplingDomainError when it leaves the real domain or a double's range.
   A d whose powers were beyond the bound is nonzero at a float point where
   it is not within _TOLERANCE, but such a power may underflow to 0.0, so
   when d is within _TOLERANCE at every point it raises
   SamplingDomainError instead of counting as zero.

Sampling is deterministic: each RNG is seeded from a fixed seed and a
checksum of the sorted names of the variables it draws, so results do not
depend on call order, and no expression is rendered unless an error is
raised.

The same points decide whether a square matrix of expressions (a chart's base
Jacobian) is singular everywhere, by elimination at each point in O(k^3):
fraction-free over the integers when every entry is rational, else exactly
in ``Fraction`` when every entry is rational at the rational point, else in
floats; a point where a power is beyond the bound is unusable.  The
``Fraction`` elimination, ``echelon``, also serves the algebra module's
linear algebra.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction
from typing import Callable

from .expr import (Add, DomainError, Expr, ExprError, MAX_POWER_BITS, Mul, Pow,
                   PowerBoundError, Rat, Sym, ZERO, check_power_bound,
                   clear_denominators, eval_numeric, free_vars, numeric,
                   positivity_constraints, quoted, render, substitute)


class SamplingDomainError(ExprError):
    """No sample point satisfying the positivity constraints was found."""


# A sampled difference is zero when it stays within _TOLERANCE at _SAMPLES
# points, and nonzero at the first point where it does not; a sampled matrix
# is singular when it is singular at _SAMPLES points.  Points outside the
# domain do not count; once more than _MAX_ATTEMPTS of them are drawn, the
# domain is taken to be empty.
_SAMPLES = 16
_TOLERANCE = 1e-9
_SEED = 20260809
_MAX_ATTEMPTS = 80

# Rational expressions are evaluated exactly at _EXACT_SAMPLES usable
# integer points drawn uniformly from [-_EXACT_RANGE, _EXACT_RANGE), a range
# narrowed for large exponents to no fewer than _EXACT_MIN_BITS bits.
_EXACT_SAMPLES = 4
_EXACT_RANGE = 2**61
_EXACT_MIN_BITS = 32


def _rng(text: str) -> random.Random:
    return random.Random((_SEED << 32) ^ zlib.crc32(text.encode("utf-8")))


def _draw(rng: random.Random, positive: bool) -> Fraction:
    v = Fraction(rng.randint(3, 40), rng.randint(10, 24))
    if not positive and rng.random() < 0.5:
        v = -v
    return v


def _point(rng: random.Random, names: list[str], constraints: list[Callable]
           ) -> tuple[dict[str, Fraction], dict[str, float]] | None:
    """A seeded rational sample point and its floats, or None when it leaves
    the domain of a positivity constraint (each compiled by ``numeric``).
    Every variable is drawn positive when any positivity constraint
    exists."""
    pt = {n: _draw(rng, bool(constraints)) for n in names}
    floats = {n: float(v) for n, v in pt.items()}
    try:
        if any(c(floats) <= 1e-6 for c in constraints):
            return None
    except (DomainError, OverflowError):
        return None
    return pt, floats


def _sampled(rng: random.Random, draw, values, witness, needed: int) -> bool | None:
    """Whether ``witness`` holds at a sample point: True at the first usable
    point where it does, False after ``needed`` usable points where it does
    not, and None once more than _MAX_ATTEMPTS points are unusable.  A point
    is ``draw(rng)``, None when unusable, and ``values`` maps it to what
    ``witness`` reads there, or to None when it is unusable after all."""
    usable = unusable = 0
    while usable < needed:
        pt = draw(rng)
        v = None if pt is None else values(pt)
        if v is None:
            unusable += 1
            if unusable > _MAX_ATTEMPTS:
                return None
        elif witness(v):
            return True
        else:
            usable += 1
    return False


def _rational_names(exprs: list[Expr]) -> tuple[list[str], int] | None:
    """The sorted variable names of the rational ``exprs`` and the largest
    magnitude of their exponents (1 when they have none), or None when some
    expression is not rational (it holds a kernel, or a non-integer or
    symbolic exponent)."""
    names: set[str] = set()
    top = 1
    stack = list(exprs)
    while stack:
        n = stack.pop()
        if isinstance(n, Sym):
            names.add(n.name)
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow) and isinstance(n.exponent, Rat) \
                and n.exponent.value.denominator == 1:
            k = n.exponent.value.numerator
            if k > top or -k > top:
                top = abs(k)
            stack.append(n.base)
        elif not isinstance(n, Rat):
            return None
    return sorted(names), top


def _value(e: Expr, pt: dict[str, int]) -> tuple[int, int]:
    """The rational ``e`` at the integer point ``pt``, exactly, as an
    unreduced (numerator, denominator) pair; ZeroDivisionError where one of
    its denominators vanishes, and PowerBoundError where a power is beyond
    the bound."""
    if isinstance(e, Rat):
        return e.value.numerator, e.value.denominator
    if isinstance(e, Sym):
        return pt[e.name], 1
    if isinstance(e, Add):
        num, den = 0, 1
        for t in e.terms:
            a, b = _value(t, pt)
            num, den = num * b + a * den, den * b
        return num, den
    if isinstance(e, Mul):
        num, den = 1, 1
        for f in e.factors:
            a, b = _value(f, pt)
            num, den = num * a, den * b
        return num, den
    num, den = _value(e.base, pt)
    k = e.exponent.value.numerator
    check_power_bound(max(abs(num), abs(den)), k)
    if k < 0:
        if num == 0:
            raise ZeroDivisionError("pole")
        num, den, k = den, num, -k
    return num ** k, den ** k


def _exact(exprs: list[Expr], witness) -> bool | None:
    """Whether ``witness`` holds for the exact values of ``exprs`` (a list of
    ``_value`` pairs) at some integer point drawn uniformly from [-h, h),
    seeded from their variable names: True at the first point where it
    does, and False when it holds at none of _EXACT_SAMPLES usable points.
    h is _EXACT_RANGE, or 2^(b-1) with b = max(_EXACT_MIN_BITS,
    MAX_POWER_BITS // n) when that is smaller, n the largest exponent.  None
    when the expressions are not rational, or more than _MAX_ATTEMPTS points
    hit a vanishing denominator; PowerBoundError when a power at a point is
    beyond the bound."""
    found = _rational_names(exprs)
    if found is None:
        return None
    names, top = found
    half = min(_EXACT_RANGE, 1 << (max(_EXACT_MIN_BITS, MAX_POWER_BITS // top) - 1))

    def values(pt):
        try:
            return [_value(e, pt) for e in exprs]
        except ZeroDivisionError:
            return None

    return _sampled(_rng(" ".join(names)),
                    lambda r: {n: r.randrange(-half, half) for n in names},
                    values, witness, _EXACT_SAMPLES)


def _floating(exprs: list[Expr], values, witness) -> bool:
    """``_sampled`` over _SAMPLES usable rational points in the domain of
    every positivity constraint of ``exprs``, seeded from their variable
    names; SamplingDomainError when more than _MAX_ATTEMPTS are unusable."""
    names = sorted(set().union(*map(free_vars, exprs)))
    constraints = [numeric(c) for c in dict.fromkeys(
        c for e in exprs for c in positivity_constraints(e))]
    found = _sampled(_rng(" ".join(names)), lambda r: _point(r, names, constraints),
                     values, witness, _SAMPLES)
    if found is None:
        raise SamplingDomainError(
            f"sampling domain empty for {quoted('; '.join(map(render, exprs)))}")
    return found


def equiv(a: Expr, b: Expr) -> bool:
    """True when a - b is zero structurally, exactly at integer points, or at
    every sample point (see the module docstring for the order)."""
    d = a - b
    if d == ZERO:
        return True
    if isinstance(d, Rat):
        return False
    beyond = False
    try:
        nonzero = _exact([d], lambda v: v[0][0] != 0)
    except PowerBoundError:
        nonzero, beyond = None, True
    if nonzero is not None:
        return not nonzero
    if clear_denominators(d) == ZERO:
        return True
    if not free_vars(d):
        try:
            return abs(eval_numeric(d, {})) <= _TOLERANCE
        except DomainError:
            raise SamplingDomainError(
                f"constant expression {quoted(render(d))} leaves the real domain")
        except OverflowError:
            raise SamplingDomainError(
                f"constant expression {quoted(render(d))} overflows a double")

    at = numeric(d)

    def value(p):
        try:
            v = at(p[1])
        except (DomainError, OverflowError):
            return None
        return v if math.isfinite(v) else None

    if _floating([d], value, lambda v: abs(v) > _TOLERANCE):
        return False
    if beyond:
        raise SamplingDomainError(
            f"{quoted(render(d))} is too large to evaluate exactly, and a float "
            "zero may be an underflow")
    return True


def is_zero(e: Expr) -> bool:
    return equiv(e, ZERO)


def echelon(rows: list[list], tol=0) -> list[list]:
    """Forward Gaussian elimination with partial pivoting, in place: the
    pivot rows of a row-echelon form, as many as the rank.  A column whose
    largest remaining entry has magnitude at most ``tol`` gets no pivot.
    Exact on Fractions with tol = 0."""
    lead = 0
    for col in range(len(rows[0]) if rows else 0):
        if lead == len(rows):
            break
        piv = max(range(lead, len(rows)), key=lambda r: abs(rows[r][col]))
        if abs(rows[piv][col]) <= tol:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        top = rows[lead]
        for r in range(lead + 1, len(rows)):
            f = rows[r][col] / top[col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], top)]
        lead += 1
    return rows[:lead]


def _equilibrated(rows: list[list[float]]) -> list[list[float]]:
    """Divide each row, then each column, by its largest magnitude (the rank
    is unchanged, and every entry ends up in [-1, 1])."""
    for row in rows:
        m = max(map(abs, row))
        if m:
            row[:] = [v / m for v in row]
    for j in range(len(rows)):
        m = max(abs(row[j]) for row in rows)
        if m:
            for row in rows:
                row[j] /= m
    return rows


def _nonsingular(rows: list[list[tuple[int, int]]]) -> bool:
    """Whether the square matrix ``rows`` of exact values, as (numerator,
    denominator) pairs, is nonsingular.  Each row is scaled to integers by
    the product of its denominators, then eliminated fraction-free
    (Bareiss), so every division is exact."""
    m = []
    for row in rows:
        scale = math.prod(d for _, d in row)
        m.append([n * (scale // d) for n, d in row])
    prev = 1
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        p = top[col]
        for r in range(col + 1, len(m)):
            f = m[r][col]
            m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
    return True


def sampled_nonsingular(mat: list[list[Expr]]) -> bool:
    """True when the square matrix ``mat`` is nonsingular at a sample point.

    The points are drawn as in ``equiv``, seeded from the entries' variable
    names.
    When every entry is rational, exact integer elimination decides as the
    exact path does for ``equiv``: a nonzero determinant at one integer
    point proves ``mat`` nonsingular, and a zero one at _EXACT_SAMPLES
    points makes it singular, wrongly with chance at most
    (deg/2^62)^_EXACT_SAMPLES for a determinant numerator of degree deg.
    Otherwise, at a point where every entry is rational, exact elimination
    in ``Fraction`` decides, so a tiny nonzero determinant still counts;
    else the entries are evaluated in floats and equilibrated before
    elimination, so _TOLERANCE is relative to the size of the matrix.  A
    rational matrix with a power beyond the bound at the integer points is
    decided at the rational points, where a power beyond it makes the point
    unusable.  False only after _SAMPLES usable points all give a singular
    matrix.
    """
    entries = [e for row in mat for e in row]
    k = len(mat)
    try:
        found = _exact(entries, lambda v: _nonsingular(
            [v[i:i + k] for i in range(0, len(v), k)]))
    except PowerBoundError:
        found = None
    if found is not None:
        return found

    def rows(p):
        try:
            values = [[substitute(e, p[0]) for e in row] for row in mat]
        except DomainError:
            return None
        if all(isinstance(v, Rat) for row in values for v in row):
            return [[Fraction(v.value) for v in row] for row in values], 0
        try:
            out = [[eval_numeric(v, {}) for v in row] for row in values]
        except (DomainError, OverflowError):
            return None
        if not all(math.isfinite(v) for row in out for v in row):
            return None
        return _equilibrated(out), _TOLERANCE

    return _floating(entries, rows, lambda rt: len(echelon(*rt)) == k)
