"""Expression equivalence: structural and modular zero tests, with a seeded
numeric fallback.

``equiv(a, b)`` decides whether d = a - b is zero in this order:

1. **Structural.**  d normalizes to 0 (zero), or to a nonzero rational
   constant (nonzero).  Neither gives a false verdict.
2. **Modular.**  A *rational* d (no kernels, and only integer exponents) is
   evaluated modulo a prime P at _MOD_SAMPLES seeded points drawn uniformly
   from Z_P, with ``pow(b, k, P)`` for negative powers too.  A nonzero
   residue proves the numerator of d nonzero, so d is nonzero.  When every
   residue is zero, one more point from the same stream is evaluated modulo
   a second prime Q, and d is zero when that residue is zero too.  P and Q
   are the first two primes in _PRIMES that divide no numerator or
   denominator of any constant of d; a point where a denominator vanishes
   is skipped.  When P does not divide the content (the gcd of the
   coefficients) of d's cleared numerator, the Schwartz-Zippel lemma
   (Schwartz 1980; Zippel 1979) bounds the chance of a false zero by
   (deg/P)^_MOD_SAMPLES, where deg is the numerator's degree; when P
   divides it but Q does not, as for 1/(x + 1) - 1/(x + 2^61) with the
   numerator 2^61 - 1, by deg/Q.  The verdict assumes that P*Q does not
   divide that content.  When fewer than two primes qualify, or more than
   _MAX_ATTEMPTS points are skipped, d takes the numeric path.
3. **Cleared denominators.**  Term-level denominators are multiplied away,
   and a result of 0 is zero.
4. **Numeric.**  d is evaluated in floats, at random rational sample points
   drawn from the safe domain of every kernel and fractional power present
   (all variables positive once any such constraint exists, and the
   constraints rechecked numerically).  d is zero when it stays within the
   absolute _TOLERANCE at _SAMPLES points.  A constant d is evaluated once.

Sampling is deterministic: each RNG is seeded from a fixed seed and a
checksum of the rendered expression, so results do not depend on call order.

The same points decide whether a square matrix of expressions (a chart's base
Jacobian) is singular everywhere, by elimination at each point in O(k^3):
modulo P, with a singular verdict confirmed modulo Q, when every entry is
rational, else exactly in ``Fraction`` when every entry is rational at the
rational point, else in floats.  The exact elimination, ``echelon``, also
serves the algebra module's linear algebra.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction

from .expr import (Add, DomainError, Expr, ExprError, Mul, Pow, Rat, Sym, ZERO,
                   clear_denominators, eval_numeric, free_vars,
                   positivity_constraints, render, substitute)


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

# Rational expressions are decided modulo the first two of these Mersenne
# primes that divide no constant of theirs: at _MOD_SAMPLES usable points
# modulo the first, and a "zero" or "singular" verdict at one more modulo
# the second.
_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)
_MOD_SAMPLES = 4


def _rng(text: str) -> random.Random:
    return random.Random((_SEED << 32) ^ zlib.crc32(text.encode("utf-8")))


def _draw(rng: random.Random, positive: bool) -> Fraction:
    v = Fraction(rng.randint(3, 40), rng.randint(10, 24))
    if not positive and rng.random() < 0.5:
        v = -v
    return v


def _point(rng: random.Random, names: list[str],
           constraints: list[Expr]) -> dict[str, Fraction] | None:
    """A seeded rational sample point, or None when it leaves the domain of
    a positivity constraint.  Every variable is drawn positive when any
    positivity constraint exists."""
    pt = {n: _draw(rng, bool(constraints)) for n in names}
    try:
        if any(eval_numeric(c, pt) <= 1e-6 for c in constraints):
            return None
    except (DomainError, OverflowError):
        return None
    return pt


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


def _modulus(exprs: list[Expr]) -> tuple[list[int], list[str]] | None:
    """The primes in _PRIMES that divide no numerator or denominator of a
    constant of the rational ``exprs``, and their sorted variable names; None
    when some expression is not rational (it holds a kernel, or a
    non-integer or symbolic exponent)."""
    consts: set[int] = set()
    names: set[str] = set()
    stack = list(exprs)
    while stack:
        n = stack.pop()
        if isinstance(n, Rat):
            consts.update((n.value.numerator, n.value.denominator))
        elif isinstance(n, Sym):
            names.add(n.name)
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow) and isinstance(n.exponent, Rat) \
                and n.exponent.value.denominator == 1:
            stack.append(n.base)
        else:
            return None
    consts.discard(0)
    return [P for P in _PRIMES if all(c % P for c in consts)], sorted(names)


def _residue(e: Expr, pt: dict[str, int], P: int) -> int:
    """The rational ``e`` at ``pt`` modulo P; ValueError where one of its
    denominators vanishes."""
    if isinstance(e, Rat):
        v = e.value
        if v.denominator == 1:
            return v.numerator % P
        return v.numerator * pow(v.denominator, -1, P) % P
    if isinstance(e, Sym):
        return pt[e.name]
    if isinstance(e, Add):
        return sum(_residue(t, pt, P) for t in e.terms) % P
    if isinstance(e, Mul):
        out = 1
        for f in e.factors:
            out = out * _residue(f, pt, P) % P
        return out
    return pow(_residue(e.base, pt, P), e.exponent.value.numerator, P)


def _residues(exprs: list[Expr], pt: dict[str, int], P: int) -> list[int] | None:
    """The residues of ``exprs`` at ``pt`` modulo P, or None where one of
    their denominators vanishes."""
    try:
        return [_residue(e, pt, P) for e in exprs]
    except ValueError:
        return None


def _modular(exprs: list[Expr], witness) -> bool | None:
    """Whether ``witness(residues, P)`` holds at some point, given the
    residues of ``exprs`` at points of Z_P seeded from their rendered text:
    True at the first point where it does, and False when it holds at none
    of _MOD_SAMPLES usable points modulo the first qualifying prime P nor at
    one more modulo the second, drawn from the same stream.  None when the
    expressions are not rational, fewer than two primes qualify, or more
    than _MAX_ATTEMPTS points are skipped."""
    found = _modulus(exprs)
    if found is None or len(found[0]) < 2:
        return None
    primes, names = found
    rng = _rng("; ".join(map(render, exprs)))
    for P, needed in zip(primes, (_MOD_SAMPLES, 1)):
        held = _sampled(rng, lambda r: {n: r.randrange(P) for n in names},
                        lambda pt: _residues(exprs, pt, P),
                        lambda v: witness(v, P), needed)
        if held is not False:
            return held
    return False


def equiv(a: Expr, b: Expr) -> bool:
    """True when a - b is zero structurally, modulo a prime, or at every
    sample point (see the module docstring for the order)."""
    d = a - b
    if d == ZERO:
        return True
    if isinstance(d, Rat):
        return False
    nonzero = _modular([d], lambda v, P: v[0] != 0)
    if nonzero is not None:
        return not nonzero
    if clear_denominators(d) == ZERO:
        return True
    if not free_vars(d):
        try:
            return abs(eval_numeric(d, {})) <= _TOLERANCE
        except DomainError:
            raise SamplingDomainError(
                f"constant expression {render(d)!r} leaves the real domain")
    text = render(d)
    names, constraints = sorted(free_vars(d)), positivity_constraints(d)

    def value(pt):
        try:
            v = eval_numeric(d, pt)
        except (DomainError, OverflowError):
            return None
        return v if math.isfinite(v) else None

    nonzero = _sampled(_rng(text), lambda r: _point(r, names, constraints), value,
                       lambda v: abs(v) > _TOLERANCE, _SAMPLES)
    if nonzero is None:
        raise SamplingDomainError(f"sampling domain empty for {text!r}")
    return not nonzero


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


def _nonsingular_mod(rows: list[list[int]], P: int) -> bool:
    """Whether the square matrix ``rows`` of residues is nonsingular modulo
    P (eliminated in place)."""
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        inv = pow(top[col], -1, P)
        for r in range(col + 1, len(rows)):
            f = rows[r][col] * inv % P
            if f:
                rows[r] = [(a - f * b) % P for a, b in zip(rows[r], top)]
    return True


def sampled_nonsingular(mat: list[list[Expr]]) -> bool:
    """True when the square matrix ``mat`` is nonsingular at a sample point.

    The points are drawn as in ``equiv``, seeded from the rendered entries.
    When every entry is rational, elimination modulo a prime decides as it
    does for ``equiv``: a nonzero determinant at one point proves ``mat``
    nonsingular, and a zero one at _MOD_SAMPLES points modulo the first
    prime and at one more modulo the second makes it singular.
    Otherwise, at a point where every entry is rational, exact elimination
    decides, so a tiny nonzero determinant still counts; else the entries are
    evaluated in floats and equilibrated before elimination, so _TOLERANCE
    is relative to the size of the matrix.  False only after _SAMPLES usable
    points all give a singular matrix.
    """
    entries = [e for row in mat for e in row]
    k = len(mat)
    found = _modular(entries, lambda v, P: _nonsingular_mod(
        [v[i:i + k] for i in range(0, len(v), k)], P))
    if found is not None:
        return found
    names = sorted(set().union(*map(free_vars, entries)))
    constraints = list(dict.fromkeys(c for e in entries
                                     for c in positivity_constraints(e)))
    text = "; ".join(map(render, entries))

    def rows(pt):
        try:
            values = [[substitute(e, pt) for e in row] for row in mat]
        except DomainError:
            return None
        if all(isinstance(v, Rat) for row in values for v in row):
            return [[v.value for v in row] for row in values], 0
        try:
            out = [[eval_numeric(v, {}) for v in row] for row in values]
        except (DomainError, OverflowError):
            return None
        if not all(math.isfinite(v) for row in out for v in row):
            return None
        return _equilibrated(out), _TOLERANCE

    found = _sampled(_rng(text), lambda r: _point(r, names, constraints), rows,
                     lambda rt: len(echelon(*rt)) == k, _SAMPLES)
    if found is None:
        raise SamplingDomainError(f"sampling domain empty for {text!r}")
    return found
