"""Expression equivalence: structural and modular zero tests, with a seeded
numeric fallback.

``equiv(a, b)`` decides whether d = a - b is zero in this order:

1. **Structural.**  d normalizes to 0 (zero), or to a nonzero rational
   constant (nonzero).  Neither gives a false verdict.
2. **Modular.**  A *rational* d (no kernels, and only integer exponents) is
   evaluated modulo a prime P at _MOD_SAMPLES seeded points drawn uniformly
   from Z_P, with ``pow(b, k, P)`` for negative powers too.  A nonzero
   residue proves the numerator of d nonzero, so d is nonzero.  When every
   residue is zero, d is zero; by the Schwartz-Zippel lemma (Schwartz 1980;
   Zippel 1979) the chance of error is at most (deg/P)^_MOD_SAMPLES, where
   deg is the degree of d's cleared numerator.  P is the first prime in
   _PRIMES that divides no numerator or denominator of any constant of d; a
   point where a denominator vanishes modulo P is skipped.  The verdict
   assumes that P does not divide every coefficient of d's cleared
   numerator, which the rule for P makes likely but does not prove:
   1/(x + 1) - 1/(x + 2^61) has the numerator 2^61 - 1 and reads as zero.
   When no prime qualifies, or more than _MAX_ATTEMPTS points are skipped,
   d takes the numeric path.
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
modulo P when every entry is rational, else exactly in ``Fraction`` when
every entry is rational at the rational point, else in floats.  The exact
elimination, ``echelon``, also serves the algebra module's linear algebra.
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

# Rational expressions are decided modulo the first of these Mersenne primes
# that divides no constant of theirs, at _MOD_SAMPLES usable points.
_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)
_MOD_SAMPLES = 4


def _rng(text: str) -> random.Random:
    return random.Random((_SEED << 32) ^ zlib.crc32(text.encode("utf-8")))


def _draw(rng: random.Random, positive: bool) -> Fraction:
    v = Fraction(rng.randint(3, 40), rng.randint(10, 24))
    if not positive and rng.random() < 0.5:
        v = -v
    return v


def _points(text: str, names: list[str], constraints: list[Expr]):
    """Seeded sample points for the expressions rendered as ``text``.

    Every variable is drawn positive when any positivity constraint exists,
    and a point that leaves a constraint's domain is skipped.  The caller
    stops once it has used _SAMPLES points; SamplingDomainError is raised
    when it asks for more than _MAX_ATTEMPTS + _SAMPLES draws.
    """
    rng = _rng(text)
    positive = bool(constraints)
    attempts = 0
    while True:
        attempts += 1
        if attempts > _MAX_ATTEMPTS + _SAMPLES:
            raise SamplingDomainError(f"sampling domain empty for {text!r}")
        pt = {n: _draw(rng, positive) for n in names}
        try:
            if any(eval_numeric(c, pt) <= 1e-6 for c in constraints):
                continue
        except (DomainError, OverflowError):
            continue
        yield pt


def _modulus(exprs: list[Expr]) -> tuple[int, list[str]] | None:
    """The prime the rational ``exprs`` are decided modulo, and their sorted
    variable names; None when some expression is not rational (it holds a
    kernel, or a non-integer or symbolic exponent) or every prime in _PRIMES
    divides a numerator or denominator of one of their constants."""
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
    P = next((P for P in _PRIMES if all(c % P for c in consts)), None)
    return None if P is None else (P, sorted(names))


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


def _modular(exprs: list[Expr], witness) -> bool | None:
    """Whether ``witness(residues, P)`` holds at some point, given the
    residues of ``exprs`` at points of Z_P seeded from their rendered text
    the way ``_points`` is seeded: True at the first point where it does,
    False after _MOD_SAMPLES usable points where it does not, and None when
    the expressions are not decided modulo a prime or more than
    _MAX_ATTEMPTS points are skipped."""
    found = _modulus(exprs)
    if found is None:
        return None
    P, names = found
    rng = _rng("; ".join(map(render, exprs)))
    checked = 0
    for _ in range(_MAX_ATTEMPTS + _MOD_SAMPLES):
        pt = {n: rng.randrange(P) for n in names}
        try:
            values = [_residue(e, pt, P) for e in exprs]
        except ValueError:
            continue
        if witness(values, P):
            return True
        checked += 1
        if checked == _MOD_SAMPLES:
            return False
    return None


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
    checked = 0
    for pt in _points(render(d), sorted(free_vars(d)), positivity_constraints(d)):
        try:
            v = eval_numeric(d, pt)
        except (DomainError, OverflowError):
            continue
        if not math.isfinite(v):
            continue
        if abs(v) > _TOLERANCE:
            return False
        checked += 1
        if checked == _SAMPLES:
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
    nonsingular, and a zero one at _MOD_SAMPLES points makes it singular.
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
    checked = 0
    for pt in _points("; ".join(map(render, entries)), names, constraints):
        try:
            values = [[substitute(e, pt) for e in row] for row in mat]
        except DomainError:
            continue
        if all(isinstance(v, Rat) for row in values for v in row):
            rows, tol = [[v.value for v in row] for row in values], 0
        else:
            try:
                rows = [[eval_numeric(v, {}) for v in row] for row in values]
            except (DomainError, OverflowError):
                continue
            if not all(math.isfinite(v) for row in rows for v in row):
                continue
            rows, tol = _equilibrated(rows), _TOLERANCE
        if len(echelon(rows, tol)) == len(mat):
            return True
        checked += 1
        if checked == _SAMPLES:
            return False
