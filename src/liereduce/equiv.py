"""Expression equivalence: structural zero test with seeded numeric fallback.

The structural path (normalize the difference, clear term-level denominators)
never yields false positives.  When it is inconclusive, the difference is
evaluated at random rational sample points drawn from the safe domain of every
kernel and fractional power present: if any such constraint exists, all
variables are sampled positive and the constraints are rechecked numerically.
Sampling is deterministic: the RNG is seeded from a fixed seed and a checksum
of the expression, so results do not depend on call order.

The same points decide whether a square matrix of expressions (a chart's base
Jacobian) is singular everywhere: it is eliminated at each point in O(k^3),
exactly in ``Fraction`` when every entry is rational there.  That elimination,
``echelon``, also serves the algebra module's exact linear algebra.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction

from .expr import (DomainError, Expr, ExprError, Rat, ZERO, clear_denominators,
                   eval_numeric, free_vars, positivity_constraints, render,
                   substitute)


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
    rng = random.Random((_SEED << 32) ^ zlib.crc32(text.encode("utf-8")))
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


def equiv(a: Expr, b: Expr) -> bool:
    """True when a - b is zero structurally or at every sample point."""
    d = a - b
    if d == ZERO:
        return True
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


def sampled_nonsingular(mat: list[list[Expr]]) -> bool:
    """True when the square matrix ``mat`` is nonsingular at a sample point.

    The points are drawn as in ``equiv``, seeded from the rendered entries.
    When every entry is rational at a point, exact elimination decides, so a
    tiny nonzero determinant still counts.  Otherwise the entries are
    evaluated in floats and equilibrated before elimination, so _TOLERANCE
    is relative to the size of the matrix.  False only after _SAMPLES usable
    points all give a singular matrix.
    """
    entries = [e for row in mat for e in row]
    names = sorted(set().union(*map(free_vars, entries)))
    constraints = list(dict.fromkeys(c for e in entries
                                     for c in positivity_constraints(e)))
    checked = 0
    for pt in _points("; ".join(map(render, entries)), names, constraints):
        values = [[substitute(e, pt) for e in row] for row in mat]
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
