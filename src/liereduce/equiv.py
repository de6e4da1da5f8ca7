"""Expression equivalence: structural zero test with seeded numeric fallback.

The structural path (normalize the difference, clear term-level denominators)
never yields false positives.  When it is inconclusive, the difference is
evaluated at random rational sample points drawn from the safe domain of every
kernel and fractional power present: if any such constraint exists, all
variables are sampled positive and the constraints are rechecked numerically.
Sampling is deterministic: the RNG is seeded from a fixed seed and a checksum
of the expression, so results do not depend on call order.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction

from .expr import (DomainError, Expr, ExprError, ZERO, clear_denominators,
                   eval_numeric, free_vars, positivity_constraints, render)


class SamplingDomainError(ExprError):
    """No sample point satisfying the positivity constraints was found."""


# A sampled difference is zero when it stays within _TOLERANCE at _SAMPLES
# points, and nonzero at the first point where it does not.  Points outside
# the domain do not count; once more than _MAX_ATTEMPTS of them are drawn,
# the domain is taken to be empty.
_SAMPLES = 16
_TOLERANCE = 1e-9
_SEED = 20260809
_MAX_ATTEMPTS = 80


def _rng_for(e: Expr) -> random.Random:
    digest = zlib.crc32(render(e).encode("utf-8"))
    return random.Random((_SEED << 32) ^ digest)


def _draw(rng: random.Random, positive: bool) -> Fraction:
    v = Fraction(rng.randint(3, 40), rng.randint(10, 24))
    if not positive and rng.random() < 0.5:
        v = -v
    return v


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
    rng = _rng_for(d)
    names = sorted(free_vars(d))
    constraints = positivity_constraints(d)
    positive = bool(constraints)
    attempts = 0
    while checked < _SAMPLES:
        attempts += 1
        if attempts > _MAX_ATTEMPTS + _SAMPLES:
            raise SamplingDomainError(f"sampling domain empty for {render(d)!r}")
        pt = {n: _draw(rng, positive) for n in names}
        try:
            if any(eval_numeric(c, pt) <= 1e-6 for c in constraints):
                continue
            v = eval_numeric(d, pt)
        except (DomainError, OverflowError):
            continue
        if not math.isfinite(v):
            continue
        if abs(v) > _TOLERANCE:
            return False
        checked += 1
    return True


def is_zero(e: Expr) -> bool:
    return equiv(e, ZERO)


def sampled_nonzero(e: Expr) -> bool:
    """True when e is not equivalent to zero (so safe to divide by)."""
    return not is_zero(e)
