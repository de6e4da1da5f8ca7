"""Differential-equation systems, on-manifold reduction, and symmetry checks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .equiv import is_zero
from .expr import (Expr, ExprError, ZERO, add, diff, free_vars, mul, power,
                   substitute, _coerce)
from .jets import JetError, JetSpace, VectorField, prolong, total_derivative
from .parse import parse_expr


class SystemError_(ExprError):
    pass


def _parse_equation(space: JetSpace, text: str) -> Expr:
    """Accept either 'expr' (meaning expr = 0) or 'lhs = rhs'."""
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        return add(parse_expr(lhs, space), mul(-1, parse_expr(rhs, space)))
    return parse_expr(text, space)


def _solved_form_candidates(space: JetSpace, eq: Expr) -> Iterator[tuple[str, Expr]]:
    """Ways to solve eq = 0 for a highest-order jet variable v it is affine
    in, one at a time as the caller asks: a = d(eq)/dv is free of v, so
    v = -eq|v=0 * a^(-1) satisfies eq by construction."""
    jet_vars = [v for v in free_vars(eq) if space.jet_info(v) and space.jet_info(v)[1]]
    if not jet_vars:
        return
    top = max(len(space.jet_info(v)[1]) for v in jet_vars)
    for v in sorted(v for v in jet_vars if len(space.jet_info(v)[1]) == top):
        a = diff(eq, v)
        if a == ZERO or v in free_vars(a):
            continue  # absent or not affine in v
        yield v, mul(-1, substitute(eq, {v: ZERO}), power(a, -1))


@dataclass(frozen=True)
class DESystem:
    """Equations (each an Expr required to vanish) with designated solved forms."""

    space: JetSpace
    equations: tuple[Expr, ...]
    leads: tuple[str, ...]
    rhss: tuple[Expr, ...]

    @classmethod
    def build(cls, space: JetSpace, equations: Sequence) -> "DESystem":
        eqs = tuple(_parse_equation(space, e) if isinstance(e, str) else _coerce(e)
                    for e in equations)
        if not eqs:
            raise SystemError_("a system needs at least one equation")
        chosen: list[tuple[str, Expr]] = []

        def assign(i: int) -> bool:
            if i == len(eqs):
                return True
            for v, rhs in _solved_form_candidates(space, eqs[i]):
                if any(v == u for u, _ in chosen):
                    continue
                chosen.append((v, rhs))
                if assign(i + 1):
                    return True
                chosen.pop()
            return False

        if not assign(0):
            raise SystemError_(
                "could not derive distinct solved forms: some equation is not "
                "affine in any of its highest-order jet variables")
        return cls(space, eqs, tuple(v for v, _ in chosen), tuple(r for _, r in chosen))

    @property
    def order(self) -> int:
        return max(self.space.jet_order(e) for e in self.equations)


def _index_superset(big: tuple[int, ...], small: tuple[int, ...]) -> tuple[int, ...] | None:
    """Multiset difference big - small, or None when small is not contained."""
    rest = list(big)
    for i in small:
        if i in rest:
            rest.remove(i)
        else:
            return None
    return tuple(rest)


def reduce_on_manifold(sys: DESystem, e: Expr) -> tuple[Expr, bool]:
    """Substitute solved forms and their total-derivative consequences.

    Loops to a fixed point, bounded by ten passes (cycle guard); returns the
    reduced expression and whether a fixed point was reached.
    """
    space = sys.space
    lead_info = [(space.jet_info(v), rhs) for v, rhs in zip(sys.leads, sys.rhss)]
    consequence_cache: dict[tuple[str, tuple[int, ...]], Expr] = {}

    def consequence(k: int, extra: tuple[int, ...]) -> Expr:
        (dep, idx), rhs = lead_info[k]
        key = (sys.leads[k], extra)
        got = consequence_cache.get(key)
        if got is None:
            got = rhs
            for j in extra:
                got = total_derivative(space, got, j)
            consequence_cache[key] = got
        return got

    for _ in range(10):
        subs: dict[str, Expr] = {}
        for v in free_vars(e):
            info = space.jet_info(v)
            if info is None or not info[1]:
                continue
            for k, ((dep, idx), _) in enumerate(lead_info):
                if info[0] != dep:
                    continue
                extra = _index_superset(info[1], idx)
                if extra is not None:
                    subs.setdefault(v, consequence(k, extra))
                    break
        if not subs:
            return e, True
        e2 = substitute(e, subs)
        if e2 == e:
            return e, True
        e = e2
    return e, False


@dataclass(frozen=True)
class SymmetryReport:
    verdict: str  # "symmetry" | "not-symmetry"
    residuals: tuple[Expr, ...]
    converged: bool = True

    @property
    def is_symmetry(self) -> bool:
        return self.verdict == "symmetry"


def check_point_symmetry(sys: DESystem, X: VectorField) -> SymmetryReport:
    """Decide whether X generates a point symmetry of the system.

    The prolonged field is applied to each equation and the result reduced on
    the solution manifold; the verdict is invariant under rescaling any
    equation by a nonvanishing factor.
    """
    if X.space.base_names != sys.space.base_names:
        raise JetError("field and system live over different base coordinates")
    order = sys.order
    P = prolong(X, max(order, 1))
    residuals = []
    converged = True
    for eq in sys.equations:
        r = P.apply_to(eq)
        r, ok = reduce_on_manifold(sys, r)
        converged = converged and ok
        residuals.append(r)
    good = all(is_zero(r) for r in residuals)
    return SymmetryReport("symmetry" if good else "not-symmetry",
                          tuple(residuals), converged)


def verify_solution(sys: DESystem, candidate: Mapping[str, Expr | str]) -> bool:
    """Check that explicit expressions solve every equation of the system.

    Candidate values may mention only independent variables and declared
    parameters; all derivative coordinates are produced by differentiation.
    """
    space = sys.space
    cand: dict[str, Expr] = {}
    allowed = set(space.independent) | set(space.params)
    for dep, val in candidate.items():
        if dep not in space.dependent:
            raise SystemError_(f"{dep!r} is not a dependent variable")
        v = parse_expr(val, space) if isinstance(val, str) else _coerce(val)
        extra = set(free_vars(v)) - allowed
        if extra:
            raise SystemError_(f"candidate for {dep!r} mentions {sorted(extra)}")
        cand[dep] = v
    for eq in sys.equations:
        subs = {}
        for v in free_vars(eq):
            info = space.jet_info(v)
            if info is None:
                continue
            dep, idx = info
            if dep not in cand:
                raise SystemError_(f"no candidate supplied for {dep!r}")
            val = cand[dep]
            for j in idx:
                val = diff(val, space.independent[j - 1])
            subs[v] = val
        if not is_zero(substitute(eq, subs)):
            return False
    return True
