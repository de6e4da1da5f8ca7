"""Differential-equation systems, on-manifold reduction, and symmetry checks."""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .equiv import is_zero
from .expr import (Expr, ExprError, ZERO, add, diff, free_vars, mul, power,
                   quoted, render, substitute, _coerce)
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


def affine_split(eq: Expr, v: str) -> tuple[Expr, Expr] | None:
    """(a, b) with eq = a*v + b, a free of v and not structurally zero; None
    when v is absent from eq or eq is not affine in it."""
    a = diff(eq, v)
    if a == ZERO or v in free_vars(a):
        return None
    return a, substitute(eq, {v: ZERO})


def _solved_form_candidates(space: JetSpace, eq: Expr) -> Iterator[tuple[str, Expr]]:
    """Ways to solve eq = 0 for a highest-order jet variable v it is affine
    in, one at a time as the caller asks: with eq = a*v + b, v = -b * a^(-1)
    satisfies eq by construction."""
    orders = {v: len(info[1]) for v in free_vars(eq) if (info := space.jet_info(v)) and info[1]}
    top = max(orders.values(), default=0)
    for v in sorted(v for v, n in orders.items() if n == top):
        split = affine_split(eq, v)
        if split is not None:
            a, b = split
            yield v, mul(-1, b, power(a, -1))


class DESystem(NamedTuple):
    """Equations (each an Expr required to vanish) with designated solved
    forms, one per equation; an algebraic system (order zero) has none."""

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


def reduce_on_manifold(sys: DESystem, e: Expr) -> tuple[Expr, bool]:
    """Replace each principal jet v = D^extra(lead) of e by D^extra(rhs),
    whose own principal jets are replaced in turn; each once per call.

    A lead is a highest-order jet of its equation, so no jet of D^extra(rhs)
    has a higher order than v, and the recursion ends: with (reduced e,
    True), or with (e, False) at a jet still being reduced, a cycle among
    the solved forms.  A right-hand side above its lead raises SystemError_.
    """
    space = sys.space
    done: dict[str, Expr | None] = {}  # None while the jet is being reduced

    def consequence(v: str) -> Expr | None:
        info = space.jet_info(v)
        if info is None or not info[1]:
            return None  # not a jet of order 1 or more
        have = Counter(info[1])
        for lead, rhs in zip(sys.leads, sys.rhss):
            dep, idx = space.jet_info(lead)
            if dep == info[0] and Counter(idx) <= have:
                for j in (have - Counter(idx)).elements():
                    rhs = total_derivative(space, rhs, j)
                if space.jet_order(rhs) > len(info[1]):
                    raise SystemError_(f"the solved form for {lead} has a right-hand "
                                       "side of higher order than its lead")
                return rhs
        return None

    def reduce(x: Expr) -> Expr | None:
        subs: dict[str, Expr] = {}
        for v in free_vars(x):
            if v not in done:
                c = consequence(v)
                if c is None:
                    continue
                done[v] = None
                done[v] = reduce(c)
            if done[v] is None:
                return None
            subs[v] = done[v]
        return substitute(x, subs) if subs else x

    got = reduce(e)
    return (e, False) if got is None else (got, True)


class SymmetryReport(NamedTuple):
    verdict: str  # "symmetry" | "not-symmetry"
    residuals: tuple[Expr, ...]

    @property
    def is_symmetry(self) -> bool:
        return self.verdict == "symmetry"


def check_point_symmetry(sys: DESystem, X: VectorField) -> SymmetryReport:
    """Decide whether X generates a point symmetry of the system.

    The prolonged field is applied to each equation and the result reduced on
    the solution manifold; the verdict is invariant under rescaling any
    equation by a nonvanishing factor.  A residual that meets a cycle among
    the solved forms cannot be reduced, and raises ``SystemError_``.
    """
    if X.space.base_names != sys.space.base_names:
        raise JetError("field and system live over different base coordinates")
    P = prolong(X, max(sys.order, 1))
    residuals = []
    for eq in sys.equations:
        r, ok = reduce_on_manifold(sys, P.apply_to(eq))
        if not ok:
            forms = ", ".join(f"{v} = {render(f)}" for v, f in zip(sys.leads, sys.rhss))
            raise SystemError_(f"residual {quoted(render(r), word=str)} meets a cycle among "
                               f"the solved forms {quoted(forms, word=str)}")
        residuals.append(r)
    good = all(is_zero(r) for r in residuals)
    return SymmetryReport("symmetry" if good else "not-symmetry", tuple(residuals))


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
        extra = free_vars(v) - allowed
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
