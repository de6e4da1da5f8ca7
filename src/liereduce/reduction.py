"""Construction of nonlocally related reduced systems.

For a system invariant under translation of one dependent variable, the first
derivatives of that variable become new dependent variables: the gradient
reduction.  With p independent variables it appends the p(p-1)/2
cross-derivative (curl) conditions that make the new variables a gradient.
With one independent variable there are none, and the gradient reduction is
Lie's reduction of order for ODEs: the slope replaces the variable and the
order drops by one.  The connection record names the new variables, which
form the gradient of the eliminated one; a quadrature recovers that variable
up to an additive constant, but it is never computed, only differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .equiv import equiv
from .expr import (Expr, ExprError, ZERO, add, diff, free_vars, mul, render,
                   substitute, sym, _coerce)
from .jets import JetSpace
from .parse import parse_expr
from .systems import DESystem, verify_solution
from .charts import PointTransformation, transform_de


class ReductionError(ExprError):
    pass


@dataclass(frozen=True)
class Connection:
    """How reduced solutions relate to parent solutions.

    The i-th name in ``aux`` is the first derivative of the eliminated
    variable along the i-th independent variable of the parent: the reduced
    system lives on the gradient of the eliminated variable, which is
    recovered by quadrature up to an additive constant.
    """

    parent_space: JetSpace
    eliminated: str
    aux: tuple[str, ...]

    @property
    def aux_defs(self) -> tuple[tuple[str, Expr], ...]:
        """Each auxiliary name with the parent jet variable it stands for."""
        return tuple((a, sym(self.parent_space.jet_name(self.eliminated, (i,))))
                     for i, a in enumerate(self.aux, start=1))

    def describe(self) -> list[str]:
        return [f"{n} = {render(e)}" for n, e in self.aux_defs]


@dataclass(frozen=True)
class ReducedSystem:
    system: DESystem
    roles: tuple[str, ...]  # "reduced" | "integrability" per equation
    connection: Connection

    @property
    def integrability_count(self) -> int:
        return sum(1 for r in self.roles if r == "integrability")


def _check_only_differentiated(sys: DESystem, target: str):
    for eq in sys.equations:
        if target in free_vars(eq):
            raise ReductionError(
                f"{target!r} appears undifferentiated; transform to canonical "
                f"(translated) form first")


def _pick_target(sys: DESystem, target: str | None) -> str:
    if target is not None:
        if target not in sys.space.dependent:
            raise ReductionError(f"{target!r} is not a dependent variable")
        return target
    if sys.space.m == 1:
        return sys.space.dependent[0]
    raise ReductionError("several dependent variables; name the reduction target")


def _default_aux_names(p: int) -> tuple[str, ...]:
    """Names of the gradient components when the caller gives none."""
    if p == 1:
        return ("alpha",)
    if p == 2:
        return ("alpha", "beta")
    return tuple(f"alpha{i}" for i in range(1, p + 1))


def reduce_ode(sys: DESystem, target: str | None = None,
               aux_name: str | None = None) -> ReducedSystem:
    """Lie's reduction of order: the gradient reduction of a system with one
    independent variable, whose slope replaces the target."""
    return reduce_system(sys, "ode", target, [aux_name] if aux_name else None)


def reduce_pde(sys: DESystem, target: str | None = None,
               aux_names: Sequence[str] | None = None) -> ReducedSystem:
    """Gradient reduction: the first derivatives of the target become new
    dependent variables, one per independent variable.

    Higher derivatives of the target are rewritten through the gradient
    component of their smallest index; the appended conditions
    d(alpha_i)/dx_j = d(alpha_j)/dx_i for i < j make all rewritings agree on
    solutions.  With one independent variable there are none, and this is
    Lie's reduction of order, down to algebraic equations.  Other dependent
    variables pass through untouched; no or empty auxiliary names mean the
    defaults.
    """
    space = sys.space
    p = space.p
    target = _pick_target(sys, target)
    _check_only_differentiated(sys, target)
    if sys.order < 1:
        raise ReductionError("nothing to reduce: system has order zero")
    aux_names = tuple(aux_names or _default_aux_names(p))
    if len(aux_names) != p:
        raise ReductionError(f"need {p} auxiliary names, got {len(aux_names)}")
    for a in aux_names:
        if a in space.base_names or a in space.params:
            raise ReductionError(f"auxiliary name {a!r} collides with a coordinate")
    new_deps = []
    for d in space.dependent:
        if d == target:
            new_deps.extend(aux_names)
        else:
            new_deps.append(d)
    names = JetSpace(space.independent, tuple(new_deps), 0, space.params)
    eqs = []
    for eq in sys.equations:
        m = {}
        for v in free_vars(eq):
            info = space.jet_info(v)
            if info is not None and info[0] == target:
                idx = info[1]
                m[v] = sym(names.jet_name(aux_names[idx[0] - 1], idx[1:]))
        eqs.append(substitute(eq, m))
    roles = ["reduced"] * len(eqs)
    for i in range(1, p + 1):
        for j in range(i + 1, p + 1):
            eqs.append(add(sym(names.jet_name(aux_names[i - 1], (j,))),
                           mul(-1, sym(names.jet_name(aux_names[j - 1], (i,))))))
            roles.append("integrability")
    new_space = names.with_order(max(names.jet_order(e) for e in eqs))
    reduced = DESystem.build(new_space, eqs) if new_space.order > 0 else \
        DESystem(new_space, tuple(eqs), ("",) * len(eqs), (ZERO,) * len(eqs))
    return ReducedSystem(reduced, tuple(roles), Connection(space, target, aux_names))


def kind_mismatch(kind: str, p: int) -> str | None:
    """Why a reduction of ``kind`` does not apply with p independent
    variables (``ode`` needs one, ``pde`` two or more), or None."""
    if kind == "ode":
        return None if p == 1 else "reduce-ode needs exactly one independent variable"
    if kind == "pde":
        return None if p >= 2 else "reduce-pde needs at least two independent variables"
    return f"unknown reduction kind {kind!r}"


def reduce_system(sys: DESystem, kind: str, target: str | None = None,
                  aux_names: Sequence[str] | None = None) -> ReducedSystem:
    """The gradient reduction, for a system whose independent variables
    match ``kind``."""
    why = kind_mismatch(kind, sys.space.p)
    if why:
        raise ReductionError(why)
    return reduce_pde(sys, target, aux_names)


def lie_reduce(sys: DESystem, T: PointTransformation,
               aux_names: Sequence[str] | None = None) -> ReducedSystem:
    """Full reduction step: rewrite in canonical coordinates, then reduce with
    respect to the translated variable.  No or empty auxiliary names mean
    the chart's, else the defaults."""
    if T.canonical is None:
        raise ReductionError("chart has no designated canonical coordinate")
    dep_names = [n for n, _ in T.target_dependent]
    if T.canonical not in dep_names:
        raise ReductionError("the canonical coordinate must be a target dependent variable")
    transformed = transform_de(sys, T)
    return reduce_pde(transformed, T.canonical,
                      aux_names or [n for n, _ in T.aux])


# Quadrature constants a solution of the parent is shifted by.
_SHIFTS = (0, 1, -2)


def verify_connection(parent: DESystem, reduced: ReducedSystem,
                      parent_solution: Mapping[str, Expr | str] | None = None,
                      reduced_solution: Mapping[str, Expr | str] | None = None,
                      antiderivative: Expr | str | None = None) -> bool:
    """Check the solution correspondence between a parent and its reduction.

    With a parent solution: it must solve the parent, its shifts by the
    quadrature constant must too, and its gradient must solve the reduced
    system.  With a reduced solution: it must solve the reduced system, and a
    supplied antiderivative must have exactly that gradient and solve the
    parent under each constant shift in ``_SHIFTS``.  The quadrature is never
    computed; candidates are only differentiated.
    """
    if parent_solution is None and reduced_solution is None:
        raise ReductionError("supply a parent solution, a reduced solution, or both")
    conn = reduced.connection
    pspace = parent.space
    target = conn.eliminated

    def as_expr(v, space) -> Expr:
        return parse_expr(v, space) if isinstance(v, str) else _coerce(v)

    ok = True
    derived_reduced: dict[str, Expr] | None = None
    if parent_solution is not None:
        psol = {d: as_expr(v, pspace) for d, v in parent_solution.items()}
        ok = ok and verify_solution(parent, psol)
        for c in _SHIFTS:
            shifted = dict(psol)
            shifted[target] = add(shifted[target], _coerce(c))
            ok = ok and verify_solution(parent, shifted)
        derived_reduced = {}
        for d, v in psol.items():
            if d != target:
                derived_reduced[d] = v
        for aux, xi in zip(conn.aux, pspace.independent):
            derived_reduced[aux] = diff(psol[target], xi)
        ok = ok and verify_solution(reduced.system, derived_reduced)
    if reduced_solution is not None:
        rsol = {d: as_expr(v, reduced.system.space) for d, v in reduced_solution.items()}
        ok = ok and verify_solution(reduced.system, rsol)
        if derived_reduced is not None:
            for d, v in rsol.items():
                ok = ok and equiv(derived_reduced[d], v)
        if antiderivative is not None:
            U = as_expr(antiderivative, pspace)
            for aux, xi in zip(conn.aux, pspace.independent):
                if not equiv(diff(U, xi), rsol[aux]):
                    ok = False
            for c in _SHIFTS:
                cand = {target: add(U, _coerce(c))}
                for d, v in rsol.items():
                    if d in pspace.dependent:
                        cand[d] = v
                ok = ok and verify_solution(parent, cand)
    return ok
