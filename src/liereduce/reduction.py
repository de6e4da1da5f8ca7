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

from typing import Mapping, NamedTuple, Sequence

from .equiv import equiv
from .expr import Expr, ExprError, add, diff, free_vars, mul, substitute, sym, _coerce
from .jets import JetSpace
from .parse import parse_expr
from .systems import DESystem, verify_solution
from .charts import PointTransformation, transform_de


class ReductionError(ExprError):
    pass


class Connection(NamedTuple):
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


class ReducedSystem(NamedTuple):
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
    why = kind_mismatch("ode", sys.space.p)
    if why:
        raise ReductionError(why)
    return reduce_pde(sys, target, [aux_name] if aux_name else None)


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
        DESystem(new_space, tuple(eqs), (), ())
    return ReducedSystem(reduced, tuple(roles), Connection(space, target, aux_names))


def kind_mismatch(kind: str, p: int) -> str | None:
    """Why a reduction of ``kind`` (``ode`` or ``pde``) does not apply with
    p independent variables (``ode`` needs one, ``pde`` two or more), or
    None."""
    if kind == "ode":
        return None if p == 1 else "reduce-ode needs exactly one independent variable"
    return None if p >= 2 else "reduce-pde needs at least two independent variables"


def lie_aux_names(T: PointTransformation,
                  aux_names: Sequence[str] | None = None) -> tuple[str, ...]:
    """The steps of ``lie_reduce`` before the transform: check that the chart
    designates a target dependent variable as its canonical coordinate, then
    resolve the auxiliary names (no or empty names mean the chart's; none
    there either means ``reduce_pde``'s defaults)."""
    if T.canonical is None:
        raise ReductionError("chart has no designated canonical coordinate")
    dep_names = [n for n, _ in T.target_dependent]
    if T.canonical not in dep_names:
        raise ReductionError("the canonical coordinate must be a target dependent variable")
    return tuple(aux_names or [n for n, _ in T.aux])


def lie_reduce(sys: DESystem, T: PointTransformation) -> ReducedSystem:
    """Full reduction step: rewrite in canonical coordinates, then reduce with
    respect to the translated variable, under the chart's auxiliary names,
    else the defaults."""
    aux = lie_aux_names(T)  # before the transform: its refusal comes first
    return reduce_pde(transform_de(sys, T), T.canonical, aux)


# Quadrature constants a solution of the parent is shifted by.
_SHIFTS = (0, 1, -2)


def verify_connection(parent: DESystem, reduced: ReducedSystem,
                      parent_solution: Mapping[str, Expr | str] | None = None,
                      reduced_solution: Mapping[str, Expr | str] | None = None,
                      antiderivative: Expr | str | None = None) -> bool:
    """Check one candidate against the solution correspondence between a
    parent and its reduction; exactly one of the two solutions is given.

    A parent solution: its gradient, beside its other components, must solve
    the reduced system, and the solution must solve the parent under each
    constant shift in ``_SHIFTS``.  A reduced solution: it must solve the
    reduced system, and a supplied antiderivative must have exactly that
    gradient and, beside its parent components, solve the parent under each
    shift; an antiderivative beside a parent solution is rejected.  The
    quadrature is never computed; candidates are only differentiated.
    """
    if (parent_solution is None) == (reduced_solution is None):
        raise ReductionError("supply exactly one of a parent solution and a reduced solution")
    if parent_solution is not None and antiderivative is not None:
        raise ReductionError("an antiderivative goes with a reduced solution, "
                             "not with a parent solution")
    conn = reduced.connection
    pspace = parent.space
    target = conn.eliminated

    def as_expr(v, space) -> Expr:
        return parse_expr(v, space) if isinstance(v, str) else _coerce(v)

    def shifts_solve(U: Expr, others: dict[str, Expr]) -> bool:
        return all(verify_solution(parent, {**others, target: add(U, _coerce(c))})
                   for c in _SHIFTS)

    if parent_solution is not None:
        others = {d: as_expr(v, pspace) for d, v in parent_solution.items()}
        U = others.pop(target, None)
        if U is None:
            raise ReductionError(f"no candidate supplied for {target!r}")
        grad = dict(others)
        for aux, xi in zip(conn.aux, pspace.independent):
            grad[aux] = diff(U, xi)
        return shifts_solve(U, others) and verify_solution(reduced.system, grad)
    rsol = {d: as_expr(v, reduced.system.space) for d, v in reduced_solution.items()}
    if not verify_solution(reduced.system, rsol):
        return False
    if antiderivative is None:
        return True
    U = as_expr(antiderivative, pspace)
    return all(equiv(diff(U, xi), rsol[aux])
               for aux, xi in zip(conn.aux, pspace.independent)) and \
        shifts_solve(U, {d: v for d, v in rsol.items() if d in pspace.dependent})
