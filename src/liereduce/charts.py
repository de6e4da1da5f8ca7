"""Point transformations: canonical-coordinate checks, change of variables of
DE systems in jet space, and push-forward of generators into new coordinates.

The change of variables works through two jet dictionaries derived from the
chain rule.  Writing the new dependent variables as functions of the new
independent ones, each source total derivative of a target coordinate obeys

    D_j s = sum_i (ds/dr_i) * D_j r_i ,

which is affine both in the unknown target derivatives and in the unknown
source derivatives.  Solving one way expresses target jets in source jets
(used to bind auxiliary variables like ``alpha = ds/dr``); solving the other
way, then differentiating the solved forms with a mixed total derivative,
expresses every source jet in target jets.  Substituting the latter plus the
inverse base map rewrites an equation completely in the new coordinates.
All linear solves use division-free elimination with equivalence-tested
pivoting; ties are broken by smallest normalized term count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .equiv import equiv, sampled_nonsingular, sampled_nonzero
from .expr import (Add, Expr, ExprError, ONE, ZERO, add, clear_denominators,
                   diff, free_vars, mul, power, render, substitute, sym,
                   _coerce, _coeff_monomial)
from .jets import JetSpace, VectorField, prolong, total_derivative
from .parse import parse_expr


class ChartError(ExprError):
    pass


class SingularMapError(ChartError):
    pass


def _term_count(e: Expr) -> int:
    return len(e.terms) if isinstance(e, Add) else 1


def solve_affine(eqs: Sequence[Expr], unknowns: Sequence[str]) -> list[Expr]:
    """Solve a square affine system with expression coefficients exactly."""
    n = len(unknowns)
    if len(eqs) != n:
        raise ChartError(f"{len(eqs)} equations for {n} unknowns")
    unk = set(unknowns)
    zeros = {u: ZERO for u in unknowns}
    rows = []
    for eq in eqs:
        row = []
        for u in unknowns:
            a = diff(eq, u)
            if set(free_vars(a)) & unk:
                raise ChartError(f"system is not affine in {u!r}")
            row.append(a)
        row.append(mul(-1, substitute(eq, zeros)))
        rows.append(row)
    for col in range(n):
        cands = [r for r in range(col, n)
                 if rows[r][col] != ZERO and sampled_nonzero(rows[r][col])]
        if not cands:
            raise SingularMapError("linear system is singular (no usable pivot)")
        piv = min(cands, key=lambda r: _term_count(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        pv = rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col]
            if f == ZERO:
                continue
            rows[r] = [add(mul(pv, rows[r][k]), mul(-1, f, rows[col][k]))
                       for k in range(n + 1)]
            rows[r][col] = ZERO
    out: list[Expr] = [ZERO] * n
    for col in reversed(range(n)):
        acc = rows[col][n]
        for k in range(col + 1, n):
            acc = add(acc, mul(-1, rows[col][k], out[k]))
        out[col] = mul(acc, power(rows[col][col], -1))
    return out


@dataclass(frozen=True)
class PointTransformation:
    """An invertible change of base coordinates, with optional extras.

    ``target_independent`` and ``target_dependent`` give the new coordinates
    as expressions in the source base coordinates.  ``canonical`` names the
    target coordinate that plays the translated role.  ``aux`` definitions
    (first-order source-jet expressions, e.g. the slope of the new dependent
    variable) travel with the chart for push-forwards and chained reductions.
    """

    source: JetSpace
    target_independent: tuple[tuple[str, Expr], ...]
    target_dependent: tuple[tuple[str, Expr], ...]
    canonical: str | None = None
    inverse: Mapping[str, Expr] | None = None
    aux: tuple[tuple[str, Expr], ...] = ()

    def __post_init__(self):
        src = self.source
        names = [n for n, _ in self.target_independent + self.target_dependent]
        names += [n for n, _ in self.aux]
        if len(set(names)) != len(names):
            raise ChartError(f"duplicate target names in {names}")
        clash = set(names) & (set(src.base_names) | set(src.params))
        if clash:
            raise ChartError(f"target names {sorted(clash)} collide with source coordinates")
        if len(self.target_independent) != src.p or len(self.target_dependent) != src.m:
            raise ChartError("target coordinate counts must match the source space")
        if self.canonical is not None and self.canonical not in names:
            raise ChartError(f"canonical coordinate {self.canonical!r} is not a target")
        allowed = set(src.base_names) | set(src.params)
        for n, e in self.target_independent + self.target_dependent:
            extra = set(free_vars(e)) - allowed
            if extra:
                raise ChartError(f"target {n!r} depends on non-base coordinates {sorted(extra)}")
        if self.inverse is not None:
            if set(self.inverse) != set(src.base_names):
                raise ChartError("inverse map must cover exactly the source base coordinates")
        self._check_regularity()

    def _check_regularity(self):
        src = self.source
        targets = list(self.target_independent) + list(self.target_dependent)
        mat = [[diff(e, s) for s in src.base_names] for _, e in targets]
        if not sampled_nonsingular(mat):
            raise SingularMapError("base Jacobian determinant is identically zero")
        if self.inverse is not None:
            forward = {n: e for n, e in targets}
            for n, e in targets:
                if not equiv(substitute(e, self.inverse), sym(n)):
                    raise ChartError(f"inverse map does not invert target {n!r}")
            for s, e in self.inverse.items():
                if not equiv(substitute(e, forward), sym(s)):
                    raise ChartError(f"forward map does not invert source {s!r}")

    @classmethod
    def parse(cls, source: JetSpace, independent: Mapping[str, str],
              dependent: Mapping[str, str], canonical: str | None = None,
              inverse: Mapping[str, str] | None = None,
              aux: Mapping[str, str] | None = None) -> "PointTransformation":
        tgt_names = list(independent) + list(dependent)
        tgt_vocab = set(tgt_names) | set(source.params)
        inv = None
        if inverse is not None:
            inv = {s: parse_expr(t, tgt_vocab) for s, t in inverse.items()}
        return cls(
            source,
            tuple((n, parse_expr(t, source)) for n, t in independent.items()),
            tuple((n, parse_expr(t, source)) for n, t in dependent.items()),
            canonical,
            inv,
            tuple((n, parse_expr(t, source)) for n, t in (aux or {}).items()),
        )

    @property
    def target_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.target_independent + self.target_dependent)

    def target_space(self, order: int) -> JetSpace:
        return JetSpace(tuple(n for n, _ in self.target_independent),
                        tuple(n for n, _ in self.target_dependent),
                        order, self.source.params)


def verify_canonical(X: VectorField, T: PointTransformation) -> bool:
    """True iff X annihilates every invariant target and moves the canonical
    target with unit speed."""
    if T.canonical is None:
        raise ChartError("chart has no designated canonical coordinate")
    for n, e in T.target_independent + T.target_dependent:
        want = ONE if n == T.canonical else ZERO
        if not equiv(X.apply_to(e), want):
            return False
    return True


def _mixed_total_derivative(T: PointTransformation, ts: JetSpace, e: Expr,
                            j: int, djr: dict[tuple[int, int], Expr]) -> Expr:
    """Total derivative along source x_j of an expression mixing source base
    coordinates with target jet symbols (treated as functions of the targets).
    """
    src = T.source
    parts = [diff(e, src.independent[j - 1])]
    for v in free_vars(e):
        if v in src.dependent:
            parts.append(mul(sym(src.jet_name(v, (j,))), diff(e, v)))
            continue
        info = src.jet_info(v)
        if info is not None and info[1]:
            parts.append(mul(sym(src.jet_name(info[0], info[1] + (j,))), diff(e, v)))
            continue
        tinfo = ts.jet_info(v)
        if tinfo is not None:
            dep, idx = tinfo
            chain = add(*[mul(sym(ts.jet_name(dep, idx + (i,))), djr[(j, i)])
                          for i in range(1, src.p + 1)])
            parts.append(mul(chain, diff(e, v)))
    return add(*parts)


def jet_dictionaries(T: PointTransformation, order: int
                     ) -> tuple[dict[str, Expr], dict[str, Expr]]:
    """(forward, backward) jet dictionaries for the chart.

    forward: first-order target jets as source-jet expressions.
    backward: every source jet up to ``order`` as an expression in source base
    coordinates and target jet symbols.
    """
    src = T.source
    ts = T.target_space(max(order, 1))
    djr = {(j, i): total_derivative(src, T.target_independent[i - 1][1], j)
           for j in range(1, src.p + 1) for i in range(1, src.p + 1)}
    djs = {(j, nu): total_derivative(src, T.target_dependent[nu - 1][1], j)
           for j in range(1, src.p + 1) for nu in range(1, src.m + 1)}
    relations = []
    rel_index = []
    for nu, (dep, _) in enumerate(T.target_dependent, start=1):
        for j in range(1, src.p + 1):
            rel = add(*[mul(sym(ts.jet_name(dep, (i,))), djr[(j, i)])
                        for i in range(1, src.p + 1)],
                      mul(-1, djs[(j, nu)]))
            relations.append(rel)
            rel_index.append((dep, j))
    # Forward: solve for the target first derivatives, per target dependent.
    forward: dict[str, Expr] = {}
    for nu, (dep, _) in enumerate(T.target_dependent, start=1):
        rels = [r for r, (d, _) in zip(relations, rel_index) if d == dep]
        unknowns = [ts.jet_name(dep, (i,)) for i in range(1, src.p + 1)]
        sol = solve_affine(rels, unknowns)
        forward.update(dict(zip(unknowns, sol)))
    # Backward: solve jointly for the source first derivatives, then extend
    # by differentiating the solved forms.
    src_first = [src.jet_name(d, (j,)) for d in src.dependent
                 for j in range(1, src.p + 1)]
    sol = solve_affine(relations, src_first)
    backward: dict[str, Expr] = dict(zip(src_first, sol))
    first = dict(backward)
    from itertools import combinations_with_replacement
    for k in range(2, order + 1):
        for dep in src.dependent:
            for idx in combinations_with_replacement(range(1, src.p + 1), k):
                j = idx[-1]
                prev = src.jet_name(dep, idx[:-1])
                e = _mixed_total_derivative(T, ts, backward[prev], j, djr)
                backward[src.jet_name(dep, idx)] = substitute(e, first)
    return forward, backward


_ODE_ORDER_CAP = 3
_PDE_ORDER_CAP = 2


def transform_de(sys, T: PointTransformation):
    """Rewrite a system in the chart's coordinates.

    Requires the chart to carry its inverse base map; orders are capped at
    three for one independent variable and two otherwise.
    """
    from .systems import DESystem

    src = T.source
    if sys.space.base_names != src.base_names:
        raise ChartError("system and chart live over different source coordinates")
    n = sys.order
    cap = _ODE_ORDER_CAP if src.p == 1 else _PDE_ORDER_CAP
    if n > cap:
        raise ChartError(f"order {n} exceeds the transformation cap {cap}")
    if T.inverse is None:
        raise ChartError("transform_de needs the chart's inverse base map")
    _, backward = jet_dictionaries(T, n)
    ts = T.target_space(n)
    out = []
    allowed = set(ts.base_names) | set(ts.params) | set(ts.jet_names(n))
    for eq in sys.equations:
        e = substitute(eq, backward)
        e = substitute(e, T.inverse)
        leftover = set(free_vars(e)) - allowed
        if leftover:
            raise ChartError(f"untransformed coordinates remain: {sorted(leftover)}")
        out.append(clear_denominators(e))
    order = max(ts.jet_order(e) for e in out)
    tmp = DESystem.build(ts.with_order(order), out)
    # Emit each equation solved for its leading jet variable; this divides
    # out the common factor the raw pullback picks up.  The solved forms are
    # the ones just derived, so the result needs no second build.
    eqs = tuple(add(sym(v), mul(-1, r)) for v, r in zip(tmp.leads, tmp.rhss))
    return DESystem(tmp.space, eqs, tmp.leads, tmp.rhss)


@dataclass(frozen=True)
class Pushforward:
    """A generator's coefficients on chart targets and auxiliary variables.

    When re-expression in the target coordinates fails, ``flagged`` is set and
    the coefficients are the raw source-coordinate expressions instead.
    Any common constant is reported as ``suggested_scale`` metadata and never
    applied.
    """

    coords: tuple[str, ...]
    coeffs: Mapping[str, Expr]
    flagged: bool = False
    residual_vars: tuple[str, ...] = ()
    suggested_scale: Fraction | None = None

    def coeff(self, name: str) -> Expr:
        return self.coeffs.get(name, ZERO)

    def describe(self) -> str:
        bits = [f"({render(self.coeff(n))}) d/d{n}" for n in self.coords
                if self.coeff(n) != ZERO]
        return " + ".join(bits) if bits else "0"


def _leading_rational(e: Expr) -> Fraction | None:
    if e == ZERO:
        return None
    t = e.terms[0] if isinstance(e, Add) else e
    c, _ = _coeff_monomial(t)
    return c


def pushforward_field(X: VectorField, T: PointTransformation,
                      aux_defs: Mapping[str, Expr | str] | None = None) -> Pushforward:
    """Push X through the chart onto (targets, auxiliary variables).

    Each new coefficient is the prolonged field applied to the coordinate's
    defining expression, re-expressed through the jet dictionaries and the
    inverse map.  Auxiliary definitions are matched against the chart's own
    first-order target derivatives, so a wrong definition is rejected rather
    than silently used.
    """
    src = T.source
    if X.space.base_names != src.base_names:
        raise ChartError("field and chart live over different source coordinates")
    if aux_defs is None:
        aux = list(T.aux)
    else:
        aux = [(n, parse_expr(d, src) if isinstance(d, str) else _coerce(d))
               for n, d in aux_defs.items()]
    coord_defs: list[tuple[str, Expr]] = []
    for n, e in T.target_independent + T.target_dependent:
        if T.canonical is not None and n == T.canonical:
            continue
        coord_defs.append((n, e))
    coord_defs.extend(aux)
    n_aux = max([src.jet_order(d) for _, d in aux], default=0)
    P = prolong(X, max(1, n_aux))
    raw = {n: P.apply_to(d) for n, d in coord_defs}
    raw_order = max([src.jet_order(e) for e in raw.values()], default=0)
    forward, backward = jet_dictionaries(T, max(raw_order, 1))
    rename: dict[str, Expr] = {}
    for n, d in aux:
        bound = None
        for jet_name, expr_ in forward.items():
            if equiv(expr_, d):
                bound = jet_name
                break
        if bound is None:
            raise ChartError(
                f"auxiliary {n!r} does not match any first-order derivative of the chart")
        rename[bound] = sym(n)
    coords = tuple(n for n, _ in coord_defs)
    allowed = set(T.target_names) | {n for n, _ in aux} | set(src.params)
    if T.canonical is not None:
        allowed.add(T.canonical)
    expressed: dict[str, Expr] = {}
    residual: set[str] = set()
    for n, r in raw.items():
        e = substitute(r, backward)
        e = substitute(e, rename)
        if T.inverse is not None:
            e = substitute(e, T.inverse)
        leftover = set(free_vars(e)) - allowed
        residual |= leftover
        expressed[n] = e
    if residual:
        return Pushforward(coords, raw, flagged=True,
                           residual_vars=tuple(sorted(residual)))
    scale = None
    for n in coords:
        lead = _leading_rational(expressed[n])
        if lead is not None:
            scale = None if lead == 1 else Fraction(1, 1) / lead
            break
    return Pushforward(coords, expressed, suggested_scale=scale)
