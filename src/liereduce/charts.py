"""Point transformations: canonical-coordinate checks, change of variables of
DE systems in jet space, and push-forward of generators into new coordinates.

The change of variables works through one jet dictionary derived from the
chain rule.  Writing the new dependent variables as functions of the new
independent ones, each source total derivative of a target coordinate obeys

    D_j s = sum_i (ds/dr_i) * D_j r_i ,

which is affine in the unknown source derivatives.  Solving it for them,
then differentiating the solved forms with a mixed total derivative,
expresses each source jet that is asked for in target jets.  Substituting
that dictionary plus the inverse base map rewrites an equation completely
in the new coordinates; substituting it into an auxiliary definition (like
``alpha = ds/dr``) identifies the target derivative the auxiliary names.
The linear solve uses division-free elimination with equivalence-tested
pivoting; ties are broken by smallest normalized term count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .equiv import equiv, is_zero, sampled_nonsingular
from .expr import (Add, Expr, ExprError, ONE, ZERO, add, clear_denominators,
                   diff, free_vars, mul, power, substitute, sym,
                   _coeff_monomial)
from .jets import JetSpace, Record, VectorField, describe_field, prolong, total_derivative
from .parse import parse_expr
from .systems import DESystem


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
            if free_vars(a) & unk:
                raise ChartError(f"system is not affine in {u!r}")
            row.append(a)
        row.append(mul(-1, substitute(eq, zeros)))
        rows.append(row)
    for col in range(n):
        cands = [r for r in range(col, n)
                 if rows[r][col] != ZERO and not is_zero(rows[r][col])]
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


class PointTransformation(Record):
    """An invertible change of base coordinates, with optional extras.

    ``target_independent`` and ``target_dependent`` give the new coordinates
    as expressions in the source base coordinates.  ``canonical`` names the
    target coordinate that plays the translated role.  ``aux`` definitions
    (first-order source-jet expressions, e.g. the slope of the new dependent
    variable) travel with the chart for push-forwards and chained reductions.
    The chart keeps its ``first_order_jets`` once solved, outside ``_fields``,
    so they take no part in equality, hashing, repr or copies.
    """

    _fields = ("source", "target_independent", "target_dependent", "canonical",
               "inverse", "aux")
    __slots__ = _fields + ("_first_order",)

    def __init__(self, source: JetSpace,
                 target_independent: tuple[tuple[str, Expr], ...],
                 target_dependent: tuple[tuple[str, Expr], ...],
                 canonical: str | None = None,
                 inverse: Mapping[str, Expr] | None = None,
                 aux: tuple[tuple[str, Expr], ...] = ()):
        self._init(source, target_independent, target_dependent, canonical, inverse, aux)
        object.__setattr__(self, "_first_order", None)
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
            extra = free_vars(e) - allowed
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
    coordinates with target jet symbols (treated as functions of the targets):
    ``total_derivative`` plus the chain rule through each target jet.
    """
    src = T.source
    parts = [total_derivative(src, e, j)]
    for v in free_vars(e):
        tinfo = ts.jet_info(v)
        if tinfo is None or src.jet_info(v) is not None:
            continue
        dep, idx = tinfo
        chain = add(*[mul(sym(ts.jet_name(dep, idx + (i,))), djr[(j, i)])
                      for i in range(1, src.p + 1)])
        parts.append(mul(chain, diff(e, v)))
    return add(*parts)


def first_order_jets(T: PointTransformation
                     ) -> tuple[dict[tuple[int, int], Expr], dict[str, Expr]]:
    """The chain-rule coefficients ``D_j r_i`` keyed by (j, i), and every
    first-order source jet solved jointly in target jets.  Solved once per
    chart, on first use, and kept on the chart for every later caller; a
    solve that raises keeps nothing."""
    if T._first_order is not None:
        return T._first_order
    src = T.source
    ts = T.target_space(1)
    djr = {(j, i): total_derivative(src, T.target_independent[i - 1][1], j)
           for j in range(1, src.p + 1) for i in range(1, src.p + 1)}
    relations = [add(*[mul(sym(ts.jet_name(dep, (i,))), djr[(j, i)])
                       for i in range(1, src.p + 1)],
                     mul(-1, total_derivative(src, e, j)))
                 for dep, e in T.target_dependent for j in range(1, src.p + 1)]
    src_first = [src.jet_name(d, (j,)) for d in src.dependent
                 for j in range(1, src.p + 1)]
    object.__setattr__(T, "_first_order",
                       (djr, dict(zip(src_first, solve_affine(relations, src_first)))))
    return T._first_order


def jet_dictionaries(T: PointTransformation, exprs: Sequence[Expr]) -> dict[str, Expr]:
    """Source jets as expressions in source base coordinates and target jet
    symbols: every first-order jet, and each jet of order 2 or more that
    ``exprs`` mention.

    A jet u_{J,j} is the mixed total derivative along x_j of the jet u_J
    with the chart's ``first_order_jets`` substituted, so the prefix chain
    of a mentioned jet is derived with it, each link once.
    """
    src = T.source
    ts = T.target_space(1)
    djr, first = first_order_jets(T)
    backward = dict(first)

    def derive(dep: str, idx: tuple[int, ...]) -> Expr:
        name = src.jet_name(dep, idx)
        if name not in backward:
            e = _mixed_total_derivative(T, ts, derive(dep, idx[:-1]), idx[-1], djr)
            backward[name] = substitute(e, first)
        return backward[name]

    mentioned = {src.jet_info(v) for e in exprs for v in free_vars(e)}
    for dep, idx in sorted(info for info in mentioned
                           if info is not None and len(info[1]) >= 2):
        derive(dep, idx)
    return backward


def transform_de(sys, T: PointTransformation):
    """Rewrite a system in the chart's coordinates.

    Requires the chart to carry its inverse base map.  The jet dictionary is
    asked for the jets the equations mention, so a jet no equation names is
    never derived.
    """
    src = T.source
    if sys.space.base_names != src.base_names:
        raise ChartError("system and chart live over different source coordinates")
    n = sys.order
    if T.inverse is None:
        raise ChartError("transform_de needs the chart's inverse base map")
    backward = jet_dictionaries(T, sys.equations)
    ts = T.target_space(n)
    out = []
    allowed = set(ts.base_names) | set(ts.params) | set(ts.jet_names(n))
    for eq in sys.equations:
        e = substitute(eq, backward)
        e = substitute(e, T.inverse)
        leftover = free_vars(e) - allowed
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


class Pushforward(NamedTuple):
    """A generator's coefficients on chart targets and auxiliary variables.

    When re-expression in the target coordinates leaves ``residual_vars``, it
    is ``flagged`` and the coefficients are the raw source expressions.
    Any common constant is reported as ``suggested_scale`` metadata and never
    applied.
    """

    coords: tuple[str, ...]
    coeffs: Mapping[str, Expr]
    residual_vars: tuple[str, ...] = ()
    suggested_scale: Fraction | None = None

    @property
    def flagged(self) -> bool:
        return bool(self.residual_vars)

    def coeff(self, name: str) -> Expr:
        return self.coeffs.get(name, ZERO)

    def describe(self) -> str:
        return describe_field((n, self.coeff(n)) for n in self.coords)


def _leading_rational(e: Expr) -> Fraction | None:
    if e == ZERO:
        return None
    t = e.terms[0] if isinstance(e, Add) else e
    c, _ = _coeff_monomial(t)
    return c


def pushforward_field(X: VectorField, T: PointTransformation) -> Pushforward:
    """Push X through the chart onto (targets, auxiliary variables).

    Each new coefficient is the prolonged field applied to the coordinate's
    defining expression, re-expressed through the jet dictionary and the
    inverse map.  Each auxiliary definition, re-expressed the same way, must
    be one of the chart's first-order target derivatives, so a wrong
    definition is rejected rather than silently used.
    """
    src = T.source
    if X.space.base_names != src.base_names:
        raise ChartError("field and chart live over different source coordinates")
    coord_defs: list[tuple[str, Expr]] = []
    for n, e in T.target_independent + T.target_dependent:
        if T.canonical is not None and n == T.canonical:
            continue
        coord_defs.append((n, e))
    coord_defs.extend(T.aux)
    n_aux = max([src.jet_order(d) for _, d in T.aux], default=0)
    P = prolong(X, max(1, n_aux))
    raw = {n: P.apply_to(d) for n, d in coord_defs}
    backward = jet_dictionaries(T, [d for _, d in T.aux] + list(raw.values()))
    target_first = T.target_space(1).jet_names(1)
    rename: dict[str, Expr] = {}
    for n, d in T.aux:
        d = substitute(d, backward)
        if T.inverse is not None:
            d = substitute(d, T.inverse)
        bound = next((j for j in target_first if equiv(d, sym(j))), None)
        if bound is None:
            raise ChartError(
                f"auxiliary {n!r} does not match any first-order derivative of the chart")
        rename[bound] = sym(n)
    coords = tuple(n for n, _ in coord_defs)
    allowed = set(T.target_names) | {n for n, _ in T.aux} | set(src.params)
    expressed: dict[str, Expr] = {}
    residual: set[str] = set()
    for n, r in raw.items():
        e = substitute(r, backward)
        e = substitute(e, rename)
        if T.inverse is not None:
            e = substitute(e, T.inverse)
        residual |= free_vars(e) - allowed
        expressed[n] = e
    if residual:
        return Pushforward(coords, raw, residual_vars=tuple(sorted(residual)))
    scale = None
    for n in coords:
        lead = _leading_rational(expressed[n])
        if lead is not None:
            scale = None if lead == 1 else Fraction(1, 1) / lead
            break
    return Pushforward(coords, expressed, suggested_scale=scale)
