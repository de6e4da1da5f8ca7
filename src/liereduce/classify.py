"""Point-vs-nonlocal classification of symmetries across a reduction.

A pushed-forward parent symmetry is a point symmetry of the reduced system
exactly when its coefficients live in the reduced coordinates; any appearance
of the eliminated translated variable is the nonlocality witness.  In the
other direction, a point symmetry of the reduced system lifts to the parent
only if a generator in the parent base coordinates prolongs onto it; the
matching is decided degree by degree in the gradient variables.  Because
prolonged coefficients are always polynomial in the gradient coordinates, a
non-polynomial coefficient can never be matched and settles the verdict by
itself.  Every verdict records which criterion fired.
"""

from __future__ import annotations

from dataclasses import dataclass

from .charts import ChartError, PointTransformation, pushforward_field
from .equiv import is_zero
from .expr import (Add, Expr, ExprError, Rat, ZERO, add, diff, free_vars,
                   mul, render, _coeff_monomial, _base_exp)
from .jets import JetError, VectorField
from .reduction import ReducedSystem
from .systems import check_point_symmetry


class ClassifyError(ExprError):
    pass


@dataclass(frozen=True)
class Classification:
    verdict: str  # "point" | "nonlocal" | "inconclusive"
    witness: str = ""
    criterion: str = ""

    def __str__(self):
        bits = [self.verdict]
        if self.witness:
            bits.append(f"witness={self.witness}")
        if self.criterion:
            bits.append(f"by {self.criterion}")
        return " ".join(bits)


def gradient_poly(e: Expr, names) -> dict[tuple[int, ...], Expr] | None:
    """Coefficients of e as a polynomial in the named variables.

    Returns None when e depends on them non-polynomially (negative or
    fractional powers, or occurrences inside kernels or opaque bases).
    """
    names = tuple(names)
    nameset = set(names)
    out: dict[tuple[int, ...], list[Expr]] = {}
    terms = e.terms if isinstance(e, Add) else (e,)
    for t in terms:
        c, mono = _coeff_monomial(t)
        degs = [0] * len(names)
        rest = [Rat(c)]
        for f in mono:
            b, x = _base_exp(f)
            if hasattr(b, "name") and b.name in nameset and not hasattr(b, "arg"):
                if not (isinstance(x, Rat) and x.value.denominator == 1 and x.value > 0):
                    return None
                degs[names.index(b.name)] += int(x.value)
            else:
                if set(free_vars(f)) & nameset:
                    return None
                rest.append(f)
        out.setdefault(tuple(degs), []).append(mul(*rest))
    return {k: add(*v) for k, v in out.items()}


def classify_pushforward(X: VectorField, T: PointTransformation,
                         reduced: ReducedSystem) -> Classification:
    """Classify a parent symmetry pushed onto the reduced system's coordinates."""
    try:
        pf = pushforward_field(X, T)
    except ChartError as exc:
        return Classification("inconclusive", witness=str(exc),
                              criterion="push-forward failed")
    space = reduced.system.space
    if pf.flagged:
        return Classification("inconclusive",
                              witness=",".join(pf.residual_vars),
                              criterion="re-expression failed; raw coefficients kept")
    local = set(space.base_names) | set(space.params)
    foreign: set[str] = set()
    for c in pf.coeffs.values():
        foreign |= set(free_vars(c)) - local
    if foreign:
        witness = T.canonical if T.canonical in foreign else sorted(foreign)[0]
        return Classification("nonlocal", witness=witness,
                              criterion="coefficient depends on an eliminated variable")
    extra = set(pf.coords) - set(space.base_names)
    if extra:
        return Classification("inconclusive", witness=sorted(extra)[0],
                              criterion="push-forward coordinates do not match the reduced system")
    try:
        Y = VectorField(space, {n: c for n, c in pf.coeffs.items() if c != ZERO})
        rep = check_point_symmetry(reduced.system, Y)
    except (JetError, ExprError) as exc:
        return Classification("inconclusive", witness=str(exc),
                              criterion="verification failed")
    if rep.is_symmetry:
        return Classification("point",
                              criterion="local coefficients verified as a point symmetry")
    return Classification("inconclusive",
                          witness="; ".join(render(r) for r in rep.residuals),
                          criterion="local coefficients but residual does not vanish")


def lift_test(Y: VectorField, reduced: ReducedSystem) -> Classification:
    """Does a point symmetry of the reduced system lift to the parent?

    The connection is the gradient reduction's: one auxiliary variable
    per independent variable, each the first derivative of the eliminated
    variable (with one independent variable, the slope of Lie's reduction of
    order).  The candidate parent generator's prolongation must reproduce
    Y's coefficients with the gradient variables standing for the eliminated
    variable's derivatives; the resulting conditions on the parent
    coefficients are solved degree by degree.
    """
    rep = check_point_symmetry(reduced.system, Y)
    if not rep.is_symmetry:
        raise ClassifyError(
            "lift_test precondition violated: the field is not a point symmetry "
            f"of the reduced system (residuals: "
            f"{'; '.join(render(r) for r in rep.residuals)})")
    conn = reduced.connection
    pspace = conn.parent_space
    p = pspace.p
    indep = pspace.independent
    aux_names = conn.aux

    a = [Y.coeff(xj) for xj in indep]
    for xj, aj in zip(indep, a):
        if set(free_vars(aj)) & set(aux_names):
            return Classification(
                "nonlocal", witness=xj,
                criterion="base component depends on a gradient variable")
    polys = []
    for an in aux_names:
        poly = gradient_poly(Y.coeff(an), aux_names)
        if poly is None:
            return Classification(
                "nonlocal", witness=an,
                criterion="non-polynomial gradient dependence; prolonged "
                          "coefficients are polynomial in gradient variables")
        polys.append(poly)
    unit = lambda j: tuple(1 if k == j else 0 for k in range(p))
    zero_deg = (0,) * p
    d_candidates = []
    for i in range(p):
        poly = polys[i]
        for degs, c in poly.items():
            if sum(degs) >= 2 and not is_zero(c):
                monomial = "*".join(n if k == 1 else f"{n}^{k}"
                                    for n, k in zip(aux_names, degs) if k)
                return Classification(
                    "nonlocal", witness=f"{render(c)}*{monomial}",
                    criterion="matching system inconsistent: quadratic row unmatched")
        for j in range(p):
            cij = poly.get(unit(j), ZERO)
            if j == i:
                d_candidates.append(add(cij, diff(a[i], indep[i])))
            else:
                if not is_zero(add(cij, diff(a[j], indep[i]))):
                    return Classification(
                        "nonlocal", witness=aux_names[i],
                        criterion="matching system inconsistent: cross term unmatched")
    d = d_candidates[0]
    for other in d_candidates[1:]:
        if not is_zero(add(d, mul(-1, other))):
            return Classification(
                "nonlocal", witness=render(other),
                criterion="matching system inconsistent: unequal diagonal terms")
    for xj in indep:
        if not is_zero(diff(d, xj)):
            return Classification(
                "nonlocal", witness=render(d),
                criterion="matching system inconsistent: mixed derivative condition fails")
    c0 = [polys[i].get(zero_deg, ZERO) for i in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            curl = add(diff(c0[i], indep[j]), mul(-1, diff(c0[j], indep[i])))
            if not is_zero(curl):
                return Classification(
                    "nonlocal", witness=f"({aux_names[i]},{aux_names[j]})",
                    criterion="matching system inconsistent: curl condition fails")
    xi = render(a[0]) if p == 1 else "(" + ", ".join(render(x) for x in a) + ")"
    return Classification(
        "point", witness=f"xi = {xi}, d(eta)/d{conn.eliminated} = {render(d)}",
        criterion="degree matching consistent")
