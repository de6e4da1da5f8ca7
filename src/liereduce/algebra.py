"""Commutators, structure constants, solvability, and reduction-order advice.

Brackets of generator pairs are expressed in the span of the generator list by
matching monomial coefficients over exact rationals; the derived series is
then pure rational linear algebra, so solvability has no tolerance issues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .equiv import echelon
from .expr import Add, Expr, ExprError, ZERO, add, mul, _coeff_monomial
from .jets import JetError, VectorField


class AlgebraError(ExprError):
    pass


def commutator(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]: coefficient on v is X(Y_v) - Y(X_v)."""
    if X.space.base_names != Y.space.base_names:
        raise JetError("fields live over different base coordinates")
    coeffs = {}
    for v in X.space.base_names:
        c = add(X.apply_to(Y.coeff(v)), mul(-1, Y.apply_to(X.coeff(v))))
        if c != ZERO:
            coeffs[v] = c
    return VectorField(X.space, coeffs)


def _monomial_map(e: Expr) -> dict[tuple, Fraction]:
    out: dict[tuple, Fraction] = {}
    if e == ZERO:
        return out
    for t in (e.terms if isinstance(e, Add) else (e,)):
        c, mono = _coeff_monomial(t)
        out[tuple(f.key() for f in mono)] = c
    return out


def _solve_rational(aug: list[list[Fraction]], n: int) -> list[Fraction] | None:
    """One exact solution of A x = b from the augmented rows [A | b], free
    unknowns set to 0, or None when inconsistent, that is when a pivot lands
    in the b column."""
    x = [Fraction(0)] * n
    for row in reversed(echelon(aug)):
        col = next(k for k, c in enumerate(row) if c != 0)
        if col == n:
            return None
        x[col] = (row[n] - sum(row[k] * x[k] for k in range(col + 1, n))) / row[col]
    return x


@dataclass(frozen=True)
class AlgebraTable:
    """Generators plus their pairwise brackets expressed in the span.

    ``entries[(i, j)]`` (i < j, zero-based) holds the rational coordinates of
    [X_i, X_j] in the generator basis, or None when the bracket leaves the
    span; the full bracket field is then kept in ``residuals``.
    """

    generators: tuple[VectorField, ...]
    entries: Mapping[tuple[int, int], tuple[Fraction, ...] | None]
    residuals: Mapping[tuple[int, int], VectorField]

    @property
    def q(self) -> int:
        return len(self.generators)

    @property
    def closed(self) -> bool:
        return all(v is not None for v in self.entries.values())

    def coords(self, i: int, j: int) -> tuple[Fraction, ...] | None:
        if i == j:
            return tuple(Fraction(0) for _ in range(self.q))
        if i < j:
            return self.entries[(i, j)]
        v = self.entries[(j, i)]
        return None if v is None else tuple(-c for c in v)

    def jacobi_ok(self) -> bool:
        """Jacobi identity on the structure constants (exact check)."""
        if not self.closed:
            raise AlgebraError("table is not closed")
        q = self.q
        cc = {(i, j): self.coords(i, j) for i in range(q) for j in range(q)}
        for i in range(q):
            for j in range(q):
                for k in range(q):
                    for l in range(q):
                        s = sum(cc[(i, j)][m] * cc[(m, k)][l]
                                + cc[(j, k)][m] * cc[(m, i)][l]
                               + cc[(k, i)][m] * cc[(m, j)][l]
                                for m in range(q))
                        if s != 0:
                            return False
        return True

    def describe_entry(self, i: int, j: int, names: Sequence[str]) -> str:
        """[X_i, X_j] as 'c*Xk + ...' over the generator names, or 'not in span'."""
        v = self.coords(i, j)
        if v is None:
            return "not in span"
        bits = []
        for c, name in zip(v, names):
            if c == 0:
                continue
            if c == 1:
                bits.append(name)
            elif c == -1:
                bits.append(f"-{name}")
            else:
                bits.append(f"{c}*{name}")
        return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def structure_constants(gens: Sequence[VectorField]) -> AlgebraTable:
    """Bracket table of a generator list, solved monomial by monomial."""
    gens = tuple(gens)
    if not gens:
        raise AlgebraError("need at least one generator")
    space = gens[0].space
    for g in gens:
        if g.space.base_names != space.base_names:
            raise JetError("generators live over different base coordinates")
    decomp = [{v: _monomial_map(g.coeff(v)) for v in space.base_names} for g in gens]
    entries: dict[tuple[int, int], tuple[Fraction, ...] | None] = {}
    residuals: dict[tuple[int, int], VectorField] = {}
    q = len(gens)
    for i in range(q):
        for j in range(i + 1, q):
            Z = commutator(gens[i], gens[j])
            zmap = {v: _monomial_map(Z.coeff(v)) for v in space.base_names}
            aug = []
            for v in space.base_names:
                keys = set(zmap[v])
                for d in decomp:
                    keys |= set(d[v])
                for key in sorted(keys):
                    aug.append([d[v].get(key, Fraction(0)) for d in decomp]
                               + [zmap[v].get(key, Fraction(0))])
            sol = _solve_rational(aug, q)
            if sol is None:
                entries[(i, j)] = None
                residuals[(i, j)] = Z
            else:
                entries[(i, j)] = tuple(sol)
    return AlgebraTable(gens, entries, residuals)


def is_solvable(table: AlgebraTable) -> tuple[bool, tuple[int, ...]]:
    """Derived series dimensions via rational linear algebra.

    Solvable iff the series reaches dimension zero; the returned tuple is the
    sequence of dimensions, e.g. (5, 3, 0).
    """
    if not table.closed:
        raise AlgebraError("table is not closed; solvability undefined")
    q = table.q
    cc = {(i, j): table.coords(i, j) for i in range(q) for j in range(q)}

    def bracket_vec(u: list[Fraction], w: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * q
        for i in range(q):
            if u[i] == 0:
                continue
            for j in range(q):
                if w[j] == 0:
                    continue
                f = u[i] * w[j]
                for k in range(q):
                    out[k] += f * cc[(i, j)][k]
        return out

    basis = [[Fraction(int(i == j)) for j in range(q)] for i in range(q)]
    dims = [q]
    while True:
        vecs = []
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                v = bracket_vec(basis[i], basis[j])
                if any(x != 0 for x in v):
                    vecs.append(v)
        nxt = echelon(vecs)
        dims.append(len(nxt))
        if len(nxt) == 0:
            return True, tuple(dims)
        if len(nxt) >= dims[-2]:
            return False, tuple(dims)
        basis = nxt


@dataclass(frozen=True)
class Advice:
    """Recommended reduction order for a two-generator solvable pattern."""

    first: int
    second: int
    either: bool = False
    point_inherited: int | None = None  # index inherited as a point symmetry

    def describe(self, names: Sequence[str]) -> str:
        first = names[self.first]
        if self.either:
            return (f"[{first},{names[self.second]}] = 0: either order works; "
                    f"both directions inherit a point symmetry")
        return (f"reduce by {first} first; {names[self.point_inherited]} is "
                f"inherited as a point symmetry, while the reverse order "
                f"inherits {first} only as a nonlocal symmetry")


def reduction_order_advice(table: AlgebraTable, i: int, j: int) -> Advice:
    """Order two generators with [X_i, X_j] proportional to one of them.

    The generator spanning the derived ideal goes first; the other is then
    inherited as a point symmetry of the reduced system, while the reverse
    order inherits only a nonlocal symmetry.  Indices are zero-based.
    """
    v = table.coords(i, j)
    if v is None:
        raise AlgebraError("bracket leaves the span of the generators")
    nonzero = [k for k, c in enumerate(v) if c != 0]
    if not nonzero:
        return Advice(first=i, second=j, either=True)
    if nonzero == [i]:
        return Advice(first=i, second=j, point_inherited=j)
    if nonzero == [j]:
        return Advice(first=j, second=i, point_inherited=i)
    raise AlgebraError(
        "bracket is not proportional to either generator; no two-step advice")
