"""Jet spaces, total derivatives, and prolongation of point-symmetry generators.

Jet variables are flat coordinates named by convention: for a single
independent variable the derivative coordinates of ``y`` are ``y'``, ``y''``,
...; otherwise they are ``u_1``, ``u_12``, ... with the multi-index digits
sorted ascending (so ``u_21`` resolves to ``u_12``).  A space is an immutable
descriptor; operations that need higher-order coordinates simply name them,
so differentiation never errors on order.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterable, Mapping, NamedTuple

from .expr import (Expr, ExprError, ZERO, add, diff, free_vars, mul, render,
                   sym, _coerce)
from .parse import parse_expr


class JetError(ExprError):
    pass


class Record:
    """A read-only record whose constructor validates: value equality and
    hashing over ``_fields``, and a repr naming them.  Subclasses list their
    fields in ``__slots__`` and ``_fields`` and fill them with ``_init``,
    since assignment raises ``AttributeError``.  Records that only hold
    values are ``NamedTuple``s instead."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since assignment
        # raises.
        return type(self), self._values()


class JetSpace(Record):
    __slots__ = _fields = ("independent", "dependent", "order", "params")

    def __init__(self, independent: tuple[str, ...], dependent: tuple[str, ...],
                 order: int, params: tuple[str, ...] = ()):
        self._init(independent, dependent, order, params)
        names = list(self.independent) + list(self.dependent) + list(self.params)
        if len(set(names)) != len(names):
            raise JetError(f"duplicate coordinate names in {names}")
        if not self.independent or not self.dependent:
            raise JetError("a jet space needs at least one independent and one dependent variable")
        if len(self.independent) > 9:
            raise JetError("at most 9 independent variables are supported")
        if self.order < 0:
            raise JetError("order must be nonnegative")
        for n in names:
            if "'" in n:
                raise JetError(f"coordinate name {n!r} may not contain a prime")
            head, _, tail = n.rpartition("_")
            if head in self.dependent and tail.isdigit():
                raise JetError(f"name {n!r} collides with jet coordinates of {head!r}")

    # -- naming ------------------------------------------------------------

    @property
    def p(self) -> int:
        return len(self.independent)

    @property
    def m(self) -> int:
        return len(self.dependent)

    def jet_name(self, dep: str, index: tuple[int, ...]) -> str:
        if dep not in self.dependent:
            raise JetError(f"{dep!r} is not a dependent variable")
        if not index:
            return dep
        if any(i < 1 or i > self.p for i in index):
            raise JetError(f"index {index} out of range for {self.p} independent variables")
        index = tuple(sorted(index))
        if self.p == 1:
            return dep + "'" * len(index)
        return dep + "_" + "".join(str(i) for i in index)

    def jet_info(self, name: str) -> tuple[str, tuple[int, ...]] | None:
        """(dependent var, sorted multi-index) for a jet coordinate, else None."""
        if name in self.dependent:
            return name, ()
        if name.endswith("'"):
            root = name.rstrip("'")
            k = len(name) - len(root)
            if root in self.dependent and self.p == 1:
                return root, (1,) * k
            return None
        head, _, tail = name.rpartition("_")
        if head in self.dependent and tail.isdigit():
            idx = tuple(sorted(int(c) for c in tail))
            if all(1 <= i <= self.p for i in idx):
                return head, idx
        return None

    def resolve(self, name: str) -> str | None:
        """Vocabulary hook for the parser; canonicalizes multi-indices."""
        if name in self.independent or name in self.params:
            return name
        info = self.jet_info(name)
        if info is not None:
            return self.jet_name(*info)
        return None

    # -- enumeration and parsing --------------------------------------------

    @property
    def base_names(self) -> tuple[str, ...]:
        return self.independent + self.dependent

    def jet_names(self, max_order: int) -> list[str]:
        """All derivative coordinates with 1 <= |index| <= max_order."""
        out = []
        for dep in self.dependent:
            for k in range(1, max_order + 1):
                for idx in combinations_with_replacement(range(1, self.p + 1), k):
                    out.append(self.jet_name(dep, idx))
        return out

    def with_order(self, order: int) -> "JetSpace":
        if order == self.order:
            return self
        return JetSpace(self.independent, self.dependent, order, self.params)

    def expr(self, text: str) -> Expr:
        return parse_expr(text, self)

    def jet_order(self, e: Expr) -> int:
        """Highest derivative order among the coordinates of e."""
        n = 0
        for v in free_vars(e):
            info = self.jet_info(v)
            if info is not None:
                n = max(n, len(info[1]))
        return n


def total_derivative(space: JetSpace, e: Expr, j: int) -> Expr:
    """D_j e: the total derivative along the j-th independent variable."""
    parts = [diff(e, space.independent[j - 1])]
    for v in free_vars(e):
        info = space.jet_info(v)
        if info is None:
            continue
        dep, idx = info
        nxt = space.jet_name(dep, idx + (j,))
        parts.append(mul(sym(nxt), diff(e, v)))
    return add(*parts)


class VectorField(Record):
    """An infinitesimal generator with one coefficient per base coordinate.

    Coefficients may depend only on base coordinates (and parameters); this
    is exactly the point-symmetry shape, and it is enforced.
    """

    __slots__ = _fields = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: Mapping[str, Expr]):
        allowed = set(space.base_names) | set(space.params)
        clean = {}
        for name, c in coeffs.items():
            if name not in space.base_names:
                raise JetError(f"{name!r} is not a base coordinate of the space")
            c = _coerce(c)
            extra = free_vars(c) - allowed
            if extra:
                raise JetError(
                    f"coefficient of {name!r} depends on non-base coordinates {sorted(extra)}")
            if c != ZERO:
                clean[name] = c
        self._init(space, clean)

    @classmethod
    def parse(cls, space: JetSpace, coeffs: Mapping[str, str]) -> "VectorField":
        return cls(space, {n: parse_expr(t, space) for n, t in coeffs.items()})

    def coeff(self, name: str) -> Expr:
        return self.coeffs.get(name, ZERO)

    def apply_to(self, e: Expr) -> Expr:
        """First-order action on a base-coordinate expression."""
        return add(*[mul(c, diff(e, v)) for v, c in self.coeffs.items()])

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.space != self.space:
            raise JetError("cannot add fields over different spaces")
        names = set(self.coeffs) | set(other.coeffs)
        return VectorField(self.space, {n: add(self.coeff(n), other.coeff(n)) for n in names})

    def __rmul__(self, c) -> "VectorField":
        c = _coerce(c)
        return VectorField(self.space, {n: mul(c, v) for n, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def describe(self) -> str:
        return describe_field((n, self.coeff(n)) for n in self.space.base_names)


def describe_field(coeffs: Iterable[tuple[str, Expr]]) -> str:
    """A field's wording from its (coordinate, coefficient) pairs: each
    nonzero coefficient c of n as '(c) d/dn', joined by ' + ', or '0'."""
    return " + ".join(f"({render(c)}) d/d{n}" for n, c in coeffs if c != ZERO) or "0"


class ProlongedField(NamedTuple):
    """A generator extended to jet coordinates up to a fixed order."""

    base: VectorField
    order: int
    jet_coeffs: Mapping[str, Expr]

    def coeff(self, name: str) -> Expr:
        c = self.base.coeffs.get(name)
        if c is not None:
            return c
        return self.jet_coeffs.get(name, ZERO)

    def apply_to(self, e: Expr) -> Expr:
        space = self.base.space
        if space.jet_order(e) > self.order:
            raise JetError(
                f"expression order {space.jet_order(e)} exceeds prolongation order {self.order}")
        parts = []
        for v, c in self.base.coeffs.items():
            parts.append(mul(c, diff(e, v)))
        for v, c in self.jet_coeffs.items():
            parts.append(mul(c, diff(e, v)))
        return add(*parts)


def prolong(X: VectorField, order: int) -> ProlongedField:
    """Extend X to jet coordinates by the standard recursion.

    The coefficient on u_{J,j} is D_j (coefficient on u_J) minus
    sum_i D_j(xi_i) * u_{J,i}, computed on sorted multi-indices.
    """
    if order < 1:
        raise JetError("prolongation order must be at least 1")
    space = X.space
    dxi = {}
    for jidx in range(1, space.p + 1):
        for i, xi_name in enumerate(space.independent, start=1):
            dxi[(jidx, i)] = total_derivative(space, X.coeff(xi_name), jidx)
    coeffs: dict[tuple[str, tuple[int, ...]], Expr] = {}
    for dep in space.dependent:
        coeffs[(dep, ())] = X.coeff(dep)
        for k in range(1, order + 1):
            for idx in combinations_with_replacement(range(1, space.p + 1), k):
                j = idx[-1]
                prev = idx[:-1]
                parts = [total_derivative(space, coeffs[(dep, prev)], j)]
                for i in range(1, space.p + 1):
                    d = dxi[(j, i)]
                    if d != ZERO:
                        nbr = space.jet_name(dep, tuple(sorted(prev + (i,))))
                        parts.append(mul(-1, d, sym(nbr)))
                coeffs[(dep, idx)] = add(*parts)
    jet_coeffs = {space.jet_name(dep, idx): c
                  for (dep, idx), c in coeffs.items() if idx}
    return ProlongedField(X, order, jet_coeffs)
