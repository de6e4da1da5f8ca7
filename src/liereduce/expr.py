"""Exact symbolic expressions in an expanded rational normal form.

Expressions are immutable trees over arbitrary-precision rational constants,
named variables, sums, products, powers, and one-argument transcendental
kernels (exp, log, ...).  Every constructor in this module normalizes:
sums carry no nested sums, products no nested products, constants are folded
exactly, like terms and like bases are collected, and terms/factors follow a
fixed total order.  Fractional powers and kernels are opaque atoms; rewrite
rules involving them (``log(a*b) = log a + log b``, ``(x^a)^b = x^(a*b)``)
assume the positive branch of every such base, which is also the domain the
numeric sampler draws from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

Q = Fraction


class ExprError(Exception):
    """Base error for expression-level failures."""


class DomainError(ExprError):
    """Numeric evaluation left the real domain (log of nonpositive, etc.)."""


def _name_of(v) -> str:
    if isinstance(v, Sym):
        return v.name
    if isinstance(v, str):
        return v
    raise TypeError(f"not a variable: {v!r}")


# ---------------------------------------------------------------------------
# Nodes


class Expr:
    __slots__ = ("_key", "_hash")

    def key(self) -> tuple:
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<{render(self)}>"

    # Arithmetic sugar; every result is normalized.  Unknown operand types
    # defer to the other side's reflected operation.
    def __add__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else add(self, mul(MINUS_ONE, o))

    def __rsub__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else add(o, mul(MINUS_ONE, self))

    def __mul__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else mul(self, power(o, MINUS_ONE))

    def __rtruediv__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else mul(o, power(self, MINUS_ONE))

    def __pow__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else power(self, o)

    def __neg__(self):
        return mul(MINUS_ONE, self)


class Rat(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        v = value if isinstance(value, Fraction) else Fraction(value)
        self.value = v
        self._key = (0, (v.numerator, v.denominator))
        self._hash = hash(self._key)


class Sym(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name
        self._key = (1, name)
        self._hash = hash(self._key)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: Expr):
        self.base = base
        self.exponent = exponent
        self._key = (2, base._key, exponent._key)
        self._hash = hash(self._key)


class Kernel(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        self.name = name
        self.arg = arg
        self._key = (3, name, arg._key)
        self._hash = hash(self._key)


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        self._key = (4, tuple(f._key for f in factors))
        self._hash = hash(self._key)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._key = (5, tuple(t._key for t in terms))
        self._hash = hash(self._key)


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    raise TypeError(f"cannot use {x!r} as an expression")


def _try_coerce(x) -> Expr | None:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    return None


def rat(p, q=1) -> Rat:
    return Rat(Fraction(p, q))


def sym(name: str) -> Sym:
    return Sym(name)


# ---------------------------------------------------------------------------
# Normalizing constructors


def _coeff_monomial(t: Expr) -> tuple[Fraction, tuple[Expr, ...]]:
    """Split a normalized non-sum term into (rational coefficient, factors)."""
    if isinstance(t, Rat):
        return t.value, ()
    if isinstance(t, Mul):
        fs = t.factors
        if isinstance(fs[0], Rat):
            return fs[0].value, fs[1:]
        return Q(1), fs
    return Q(1), (t,)


def _term_from(coeff: Fraction, mono: tuple[Expr, ...]) -> Expr:
    if not mono:
        return Rat(coeff)
    if coeff == 1:
        return mono[0] if len(mono) == 1 else Mul(mono)
    return Mul((Rat(coeff),) + mono)


def add(*parts) -> Expr:
    acc: dict[tuple, list] = {}
    stack = [_coerce(p) for p in parts]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(t.terms)
            continue
        c, mono = _coeff_monomial(t)
        k = tuple(f._key for f in mono)
        slot = acc.get(k)
        if slot is None:
            acc[k] = [c, mono]
        else:
            slot[0] += c
    out = []
    for k, (c, mono) in acc.items():
        if c == 0:
            continue
        out.append((k, _term_from(c, mono)))
    if not out:
        return ZERO
    out.sort(key=lambda km: km[0])
    terms = tuple(t for _, t in out)
    return terms[0] if len(terms) == 1 else Add(terms)


def _base_exp(f: Expr) -> tuple[Expr, Expr]:
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, ONE


def mul(*parts) -> Expr:
    coeff = Q(1)
    adds: list[Add] = []
    exp_args: list[Expr] = []
    # base key -> [base, exponent list, finalized flag]
    slots: dict[tuple, list] = {}
    queue = [_coerce(p) for p in parts]
    guard = 0
    while True:
        guard += 1
        if guard > 100000:  # pragma: no cover
            raise ExprError("product normalization did not terminate")
        while queue:
            f = queue.pop()
            if isinstance(f, Rat):
                if f.value == 0:
                    return ZERO
                coeff *= f.value
            elif isinstance(f, Mul):
                queue.extend(f.factors)
            else:
                # Sums are collected as bases too, so B * B^(-1) cancels
                # before any distribution happens.
                b, e = _base_exp(f)
                if isinstance(b, Kernel) and b.name == "exp":
                    exp_args.append(b.arg if e is ONE else mul(e, b.arg))
                    continue
                slot = slots.get(b._key)
                if slot is None:
                    slots[b._key] = [b, [e], False]
                else:
                    slot[1].append(e)
                    slot[2] = False
        dirty = [k for k, s in slots.items() if not s[2]]
        for k in dirty:
            b, exps, _ = slots.pop(k)
            f2 = power(b, add(*exps) if len(exps) > 1 else exps[0])
            if isinstance(f2, Rat):
                if f2.value == 0:
                    return ZERO
                coeff *= f2.value
            elif isinstance(f2, Mul):
                queue.append(f2)
            elif isinstance(f2, Add):
                adds.append(f2)
            elif isinstance(f2, Kernel) and f2.name == "exp":
                exp_args.append(f2.arg)
            else:
                b2, e2 = _base_exp(f2)
                slot = slots.get(b2._key)
                if slot is None:
                    slots[b2._key] = [b2, [e2], True]
                else:
                    slot[1].append(e2)
                    slot[2] = False
        if queue or any(not s[2] for s in slots.values()):
            continue
        if exp_args:
            # Merge every exponential into a single factor.
            for k in list(slots):
                b, exps, _ = slots[k]
                if isinstance(b, Kernel) and b.name == "exp":
                    slots.pop(k)
                    e = exps[0]
                    exp_args.append(b.arg if e == ONE else mul(e, b.arg))
            total = add(*exp_args)
            exp_args = []
            if total != ZERO:
                ek = kernel("exp", total)
                if isinstance(ek, Kernel) and ek.name == "exp":
                    slots[ek._key] = [ek, [ONE], True]
                else:
                    queue.append(ek)
                    continue
        if not queue:
            break
    factors = []
    for b, exps, _ in slots.values():
        e = exps[0]
        factors.append(b if e == ONE else Pow(b, e))
    if adds:
        base = _term_from(coeff, tuple(sorted(
            factors, key=lambda f: (_base_exp(f)[0]._key, _base_exp(f)[1]._key))))
        terms = [base]
        for a in adds:
            terms = [mul(t, s) for t in terms for s in a.terms]
        return add(*terms)
    if coeff == 0:
        return ZERO
    factors.sort(key=lambda f: (_base_exp(f)[0]._key, _base_exp(f)[1]._key))
    return _term_from(coeff, tuple(factors))


def _int_nth_root(n: int, k: int) -> int | None:
    if n < 0:
        return None
    if n in (0, 1):
        return n
    lo, hi = 1, 1 << ((n.bit_length() + k - 1) // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == n else None


def _rat_pow(q: Fraction, e: Fraction) -> Fraction | None:
    """Exact rational value of q**e, or None when it is not rational."""
    if e.denominator == 1:
        n = e.numerator
        if n >= 0:
            return q**n
        if q == 0:
            return None
        return Q(1) / q**(-n)
    if q < 0:
        return None
    rn = _int_nth_root(q.numerator, e.denominator)
    rd = _int_nth_root(q.denominator, e.denominator)
    if rn is None or rd is None:
        return None
    root = Q(rn, rd)
    return _rat_pow(root, Q(e.numerator))


_POW_EXPAND_LIMIT = 8


def _extract_content_once(a: Add) -> tuple[list[tuple[Expr, Fraction]], Expr]:
    common: dict[tuple, list] | None = None
    infos = []
    for t in a.terms:
        c, mono = _coeff_monomial(t)
        infos.append((c, mono))
        seen: dict[tuple, list] = {}
        for f in mono:
            b, x = _base_exp(f)
            if isinstance(x, Rat):
                seen[b._key] = [b, x.value]
        if common is None:
            common = seen
        else:
            for k in list(common):
                if k in seen:
                    common[k][1] = min(common[k][1], seen[k][1])
                else:
                    del common[k]
        if not common:
            return [], a
    pairs = [(b, x) for b, x in common.values() if x != 0]
    if not pairs:
        return [], a
    strip = {b._key: x for b, x in pairs}
    # Divide each term by the common part with exact exponent arithmetic;
    # multiplying by expanded inverses would re-introduce the content.
    new_terms = []
    for c, mono in infos:
        fs = []
        for f in mono:
            b, x = _base_exp(f)
            if b._key in strip and isinstance(x, Rat):
                nx = x.value - strip[b._key]
                if nx != 0:
                    fs.append(b if nx == 1 else Pow(b, Rat(nx)))
            else:
                fs.append(f)
        new_terms.append(mul(Rat(c), *fs))
    return pairs, add(*new_terms)


def _add_content(a: Add) -> tuple[list[tuple[Expr, Fraction]], Expr]:
    """Common factors (base, multiplicity) of a sum's terms, plus the
    primitive remainder; iterates until no content remains."""
    pairs_all: list[tuple[Expr, Fraction]] = []
    cur: Expr = a
    for _ in range(10):
        if not isinstance(cur, Add):
            break
        pairs, cur = _extract_content_once(cur)
        if not pairs:
            break
        pairs_all.extend(pairs)
    return pairs_all, cur


def power(b, e) -> Expr:
    b = _coerce(b)
    e = _coerce(e)
    if e == ONE:
        return b
    if b == ONE:
        return ONE
    if isinstance(b, Add):
        pairs, prim = _add_content(b)
        if pairs:
            return mul(*[power(bb, mul(Rat(xx), e)) for bb, xx in pairs],
                       power(prim, e))
        if isinstance(e, Rat) and e.value.denominator == 1:
            c0, _ = _coeff_monomial(b.terms[0])
            if c0 < 0:
                flip = Rat(Q(-1) ** int(e.value))
                return mul(flip, power(add(*[mul(-1, t) for t in b.terms]), e))
    if isinstance(e, Rat):
        q = e.value
        if q == 0:
            return ONE
        if isinstance(b, Rat):
            r = _rat_pow(b.value, q)
            if r is not None:
                return Rat(r)
            if b.value == 0 and q > 0:
                return ZERO
        if q.denominator == 1:
            if isinstance(b, Mul):
                return mul(*[power(f, e) for f in b.factors])
            if isinstance(b, Add) and 1 < q <= _POW_EXPAND_LIMIT:
                terms = list(b.terms)
                for _ in range(int(q) - 1):
                    terms = [mul(t, s) for t in terms for s in b.terms]
                return add(*terms)
    if isinstance(b, Pow) and isinstance(b.exponent, Rat) and isinstance(e, Rat):
        return power(b.base, Rat(b.exponent.value * e.value))
    if isinstance(b, Kernel) and b.name == "exp":
        return kernel("exp", mul(e, b.arg))
    return Pow(b, e)


def _log_multiple(t: Expr) -> tuple[Expr, Expr] | None:
    """Match k*log(u) (k any factor product); returns (k, u)."""
    if isinstance(t, Kernel) and t.name == "log":
        return ONE, t.arg
    if isinstance(t, Mul):
        logs = [f for f in t.factors if isinstance(f, Kernel) and f.name == "log"]
        if len(logs) == 1:
            rest = tuple(f for f in t.factors if f is not logs[0])
            return _term_from(Q(1), rest) if rest else ONE, logs[0].arg
    return None


def kernel(name: str, arg) -> Expr:
    arg = _coerce(arg)
    if name == "exp":
        if arg == ZERO:
            return ONE
        if isinstance(arg, Kernel) and arg.name == "log":
            return arg.arg
        m = _log_multiple(arg)
        if m is not None:
            return power(m[1], m[0])
        if isinstance(arg, Add):
            plain, pows = [], []
            for t in arg.terms:
                m = _log_multiple(t)
                if m is None:
                    plain.append(t)
                else:
                    pows.append(power(m[1], m[0]))
            if pows:
                return mul(*pows, kernel("exp", add(*plain)))
    elif name == "log":
        if arg == ONE:
            return ZERO
        if isinstance(arg, Kernel) and arg.name == "exp":
            return arg.arg
        if isinstance(arg, Pow) and isinstance(arg.exponent, Rat):
            return mul(arg.exponent, kernel("log", arg.base))
        if isinstance(arg, Mul):
            c, mono = _coeff_monomial(arg)
            if c > 0:
                parts = [kernel("log", f) for f in mono]
                if c != 1:
                    parts.append(Kernel("log", Rat(c)))
                return add(*parts)
    elif name in ("sin", "tan", "sinh", "tanh") and arg == ZERO:
        return ZERO
    elif name in ("cos", "cosh") and arg == ZERO:
        return ONE
    if name not in KERNELS:
        raise ExprError(f"unknown kernel {name!r}")
    return Kernel(name, arg)


def normalize(e: Expr) -> Expr:
    """Rebuild through the normalizing constructors (idempotent)."""
    if isinstance(e, (Rat, Sym)):
        return e
    if isinstance(e, Add):
        return add(*[normalize(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[normalize(f) for f in e.factors])
    if isinstance(e, Pow):
        return power(normalize(e.base), normalize(e.exponent))
    if isinstance(e, Kernel):
        return kernel(e.name, normalize(e.arg))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# Kernels: derivative rules, numeric routines, domain constraints


@dataclass(frozen=True)
class KernelRule:
    deriv: Callable[[Expr], Expr]  # d/du f(u) as an expression in u
    fn: Callable[[float], float]
    positive_arg: bool = False


def _log_eval(x: float) -> float:
    if x <= 0:
        raise DomainError(f"log of nonpositive value {x}")
    return math.log(x)


KERNELS: dict[str, KernelRule] = {
    "exp": KernelRule(lambda u: kernel("exp", u), math.exp),
    "log": KernelRule(lambda u: power(u, MINUS_ONE), _log_eval, positive_arg=True),
    "sin": KernelRule(lambda u: kernel("cos", u), math.sin),
    "cos": KernelRule(lambda u: mul(MINUS_ONE, kernel("sin", u)), math.cos),
    "tan": KernelRule(lambda u: add(ONE, power(kernel("tan", u), rat(2))), math.tan),
    "sinh": KernelRule(lambda u: kernel("cosh", u), math.sinh),
    "cosh": KernelRule(lambda u: kernel("sinh", u), math.cosh),
    "tanh": KernelRule(lambda u: add(ONE, mul(MINUS_ONE, power(kernel("tanh", u), rat(2)))), math.tanh),
}


# ---------------------------------------------------------------------------
# Calculus and structural operations


def diff(e: Expr, v) -> Expr:
    """Partial derivative treating every other variable as constant."""
    name = _name_of(v)

    def go(e: Expr) -> Expr:
        if isinstance(e, Rat):
            return ZERO
        if isinstance(e, Sym):
            return ONE if e.name == name else ZERO
        if isinstance(e, Add):
            return add(*[go(t) for t in e.terms])
        if isinstance(e, Mul):
            parts = []
            fs = e.factors
            for i, f in enumerate(fs):
                if isinstance(f, Rat):
                    continue
                df = go(f)
                if df == ZERO:
                    continue
                parts.append(mul(*fs[:i], df, *fs[i + 1:]))
            return add(*parts)
        if isinstance(e, Pow):
            db = go(e.base)
            if isinstance(e.exponent, Rat):
                if db == ZERO:
                    return ZERO
                return mul(e.exponent, power(e.base, Rat(e.exponent.value - 1)), db)
            de = go(e.exponent)
            inner = add(mul(de, kernel("log", e.base)),
                        mul(e.exponent, db, power(e.base, MINUS_ONE)))
            return mul(e, inner)
        if isinstance(e, Kernel):
            rule = KERNELS.get(e.name)
            if rule is None:
                raise ExprError(f"no derivative rule for kernel {e.name!r}")
            da = go(e.arg)
            if da == ZERO:
                return ZERO
            return mul(rule.deriv(e.arg), da)
        raise TypeError(f"not an expression: {e!r}")

    return go(e)


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution followed by normalization."""
    if not bindings:
        return e
    m = {_name_of(k): _coerce(v) for k, v in bindings.items()}

    def go(e: Expr) -> Expr:
        if isinstance(e, Rat):
            return e
        if isinstance(e, Sym):
            return m.get(e.name, e)
        if isinstance(e, Add):
            return add(*[go(t) for t in e.terms])
        if isinstance(e, Mul):
            return mul(*[go(f) for f in e.factors])
        if isinstance(e, Pow):
            return power(go(e.base), go(e.exponent))
        if isinstance(e, Kernel):
            return kernel(e.name, go(e.arg))
        raise TypeError(f"not an expression: {e!r}")

    return go(e)


def free_vars(e: Expr) -> frozenset[str]:
    out: set[str] = set()
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, Sym):
            out.add(n.name)
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
            stack.append(n.exponent)
        elif isinstance(n, Kernel):
            stack.append(n.arg)
    return frozenset(out)


def eval_numeric(e: Expr, point: Mapping) -> float:
    """IEEE double evaluation; raises DomainError off the real branch."""
    pt = {_name_of(k): float(v) for k, v in point.items()}

    def go(e: Expr) -> float:
        if isinstance(e, Rat):
            return float(e.value)
        if isinstance(e, Sym):
            try:
                return pt[e.name]
            except KeyError:
                raise ExprError(f"unbound variable {e.name!r}") from None
        if isinstance(e, Add):
            return math.fsum(go(t) for t in e.terms)
        if isinstance(e, Mul):
            out = 1.0
            for f in e.factors:
                out *= go(f)
            return out
        if isinstance(e, Pow):
            b = go(e.base)
            if isinstance(e.exponent, Rat) and e.exponent.value.denominator == 1:
                x = int(e.exponent.value)
                if b == 0.0 and x < 0:
                    raise DomainError("zero raised to a negative power")
                return b**x
            x = go(e.exponent)
            if b < 0:
                raise DomainError(f"fractional power of negative base {b}")
            if b == 0 and x <= 0:
                raise DomainError("zero raised to a nonpositive power")
            return b**x
        if isinstance(e, Kernel):
            return KERNELS[e.name].fn(go(e.arg))
        raise TypeError(f"not an expression: {e!r}")

    return go(e)


def positivity_constraints(e: Expr) -> list[Expr]:
    """Subexpressions the sampling domain must keep strictly positive."""
    out: list[Expr] = []
    seen: set[tuple] = set()

    def note(c: Expr):
        if not isinstance(c, Rat) and c._key not in seen:
            seen.add(c._key)
            out.append(c)

    def walk(n: Expr):
        if isinstance(n, Add):
            for t in n.terms:
                walk(t)
        elif isinstance(n, Mul):
            for f in n.factors:
                walk(f)
        elif isinstance(n, Pow):
            if not (isinstance(n.exponent, Rat) and n.exponent.value.denominator == 1):
                note(n.base)
            walk(n.base)
            walk(n.exponent)
        elif isinstance(n, Kernel):
            if KERNELS[n.name].positive_arg:
                note(n.arg)
            walk(n.arg)

    walk(e)
    return out


def clear_denominators(e: Expr) -> Expr:
    """Multiply away negative-power factors appearing at term level.

    Sound as a zero test on the sampled domain (the cleared bases are
    constrained nonzero there); used to strengthen structural equivalence.
    """
    for _ in range(3):
        terms = e.terms if isinstance(e, Add) else (e,)
        need: dict[tuple, list] = {}
        for t in terms:
            _, mono = _coeff_monomial(t)
            for f in mono:
                b, x = _base_exp(f)
                if isinstance(x, Rat) and x.value < 0:
                    slot = need.get(b._key)
                    if slot is None:
                        need[b._key] = [b, -x.value]
                    else:
                        slot[1] = max(slot[1], -x.value)
        if not need:
            return e
        # Shift exponents term by term so each base cancels exactly against
        # its own negative power before anything expands.
        new_terms = []
        for t in terms:
            c, mono = _coeff_monomial(t)
            fs = []
            seen = set()
            for f in mono:
                b, x = _base_exp(f)
                k = b._key
                if k in need and isinstance(x, Rat):
                    seen.add(k)
                    nx = x.value + need[k][1]
                    if nx != 0:
                        fs.append(b if nx == 1 else Pow(b, Rat(nx)))
                else:
                    fs.append(f)
            for k, (b, m) in need.items():
                if k not in seen:
                    fs.append(b if m == 1 else Pow(b, Rat(m)))
            new_terms.append(mul(Rat(c), *fs))
        e = add(*new_terms)
    return e


# ---------------------------------------------------------------------------
# Rendering (inverse of the parser's grammar)


def _render_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _pow_piece(f: Expr) -> str:
    if not isinstance(f, Pow):
        return _render_atomic(f)
    base = f.base
    if isinstance(base, (Sym, Kernel)) or (isinstance(base, Rat) and base.value >= 0
                                           and base.value.denominator == 1):
        bs = render(base)
    else:
        bs = f"({render(base)})"
    ex = f.exponent
    if isinstance(ex, Rat) and ex.value.denominator == 1 and ex.value >= 0:
        es = _render_rat(ex.value)
    elif isinstance(ex, Sym):
        es = ex.name
    else:
        es = f"({render(ex)})"
    return f"{bs}^{es}"


def _render_atomic(f: Expr) -> str:
    if isinstance(f, (Sym,)):
        return f.name
    if isinstance(f, Kernel):
        return f"{f.name}({render(f.arg)})"
    if isinstance(f, Rat):
        return _render_rat(f.value)
    if isinstance(f, Pow):
        return _pow_piece(f)
    return f"({render(f)})"


def _render_product(c: Fraction, mono: tuple[Expr, ...]) -> str:
    pieces = [_pow_piece(f) if isinstance(f, Pow) else _render_atomic(f) for f in mono]
    if c == 1 and pieces:
        return "*".join(pieces)
    if c == -1 and pieces:
        return "-" + "*".join(pieces)
    head = _render_rat(c)
    return "*".join([head] + pieces) if pieces else head


def render(e: Expr) -> str:
    """Emit text in the same grammar parse_expr reads."""
    if isinstance(e, Add):
        c0, m0 = _coeff_monomial(e.terms[0])
        out = [_render_product(c0, m0)]
        for t in e.terms[1:]:
            c, m = _coeff_monomial(t)
            if c < 0:
                out.append(" - " + _render_product(-c, m))
            else:
                out.append(" + " + _render_product(c, m))
        return "".join(out)
    c, m = _coeff_monomial(e)
    return _render_product(c, m)
