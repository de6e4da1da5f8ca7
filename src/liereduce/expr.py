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
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

Q = Fraction


class ExprError(Exception):
    """Base error for expression-level failures."""


class DomainError(ExprError):
    """Numeric evaluation left the real domain (log of nonpositive, etc.)."""


class PowerBoundError(DomainError):
    """An exact power beyond MAX_POWER_BITS was asked for."""


# The most characters of a text that an error message quotes.
_QUOTED = 80


def quoted(text: str, pos: int = 0, word=repr) -> str:
    """``word(text)``, or, for a longer text, ``word`` of the ``_QUOTED``
    characters around ``pos`` with an ellipsis at each cut end, so a
    message's length does not grow with the text."""
    start = max(0, min(pos - _QUOTED // 2, len(text) - _QUOTED))
    end = start + _QUOTED
    return ("..." if start else "") + word(text[start:end]) + ("..." if end < len(text) else "")


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
        """``self - other`` in one pass: the terms of ``other`` fold into the
        accumulator of ``self``'s terms scaled by -1, so no negated copy of
        ``other`` is built and a cancelled pair rebuilds no term.  This is
        ``add(self, mul(-1, other))`` because both operands are normalized,
        which every constructor guarantees: a normalized term times -1 is
        its coefficient negated."""
        o = _try_coerce(other)
        return NotImplemented if o is None else _sum(_collect((o,), _collect((self,), {}), -1))

    def __rsub__(self, other):
        o = _try_coerce(other)
        return NotImplemented if o is None else o - self

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
    """An exact rational constant.  ``value`` is an ``int`` exactly when the
    constant is integral, and a ``Fraction`` otherwise, so integral
    arithmetic runs on Python ints; anything but an int or a Fraction is a
    TypeError, so a float never becomes a constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        if type(value) is int:
            self._key = (0, (value, 1))
        else:
            if isinstance(value, Fraction):
                if value.denominator == 1:
                    value = value.numerator
            elif isinstance(value, int):
                value = int(value)
            else:
                raise TypeError(f"not an exact rational: {value!r}")
            self._key = (0, (value.numerator, value.denominator))
        self.value = value
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
    """A product.  Its key is ``(4, keys)``, where ``keys`` are its factors'
    keys in order; a normalized product's factors are its rational
    coefficient, if any, first, then its monomial, so a monomial's key is
    ``keys`` or ``keys[1:]`` and the bookkeeping reads it from there."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors
        self._key = (4, tuple([f._key for f in factors]))
        self._hash = hash(self._key)


def _product(factors: tuple, keys: tuple) -> Mul:
    """``Mul(factors)`` given the factors' keys, which the caller already
    holds: the one path that builds a product without reading them again."""
    m = Mul.__new__(Mul)
    m.factors = factors
    m._key = (4, keys)
    m._hash = hash(m._key)
    return m


class Add(Expr):
    """A sum.  Its key is ``(5, keys)``, where ``keys`` are its terms' keys in
    order; a normalized sum's terms are sorted by their monomial keys."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._key = (5, tuple([t._key for t in terms]))
        self._hash = hash(self._key)


ZERO = Rat(0)
ONE = Rat(1)
MINUS_ONE = Rat(-1)


def _try_coerce(x) -> Expr | None:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Rat(x)
    return None


def _coerce(x) -> Expr:
    e = _try_coerce(x)
    if e is None:
        raise TypeError(f"cannot use {x!r} as an expression")
    return e


def rat(p, q=1) -> Rat:
    return Rat(Fraction(p, q))


def sym(name: str) -> Sym:
    return Sym(name)


# ---------------------------------------------------------------------------
# Normalizing constructors


def _coeff_monomial(t: Expr) -> tuple[int | Fraction, tuple[Expr, ...]]:
    """Split a normalized non-sum term into (rational coefficient, factors)."""
    if isinstance(t, Rat):
        return t.value, ()
    if isinstance(t, Mul):
        fs = t.factors
        if isinstance(fs[0], Rat):
            return fs[0].value, fs[1:]
        return 1, fs
    return 1, (t,)


def _term_from(coeff: int | Fraction, mono: tuple[Expr, ...], keys: tuple) -> Expr:
    """The term ``coeff`` times the monomial ``mono``, whose factors' keys
    are ``keys``."""
    if not mono:
        return Rat(coeff)
    if coeff == 1:
        return mono[0] if len(mono) == 1 else _product(mono, keys)
    c = Rat(coeff)
    return _product((c,) + mono, (c._key,) + keys)


def plain_term(coeff: int | Fraction, factors) -> Expr | None:
    """``mul(coeff, *factors)`` for a nonzero ``coeff`` when every factor is
    a plain power and no two share a base, else None.  A plain power is a
    Sym or a non-exp Kernel, bare or raised to a Rat, as ``power`` builds
    it; such a factor is final as it enters ``mul``, so factors with
    pairwise distinct bases, sorted by base key, are already a normal
    monomial, and the term is built from the keys they hold."""
    by_base = {}
    for f in factors:
        b = f
        if isinstance(f, Pow):
            if not isinstance(f.exponent, Rat):
                return None
            b = f.base
        if not isinstance(b, Sym) and (not isinstance(b, Kernel) or b.name == "exp"):
            return None
        by_base[b._key] = f
    if len(by_base) != len(factors):
        return None
    mono = tuple([by_base[k] for k in sorted(by_base)])
    return _term_from(coeff, mono, tuple([f._key for f in mono]))


def _scaled(a: Add, c: int | Fraction) -> Add:
    """``c * a`` for a nonzero constant ``c``: each term's coefficient
    scaled, the terms in their order, since no monomial key changes."""
    out = []
    for t in a.terms:
        if isinstance(t, Mul):
            fs = t.factors
            if isinstance(fs[0], Rat):
                out.append(_term_from(fs[0].value * c, fs[1:], t._key[1][1:]))
            else:
                out.append(_term_from(c, fs, t._key[1]))
        elif isinstance(t, Rat):
            out.append(Rat(t.value * c))
        else:
            out.append(_term_from(c, (t,), (t._key,)))
    return Add(tuple(out))


def _collect(parts, acc: dict, scale=1) -> dict:
    """Fold terms, each times ``scale``, into ``acc`` (monomial key ->
    [coefficient, factors, term]), flattening sums; the key is the tuple of
    the factors' keys, and term is the input term as long as no like term
    and no scale other than 1 changed it.  The monomial key is read from the
    term's own key, never rebuilt: that rests on every node's key being its
    tag and its children's keys in order (see ``Mul``), which every
    constructor keeps."""
    stack = list(parts)
    while stack:
        t = stack.pop()
        if isinstance(t, Mul):
            fs = t.factors
            if isinstance(fs[0], Rat):
                c, mono, k = fs[0].value, fs[1:], t._key[1][1:]
            else:
                c, mono, k = 1, fs, t._key[1]
        elif isinstance(t, Add):
            stack.extend(t.terms)
            continue
        elif isinstance(t, Rat):
            c, mono, k = t.value, (), ()
        else:
            c, mono, k = 1, (t,), (t._key,)
        if scale != 1:
            c *= scale
            t = None
        slot = acc.get(k)
        if slot is None:
            acc[k] = [c, mono, t]
        else:
            slot[0] += c
            slot[2] = None
    return acc


def _sum(acc: dict) -> Expr:
    """The normalized sum of the terms collected by ``_collect``."""
    out = [(k, t if t is not None else _term_from(c, mono, k))
           for k, (c, mono, t) in acc.items() if c != 0]
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0][1]
    out.sort()  # the keys are distinct, so no two terms are compared
    return Add(tuple([t for _, t in out]))


def add(*parts) -> Expr:
    return _sum(_collect([p if isinstance(p, Expr) else _coerce(p) for p in parts], {}))


def _base_exp(f: Expr) -> tuple[Expr, Expr]:
    if isinstance(f, Pow):
        return f.base, f.exponent
    return f, ONE


def _monomial(slots: dict) -> tuple[tuple[Expr, ...], tuple]:
    """The sorted factors of a base map, and their keys: an exponent sum of
    0 drops the base, and a sum of 1 leaves it bare."""
    out, keys = [], []
    for k in sorted(slots):
        b, q, f = slots[k]
        if q == 0:
            continue
        f = f if f is not None else b if q == 1 else Pow(b, Rat(q))
        out.append(f)
        keys.append(f._key)
    return tuple(out), tuple(keys)


def _distribute(terms, sums) -> Expr:
    """Expand ``(sum of terms) * sums[0] * sums[1] * ...`` term by term,
    collecting like terms after each sum: a rational constant scales the
    next sum's coefficients, and any other term multiplies through ``mul``."""
    acc = _collect(terms, {})
    for a in sums:
        nxt: dict[tuple, list] = {}
        for k, (c, mono, t) in acc.items():
            if c == 0:
                continue
            if mono:
                t = t if t is not None else _term_from(c, mono, k)
                _collect([mul(t, s) for s in a.terms], nxt)
            else:
                _collect(a.terms, nxt, c)
        acc = nxt
    return _sum(acc)


def mul(*parts) -> Expr:
    coeff = 1
    sums: list[Add] = []
    exp_args: list[Expr] = []
    # Base key -> (base, exponent, factor), where factor is the input factor
    # when it can be kept as is and None when it must be rebuilt.  The
    # exponent is an int or Fraction until a symbolic one joins it.  A plain
    # base (a Sym or a non-exp Kernel) with a numeric exponent is final as it
    # enters; any other slot is final once factor holds what ``power``
    # returned for it.  Sums are bases too, so B * B^(-1) cancels before any
    # distribution happens.
    slots: dict[tuple, tuple] = {}
    queue = [p if isinstance(p, Expr) else _coerce(p) for p in parts]
    settle = False  # whether some slot may still need ``power``
    guard = 0
    while True:
        guard += 1
        if guard > 100000:  # pragma: no cover
            raise ExprError("product normalization did not terminate")
        while queue:
            f = queue.pop()
            if isinstance(f, Rat):
                v = f.value
                if v == 0:
                    return ZERO
                coeff *= v
                continue
            if isinstance(f, Mul):
                queue.extend(f.factors)
                continue
            if isinstance(f, Pow):
                b, q = f.base, f.exponent
                if isinstance(q, Rat):
                    q = q.value
                    keep = f if q != 1 else None
                else:
                    keep, settle = None, True
            else:
                b, q, keep = f, 1, f
            if not isinstance(b, Sym):
                if not isinstance(b, Kernel):
                    keep, settle = None, True
                elif b.name == "exp":
                    exp_args.append(b.arg if f is b else mul(f.exponent, b.arg))
                    continue
            old = slots.get(b._key)
            if old is None:
                slots[b._key] = (b, q, keep)
            else:
                # A symbolic exponent makes the sum an Expr (``Expr.__add__``).
                q = old[1] + q
                slots[b._key] = (b, q, None)
                settle = settle or isinstance(q, Expr)
        if settle:
            settle = False
            pending = [k for k, (b, q, f) in slots.items() if f is None
                       and (isinstance(q, Expr) or not isinstance(b, (Sym, Kernel)))]
            for k in pending:
                b, q, _ = slots.pop(k)
                f = b if q == 1 else power(b, q if isinstance(q, Expr) else Rat(q))
                if isinstance(f, Add):
                    sums.append(f)
                elif isinstance(f, (Rat, Mul)) or isinstance(f, Kernel) and f.name == "exp":
                    queue.append(f)
                else:
                    # Final unless its base already has a slot: sending a
                    # content-free B^(-1) through ``power`` again never ends.
                    b, q = _base_exp(f)
                    q = q.value if isinstance(q, Rat) else q
                    old = slots.get(b._key)
                    if old is None:
                        slots[b._key] = (b, q, f)
                    else:
                        slots[b._key] = (b, old[1] + q, None)
                        settle = True
            if pending:
                continue
        if exp_args:
            # Merge every exponential into a single factor.
            total = add(*exp_args)
            exp_args = []
            if total != ZERO:
                ek = kernel("exp", total)
                if not (isinstance(ek, Kernel) and ek.name == "exp"):
                    queue.append(ek)
                    continue
                slots[ek._key] = (ek, 1, ek)
        break
    mono, keys = _monomial(slots)
    if len(sums) == 1 and not mono:
        return sums[0] if coeff == 1 else _scaled(sums[0], coeff)
    term = _term_from(coeff, mono, keys)
    return _distribute([term], sums) if sums else term


# An exact power m^n, m the larger part of its base, is refused when
# floor(log2 m) * |n| exceeds MAX_POWER_BITS.  A refused power has more than
# MAX_POWER_BITS bits, and a built one fewer than 1.6 * MAX_POWER_BITS (the
# worst base is 3); the bases 0 and +-1 are never refused.  Without a bound,
# a constant such as 3^31^31 would be computed in full and never finish.
MAX_POWER_BITS = 1 << 20


def check_power_bound(m: int, n: int) -> None:
    """Raise PowerBoundError when m^n, for integers m >= 0 and n, is beyond
    the bound."""
    if (m.bit_length() - 1) * abs(n) > MAX_POWER_BITS:
        raise PowerBoundError(f"exact power beyond {MAX_POWER_BITS} bits")


def _int_nth_root(n: int, k: int) -> int | None:
    """The integer k-th root of n, or None when n is no k-th power."""
    if n in (0, 1):
        return n
    if n < 0 or k >= n.bit_length():  # 2**k > n, so no integer root
        return None
    x = _root_floor(n, k)
    return x if x**k == n else None


def _root_floor(n: int, k: int) -> int:
    """floor(n^(1/k)) for n > 0.  Newton's step lands at or above it from any
    x > 0 and falls to it from above.  It starts from the root of n's top
    bits, found the same way (as math.isqrt does), or from a float estimate
    when the root has at most 50 bits."""
    b = (n.bit_length() - 1) // k + 1  # the root has at most b bits
    def step(x: int) -> int:
        return ((k - 1) * x + n // x ** (k - 1)) // k
    x = step(int(2 ** (math.log2(n) / k)) + 1 if b <= 50 else
             _root_floor(n >> k * (b // 2), k) + 1 << b // 2)
    while (y := step(x)) < x:
        x = y
    return x


def _rat_pow(q: int | Fraction, e: int | Fraction) -> int | Fraction | None:
    """Exact rational value of q**e, or None when it is not rational."""
    if e.denominator == 1:
        n = e.numerator
        check_power_bound(max(abs(q.numerator), q.denominator), n)
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


def _shifted(monomials, shift: dict) -> Expr:
    """The sum of the terms ``(coefficient, factors)``, each multiplied by
    ``b^m`` for every ``(b, m)`` in ``shift`` (keyed by base key).

    Exponents add term by term, so a base cancels exactly against its own
    power before anything expands.
    """
    out = []
    for c, mono in monomials:
        fs = []
        seen = set()
        for f in mono:
            b, x = _base_exp(f)
            k = b._key
            if k in shift and isinstance(x, Rat):
                seen.add(k)
                nx = x.value + shift[k][1]
                if nx != 0:
                    fs.append(b if nx == 1 else Pow(b, Rat(nx)))
            else:
                fs.append(f)
        for k, (b, m) in shift.items():
            if k not in seen:
                fs.append(b if m == 1 else Pow(b, Rat(m)))
        out.append(mul(Rat(c), *fs))
    return add(*out)


def _extract_content_once(a: Add) -> tuple[list[tuple[Expr, Fraction]], Expr]:
    """Common factors (base, multiplicity) of a sum's terms, plus the
    primitive remainder.  One pass suffices: afterwards each common base has
    exponent 0 in the term that had its least exponent."""
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
    pairs = [(b, x) for b, x in common.values()]
    # Exact exponent arithmetic; multiplying by expanded inverses would
    # re-introduce the content.
    return pairs, _shifted(infos, {b._key: (b, -x) for b, x in pairs})


def power(b, e) -> Expr:
    b = _coerce(b)
    e = _coerce(e)
    if e == ONE:
        return b
    if b == ONE:
        return ONE
    if isinstance(b, Add):
        pairs, prim = _extract_content_once(b)
        if pairs:
            return mul(*[power(bb, mul(Rat(xx), e)) for bb, xx in pairs],
                       power(prim, e))
        if isinstance(e, Rat) and e.value.denominator == 1:
            c0, _ = _coeff_monomial(b.terms[0])
            if c0 < 0:
                flip = MINUS_ONE if e.value % 2 else ONE
                return mul(flip, power(add(*[mul(-1, t) for t in b.terms]), e))
    if isinstance(e, Rat):
        q = e.value
        if q == 0:
            return ONE
        if isinstance(b, Rat):
            r = _rat_pow(b.value, q)
            if r is not None:
                return Rat(r)
            if b.value == 0:
                raise DomainError("zero raised to a negative power")
        if q.denominator == 1:
            if isinstance(b, Mul):
                return mul(*[power(f, e) for f in b.factors])
            if isinstance(b, Add) and 1 < q <= _POW_EXPAND_LIMIT:
                return _distribute(b.terms, [b] * (q - 1))
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
            k = rest[0] if len(rest) == 1 else Mul(rest) if rest else ONE
            return k, logs[0].arg
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


# ---------------------------------------------------------------------------
# Kernels: derivative rules, numeric routines, domain constraints


class KernelRule(NamedTuple):
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


def _nonzero_sum(parts: list) -> Expr:
    """The sum of normalized parts, none of them zero: ``add`` only when
    there are two or more, since one normalized part is its own sum."""
    if not parts:
        return ZERO
    return parts[0] if len(parts) == 1 else add(*parts)


def _lowered(f: Expr, name: str) -> tuple | None:
    """For ``f`` the variable ``name``, bare or to a Rat power q, the triple
    (q, x^(q-1) as a tuple of no factor or one, their keys), so that
    d f/d name is q times that tuple's product; None for any other factor.
    The lowered factor has the base key of ``f``, so it keeps ``f``'s place
    in a monomial sorted by base key."""
    if isinstance(f, Sym):
        return (1, (), ()) if f.name == name else None
    if not (isinstance(f, Pow) and isinstance(f.base, Sym) and f.base.name == name
            and isinstance(f.exponent, Rat)):
        return None
    q = f.exponent.value
    g = f.base if q == 2 else Pow(f.base, Rat(q - 1))
    return q, (g,), (g._key,)


def diff(e: Expr, v) -> Expr:
    """Partial derivative treating every other variable as constant.  A
    factor that is the variable, bare or to a Rat power, is differentiated
    in place (``_lowered``): the term is its monomial with that exponent
    lowered, built from the keys it holds, without ``mul``."""
    name = _name_of(v)

    def go(e: Expr) -> Expr:
        if isinstance(e, Rat):
            return ZERO
        if isinstance(e, Sym):
            return ONE if e.name == name else ZERO
        if isinstance(e, Add):
            return _nonzero_sum([d for d in map(go, e.terms) if d != ZERO])
        if isinstance(e, Mul):
            parts = []
            fs, keys = e.factors, e._key[1]
            c, start = (fs[0].value, 1) if isinstance(fs[0], Rat) else (1, 0)
            for i, f in enumerate(fs):
                if isinstance(f, Rat):
                    continue
                low = _lowered(f, name)
                if low is not None:
                    q, g, gk = low
                    parts.append(_term_from(c * q, fs[start:i] + g + fs[i + 1:],
                                            keys[start:i] + gk + keys[i + 1:]))
                    continue
                df = go(f)
                if df == ZERO:
                    continue
                parts.append(mul(*fs[:i], df, *fs[i + 1:]))
            return _nonzero_sum(parts)
        if isinstance(e, Pow):
            low = _lowered(e, name)
            if low is not None:
                return _term_from(*low)
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


def _rebuild(e: Expr, m: Mapping[str, Expr]) -> Expr:
    """``e`` rebuilt through the normalizing constructors, with each variable
    named in ``m`` replaced by its value.  With bindings, a node whose
    children all come back as the same objects is returned as is: a
    normalized node rebuilt from its own children is itself.  With none,
    every node is rebuilt."""
    if isinstance(e, Rat):
        return e
    if isinstance(e, Sym):
        return m.get(e.name, e)
    if isinstance(e, Add):
        ts = [_rebuild(t, m) for t in e.terms]
        if m and all(a is b for a, b in zip(ts, e.terms)):
            return e
        return add(*ts)
    if isinstance(e, Mul):
        fs = [_rebuild(f, m) for f in e.factors]
        if m and all(a is b for a, b in zip(fs, e.factors)):
            return e
        return mul(*fs)
    if isinstance(e, Pow):
        b, x = _rebuild(e.base, m), _rebuild(e.exponent, m)
        if m and b is e.base and x is e.exponent:
            return e
        return power(b, x)
    if isinstance(e, Kernel):
        a = _rebuild(e.arg, m)
        if m and a is e.arg:
            return e
        return kernel(e.name, a)
    raise TypeError(f"not an expression: {e!r}")


def normalize(e: Expr) -> Expr:
    """Rebuild every node through the normalizing constructors (idempotent);
    this is the one way to bring a hand-built node into normal form."""
    return _rebuild(e, {})


def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution followed by normalization.  ``e`` must be
    normalized, as every constructor's result is: a subtree that mentions
    no bound name comes back as the same object, not rebuilt."""
    if not bindings:
        return e
    return _rebuild(e, {_name_of(k): _coerce(v) for k, v in bindings.items()})


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


def numeric(e: Expr) -> Callable[[Mapping[str, float]], float]:
    """``e`` compiled once into an IEEE double evaluator of a point (variable
    name -> float).  Evaluation raises DomainError off the real branch, and
    OverflowError where a constant, a power, a kernel or a sum leaves the
    range of a double."""
    if isinstance(e, Rat):
        q = e.value
        try:
            v = float(q)
        except OverflowError:
            return lambda pt: float(q)  # raises when evaluated
        return lambda pt: v
    if isinstance(e, Sym):
        name = e.name

        def f(pt):
            try:
                return pt[name]
            except KeyError:
                raise ExprError(f"unbound variable {name!r}") from None
        return f
    if isinstance(e, Add):
        terms = [numeric(t) for t in e.terms]

        def f(pt):
            try:
                return math.fsum(t(pt) for t in terms)
            except ValueError as err:  # infinities of both signs
                raise OverflowError(str(err)) from None
        return f
    if isinstance(e, Mul):
        factors = [numeric(t) for t in e.factors]

        def f(pt):
            out = 1.0
            for g in factors:
                out *= g(pt)
            return out
        return f
    if isinstance(e, Pow):
        base = numeric(e.base)
        if isinstance(e.exponent, Rat) and e.exponent.value.denominator == 1:
            n = e.exponent.value

            def f(pt):
                b = base(pt)
                if b == 0.0 and n < 0:
                    raise DomainError("zero raised to a negative power")
                return b**n
            return f
        exponent = numeric(e.exponent)

        def f(pt):
            b = base(pt)
            x = exponent(pt)
            if b < 0:
                raise DomainError(f"fractional power of negative base {b}")
            if b == 0 and x <= 0:
                raise DomainError("zero raised to a nonpositive power")
            return b**x
        return f
    if isinstance(e, Kernel):
        fn = KERNELS[e.name].fn
        arg = numeric(e.arg)
        return lambda pt: fn(arg(pt))
    raise TypeError(f"not an expression: {e!r}")


def eval_numeric(e: Expr, point: Mapping) -> float:
    """IEEE double evaluation of ``e`` at ``point`` (see ``numeric``)."""
    pt = {_name_of(k): float(v) for k, v in point.items()}
    return numeric(e)(pt)


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
        terms = [_coeff_monomial(t) for t in (e.terms if isinstance(e, Add) else (e,))]
        need: dict[tuple, list] = {}
        for _, mono in terms:
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
        e = _shifted(terms, need)
    return e


# ---------------------------------------------------------------------------
# Rendering (inverse of the parser's grammar)


# An int too long to write as text (the interpreter's limit is 4,300 digits)
# is written as a parenthesized sum of chunks c*2^k, each c below 2^13000
# (3,914 digits) and each 2^k a product of powers within MAX_POWER_BITS; the
# parser folds the sum back into the int.
_CHUNK_BITS = 13000


def _render_int(n: int) -> str:
    m, mask = abs(n), (1 << _CHUNK_BITS) - 1
    if m.bit_length() <= _CHUNK_BITS:
        return str(n)
    terms = [f"{c}" + f"*2^{MAX_POWER_BITS}" * (k // MAX_POWER_BITS) + f"*2^{k % MAX_POWER_BITS}"
             for k in range(0, m.bit_length(), _CHUNK_BITS) if (c := m >> k & mask)]
    return "-" * (n < 0) + f"({' + '.join(terms)})"


def _render_number(v: int | Fraction) -> str:
    """A constant's text, written in chunks when it is too long for str."""
    try:
        return str(v)
    except ValueError:
        n, d = v.numerator, v.denominator
        return _render_int(n) if d == 1 else f"{_render_int(n)}/{_render_int(d)}"


def _render_factor(f: Expr) -> str:
    """One factor of a product: a power's base and exponent are
    parenthesized unless atomic, and any other compound factor is too."""
    if isinstance(f, Sym):
        return f.name
    if isinstance(f, Kernel):
        return f"{f.name}({render(f.arg)})"
    if isinstance(f, Rat):
        return _render_number(f.value)
    if not isinstance(f, Pow):
        return f"({render(f)})"
    base, ex = f.base, f.exponent
    if isinstance(base, (Sym, Kernel)) or (isinstance(base, Rat) and base.value >= 0
                                           and base.value.denominator == 1):
        bs = _render_factor(base)
    else:
        bs = f"({render(base)})"
    if isinstance(ex, Rat) and ex.value.denominator == 1 and ex.value >= 0:
        es = _render_number(ex.value)
    elif isinstance(ex, Sym):
        es = ex.name
    else:
        es = f"({render(ex)})"
    return f"{bs}^{es}"


def _render_product(c: int | Fraction, mono: tuple[Expr, ...]) -> str:
    pieces = [_render_factor(f) for f in mono]
    if c == 1 and pieces:
        return "*".join(pieces)
    if c == -1 and pieces:
        return "-" + "*".join(pieces)
    head = _render_number(c)
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
