"""Per-layer tracing of liereduce from outside the engine.

``Tracer.install`` wraps the public functions named in ``TARGETS`` and
rebinds each wrapper wherever a ``liereduce`` module holds the original (the
engine copies names with ``from .expr import mul``).  Each call records a
span (name, start, end, parent) in flat arrays; self time is a span's
duration minus the durations of its direct children.  Nothing in ``src/`` is
edited.

Counters that need the call's result (the ``equiv`` decision path, the
rational share of sampled differences, unconverged manifold reductions) are
classified after the call returns, with recording switched off, so the
classification costs no span time and adds no calls.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, public name); "Class.method" wraps a classmethod, a bare class
# name wraps construction (__init__, which runs the validation).
TARGETS = (
    ("expr", "mul"), ("expr", "add"), ("expr", "power"), ("expr", "diff"),
    ("expr", "substitute"), ("expr", "clear_denominators"),
    ("expr", "eval_numeric"),
    ("parse", "parse_expr"),
    ("problem", "load_problem"),
    ("equiv", "equiv"),
    ("jets", "total_derivative"), ("jets", "prolong"),
    ("systems", "DESystem.build"), ("systems", "reduce_on_manifold"),
    ("systems", "check_point_symmetry"), ("systems", "verify_solution"),
    ("charts", "PointTransformation"), ("charts", "solve_affine"),
    ("charts", "jet_dictionaries"), ("charts", "transform_de"),
    ("charts", "pushforward_field"), ("charts", "verify_canonical"),
    ("reduction", "lie_reduce"), ("reduction", "reduce_ode"),
    ("reduction", "reduce_pde"), ("reduction", "verify_connection"),
    ("classify", "classify_pushforward"), ("classify", "lift_test"),
    ("algebra", "commutator"), ("algebra", "structure_constants"),
)
# Functions whose argument sharing is measured (the memoization candidates).
REPEAT = ("expr.mul", "expr.add", "expr.power", "expr.diff", "expr.substitute")
EQUIV_PATHS = ("structural", "cleared", "constant", "sampled_zero",
               "sampled_nonzero", "error")
CORPUS_OPS = ("prolong", "symmetry", "canonical", "transform", "reduce-ode",
              "reduce-pde", "lie-reduce", "pushforward", "classify", "lift",
              "commutator", "algebra", "advice", "connection", "solution")

NAMES = tuple(f"{m}.{f}" for m, f in TARGETS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric of a traced run with its unit, in report order."""
    out = {}
    for n in NAMES:
        out[f"{n}.calls"] = "count"
        out[f"{n}.self_s"] = "s"
    out.update({f"{n}.repeat_ratio": "ratio" for n in REPEAT})
    out.update({f"equiv.path.{p}": "count" for p in EQUIV_PATHS})
    out["equiv.samples"] = "count"
    out["equiv.sampled_rational_ratio"] = "ratio"
    out["systems.reduce_on_manifold.unconverged"] = "count"
    out.update({f"corpus.op.{op}.s": "s" for op in CORPUS_OPS})
    out.update({"trace.pass_s": "s", "trace.overhead": "ratio",
                "trace.self_share": "ratio"})
    return out


def _freeze(x):
    if isinstance(x, dict):
        return frozenset((k, _freeze(v)) for k, v in x.items())
    if isinstance(x, list):
        return tuple(_freeze(v) for v in x)
    return x


def _is_rational(e, expr) -> bool:
    """No kernel and no non-integer power anywhere in e."""
    stack = [e]
    while stack:
        n = stack.pop()
        if isinstance(n, expr.Kernel):
            return False
        if isinstance(n, expr.Pow):
            x = n.exponent
            if not (isinstance(x, expr.Rat) and x.value.denominator == 1):
                return False
            stack.append(n.base)
        elif isinstance(n, expr.Mul):
            stack.extend(n.factors)
        elif isinstance(n, expr.Add):
            stack.extend(n.terms)
    return True


class Tracer:
    def __init__(self):
        self.on = False
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]
        self.seen = {n: set() for n in REPEAT}
        self.repeats = dict.fromkeys(REPEAT, 0)
        self.paths = dict.fromkeys(EQUIV_PATHS, 0)
        self.samples = 0
        self.sampled_rational = 0
        self.unconverged = 0
        self._evals = None  # eval_numeric arguments inside the open equiv
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "liereduce" or k.startswith("liereduce."))]
        for idx, (mod_name, fname) in enumerate(TARGETS):
            mod = sys.modules["liereduce." + mod_name]
            if "." in fname:
                cls_name, meth = fname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth].__func__
                self._set(cls, meth, classmethod(self._wrap(idx, raw)))
            elif isinstance(getattr(mod, fname), type):
                cls = getattr(mod, fname)
                self._set(cls, "__init__", self._wrap(idx, cls.__init__))
            else:
                orig = getattr(mod, fname)
                w = self._wrap(idx, orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, attr, w)
        self.on = True

    def uninstall(self):
        self.on = False
        for obj, attr, old in reversed(self._undo):
            setattr(obj, attr, old)
        self._undo.clear()

    def _set(self, obj, attr, new):
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _wrap(self, idx: int, orig):
        tr = self
        full = NAMES[idx]
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter
        seen = self.seen.get(full)

        def span(args, kw):
            if seen is not None:
                key = (tuple(_freeze(a) for a in args), _freeze(kw))
                try:
                    if key in seen:
                        tr.repeats[full] += 1
                    else:
                        seen.add(key)
                except TypeError:  # unhashable argument: never a repeat
                    pass
            i = len(names)
            names.append(idx)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return orig(*args, **(kw or {}))
            finally:
                ends[i] = clock()
                stack.pop()

        def wrapper(*args, **kw):
            if not tr.on:
                return orig(*args, **kw)
            return span(args, kw or None)

        if full == "expr.eval_numeric":
            def wrapper(*args, **kw):  # noqa: F811 - eval_numeric also notes its argument
                if not tr.on:
                    return orig(*args, **kw)
                if tr._evals is not None:
                    tr._evals.append(args[0])
                return span(args, kw or None)
        elif full == "equiv.equiv":
            def wrapper(*args, **kw):  # noqa: F811
                if not tr.on:
                    return orig(*args, **kw)
                outer, tr._evals = tr._evals, []
                try:
                    res = span(args, kw or None)
                except Exception:
                    tr._classify_equiv(args, None, tr._evals)
                    raise
                finally:
                    evals, tr._evals = tr._evals, outer
                tr._classify_equiv(args, res, evals)
                return res
        elif full == "systems.reduce_on_manifold":
            def wrapper(*args, **kw):  # noqa: F811
                if not tr.on:
                    return orig(*args, **kw)
                res = span(args, kw or None)
                if not res[1]:
                    tr.unconverged += 1
                return res
        return wrapper

    def _classify_equiv(self, args, res, evals):
        self.on = False
        try:
            expr = sys.modules["liereduce.expr"]
            if res is None:
                self.paths["error"] += 1
                return
            d = args[0] - args[1]
            if d == expr.ZERO:
                self.paths["structural"] += 1
            elif expr.clear_denominators(d) == expr.ZERO:
                self.paths["cleared"] += 1
            elif not expr.free_vars(d):
                self.paths["constant"] += 1
            else:
                self.paths["sampled_zero" if res else "sampled_nonzero"] += 1
                self.samples += sum(1 for e in evals if e == d)
                self.sampled_rational += _is_rational(d, expr)
        finally:
            self.on = True

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        out: dict[str, float] = {}
        for k, full in enumerate(NAMES):
            out[f"{full}.calls"] = calls[k]
            out[f"{full}.self_s"] = self_s[k]
        for full in REPEAT:
            c = calls[NAMES.index(full)]
            out[f"{full}.repeat_ratio"] = self.repeats[full] / c if c else 0.0
        for p in EQUIV_PATHS:
            out[f"equiv.path.{p}"] = self.paths[p]
        sampled = self.paths["sampled_zero"] + self.paths["sampled_nonzero"]
        out["equiv.samples"] = self.samples
        out["equiv.sampled_rational_ratio"] = (
            self.sampled_rational / sampled if sampled else 0.0)
        out["systems.reduce_on_manifold.unconverged"] = self.unconverged
        return out

    def root_time(self) -> float:
        """Time covered by outermost spans (the sum of all self times)."""
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.name)) if self.parent[i] < 0)

    def write_spans(self, path) -> None:
        """Spans as tab-separated ``name start end parent`` lines, gzipped."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.name)):
                fh.write(f"{NAMES[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\n")
