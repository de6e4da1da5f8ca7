"""Problem files: a line-oriented text format for systems, generators,
charts, solutions, and expected results.

A file is a sequence of ``[section]`` blocks holding ``key = value`` lines
(``[equations]`` holds bare equation lines).  Expression values use the
standard grammar and must parse against the declared space.  Every load
error is a ``ProblemError`` that starts with the file's name, followed by
the section (``<file> [<section>]: ...``), the line (``<file>:<line>: ...``)
or, for the file as a whole, nothing more.  Expected results carry a
provenance tag (``literature`` for values taken from the source material,
``oracle`` for independently derived ones) and may document a known conflict
between the two via ``stated =`` plus a ``note``.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .algebra import AlgebraTable, structure_constants
from .expr import ExprError
from .jets import JetSpace, Record, VectorField
from .charts import (ChartError, PointTransformation, Pushforward, pushforward_field,
                     transform_de)
from .classify import Classification, classify_pushforward
from .reduction import (Connection, ReducedSystem, kind_mismatch, lie_aux_names,
                        reduce_pde)
from .systems import DESystem


class ProblemError(ExprError):
    pass


class Solution(NamedTuple):
    kind: str  # "parent" | "reduced"
    values: Mapping[str, str]
    antiderivative: str | None = None


class Expect(NamedTuple):
    op: str
    args: tuple[str, ...]
    tag: str
    body: Mapping[str, str]  # every key but ``tag``, ``note`` and ``equation``
    equations: tuple[str, ...] = ()  # the ``equation`` lines, the one repeated key
    note: str = ""

    def one(self, key: str, default: str | None = None) -> str | None:
        return self.body.get(key, default)

    def prefixed(self, prefix: str) -> list[tuple[str, str]]:
        """(rest-of-key, value) pairs for keys like 'coeff y'' or 'bracket X1 X5'."""
        return [(k[len(prefix):].strip(), v) for k, v in self.body.items()
                if k == prefix or k.startswith(prefix + " ")]

    @property
    def label(self) -> str:
        return " ".join((self.op,) + self.args)


class ProblemFile(Record):
    """A loaded problem.  Derived artifacts (transformed systems,
    reductions, push-forwards, structure constants) are read through the
    accessors below, which compute each one once per loaded problem and
    keep it for the problem's lifetime; a computation that raises keeps
    nothing.  The memo takes no part in equality.  A chart's first-order
    jets, which its transformed system and its push-forwards share, are
    kept by the chart itself (``charts.first_order_jets``)."""

    _fields = ("path", "id", "title", "space", "system", "fields", "charts",
               "solutions", "expects", "parent")
    __slots__ = _fields + ("_memo",)

    def __init__(self, path: str, id: str, title: str, space: JetSpace,
                 system: DESystem, fields: Mapping[str, VectorField],
                 charts: Mapping[str, PointTransformation],
                 solutions: Mapping[str, Solution], expects: tuple[Expect, ...],
                 parent: Connection | None = None):
        self._init(path, id, title, space, system, fields, charts, solutions,
                   expects, parent)
        object.__setattr__(self, "_memo", {})

    def _derived(self, key: tuple, compute):
        """The artifact stored under ``key``, computed on first request."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def reduced_view(self) -> ReducedSystem:
        """Interpret this problem as the reduction of its declared parent."""
        if self.parent is None:
            raise ProblemError(f"{self.id}: no [parent] section declared")
        return ReducedSystem(self.system, ("reduced",) * len(self.system.equations),
                             self.parent)

    def transformed(self, chart: str) -> DESystem:
        """The system rewritten in the named chart's coordinates."""
        return self._derived(("transform", chart),
                             lambda: transform_de(self.system, self.charts[chart]))

    def lie_reduction(self, chart: str, aux: Sequence[str] = ()) -> ReducedSystem:
        """``lie_reduce`` through the named chart, reusing its transformed
        system."""
        T = self.charts[chart]
        aux = lie_aux_names(T, aux)
        return self._derived(("lie-reduce", chart, aux),
                             lambda: reduce_pde(self.transformed(chart), T.canonical, aux))

    def gradient_reduction(self, target: str | None, aux: Sequence[str]) -> ReducedSystem:
        """``reduce_pde`` of the system itself; empty auxiliary names mean the
        defaults."""
        aux = tuple(aux)
        return self._derived(("reduce", target, aux),
                             lambda: reduce_pde(self.system, target, aux))

    def pushforward(self, name: str, chart: str) -> Pushforward:
        """The field ``name`` pushed through the named chart."""
        return self._derived(("pushforward", name, chart),
                             lambda: pushforward_field(self.fields[name], self.charts[chart]))

    def classification(self, name: str, chart: str) -> Classification:
        """The field ``name`` classified on the named chart's Lie reduction
        by its push-forward through that chart; a push-forward that fails
        makes the verdict inconclusive."""
        reduced = self.lie_reduction(chart)
        try:
            pushed = self.pushforward(name, chart)
        except ChartError as exc:
            return Classification("inconclusive", witness=str(exc),
                                  criterion="push-forward failed")
        return classify_pushforward(pushed, self.charts[chart], reduced)

    def algebra_table(self, names: Sequence[str] | None = None
                      ) -> tuple[list[str], AlgebraTable]:
        """Structure constants of the named fields; no or empty names mean
        every field, sorted by name.  Returns the names with the table."""
        names = tuple(names) if names else tuple(sorted(self.fields))
        table = self._derived(("algebra", names),
                              lambda: structure_constants([self.fields[n] for n in names]))
        return list(names), table


_HEADER = re.compile(r"^\[(.*)\]$")


@contextmanager
def _located(where: str):
    """Raise an ``ExprError`` from the block as a ``ProblemError`` whose
    text starts with ``where``."""
    try:
        yield
    except ExprError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _kv(lines: list[str]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in lines:
        if "=" not in line:
            raise ProblemError(f"expected 'key = value', got {line!r}")
        k, v = line.split("=", 1)
        out.setdefault(k.strip(), []).append(v.strip())
    return out


def _unique(kv: dict[str, list[str]], keys: tuple[str, ...] | None = None) -> dict[str, str]:
    """Each key with its one value; a repeated key, or one outside ``keys``, is an error."""
    for k, vals in kv.items():
        if len(vals) > 1:
            raise ProblemError(f"duplicate key {k!r}")
        if keys is not None and k not in keys:
            raise ProblemError(f"unknown key {k!r}")
    return {k: vals[0] for k, vals in kv.items()}


def _require(kv: dict[str, str], key: str) -> str:
    if key not in kv:
        raise ProblemError(f"missing required key {key!r}")
    return kv[key]


def _integer(text: str, key: str = "order") -> int:
    try:
        return int(text)
    except ValueError:
        raise ProblemError(f"{key} must be an integer, got {text!r}") from None


def _space_from(lines: list[str], *extra: str) -> tuple[JetSpace, dict[str, str]]:
    """The jet space a section declares, and the section's settings."""
    kv = _unique(_kv(lines), ("independent", "dependent", "order", "parameters") + extra)
    indep = tuple(_require(kv, "independent").split())
    dep = tuple(_require(kv, "dependent").split())
    order = _integer(_require(kv, "order"))
    return JetSpace(indep, dep, order, tuple(kv.get("parameters", "").split())), kv


def load_problem(path) -> ProblemFile:
    """Parse and validate one problem file.  Every error is a
    ``ProblemError`` whose text starts with the file's name."""
    from .corpus import OPERATIONS  # the executors' module imports this one
    p = Path(path)
    where = p.name
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemError(f"{where}: cannot read: {exc}") from exc

    def at(section: str):
        return _located(f"{where} [{section}]")

    # The content lines of each section, by kind.
    once: dict[str, list[str]] = {}  # the sections that take no name
    named: dict[str, dict[str, list[str]]] = {"field": {}, "chart": {}, "solution": {}}
    raw_expects: list[tuple[list[str], list[str]]] = []
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER.match(line)
        if m is None:
            if current is None:
                raise ProblemError(f"{where}:{lineno}: content before any [section]")
            current.append(line)
            continue
        words = m.group(1).split()
        if not words:
            raise ProblemError(f"{where}:{lineno}: empty section header")
        kind, header, current = words[0], " ".join(words), []
        if kind in ("problem", "space", "parent", "equations"):
            if len(words) != 1:
                raise ProblemError(f"{where}: [{kind}] takes no name: {header!r}")
            if kind in once and kind != "equations":  # two [equations] concatenate
                raise ProblemError(f"{where} [{kind}]: section appears twice")
            current = once.setdefault(kind, current)
        elif kind in named:
            if len(words) != 2:
                raise ProblemError(f"{where}: [{kind}] needs exactly one name: {header!r}")
            if words[1] in named[kind]:
                raise ProblemError(f"{where} [{header}]: section appears twice")
            named[kind][words[1]] = current
        elif kind == "expect":
            if len(words) < 2 or words[1] not in OPERATIONS:
                raise ProblemError(
                    f"{where}: [expect] needs an operation from {sorted(OPERATIONS)}: {header!r}")
            raw_expects.append((words, current))
        else:
            raise ProblemError(f"{where}: unknown section {header!r}")
    if "space" not in once:
        raise ProblemError(f"{where}: missing [space] section")
    if not once.get("equations"):
        raise ProblemError(f"{where}: empty equations list")

    with at("problem"):
        meta = _unique(_kv(once.get("problem", [])), ("id", "title"))
    with at("space"):
        space, _ = _space_from(once["space"])
    parent: Connection | None = None
    if "parent" in once:
        with at("parent"):
            pspace, kv = _space_from(once["parent"], "kind", "target", "aux")
            pkind = _require(kv, "kind")
            if pkind not in ("ode", "pde"):
                raise ProblemError("kind must be ode or pde")
            if (pkind == "ode") != (pspace.p == 1):
                raise ProblemError(
                    f"kind {pkind} does not match {pspace.p} independent variables")
            target = _require(kv, "target")
            if target not in pspace.dependent:
                raise ProblemError(f"target {target!r} is not a dependent variable")
            aux = tuple(_require(kv, "aux").split())
            if len(aux) != pspace.p:
                raise ProblemError(f"need {pspace.p} auxiliary names, got {len(aux)}")
            parent = Connection(pspace, target, aux)
    with at("equations"):
        system = DESystem.build(space, once["equations"])

    fields: dict[str, VectorField] = {}
    for name, lines in named["field"].items():
        with at("field " + name):
            fields[name] = VectorField.parse(space, _unique(_kv(lines)))

    charts: dict[str, PointTransformation] = {}
    for name, lines in named["chart"].items():
        with at("chart " + name):
            kv = _unique(_kv(lines))
            indep_names = _require(kv, "independent").split()
            dep_names = _require(kv, "dependent").split()
            indep, dep, inverse, aux = {}, {}, {}, {}
            for k, v in kv.items():
                if k in ("independent", "dependent", "canonical"):
                    continue
                if k.startswith("inverse "):
                    inverse[k.split(None, 1)[1]] = v
                elif k.startswith("aux "):
                    aux[k.split(None, 1)[1]] = v
                elif k in indep_names:
                    indep[k] = v
                elif k in dep_names:
                    dep[k] = v
                else:
                    raise ProblemError(f"unknown key {k!r}")
            missing = [n for n in indep_names + dep_names if n not in indep and n not in dep]
            if missing:
                raise ProblemError(f"no defining expression for {missing}")
            charts[name] = PointTransformation.parse(
                space, indep, dep, kv.get("canonical"), inverse or None, aux or None)

    solutions: dict[str, Solution] = {}
    for name, lines in named["solution"].items():
        with at("solution " + name):
            kv = _unique(_kv(lines))
            kind = kv.pop("kind", "parent")
            if kind not in ("parent", "reduced"):
                raise ProblemError("kind must be parent or reduced")
            anti = kv.pop("antiderivative", None)
            if anti is not None and kind != "reduced":
                raise ProblemError("an antiderivative needs kind = reduced")
            if not kv:
                raise ProblemError("no component expressions")
            stray = [k for k in kv if k not in space.dependent]
            if kind == "parent" and stray:
                raise ProblemError(f"{stray[0]!r} is not a dependent variable")
            solutions[name] = Solution(kind, kv, anti)

    declared = {"field": fields, "chart": charts, "solution": solutions,
                "target": space.dependent}

    def check(kind: str, name: str):
        if name not in declared[kind]:
            raise ProblemError(f"target {name!r} is not a dependent variable"
                               if kind == "target" else f"unknown {kind} {name!r}")

    # Each expect is checked as it is built, against its operation's row.
    expects: list[Expect] = []
    for words, lines in raw_expects:
        with at(" ".join(words)):
            kv = _kv(lines)
            # Only ``equation`` repeats, one line per expected equation.
            one = _unique({k: v for k, v in kv.items() if k != "equation"})
            tag, note = one.pop("tag", "literature"), one.pop("note", "")
            if tag not in ("literature", "oracle"):
                raise ProblemError("tag must be literature or oracle")
            e = Expect(words[1], tuple(words[2:]), tag, one, tuple(kv.get("equation", ())), note)
            op = OPERATIONS[e.op]
            given = set()
            for k in kv:  # in file order, so the first bad key is the one reported
                head, _, rest = k.partition(" ")
                key = f"{head} *" if rest else k
                if key not in op.keys and key not in ("stated", "tag", "note"):
                    raise ProblemError(f"unknown key {k!r}")
                allowed = op.keys.get(key)
                if allowed and one[k] not in allowed:
                    raise ProblemError(f"{k} must be {' or '.join(allowed)}, got {one[k]!r}")
                given.add(key)
            # Only a target is optional.
            if not len(op.args) - op.args.count("target") <= len(e.args) <= len(op.args):
                form = [e.op] + ["[TARGET]" if k == "target" else k.upper() for k in op.args]
                raise ProblemError(f"expected '[expect {' '.join(form)}]'")
            for kind, name in zip(op.args, e.args):
                check(kind, name)
            order = _integer(e.one("order", str(space.order)))
            _integer(e.one("integrability", "0"), "integrability")
            for n in e.one("series", "0").split() or [""]:  # an empty series is no integer
                _integer(n, "series")
            # No auxiliary names mean the defaults; a chart has the problem's p.
            aux = e.one("aux", "").split()
            if aux and len(aux) != space.p:
                raise ProblemError(f"need {space.p} auxiliary names, got {len(aux)}")
            kind = e.op.removeprefix("reduce-") if e.op.startswith("reduce-") else None
            if e.op == "connection":
                reduce = e.one("reduce", "").split()
                if not 1 <= len(reduce) <= 2:
                    raise ProblemError("connection needs 'reduce = ode|pde [target]'")
                if reduce[0] not in ("ode", "pde"):
                    raise ProblemError(f"reduce must be ode or pde, got {reduce[0]!r}")
                kind = reduce[0]
                for name in reduce[1:]:
                    check("target", name)
            why = kind and kind_mismatch(kind, space.p)
            if why:
                raise ProblemError(why)
            if e.op == "algebra":
                names = e.one("fields", "").split()
                for name in names:
                    check("field", name)
                for head, _ in e.prefixed("bracket"):
                    pair = head.split()
                    if len(pair) != 2 or not set(pair) <= set(names or fields):
                        raise ProblemError(f"bracket {head!r} needs two fields from the list")
            if e.op == "prolong":
                if order < 1:
                    raise ProblemError(f"prolongation order must be at least 1, got {order}")
                for name, _ in e.prefixed("coeff"):
                    info = space.jet_info(name)
                    if name not in space.independent and (info is None or len(info[1]) > order):
                        raise ProblemError(f"coeff {name!r} is not a coordinate of order "
                                           f"at most {order}")
            if e.op == "solution" and solutions[e.args[0]].kind != "parent":
                raise ProblemError(f"solution {e.args[0]!r} has kind reduced; "
                                   "a solution check needs kind = parent")
            if e.op == "lift" and parent is None:
                raise ProblemError("lift needs a [parent] section")
            if op.needs and given.isdisjoint(op.needs):
                raise ProblemError("checks nothing; give "
                                   + " or ".join(repr(k) for k in op.needs))
            if e.op == "advice" and e.one("first") not in e.args + ("either",):
                raise ProblemError(f"first must be {' or '.join(e.args)} or either, "
                                   f"got {e.one('first')!r}")
            expects.append(e)

    return ProblemFile(str(p), meta.get("id") or p.stem, meta.get("title", ""), space, system,
                       fields, charts, solutions, tuple(expects), parent)
