"""Problem files: a line-oriented text format for systems, generators,
charts, solutions, and expected results.

A file is a sequence of ``[section]`` blocks holding ``key = value`` lines
(``[equations]`` holds bare equation lines).  Expression values use the
standard grammar and must parse against the declared space; validation
reports the offending name and section.  Expected results carry a provenance
tag (``literature`` for values taken from the source material, ``oracle``
for independently derived ones) and may document a known conflict between
the two via ``stated =`` plus a ``note``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .algebra import AlgebraTable, structure_constants
from .expr import ExprError
from .jets import JetSpace, VectorField
from .parse import ParseError
from .charts import PointTransformation
from .reduction import Connection, ReducedSystem, kind_mismatch
from .systems import DESystem


class ProblemError(ExprError):
    pass


@dataclass(frozen=True)
class Solution:
    name: str
    kind: str  # "parent" | "reduced"
    values: Mapping[str, str]
    antiderivative: str | None = None


@dataclass(frozen=True)
class Expect:
    index: int
    op: str
    args: tuple[str, ...]
    tag: str
    body: Mapping[str, tuple[str, ...]]  # repeatable keys
    note: str = ""

    def one(self, key: str, default: str | None = None) -> str | None:
        vals = self.body.get(key)
        if not vals:
            return default
        return vals[-1]

    def many(self, key: str) -> tuple[str, ...]:
        return self.body.get(key, ())

    def prefixed(self, prefix: str) -> list[tuple[str, str]]:
        """(rest-of-key, value) pairs for keys like 'coeff y'' or 'bracket X1 X5'."""
        out = []
        for k, vals in self.body.items():
            if k == prefix or k.startswith(prefix + " "):
                rest = k[len(prefix):].strip()
                out.extend((rest, v) for v in vals)
        return out

    @property
    def label(self) -> str:
        return " ".join((self.op,) + self.args)


@dataclass(frozen=True)
class ParentSpec:
    space: JetSpace
    target: str
    aux: tuple[str, ...]


@dataclass(frozen=True)
class ProblemFile:
    path: str
    id: str
    title: str
    space: JetSpace
    system: DESystem
    fields: Mapping[str, VectorField]
    charts: Mapping[str, PointTransformation]
    solutions: Mapping[str, Solution]
    expects: tuple[Expect, ...]
    parent: ParentSpec | None = None

    def reduced_view(self) -> ReducedSystem:
        """Interpret this problem as the reduction of its declared parent."""
        if self.parent is None:
            raise ProblemError(f"{self.id}: no [parent] section declared")
        conn = Connection(self.parent.space, self.parent.target, self.parent.aux)
        return ReducedSystem(self.system, ("reduced",) * len(self.system.equations), conn)

    def algebra_table(self, names: Sequence[str] | None = None
                      ) -> tuple[list[str], AlgebraTable]:
        """Structure constants of the named fields; no or empty names mean
        every field, sorted by name.  Returns the names with the table."""
        names = list(names) if names else sorted(self.fields)
        return names, structure_constants([self.fields[n] for n in names])


_HEADER = re.compile(r"^\[(.+)\]$")


def _sections(text: str, where: str) -> list[tuple[str, list[str]]]:
    out: list[tuple[str, list[str]]] = []
    current: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER.match(line)
        if m:
            current = []
            out.append((m.group(1).strip(), current))
        elif current is None:
            raise ProblemError(f"{where}:{lineno}: content before any [section]")
        else:
            current.append(line)
    return out


def _kv(lines: list[str], where: str) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for line in lines:
        if "=" not in line:
            raise ProblemError(f"{where}: expected 'key = value', got {line!r}")
        k, v = line.split("=", 1)
        out.setdefault(k.strip(), []).append(v.strip())
    return out


def _single(kv: dict[str, list[str]], key: str, where: str,
            default: str | None = None) -> str | None:
    vals = kv.get(key)
    if not vals:
        if default is not None:
            return default
        return None
    if len(vals) > 1:
        raise ProblemError(f"{where}: duplicate key {key!r}")
    return vals[0]


def _unique(kv: dict[str, list[str]], where: str) -> dict[str, str]:
    """Each key with its one value; a repeated key is an error."""
    return {k: _single(kv, k, where) for k in kv}


def _require(kv: dict[str, list[str]], key: str, where: str) -> str:
    v = _single(kv, key, where)
    if v is None:
        raise ProblemError(f"{where}: missing required key {key!r}")
    return v


def _integer(text: str, where: str, key: str = "order") -> int:
    try:
        return int(text)
    except ValueError:
        raise ProblemError(f"{where}: {key} must be an integer, got {text!r}") from None


def _space_from(kv: dict[str, list[str]], where: str) -> JetSpace:
    indep = tuple(_require(kv, "independent", where).split())
    dep = tuple(_require(kv, "dependent", where).split())
    order = _integer(_require(kv, "order", where), where)
    params = tuple((_single(kv, "parameters", where, "") or "").split())
    return JetSpace(indep, dep, order, params)


def load_problem(path) -> ProblemFile:
    """Parse and validate one problem file."""
    from .corpus import OPERATIONS  # the executors' module imports this one
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemError(f"{path}: cannot read: {exc}") from exc
    where = p.name
    secs = _sections(text, where)
    meta: dict[str, list[str]] = {}
    space: JetSpace | None = None
    parent: ParentSpec | None = None
    equations: list[str] = []
    raw_fields: list[tuple[str, dict[str, list[str]]]] = []
    raw_charts: list[tuple[str, dict[str, list[str]]]] = []
    raw_solutions: list[tuple[str, dict[str, list[str]]]] = []
    raw_expects: list[tuple[str, dict[str, list[str]]]] = []
    for header, lines in secs:
        words = header.split()
        kind = words[0]
        if kind == "problem":
            meta = _kv(lines, f"{where} [problem]")
        elif kind == "space":
            space = _space_from(_kv(lines, f"{where} [space]"), f"{where} [space]")
        elif kind == "parent":
            w = f"{where} [parent]"
            kv = _kv(lines, w)
            pspace = _space_from(kv, w)
            pkind = _require(kv, "kind", w)
            if pkind not in ("ode", "pde"):
                raise ProblemError(f"{w}: kind must be ode or pde")
            if (pkind == "ode") != (pspace.p == 1):
                raise ProblemError(
                    f"{w}: kind {pkind} does not match {pspace.p} independent variables")
            target = _require(kv, "target", w)
            if target not in pspace.dependent:
                raise ProblemError(f"{w}: target {target!r} is not a dependent variable")
            aux = tuple(_require(kv, "aux", w).split())
            if len(aux) != pspace.p:
                raise ProblemError(f"{w}: need {pspace.p} auxiliary names, got {len(aux)}")
            parent = ParentSpec(pspace, target, aux)
        elif kind == "equations":
            equations.extend(lines)
        elif kind == "field":
            if len(words) != 2:
                raise ProblemError(f"{where}: [field] needs exactly one name: {header!r}")
            raw_fields.append((words[1], _kv(lines, f"{where} [{header}]")))
        elif kind == "chart":
            if len(words) != 2:
                raise ProblemError(f"{where}: [chart] needs exactly one name: {header!r}")
            raw_charts.append((words[1], _kv(lines, f"{where} [{header}]")))
        elif kind == "solution":
            if len(words) != 2:
                raise ProblemError(f"{where}: [solution] needs exactly one name: {header!r}")
            raw_solutions.append((words[1], _kv(lines, f"{where} [{header}]")))
        elif kind == "expect":
            if len(words) < 2 or words[1] not in OPERATIONS:
                raise ProblemError(
                    f"{where}: [expect] needs an operation from {sorted(OPERATIONS)}: {header!r}")
            raw_expects.append((header, _kv(lines, f"{where} [{header}]")))
        else:
            raise ProblemError(f"{where}: unknown section {header!r}")
    if space is None:
        raise ProblemError(f"{where}: missing [space] section")
    if not equations:
        raise ProblemError(f"{where}: empty equations list")
    pid = _single(meta, "id", where, p.stem) or p.stem
    title = _single(meta, "title", where, "") or ""

    def ctx(what: str):
        return f"{where} [{what}]"

    try:
        system = DESystem.build(space, equations)
    except (ExprError, ParseError) as exc:
        raise ProblemError(f"{ctx('equations')}: {exc}") from exc

    fields: dict[str, VectorField] = {}
    for name, kv in raw_fields:
        coeffs = _unique(kv, ctx("field " + name))
        try:
            fields[name] = VectorField.parse(space, coeffs)
        except (ExprError, ParseError) as exc:
            raise ProblemError(f"{ctx('field ' + name)}: {exc}") from exc

    charts: dict[str, PointTransformation] = {}
    for name, kv in raw_charts:
        w = ctx("chart " + name)
        indep_names = (_require(kv, "independent", w)).split()
        dep_names = (_require(kv, "dependent", w)).split()
        canonical = _single(kv, "canonical", w)
        indep, dep, inverse, aux = {}, {}, {}, {}
        for k, v in _unique(kv, w).items():
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
                raise ProblemError(f"{w}: unknown key {k!r}")
        missing = [n for n in indep_names + dep_names if n not in indep and n not in dep]
        if missing:
            raise ProblemError(f"{w}: no defining expression for {missing}")
        try:
            charts[name] = PointTransformation.parse(
                space, indep, dep, canonical, inverse or None, aux or None)
        except (ExprError, ParseError) as exc:
            raise ProblemError(f"{w}: {exc}") from exc

    solutions: dict[str, Solution] = {}
    for name, kv in raw_solutions:
        w = ctx("solution " + name)
        kind = _single(kv, "kind", w, "parent") or "parent"
        if kind not in ("parent", "reduced"):
            raise ProblemError(f"{w}: kind must be parent or reduced")
        anti = _single(kv, "antiderivative", w)
        values = {k: v for k, v in _unique(kv, w).items()
                  if k not in ("kind", "antiderivative")}
        if not values:
            raise ProblemError(f"{w}: no component expressions")
        solutions[name] = Solution(name, kind, values, anti)

    expects: list[Expect] = []
    for i, (header, kv) in enumerate(raw_expects):
        words = header.split()
        tag = _single(kv, "tag", ctx(header), "literature") or "literature"
        if tag not in ("literature", "oracle"):
            raise ProblemError(f"{ctx(header)}: tag must be literature or oracle")
        note = _single(kv, "note", ctx(header), "") or ""
        body = {k: tuple(v) for k, v in kv.items() if k not in ("tag", "note")}
        expects.append(Expect(i, words[1], tuple(words[2:]), tag, body, note))

    pf = ProblemFile(str(p), pid, title, space, system, fields, charts,
                     solutions, tuple(expects), parent)
    _validate_references(pf, OPERATIONS)
    return pf


def _validate_references(pf: ProblemFile, operations):
    """Every expect must use only the keys its operation reads, give it the
    number and kinds of arguments it takes, have integer values that parse,
    and name a reduction that fits the space."""
    declared = {"field": pf.fields, "chart": pf.charts, "solution": pf.solutions,
                "target": pf.space.dependent}

    def check(kind: str, name: str, w: str):
        if name not in declared[kind]:
            raise ProblemError(f"{w}: target {name!r} is not a dependent variable"
                               if kind == "target" else f"{w}: unknown {kind} {name!r}")

    for e in pf.expects:
        w = f"{Path(pf.path).name} [expect {e.label}]"
        op = operations[e.op]
        for k in e.body:
            head, _, rest = k.partition(" ")
            if (f"{head} *" if rest else k) not in op.keys + ("stated",):
                raise ProblemError(f"{w}: unknown key {k!r}")
        # Only a target is optional.
        if not len(op.args) - op.args.count("target") <= len(e.args) <= len(op.args):
            form = [e.op] + ["[TARGET]" if k == "target" else k.upper() for k in op.args]
            raise ProblemError(f"{w}: expected '[expect {' '.join(form)}]'")
        for kind, name in zip(op.args, e.args):
            check(kind, name, w)
        if e.one("order"):
            _integer(e.one("order"), w)
        if e.one("integrability") is not None:
            _integer(e.one("integrability"), w, "integrability")
        for n in (e.one("series") or "").split():
            _integer(n, w, "series")
        # No auxiliary names mean the defaults; a chart has the problem's p.
        aux = e.one("aux", "").split()
        if aux and len(aux) != pf.space.p:
            raise ProblemError(f"{w}: need {pf.space.p} auxiliary names, got {len(aux)}")
        kind = e.op.removeprefix("reduce-") if e.op.startswith("reduce-") else None
        if e.op == "connection":
            reduce = e.one("reduce", "").split()
            if not 1 <= len(reduce) <= 2:
                raise ProblemError(f"{w}: connection needs 'reduce = ode|pde [target]'")
            if reduce[0] not in ("ode", "pde"):
                raise ProblemError(f"{w}: reduce must be ode or pde, got {reduce[0]!r}")
            kind = reduce[0]
            for name in reduce[1:]:
                check("target", name, w)
        why = kind and kind_mismatch(kind, pf.space.p)
        if why:
            raise ProblemError(f"{w}: {why}")
        if e.op == "algebra":
            names = e.one("fields", "").split()
            for name in names:
                check("field", name, w)
            for head, _ in e.prefixed("bracket"):
                pair = head.split()
                if len(pair) != 2 or not set(pair) <= set(names or pf.fields):
                    raise ProblemError(f"{w}: bracket {head!r} needs two fields from the list")
        if e.op == "lift" and pf.parent is None:
            raise ProblemError(f"{w}: lift needs a [parent] section")
