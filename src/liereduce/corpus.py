"""Corpus execution: run every expected result in a problem directory.

Each expected result yields exactly one report record.  Verdicts are
``pass``/``fail``; a passing check whose expected value documents a conflict
with the stated literature value (``stated =`` plus a note) reports
``discrepancy-documented``, and a check whose computation cannot decide
reports ``inconclusive``.  Records are produced in (problem id, check index)
order and, timings aside, two runs are byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from .algebra import is_solvable, reduction_order_advice
from .charts import pushforward_field, transform_de, verify_canonical
from .classify import classify_pushforward, lift_test
from .equiv import equiv, is_zero
from .expr import Expr, ExprError, ZERO, diff, free_vars, mul, render, substitute
from .jets import prolong
from .parse import parse_expr
from .problem import Expect, ProblemError, ProblemFile, load_problem
from .reduction import lie_reduce, reduce_pde, verify_connection
from .systems import DESystem, _parse_equation, check_point_symmetry, verify_solution


@dataclass(frozen=True)
class Report:
    problem: str
    check: str
    operation: str
    verdict: str  # pass | fail | discrepancy-documented | inconclusive
    computed: str
    expected: str
    ms: float | None = None

    def to_dict(self, with_timing: bool = False) -> dict:
        return {
            "problem": self.problem,
            "check": self.check,
            "operation": self.operation,
            "verdict": self.verdict,
            "computed": self.computed,
            "expected": self.expected,
            "ms": round(self.ms, 3) if (with_timing and self.ms is not None) else None,
        }

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL",
                "discrepancy-documented": "NOTED",
                "inconclusive": "INCONCL"}[self.verdict]
        t = f" ({self.ms:.0f} ms)" if self.ms is not None else ""
        extra = ""
        if self.verdict != "pass":
            extra = f"  computed: {self.computed}  expected: {self.expected}"
        return f"[{mark}] {self.problem}: {self.check}{extra}{t}"


def corpus_dir() -> Path:
    """Directory holding the shipped problem corpus."""
    return Path(__file__).resolve().parent / "corpus_data"


# ---------------------------------------------------------------------------
# Comparison helpers


def equation_matches(eqA: Expr, eqB: Expr) -> bool:
    """Same zero set up to a nonvanishing factor, decided by cross-multiplying
    the two solved forms for a shared affine variable."""
    if equiv(eqA, eqB):
        return True
    for v in sorted(set(free_vars(eqA)) | set(free_vars(eqB))):
        cA = diff(eqA, v)
        cB = diff(eqB, v)
        if cA == ZERO or cB == ZERO:
            continue
        if v in free_vars(cA) or v in free_vars(cB):
            continue
        dA = substitute(eqA, {v: ZERO})
        dB = substitute(eqB, {v: ZERO})
        if equiv(mul(cA, dB), mul(cB, dA)) and \
                not is_zero(cA) and not is_zero(cB):
            return True
    return False


def systems_match(computed: DESystem, expected: list[Expr]) -> bool:
    if len(computed.equations) != len(expected):
        return False
    n = len(expected)
    for perm in permutations(range(n)):
        if all(equation_matches(computed.equations[i], expected[perm[i]])
               for i in range(n)):
            return True
    return False


def _parse_combo(text: str, names: list[str]) -> list[Fraction] | None:
    """Parse 'c*Xk +/- ...' into span coordinates; None on failure."""
    out = [Fraction(0)] * len(names)
    t = text.replace(" ", "")
    if t in ("0", ""):
        return out
    t = t.replace("-", "+-")
    for piece in t.split("+"):
        if not piece:
            continue
        coeff = Fraction(1)
        if piece.startswith("-"):
            coeff = Fraction(-1)
            piece = piece[1:]
        if "*" in piece:
            num, piece = piece.split("*", 1)
            try:
                coeff *= Fraction(num)
            except ValueError:
                return None
        if piece not in names:
            return None
        out[names.index(piece)] += coeff
    return out


# ---------------------------------------------------------------------------
# Executors: each returns (ok, computed, expected)


def _reduced(pf: ProblemFile, exp: Expect, target: Sequence[str]):
    """The gradient reduction of the target named in ``target`` (zero or one
    words), with the expect's ``aux =`` names; the loader has checked that
    its kind fits the space."""
    return reduce_pde(pf.system, target[0] if target else None,
                      exp.one("aux", "").split())


def _ex_prolong(pf: ProblemFile, exp: Expect):
    X = pf.fields[exp.args[0]]
    order = int(exp.one("order") or pf.space.order)
    P = prolong(X, order)
    oks, shown, want = [], [], []
    for name, text in exp.prefixed("coeff"):
        name = pf.space.resolve(name.strip()) or name.strip()
        expect_e = parse_expr(text.strip(), pf.space)
        got = P.coeff(name)
        oks.append(got == expect_e)
        shown.append(f"{name}: {render(got)}")
        want.append(f"{name}: {render(expect_e)}")
    return all(oks), "; ".join(shown), "; ".join(want)


def _ex_symmetry(pf: ProblemFile, exp: Expect):
    X = pf.fields[exp.args[0]]
    rep = check_point_symmetry(pf.system, X)
    want = exp.one("verdict") or "symmetry"
    ok = rep.verdict == want
    res = exp.one("residual")
    if res is not None:
        ok = ok and equiv(rep.residuals[0], parse_expr(res, pf.space))
    shown = rep.verdict
    if rep.verdict == "not-symmetry":
        shown += " (residual " + "; ".join(render(r) for r in rep.residuals) + ")"
    return ok, shown, want + (f" residual {res}" if res else "")


def _ex_canonical(pf: ProblemFile, exp: Expect):
    X = pf.fields[exp.args[0]]
    T = pf.charts[exp.args[1]]
    got = verify_canonical(X, T)
    want = (exp.one("verdict") or "true") == "true"
    return got == want, str(got).lower(), str(want).lower()


def _expected_equations(exp: Expect, space) -> list[Expr]:
    return [_parse_equation(space, line) for line in exp.many("equation")]


def _ex_transform(pf: ProblemFile, exp: Expect):
    T = pf.charts[exp.args[0]]
    out = transform_de(pf.system, T)
    expected = _expected_equations(exp, out.space)
    ok = systems_match(out, expected)
    return ok, "; ".join(render(e) for e in out.equations), \
        "; ".join(render(e) for e in expected)


def _ex_reduce(pf: ProblemFile, exp: Expect):
    red = _reduced(pf, exp, exp.args)
    expected = _expected_equations(exp, red.system.space)
    ok = systems_match(red.system, expected) if expected else True
    count = exp.one("integrability")
    if count is not None:
        ok = ok and red.integrability_count == int(count)
    elim = red.connection.eliminated
    for eq in red.system.equations:
        ok = ok and elim not in free_vars(eq)
    shown = "; ".join(render(e) for e in red.system.equations)
    want = "; ".join(render(e) for e in expected) if expected else f"{count} integrability conditions"
    return ok, shown, want


def _ex_lie_reduce(pf: ProblemFile, exp: Expect):
    T = pf.charts[exp.args[0]]
    red = lie_reduce(pf.system, T, exp.one("aux", "").split())
    expected = _expected_equations(exp, red.system.space)
    ok = systems_match(red.system, expected)
    return ok, "; ".join(render(e) for e in red.system.equations), \
        "; ".join(render(e) for e in expected)


def _ex_pushforward(pf: ProblemFile, exp: Expect):
    X = pf.fields[exp.args[0]]
    T = pf.charts[exp.args[1]]
    out = pushforward_field(X, T)
    vocab = set(out.coords) | set(T.target_names) | set(pf.space.params)
    oks, shown, want = [], [], []
    flagged_want = (exp.one("flagged") or "false") == "true"
    oks.append(out.flagged == flagged_want)
    for name, text in exp.prefixed("coeff"):
        e = parse_expr(text.strip(), vocab)
        oks.append(equiv(out.coeff(name), e))
        shown.append(f"{name}: {render(out.coeff(name))}")
        want.append(f"{name}: {render(e)}")
    return all(oks), "; ".join(shown) or out.describe(), "; ".join(want)


def _ex_classify(pf: ProblemFile, exp: Expect):
    X = pf.fields[exp.args[0]]
    T = pf.charts[exp.args[1]]
    red = lie_reduce(pf.system, T)
    got = classify_pushforward(X, T, red)
    want = exp.one("verdict") or "point"
    ok = got.verdict == want
    wwit = exp.one("witness")
    if wwit is not None:
        ok = ok and got.witness == wwit
    return ok, str(got), want + (f" witness={wwit}" if wwit else "")


def _ex_lift(pf: ProblemFile, exp: Expect):
    Y = pf.fields[exp.args[0]]
    red = pf.reduced_view()
    got = lift_test(Y, red)
    want = exp.one("verdict") or "point"
    return got.verdict == want, str(got), want


def _ex_commutator(pf: ProblemFile, exp: Expect):
    names, tab = pf.algebra_table()
    i, j = names.index(exp.args[0]), names.index(exp.args[1])
    got = tab.coords(i, j)
    want_text = exp.one("result")
    want = _parse_combo(want_text, names) if want_text else None
    if want is None:
        raise ProblemError(f"{pf.id}: cannot parse expected combination {want_text!r}")
    ok = got is not None and list(got) == want
    return ok, tab.describe_entry(i, j, names), want_text


def _ex_algebra(pf: ProblemFile, exp: Expect):
    names, tab = pf.algebra_table(exp.one("fields", "").split())
    oks, shown, want = [], [], []
    closed_want = exp.one("closed")
    if closed_want is not None:
        oks.append(tab.closed == (closed_want == "true"))
        shown.append(f"closed={str(tab.closed).lower()}")
        want.append(f"closed={closed_want}")
    for head, text in exp.prefixed("bracket"):
        a, b = head.split()
        i, j = names.index(a), names.index(b)
        got = tab.coords(i, j)
        expect_v = _parse_combo(text.strip(), names)
        oks.append(got is not None and expect_v is not None and list(got) == expect_v)
        shown.append(f"[{a},{b}]={tab.describe_entry(i, j, names)}")
        want.append(f"[{a},{b}]={text.strip()}")
    solv_want = exp.one("solvable")
    series_want = exp.one("series")
    if solv_want is not None or series_want is not None:
        solvable, dims = is_solvable(tab)
        if solv_want is not None:
            oks.append(solvable == (solv_want == "true"))
            shown.append(f"solvable={str(solvable).lower()}")
            want.append(f"solvable={solv_want}")
        if series_want is not None:
            want_dims = tuple(int(x) for x in series_want.split())
            oks.append(dims == want_dims)
            shown.append("series=" + " ".join(str(d) for d in dims))
            want.append(f"series={series_want}")
    if exp.one("jacobi") == "true":
        oks.append(tab.jacobi_ok())
        shown.append("jacobi=ok" if oks[-1] else "jacobi=violated")
        want.append("jacobi=true")
    return all(oks), "; ".join(shown), "; ".join(want)


def _ex_advice(pf: ProblemFile, exp: Expect):
    names, tab = pf.algebra_table()
    adv = reduction_order_advice(tab, names.index(exp.args[0]), names.index(exp.args[1]))
    want_first = exp.one("first")
    if want_first == "either":
        ok = adv.either
        shown = "either" if adv.either else f"first={names[adv.first]}"
    else:
        ok = (not adv.either) and names[adv.first] == want_first
        shown = adv.describe(names)
    return ok, shown, f"first={want_first}"


def _ex_connection(pf: ProblemFile, exp: Expect):
    sol = pf.solutions[exp.args[0]]
    red = _reduced(pf, exp, exp.one("reduce").split()[1:])
    if sol.kind == "parent":
        got = verify_connection(pf.system, red, parent_solution=sol.values)
    else:
        got = verify_connection(pf.system, red, reduced_solution=sol.values,
                                antiderivative=sol.antiderivative)
    want = (exp.one("verdict") or "true") == "true"
    return got == want, str(got).lower(), str(want).lower()


def _ex_solution(pf: ProblemFile, exp: Expect):
    sol = pf.solutions[exp.args[0]]
    got = verify_solution(pf.system, sol.values)
    want = (exp.one("verdict") or "true") == "true"
    return got == want, str(got).lower(), str(want).lower()


class Operation(NamedTuple):
    """One ``[expect]`` operation.  ``args`` gives the kind of each argument:
    ``field``, ``chart`` or ``solution`` names a declared one, and an
    optional ``target`` a dependent variable.  ``keys`` are the body keys it
    reads besides tag, note and stated; a key ending in `` *`` takes a name
    after its first word (``coeff y'``)."""
    run: Callable[[ProblemFile, Expect], tuple[bool, str, str]]
    args: tuple[str, ...]
    keys: tuple[str, ...]


# The loader checks every expect against this table.
OPERATIONS = {
    "prolong": Operation(_ex_prolong, ("field",), ("order", "coeff *")),
    "symmetry": Operation(_ex_symmetry, ("field",), ("verdict", "residual")),
    "canonical": Operation(_ex_canonical, ("field", "chart"), ("verdict",)),
    "transform": Operation(_ex_transform, ("chart",), ("equation",)),
    "reduce-ode": Operation(_ex_reduce, ("target",), ("aux", "equation", "integrability")),
    "reduce-pde": Operation(_ex_reduce, ("target",), ("aux", "equation", "integrability")),
    "lie-reduce": Operation(_ex_lie_reduce, ("chart",), ("aux", "equation")),
    "pushforward": Operation(_ex_pushforward, ("field", "chart"), ("flagged", "coeff *")),
    "classify": Operation(_ex_classify, ("field", "chart"), ("verdict", "witness")),
    "lift": Operation(_ex_lift, ("field",), ("verdict",)),
    "commutator": Operation(_ex_commutator, ("field", "field"), ("result",)),
    "algebra": Operation(_ex_algebra, (), ("fields", "closed", "bracket *", "solvable",
                                           "series", "jacobi")),
    "advice": Operation(_ex_advice, ("field", "field"), ("first",)),
    "connection": Operation(_ex_connection, ("solution",), ("reduce", "aux", "verdict")),
    "solution": Operation(_ex_solution, ("solution",), ("verdict",)),
}


def run_expect(pf: ProblemFile, exp: Expect) -> Report:
    t0 = time.perf_counter()
    try:
        ok, computed, expected = OPERATIONS[exp.op].run(pf, exp)
        if ok:
            verdict = "discrepancy-documented" if exp.one("stated") else "pass"
        elif "inconclusive" in computed:
            verdict = "inconclusive"
        else:
            verdict = "fail"
    except Exception as exc:  # a malformed check must not end the run
        why = exc if isinstance(exc, (ExprError, KeyError)) else f"{type(exc).__name__}: {exc}"
        verdict, computed, expected = "fail", f"error: {why}", exp.one("verdict") or ""
    ms = (time.perf_counter() - t0) * 1000.0
    if exp.one("stated") and verdict == "discrepancy-documented":
        expected = f"{expected} (stated: {exp.one('stated')}; {exp.note})"
    return Report(pf.id, exp.label, exp.op, verdict, computed, expected, ms)


def run_corpus(directory=None, filter: str | None = None) -> tuple[list[Report], bool]:
    """Execute every expected result under a directory of problem files.

    Returns the report list (deterministic order) and whether any check
    failed.  Unreadable or invalid files produce a single failing record and
    are skipped.
    """
    base = Path(directory) if directory is not None else corpus_dir()
    records: list[Report] = []
    failed = False
    for path in sorted(base.glob("*.prob")):
        if filter and filter not in path.stem:
            continue
        try:
            pf = load_problem(path)
        except Exception as exc:  # a malformed file must not end the run
            why = str(exc) if isinstance(exc, ProblemError) else f"{type(exc).__name__}: {exc}"
            records.append(Report(path.stem, "load", "load", "fail", why, "valid file"))
            failed = True
            continue
        for exp in pf.expects:
            rec = run_expect(pf, exp)
            records.append(rec)
            failed = failed or rec.verdict == "fail"
    return records, failed


def reports_json(records: list[Report], with_timing: bool = False) -> str:
    return "\n".join(json.dumps(r.to_dict(with_timing), sort_keys=True)
                     for r in records)
