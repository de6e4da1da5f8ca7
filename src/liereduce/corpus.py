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
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .algebra import is_solvable, reduction_order_advice
from .charts import verify_canonical
from .classify import lift_test
from .equiv import equiv, is_zero
from .expr import Expr, ExprError, Rat, ZERO, diff, free_vars, mul, render, substitute
from .jets import prolong
from .parse import parse_expr
from .problem import Expect, ProblemError, ProblemFile, load_problem
from .reduction import verify_connection
from .systems import (DESystem, _parse_equation, affine_split, check_point_symmetry,
                      verify_solution)


class Report(NamedTuple):
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


def equation_matches(eqA: Expr, eqB: Expr, first: str | None = None) -> bool:
    """Same zero set up to a nonvanishing factor.  Structurally equal
    equations match.  Otherwise the first shared variable v, ``first`` ahead
    of the sorted rest, in which both are affine with coefficients that are
    not zero decides: eqA = cA*v + dA matches eqB = cB*v + dB exactly when
    cA*dB and cB*dA are equivalent.  A factor between them that depends on v
    is a Moebius function of v, with a zero, so any one such v gives the
    verdict of all.  When no variable decides, ``equiv`` does."""
    if eqA == eqB:
        return True
    for v in sorted(free_vars(eqA) & free_vars(eqB), key=lambda v: (v != first, v)):
        splitA = affine_split(eqA, v)
        splitB = splitA and affine_split(eqB, v)
        if splitB and not is_zero(splitA[0]) and not is_zero(splitB[0]):
            (cA, dA), (cB, dB) = splitA, splitB
            return equiv(mul(cA, dB), mul(cB, dA))
    return equiv(eqA, eqB)


def systems_match(computed: DESystem, expected: list[Expr]) -> bool:
    """True when the equations pair one-to-one, in any order, under
    ``equation_matches``, each computed equation tried at its lead first
    (an order-zero system has none).  Each pair is compared at most once,
    and each set of expected equations left unpaired is searched once."""
    eqs, leads = computed.equations, computed.leads or (None,) * len(computed.equations)
    pair = cache(lambda i, j: equation_matches(eqs[i], expected[j], leads[i]))

    @cache
    def pairs(free: frozenset[int]) -> bool:
        i = len(eqs) - len(free)  # the next computed equation to pair
        return not free or any(pair(i, j) and pairs(free - {j}) for j in sorted(free))
    return len(eqs) == len(expected) and pairs(frozenset(range(len(expected))))


def _parse_combo(text: str, names: list[str]) -> list[Fraction] | None:
    """Span coordinates of a linear combination of the named fields with
    rational coefficients, such as '2*X3 - X1'; None for anything else."""
    try:
        e = parse_expr(text, set(names))
    except ExprError:
        return None
    coords = [diff(e, n) for n in names]
    if not all(isinstance(c, Rat) for c in coords) or \
            substitute(e, dict.fromkeys(names, ZERO)) != ZERO:
        return None
    return [c.value for c in coords]


# ---------------------------------------------------------------------------
# Executors: each returns (ok, computed, expected), with ok True or False, or
# None when the computation could not decide the check


def _reduced(pf: ProblemFile, exp: Expect, target: Sequence[str]):
    """The gradient reduction of the target named in ``target`` (zero or one
    words), with the expect's ``aux =`` names; the loader has checked that
    its kind fits the space."""
    return pf.gradient_reduction(target[0] if target else None,
                                 exp.one("aux", "").split())


def _ex_prolong(pf: ProblemFile, exp: Expect):
    X = pf.fields[exp.args[0]]
    order = int(exp.one("order", pf.space.order))
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
    want = exp.one("verdict", "symmetry")
    ok = rep.verdict == want
    res = exp.one("residual")
    if res is not None:
        ok = ok and equiv(rep.residuals[0], parse_expr(res, pf.space))
    shown = rep.verdict
    if rep.verdict == "not-symmetry":
        shown += " (residual " + "; ".join(render(r) for r in rep.residuals) + ")"
    return ok, shown, want + (f" residual {res}" if res else "")


def _verdict(exp: Expect, got: bool):
    """(ok, computed, expected) for a true/false ``verdict``, true when
    absent."""
    want = exp.one("verdict", "true") == "true"
    return got == want, str(got).lower(), str(want).lower()


def _ex_canonical(pf: ProblemFile, exp: Expect):
    return _verdict(exp, verify_canonical(pf.fields[exp.args[0]], pf.charts[exp.args[1]]))


def _matched(system: DESystem, exp: Expect):
    """(ok, computed, expected) for ``system`` against the expect's
    ``equation`` lines."""
    expected = [_parse_equation(system.space, line) for line in exp.equations]
    return systems_match(system, expected), \
        "; ".join(render(e) for e in system.equations), \
        "; ".join(render(e) for e in expected)


def _ex_transform(pf: ProblemFile, exp: Expect):
    return _matched(pf.transformed(exp.args[0]), exp)


def _ex_reduce(pf: ProblemFile, exp: Expect):
    red = _reduced(pf, exp, exp.args)
    ok, shown, want = _matched(red.system, exp)
    count = exp.one("integrability")
    if count is not None:  # without equation lines only the count is checked
        ok = (ok or not want) and red.integrability_count == int(count)
    return ok, shown, want or f"{count} integrability conditions"


def _ex_lie_reduce(pf: ProblemFile, exp: Expect):
    return _matched(pf.lie_reduction(exp.args[0], exp.one("aux", "").split()).system, exp)


def _ex_pushforward(pf: ProblemFile, exp: Expect):
    out = pf.pushforward(exp.args[0], exp.args[1])
    T = pf.charts[exp.args[1]]
    vocab = set(out.coords) | set(T.target_names) | set(pf.space.params)
    oks, shown, want = [], [], []
    flagged_want = exp.one("flagged", "false") == "true"
    oks.append(out.flagged == flagged_want)
    for name, text in exp.prefixed("coeff"):
        e = parse_expr(text.strip(), vocab)
        oks.append(equiv(out.coeff(name), e))
        shown.append(f"{name}: {render(out.coeff(name))}")
        want.append(f"{name}: {render(e)}")
    return all(oks), "; ".join(shown) or out.describe(), "; ".join(want)


def _ex_classify(pf: ProblemFile, exp: Expect):
    got = pf.classification(exp.args[0], exp.args[1])
    want = exp.one("verdict", "point")
    ok = got.verdict == want
    wwit = exp.one("witness")
    if wwit is not None:
        ok = ok and got.witness == wwit
    if got.verdict == "inconclusive" and want != "inconclusive":
        ok = None  # the classification could not decide the check
    return ok, str(got), want + (f" witness={wwit}" if wwit else "")


def _ex_lift(pf: ProblemFile, exp: Expect):
    Y = pf.fields[exp.args[0]]
    red = pf.reduced_view()
    got = lift_test(Y, red)
    want = exp.one("verdict", "point")
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
    jacobi_want = exp.one("jacobi")
    if jacobi_want is not None:
        jacobi = tab.jacobi_ok()
        oks.append(jacobi == (jacobi_want == "true"))
        shown.append("jacobi=ok" if jacobi else "jacobi=violated")
        want.append(f"jacobi={jacobi_want}")
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
    return _verdict(exp, got)


def _ex_solution(pf: ProblemFile, exp: Expect):
    return _verdict(exp, verify_solution(pf.system, pf.solutions[exp.args[0]].values))


class Operation(NamedTuple):
    """One ``[expect]`` operation.  ``args`` gives the kind of each argument:
    ``field``, ``chart`` or ``solution`` names a declared one, and an
    optional ``target`` a dependent variable.  ``keys`` maps each body key
    it reads besides tag, note and stated to the words its value may take,
    or to None for free text; a key ending in `` *`` takes a name after its
    first word (``coeff y'``).  An expect must give at least one of the keys
    in ``needs``, when there are any; without one it checks nothing.
    ``run`` returns (ok, computed, expected): ok is True or False when the
    check passes or fails, and None when the computation cannot decide it,
    which reports ``inconclusive``."""
    run: Callable[[ProblemFile, Expect], tuple[bool | None, str, str]]
    args: tuple[str, ...]
    keys: Mapping[str, tuple[str, ...] | None]
    needs: tuple[str, ...] = ()


_TRUE_FALSE = ("true", "false")
_REDUCE = {"aux": None, "equation": None, "integrability": None}
# The loader checks every expect against this table.
OPERATIONS = {
    "prolong": Operation(_ex_prolong, ("field",), {"order": None, "coeff *": None},
                         ("coeff *",)),
    "symmetry": Operation(_ex_symmetry, ("field",),
                          {"verdict": ("symmetry", "not-symmetry"), "residual": None}),
    "canonical": Operation(_ex_canonical, ("field", "chart"), {"verdict": _TRUE_FALSE}),
    "transform": Operation(_ex_transform, ("chart",), {"equation": None}, ("equation",)),
    "reduce-ode": Operation(_ex_reduce, ("target",), _REDUCE, ("equation", "integrability")),
    "reduce-pde": Operation(_ex_reduce, ("target",), _REDUCE, ("equation", "integrability")),
    "lie-reduce": Operation(_ex_lie_reduce, ("chart",), {"aux": None, "equation": None},
                            ("equation",)),
    "pushforward": Operation(_ex_pushforward, ("field", "chart"),
                             {"flagged": _TRUE_FALSE, "coeff *": None}),
    "classify": Operation(_ex_classify, ("field", "chart"),
                          {"verdict": ("point", "nonlocal", "inconclusive"), "witness": None}),
    "lift": Operation(_ex_lift, ("field",), {"verdict": ("point", "nonlocal")}),
    "commutator": Operation(_ex_commutator, ("field", "field"), {"result": None}, ("result",)),
    "algebra": Operation(_ex_algebra, (), {"fields": None, "closed": _TRUE_FALSE,
                                           "bracket *": None, "solvable": _TRUE_FALSE,
                                           "series": None, "jacobi": _TRUE_FALSE},
                         ("closed", "bracket *", "solvable", "series", "jacobi")),
    "advice": Operation(_ex_advice, ("field", "field"), {"first": None}, ("first",)),
    "connection": Operation(_ex_connection, ("solution",),
                            {"reduce": None, "aux": None, "verdict": _TRUE_FALSE}),
    "solution": Operation(_ex_solution, ("solution",), {"verdict": _TRUE_FALSE}),
}


def run_expect(pf: ProblemFile, exp: Expect) -> Report:
    t0 = time.perf_counter()
    try:
        ok, computed, expected = OPERATIONS[exp.op].run(pf, exp)
        if ok is None:
            verdict = "inconclusive"
        elif ok:
            verdict = "discrepancy-documented" if exp.one("stated") else "pass"
        else:
            verdict = "fail"
    except Exception as exc:  # a malformed check must not end the run
        why = exc if isinstance(exc, (ExprError, KeyError)) else f"{type(exc).__name__}: {exc}"
        verdict, computed, expected = "fail", f"error: {why}", exp.one("verdict", "")
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
