"""Corpus runner: a record does not depend on which checks ran before it on
the same loaded problem, each derived artifact is computed once, and an
expected system matches in any order with each equation pair compared once,
and each pair is decided by one cross test, at the computed lead first."""

import sys

import pytest

from liereduce import (DESystem, ExprError, JetSpace, algebra, corpus, lie_reduce, parse_expr,
                       problem, render)
from liereduce import charts as charts_module
from liereduce.cli import main
from liereduce.corpus import corpus_dir, run_corpus, run_expect, systems_match
from liereduce.problem import load_problem
from liereduce.systems import _parse_equation

equiv_module = sys.modules["liereduce.equiv"]
PATHS = sorted(corpus_dir().glob("*.prob"))
# Every shipped check as (file, expect index), in run_corpus's record order.
CHECKS = [(path, i) for path in PATHS for i in range(len(load_problem(path).expects))]


@pytest.fixture(scope="module")
def full_run():
    records, _ = run_corpus()
    assert len(records) == len(CHECKS)
    return records


@pytest.mark.parametrize("position", range(len(CHECKS)),
                         ids=[f"{path.stem}-{i}" for path, i in CHECKS])
def test_check_alone_matches_full_run(full_run, position):
    path, index = CHECKS[position]
    pf = load_problem(path)  # freshly loaded: nothing derived yet
    alone = run_expect(pf, pf.expects[index])
    assert alone.to_dict() == full_run[position].to_dict()


def _calls(monkeypatch, name: str, source=problem) -> list:
    """The argument tuples of every later call that any liereduce module
    makes to the function ``name`` of module ``source``."""
    calls, orig = [], getattr(source, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("liereduce") and \
                vars(module).get(name) is orig:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_each_artifact_computed_once(monkeypatch):
    transforms = _calls(monkeypatch, "transform_de")
    constants = _calls(monkeypatch, "structure_constants")
    pushforwards = _calls(monkeypatch, "pushforward_field")
    solves = _calls(monkeypatch, "solve_affine", charts_module)
    run_corpus()
    charts, tables, pairs = set(), set(), set()
    for path in PATHS:
        pf = load_problem(path)
        for exp in pf.expects:
            if exp.op in ("transform", "lie-reduce"):
                charts.add((path, exp.args[0]))
            elif exp.op in ("pushforward", "classify"):
                pairs.add((path,) + exp.args)
                if exp.op == "classify":
                    charts.add((path, exp.args[1]))
            elif exp.op in ("commutator", "advice", "algebra"):
                names = exp.one("fields", "").split() if exp.op == "algebra" else ()
                tables.add((path, tuple(names or sorted(pf.fields))))
    assert (len(transforms), len(constants), len(pushforwards)) == \
        (len(charts), len(tables), len(pairs))
    # A chart's first-order jets are solved once, for its transform and its
    # push-forwards together.
    assert len(solves) == len(charts | {(path, chart) for path, _, chart in pairs})


def test_commutator_command_computes_each_bracket_once(monkeypatch, capsys):
    calls = _calls(monkeypatch, "commutator", algebra)
    rc = main(["commutator", "--problem", str(corpus_dir() / "power-diffusion.prob"),
               "--fields", "X1,X5"])
    assert rc == 0 and capsys.readouterr().out == "[X1,X5] = -X1  ((-1) d/du)\n"
    assert len(calls) == 10  # the five fields' pairs, each once


NO_INVERSE = ("[space]\nindependent = x\ndependent = y\norder = 1\n"
              "[equations]\ny' = y\n"
              "[chart c]\nindependent = r\ndependent = v\nr = x\nv = y\n"
              + "[expect transform c]\ntag = oracle\nequation = v' = v\n" * 2)


def test_failed_transform_is_not_stored(tmp_path, monkeypatch):
    calls = _calls(monkeypatch, "transform_de")
    (tmp_path / "no-inverse.prob").write_text(NO_INVERSE)
    records, failed = run_corpus(tmp_path)
    first, second = (r.to_dict() for r in records)
    assert failed and first == second
    assert first["computed"] == "error: transform_de needs the chart's inverse base map"
    assert len(calls) == 2


# Charts over y' = y whose lie reduction fails, each with the first error:
# the canonical coordinate is checked before the transform, and the
# transform before the reduction.
LIE_FAILURES = {
    "a": ("", "chart has no designated canonical coordinate"),
    "b": ("canonical = r\n", "the canonical coordinate must be a target dependent variable"),
    "c": ("canonical = v\n", "transform_de needs the chart's inverse base map"),
    "d": ("canonical = v\ninverse x = r\ninverse y = v\n",
          "'v' appears undifferentiated; transform to canonical (translated) form first"),
}


def test_lie_reduction_fails_like_lie_reduce(tmp_path):
    text = "[space]\nindependent = x\ndependent = y\norder = 1\n[equations]\ny' = y\n"
    for name, (extra, _) in LIE_FAILURES.items():
        text += f"[chart {name}]\nindependent = r\ndependent = v\nr = x\nv = y\n{extra}"
        text += f"[expect lie-reduce {name}]\ntag = oracle\nequation = v = 0\n"
    (tmp_path / "lie.prob").write_text(text)
    pf = load_problem(tmp_path / "lie.prob")
    for exp in pf.expects:
        with pytest.raises(ExprError) as exc:
            lie_reduce(pf.system, pf.charts[exp.args[0]])
        assert str(exc.value) == LIE_FAILURES[exp.args[0]][1]
        assert run_expect(pf, exp).computed == f"error: {exc.value}"


# The two-scalings equation with a chart whose auxiliary is not a
# first-order derivative: the Lie reduction works, the push-forward does not.
BAD_AUX = ("[space]\nindependent = x\ndependent = y\norder = 2\n"
           "[equations]\nx*y^2*y'' + x*y' - y = 0\n"
           "[field X2]\nx = x\ny = 1/2*y\n"
           "[chart chart1]\nindependent = r\ndependent = s\ncanonical = s\n"
           "r = y/x\ns = -1/x\ninverse x = -1/s\ninverse y = -r/s\naux alpha = y\n"
           "[expect classify X2 chart1]\ntag = oracle\n"
           "[expect pushforward X2 chart1]\ntag = oracle\n"
           "[expect symmetry X2]\ntag = oracle\nverdict = not-symmetry\n")
BAD_AUX_WHY = "auxiliary 'alpha' does not match any first-order derivative of the chart"


def test_failed_pushforward_makes_classify_inconclusive(tmp_path, capsys):
    path = tmp_path / "bad-aux.prob"
    path.write_text(BAD_AUX)
    records, failed = run_corpus(tmp_path)
    assert failed
    assert [(r.check, r.verdict) for r in records] == [
        ("classify X2 chart1", "inconclusive"), ("pushforward X2 chart1", "fail"),
        ("symmetry X2", "fail")]
    verdict = f"inconclusive witness={BAD_AUX_WHY} by push-forward failed"
    assert records[0].computed == verdict
    assert records[1].computed == f"error: {BAD_AUX_WHY}"
    rc = main(["classify", "--problem", str(path), "--field", "X2", "--chart", "chart1"])
    assert rc == 0
    assert capsys.readouterr().out == f"X2 / chart1: {verdict}\n"


def test_unexpected_inconclusive_is_neither_passed_nor_failed(tmp_path, capsys):
    (tmp_path / "bad-aux.prob").write_text(BAD_AUX.split("[expect pushforward")[0])
    rc = main(["run-corpus", str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0].startswith("[INCONCL] bad-aux: classify X2 chart1")
    assert lines[1:] == ["1 checks: 0 passed, 0 discrepancy-documented, "
                         "1 inconclusive, 0 failed"]


# laplace-5d's gradient reduction: the reduced equation and its ten
# integrability conditions; SIX holds the first six of them.
LAPLACE_5D = load_problem(corpus_dir() / "laplace-5d.prob").gradient_reduction("u", ()).system
SIX = DESystem.build(LAPLACE_5D.space, LAPLACE_5D.equations[:6])


@pytest.mark.parametrize("order", [(5, 4, 3, 2, 1, 0), (3, 0, 5, 1, 4, 2)],
                         ids=["reversed", "shuffled"])
def test_systems_match_compares_each_pair_once(monkeypatch, order):
    calls = _calls(monkeypatch, "equation_matches", corpus)
    assert systems_match(SIX, [SIX.equations[i] for i in order])
    assert len(calls) <= 6 ** 2 and len(set(calls)) == len(calls)


def test_systems_match_needs_a_one_to_one_pairing(monkeypatch):
    calls = _calls(monkeypatch, "equation_matches", corpus)
    doubled = list(reversed(SIX.equations))
    doubled[0] = doubled[1]  # every expected equation matches, one of them twice
    assert not systems_match(SIX, doubled)
    assert len(calls) <= 6 ** 2


def _cross_tests(monkeypatch) -> list:
    """For each later ``equation_matches`` call, its arguments and the number
    of ``equiv`` calls it makes that are not ``is_zero`` calls: its cross
    tests, with the ``equiv`` it falls back to."""
    equivs = _calls(monkeypatch, "equiv", equiv_module)
    zeros = _calls(monkeypatch, "is_zero", equiv_module)
    pairs, orig = [], corpus.equation_matches

    def counted(*args):
        before = len(equivs) - len(zeros)
        result = orig(*args)
        pairs.append((args, len(equivs) - len(zeros) - before))
        return result

    monkeypatch.setattr(corpus, "equation_matches", counted)
    return pairs


def test_each_pair_is_decided_by_one_cross_test(monkeypatch):
    pf = load_problem(corpus_dir() / "power-diffusion-gradient.prob")
    system = pf.transformed("further")
    exp = next(e for e in pf.expects if e.op == "transform" and "further" in e.args)
    expected = [_parse_equation(system.space, line) for line in exp.equations]
    pairs = _cross_tests(monkeypatch)
    assert systems_match(system, expected)
    assert pairs and all(n <= 1 for _, n in pairs)
    assert {args[2] for args, _ in pairs} == set(system.leads) == {"s1_1", "s1_2"}


ODE = JetSpace(("x",), ("y",), 2)


def test_different_solved_forms_fail_after_one_cross_test(monkeypatch):
    pairs = _cross_tests(monkeypatch)
    eqA, eqB = ODE.expr("x*y'' + y' - y"), ODE.expr("2*x*y'' + 2*y' + y")
    assert not corpus.equation_matches(eqA, eqB, "y''")
    assert pairs == [((eqA, eqB, "y''"), 1)]


def test_coefficient_zero_as_a_function_does_not_decide(monkeypatch):
    # Both equations are affine in the lead y'' with the coefficient
    # sin(x)^2 + cos(x)^2 - 1, zero everywhere although not structurally:
    # its cross test would call any two such equations equal.  The walk
    # moves on to y', whose cross test tells y' from y' + y.
    zeros = _calls(monkeypatch, "is_zero", equiv_module)
    pairs = _cross_tests(monkeypatch)
    eqA = ODE.expr("(sin(x)^2 + cos(x)^2 - 1)*y'' + y'")
    eqB = ODE.expr("(sin(x)^2 + cos(x)^2 - 1)*y'' + y' + y")
    assert not corpus.equation_matches(eqA, eqB, "y''")
    assert pairs == [((eqA, eqB, "y''"), 1)]
    assert zeros[0] == (ODE.expr("sin(x)^2 + cos(x)^2 - 1"),)
    assert corpus.equation_matches(eqA, ODE.expr("(sin(x)^2 + cos(x)^2 - 1)*y'' + 3*y'"), "y''")


def test_order_zero_system_pairs_without_a_lead(monkeypatch):
    # An algebraic system has no leads: its equations are walked in sorted
    # order, and a pair that no variable decides falls back to equiv.
    pf = load_problem(corpus_dir() / "two-scalings-reduced.prob")
    system = pf.lie_reduction("further", ["omega"]).system
    assert system.order == 0 and system.leads == ()
    pairs = _cross_tests(monkeypatch)
    assert systems_match(system, [_parse_equation(system.space, "1 + R*(1-R)*omega = 0")])
    assert [(args[2], n) for args, n in pairs] == [(None, 1)]
    pairs.clear()
    unaffine = DESystem(system.space, (system.space.expr("sin(omega)^2 + cos(omega)^2 - R^2"),),
                        (), ())
    assert systems_match(unaffine, [system.space.expr("1 - R^2")])
    assert not systems_match(unaffine, [system.space.expr("2 - R^2")])
    assert [(args[2], n) for args, n in pairs] == [(None, 1), (None, 1)]


def test_reversed_expected_system_passes(tmp_path, capsys):
    text = (corpus_dir() / "laplace-5d.prob").read_text()
    text += "".join(f"equation = {render(e)}\n" for e in reversed(LAPLACE_5D.equations))
    (tmp_path / "laplace-5d.prob").write_text(text)
    rc = main(["run-corpus", str(tmp_path)])
    assert rc == 0
    assert "[PASS] laplace-5d: reduce-pde u" in capsys.readouterr().out


def test_advice_either_order(tmp_path):
    # A and B commute, so either order works: `first = either` passes, and
    # naming one of them fails with the computed advice.
    (tmp_path / "either.prob").write_text(
        "[space]\nindependent = x\ndependent = y\norder = 1\n[equations]\ny' = 0\n"
        "[field A]\nx = 1\n[field B]\ny = 1\n"
        "[expect advice A B]\ntag = oracle\nfirst = either\n"
        "[expect advice A B]\ntag = oracle\nfirst = A\n")
    records, _ = run_corpus(tmp_path)
    assert [(r.verdict, r.computed) for r in records] == [
        ("pass", "either"),
        ("fail", "[A,B] = 0: either order works; both directions inherit a point symmetry")]


# Each check is decided as expected, and a value it reports holds a constant
# past the interpreter's limit on int digits: the report writes the constant
# in chunks that parse back to it ({c} below), and the verdict stands.
TOO_LONG = {
    "symmetry": ("[space]\nindependent = x\ndependent = y\norder = 2\n"
                 "[equations]\ny'' = 3^19683*y\n[field X]\nx = x\ny = y\n"
                 "[expect symmetry X]\ntag = oracle\nverdict = not-symmetry\n",
                 "2*3^19683", "not-symmetry (residual -{c}*y)"),
    "commutator": ("[space]\nindependent = x\ndependent = y\norder = 1\n"
                   "[equations]\ny' = 0\n[field A]\nx = 1\n[field B]\nx = 3^20000*x\n"
                   "[expect commutator A B]\ntag = oracle\nresult = 3^20000*A\n",
                   "3^20000", "{c}*A"),
    "lift": ("[space]\nindependent = x\ndependent = alpha\norder = 1\n"
             "[parent]\nindependent = x\ndependent = y\norder = 2\nkind = ode\n"
             "target = y\naux = alpha\n"
             "[equations]\nalpha' = 0\n[field Y]\nalpha = 3^20000*alpha^2\n"
             "[expect lift Y]\ntag = oracle\nverdict = nonlocal\n",
             "3^20000", "nonlocal witness={c}*alpha^2 by matching system inconsistent: "
                        "quadratic row unmatched"),
}


@pytest.mark.parametrize("op", sorted(TOO_LONG))
def test_value_too_long_to_render_does_not_fail_a_decided_check(tmp_path, op):
    text, constant, computed = TOO_LONG[op]
    c = render(parse_expr(constant))
    assert c.startswith("(") and parse_expr(c) == parse_expr(constant)
    (tmp_path / "big.prob").write_text(text)
    records, failed = run_corpus(tmp_path)
    assert not failed
    assert [(r.verdict, r.computed) for r in records] == [("pass", computed.replace("{c}", c))]
